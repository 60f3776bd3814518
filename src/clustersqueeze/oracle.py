"""Brute-force verification path for the nullifier covariance.

Independent of the eigendecomposition-based synthesis route, this module
takes the generator of the mode-operator flow, written as a real 2N x 2N
matrix in the quadrature basis, and evaluates the covariance from first
principles through its eigendecomposition.

Generator derivation.  The squeezing unitary is

    U_sq = exp(-i (z/2) sum_jk [Z_jk b_j^dag b_k^dag + conj(Z)_jk b_j b_k]),

with Z complex symmetric.  Writing H for the exponent's Hermitian generator
and using [b_j, b_k^dag b_l^dag] = delta_jk b_l^dag + delta_jl b_k^dag
(plus its conjugate), the Heisenberg flow of the stacked vector
b = (b_1..b_N, b_1^dag..b_N^dag) is linear:

    d/dt e^{i t H} b_j e^{-i t H} = -i z (Z b^dag)_j,
    d/dt e^{i t H} b_j^dag e^{-i t H} = +i z (conj(Z) b)_j,

where Z = Z^T merges the two delta terms.  Hence U_sq^dag b U_sq = B b with

    B = exp(G),    G = [[0, -i z Z], [i z conj(Z), 0]].

Over the vacuum, <0| (b b^T + (b b^T)^T) / 2 |0> is half the block-swap
matrix G_swap, so the covariance of the nullifier map Q = [L, conj(L)],
L = -(A + i 1) e^{i Theta}, is C = (1/2) Q B G_swap B^T Q^T.

Quadrature basis.  With x = (b + b^dag)/sqrt(2), p = (b - b^dag)/(i sqrt(2))
the stacked vectors are related by (b, b^dag) = T (x, p) with the unitary

    T = (1/sqrt(2)) [[1, i 1], [1, -i 1]].

The flow becomes S = T^-1 B T = exp(K) with the real generator

    K = T^-1 G T = z [[Im Z, -Re Z], [-Re Z, -Im Z]],

so S is a real symplectic matrix (S Omega S^T = Omega for
Omega = [[0, 1], [-1, 0]]).  Since G_swap = T T^T and
Q T = sqrt(2) [Re L, -Im L], the covariance is

    C = M M^T,    M = [Re L, -Im L] S,

with no complex product at all.

Spectral flow.  The Hamiltonian sees only the symmetric part of Z, and for
Z = Z^T the generator K is real symmetric.  K is therefore built from
(Z + Z^T) / 2, and S = V diag(e^w) V^T follows from one ``eigh``
K = V diag(w) V^T in real arithmetic.  The eigenvalues of K are
+-z sigma_k(Z), and the singular values of Z = P U are the eigenvalues of P,
so the top one is the z * lambda_max that the squeeze budget bounds.

Squeezed half.  The covariance needs neither S nor M: with the nullifiers in
K's eigenbasis, G = [Re L, -Im L] V (N x 2N), C = G diag(e^{2w}) G^T exactly,
because V is orthogonal.  When Z's structure factor matches the cluster the
nullifiers have no component along the anti-squeezed half (w > 0, the last N
columns G_+), so C = H H^T with H = G_- diag(e^{w_-}) from the squeezed
columns alone.  The overlap max|G_+| is reported and checked against its
rounding budget.  The oracle compares it with the same ``oracle_overlap``
budget of a model built from its own data (the eigenvalues +-sigma(Z) of K and
an A-only bound on ||A + i||); above it the anti-squeezed half is kept, so a
mismatched Z still shows its growing covariance.  Dropping the half removes
the terms of size u e^{2 z lambda_max} that a flow of size e^{z lambda_max}
would leave in C.  K is factorized at z = 1 and its eigenvalues scaled by z,
so a sweep whose Z does not change with z factorizes K once.

The path reads only Z and the cluster's A and Theta: never P, the eigenpairs
of P that the closed form reads, or the cluster plan's eigh(A) and U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, OracleMismatch
from .matfun import as_complex_matrix, max_abs
from .synthesis import (
    ClusterPlan,
    CovarianceReport,
    InteractionMatrix,
    _frame_covariance,
    _nullifier_frame,
    check_squeeze_budget,
)
from .tolerances import ErrorModel


@dataclass(frozen=True)
class OracleReport(CovarianceReport):
    """Brute-force covariance with ``overlap``, the largest entry of G_+.

    ``H`` (and ``E``, the same array) is the real factor of C = H H^T: N x N
    when the anti-squeezed half is left out, N x 2N when it is kept.  H is
    real, so ``imag_residual`` is zero.
    """

    overlap: float = field(kw_only=True)


class SweepPoint(NamedTuple):
    """One row of a convergence sweep."""

    z: float
    max_abs: float
    frobenius: float


def quadrature_generator(Z, z: float) -> np.ndarray:
    """Real generator K = T^-1 G T of the quadrature flow, built blockwise."""
    zm = as_complex_matrix(Z)
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    re = z * zm.real
    im = z * zm.imag
    return np.block([[im, -re], [-re, -im]])


def _generator_eigh(zm: InteractionMatrix, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with K = V diag(w) V^T for the symmetric part of Z, w ascending."""
    return np.linalg.eigh(quadrature_generator((zm.Z + zm.Z.T) / 2.0, z))


class _Spectrum(NamedTuple):
    """K's eigenvalues w at z = 1, the columns of G that C keeps, and the
    overlap max|G_+|."""

    w: np.ndarray
    g: np.ndarray
    overlap: float


def _unit_spectrum(cluster: ClusterPlan, zm: InteractionMatrix) -> _Spectrum:
    """Eigenvalues w of K at z = 1 and the nullifiers G = [Re L, -Im L] V
    in its eigenbasis, without the anti-squeezed half G_+ when its largest
    entry is within the oracle's own ``oracle_overlap`` budget.

    With L = -(A + i 1) e^{i Theta}, c = cos Theta and s = sin Theta on the
    rows of V = [V_x; V_p], G = A (s V_p - c V_x) + (s V_x + c V_p): one real
    product with A.  Neither the overlap nor its budget depends on z.
    """
    n = cluster.A.shape[0]
    if n != zm.n:
        raise DimensionMismatch(f"graph has {n} modes, interaction has {zm.n}")
    w, v = _generator_eigh(zm, 1.0)
    c, s = np.cos(cluster.theta)[:, None], np.sin(cluster.theta)[:, None]
    vx, vp = v[:n], v[n:]
    g = cluster.A @ (s * vp - c * vx) + (s * vx + c * vp)
    overlap = max_abs(g[:, n:])
    if overlap <= ErrorModel.for_generator(cluster.A, w).budget("oracle_overlap"):
        g = g[:, :n]
    return _Spectrum(w, g, overlap)


def _oracle_from_spectrum(spectrum: _Spectrum, z: float) -> OracleReport:
    """C = H H^T at scale z with H = G e^{z w} over the kept columns."""
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    w, g, overlap = spectrum
    check_squeeze_budget(float(w[-1]), z)  # w[-1] is lambda_max
    h = g * np.exp(z * w[: g.shape[1]])[None, :]
    c = h @ h.T  # one same-buffer product (BLAS syrk): exactly symmetric
    return OracleReport(C=c, H=h, max_abs=max_abs(c), overlap=overlap)


def covariance_oracle(cluster: ClusterPlan, zm: InteractionMatrix, z: float) -> OracleReport:
    """Nullifier covariance from the eigendecomposition of the generator.

    The anti-squeezed half is left out of C when the overlap max|G_+| is
    within its rounding budget, which the oracle derives from Z and A alone.
    For inputs where the structure factor of Z matches the cluster
    (A, Theta), the result agrees with the closed form within the budget of
    :class:`ErrorModel`; otherwise the overlap exceeds its budget and the
    covariance does not decay with z.
    """
    return _oracle_from_spectrum(_unit_spectrum(cluster, zm), z)


def convergence_sweep(cluster: ClusterPlan, gauge, z_values: Sequence[float]) -> list[SweepPoint]:
    """Closed-form covariance norms over an ascending list of scales.

    Realizes the infinite-squeezing limit as a finite sweep: for a valid
    gauge the max-entry norm decreases strictly in z.  The last z, where
    z lambda_max is largest, is checked against ``z_cap`` before any other.
    The modes of every gauge are z-free, so the nullifier frame M is formed
    once and each row costs one Gram product C = H H^dagger, H = M e^{-z w};
    only the faithful strengths depend on z, and the rows read them off the
    cluster plan.  The first and last rows are cross-checked against the
    brute-force path: only they build the gauge plan (P, Z and its gate)
    and the oracle, which factorizes K once when Z does not depend on z and
    once per end row for the faithful gauge.  Disagreement beyond the budget
    of the battery's ``covariance_vs_oracle`` check raises
    :class:`OracleMismatch`.
    """
    try:
        z_last = float(z_values[-1])
    except IndexError:
        raise ValueError("z_values must be non-empty") from None
    last, _ = cluster.interaction(gauge, z_last)
    check_squeeze_budget(float(last.strengths[-1]), z_last)
    zs = [float(z) for z in z_values]
    if any(not (np.isfinite(z) and z > 0) for z in zs):
        raise ValueError("z values must be positive and finite")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z values must be strictly ascending")
    faithful = isinstance(gauge, str) and gauge == "faithful"
    ends = list(dict.fromkeys((zs[0], z_last)))
    # The end rows' oracle covariances come first, so that the order-2N eigh
    # runs before the frame or any row's C is held; only their C stay.
    if faithful:  # Z depends on z: each end row plans its own gauge and K
        oracles = {}
        for z in ends:
            zm = last if z == z_last else cluster.interaction(gauge, z)[0]
            oracles |= _oracle_rows(cluster, zm, [z])
    else:
        oracles = _oracle_rows(cluster, last, ends)
    frame, rows = _nullifier_frame(cluster, last.modes), []
    for z in zs:
        strengths = cluster.faithful_strengths(z) if faithful else last.strengths
        closed = _frame_covariance(frame, strengths, z)
        rows.append(SweepPoint(z=z, max_abs=closed.max_abs, frobenius=closed.frobenius))
        if z in oracles:
            brute, budget = oracles[z]
            gap = max_abs(closed.C - brute)
            if gap > budget:
                raise OracleMismatch(
                    f"closed-form and brute-force covariances differ by "
                    f"{gap:.3e} at z = {z}"
                )
    return rows


def _oracle_rows(
    cluster: ClusterPlan, zm: InteractionMatrix, zs: Sequence[float]
) -> dict[float, tuple[np.ndarray, float]]:
    """The oracle's C of one plan at each z of ``zs``, with the row's
    ``covariance_vs_oracle`` budget: one eigh of K serves them all."""
    spectrum = _unit_spectrum(cluster, zm)
    return {
        z: (
            _oracle_from_spectrum(spectrum, z).C,
            ErrorModel.for_cluster(cluster, zm, z).budget("covariance_vs_oracle"),
        )
        for z in zs
    }
