"""Brute-force verification path for the nullifier covariance.

Independent of the eigendecomposition-based synthesis route, this module
exponentiates the generator of the mode-operator flow, written as a real
2N x 2N matrix in the quadrature basis, and evaluates the covariance from
first principles.

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

with no complex product at all.  The left block of Q B is M_x - i M_p, so the
factor E = (A + i 1) e^{i Theta} X + (A - i 1) e^{-i Theta} conj(Y) equals
-M_x + i M_p and C = E E^dagger whenever the pair (X, Y) obeys the
bosonic-commutation conditions; the imaginary part of E E^dagger,
M_x M_p^T - M_p M_x^T, is the realness residual.  The blocks come back as
X = ((S_xx + S_pp) + i (S_px - S_xp)) / 2 and
Y = ((S_xx - S_pp) + i (S_px + S_xp)) / 2.

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

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, OracleMismatch
from .graphs import nullifier_map
from .matfun import _spectral, as_complex_matrix, max_abs, symmetry_defect
from .synthesis import (
    BogoliubovPair,
    ClusterPlan,
    CovarianceReport,
    InteractionMatrix,
    check_squeeze_budget,
    covariance_closed_form,
)
from .tolerances import ErrorModel


@dataclass(frozen=True)
class OracleReport(CovarianceReport):
    """Brute-force covariance with ``overlap``, the largest entry of G_+.

    ``E`` is the real factor H of C = H H^T: N x N when the anti-squeezed
    half is left out, N x 2N when it is kept.  H is real, so
    ``imag_residual`` is zero.
    """

    overlap: float


class SweepPoint(NamedTuple):
    """One row of a convergence sweep."""

    z: float
    max_abs: float
    frobenius: float


def squeezing_generator(Z, z: float) -> np.ndarray:
    """Generator G of the mode-operator flow (see module docstring)."""
    zm = as_complex_matrix(Z)
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    n = zm.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[zero, -1j * z * zm], [1j * z * zm.conj(), zero]])


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


def quadrature_flow(zm: InteractionMatrix, z: float) -> np.ndarray:
    """Real symplectic 2N x 2N flow S = exp(K) from one ``eigh`` of K."""
    w, v = _generator_eigh(zm, z)
    check_squeeze_budget(float(w[-1]), 1.0)  # w[-1] is z * lambda_max
    return _spectral(v, np.exp(w))


def bogoliubov_oracle(zm: InteractionMatrix, z: float) -> BogoliubovPair:
    """Bogoliubov blocks read off the real flow S = exp(K).

    The lower block row of B is the entrywise conjugate of the upper one,
    so (X, Y) carry the whole matrix.
    """
    s = quadrature_flow(zm, z)
    n = zm.n
    sxx, sxp = s[:n, :n], s[:n, n:]
    spx, spp = s[n:, :n], s[n:, n:]
    return BogoliubovPair(
        X=0.5 * ((sxx + spp) + 1j * (spx - sxp)),
        Y=0.5 * ((sxx - spp) + 1j * (spx + sxp)),
    )


def _covariance_from_flow(cluster: ClusterPlan, s: np.ndarray) -> CovarianceReport:
    n = cluster.A.shape[0]
    if s.shape != (2 * n, 2 * n):
        raise DimensionMismatch(
            f"Bogoliubov matrix shape {s.shape} does not match {n} modes"
        )
    left = nullifier_map(cluster)[:, :n]
    m = np.hstack([left.real, -left.imag]) @ s
    # Computed exactly as written; symmetrization happens only in reporting
    # and the discarded asymmetry is recorded as a residual.
    raw = m @ m.T
    mx, mp = m[:, :n], m[:, n:]
    cross = mx @ mp.T
    c = (raw + raw.T) / 2.0
    return CovarianceReport(
        C=c,
        E=-mx + 1j * mp,
        max_abs=max_abs(c),
        imag_residual=symmetry_defect(cross),
        asym_residual=symmetry_defect(raw),
    )


def covariance_from_pair(cluster: ClusterPlan, pair: BogoliubovPair) -> CovarianceReport:
    """Covariance of the nullifiers under an explicit Bogoliubov pair.

    The pair is taken as given, without validating the commutation
    conditions: feeding a pair built from a gauge factor violating the
    reality condition makes ``imag_residual`` blow up, which is exactly the
    diagnostic this entry point exists for.  Any pair of the
    [[X, Y], [Y*, X*]] form has a real quadrature flow, so nothing is lost
    by going through S.
    """
    x, y = pair.X, pair.Y
    s = np.block(
        [[(x + y).real, (y - x).imag], [(x + y).imag, (x - y).real]]
    )
    return _covariance_from_flow(cluster, s)


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
    raw = h @ h.T
    c = (raw + raw.T) / 2.0
    return OracleReport(
        C=c,
        E=h,
        max_abs=max_abs(c),
        imag_residual=0.0,
        asym_residual=symmetry_defect(raw),
        overlap=overlap,
    )


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
    gauge the max-entry norm decreases strictly in z.  The cluster plan
    serves every row; only the faithful gauge's interaction depends on z.  The
    first and last rows are cross-checked against the brute-force path, which
    factorizes K once when Z does not depend on z and once per checked row
    for the faithful gauge; disagreement beyond the budget of the battery's
    ``covariance_vs_oracle`` check raises :class:`OracleMismatch`.
    """
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be non-empty")
    if any(not (np.isfinite(z) and z > 0) for z in zs):
        raise ValueError("z values must be positive and finite")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z values must be strictly ascending")
    per_row = isinstance(gauge, str) and gauge == "faithful"
    zm, spectrum, rows = None, None, []
    for z in zs:
        if zm is None or per_row:
            zm, _ = cluster.interaction(gauge, z)
            spectrum = None
        closed = covariance_closed_form(cluster, zm, z)
        rows.append(
            SweepPoint(z=z, max_abs=closed.max_abs, frobenius=closed.frobenius)
        )
        if z in (zs[0], zs[-1]):
            if spectrum is None:
                spectrum = _unit_spectrum(cluster, zm)
            gap = max_abs(closed.C - _oracle_from_spectrum(spectrum, z).C)
            if gap > ErrorModel.for_cluster(cluster, zm, z).budget("covariance_vs_oracle"):
                raise OracleMismatch(
                    f"closed-form and brute-force covariances differ by "
                    f"{gap:.3e} at z = {z}"
                )
    return rows
