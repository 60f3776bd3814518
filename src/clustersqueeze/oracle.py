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
would leave in C.  K is built and factorized at z = 1
(:func:`quadrature_generator`) and its eigenvalues scaled by z, so one
factorization serves every z of a Z that does not change with z.  The
record's z met the squeeze budget where it was made: the oracle judges none.

The path reads only Z, z and the cluster's A and Theta: never P, the eigenpairs
of P that the closed form reads, or the cluster plan's eigh(A) and U.  From
``synthesis`` it imports only those two record types; its report is its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .matfun import as_complex_matrix, max_abs
from .synthesis import ClusterPlan, InteractionMatrix
from .tolerances import ErrorModel


@dataclass(frozen=True)
class OracleReport:
    """Brute-force covariance C = H H^T, its largest entry ``max_abs`` and
    ``overlap``, the largest entry of G_+.  ``H`` is real: N x N when the
    anti-squeezed half is left out, N x 2N when it is kept."""

    C: np.ndarray
    H: np.ndarray
    max_abs: float
    overlap: float


def quadrature_generator(Z) -> np.ndarray:
    """Real generator K = T^-1 G T of the quadrature flow at z = 1, its
    blocks filled in place; the flow at scale z is exp(z K)."""
    m = as_complex_matrix(Z)
    n = m.shape[0]
    k = np.empty((2 * n, 2 * n))
    k[:n, :n], k[n:, n:] = m.imag, -m.imag
    k[:n, n:] = k[n:, :n] = -m.real
    return k


def _generator_eigh(zm: InteractionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with K = V diag(w) V^T at z = 1 for the symmetric part of Z, w ascending."""
    return np.linalg.eigh(quadrature_generator((zm.Z + zm.Z.T) / 2.0))


def covariance_oracle(cluster: ClusterPlan, zm: InteractionMatrix) -> OracleReport:
    """Nullifier covariance at the record's z from one eigh of the generator.

    The anti-squeezed half is left out of C when the overlap max|G_+| is
    within its rounding budget, which the oracle derives from Z and A alone.
    For inputs where the structure factor of Z matches the cluster
    (A, Theta), the result agrees with the closed form within the budget of
    :class:`ErrorModel`; otherwise the overlap exceeds its budget and the
    covariance does not decay with z.
    """
    return _covariance_oracles(cluster, zm, [zm.z])[0]


def _covariance_oracles(
    cluster: ClusterPlan, zm: InteractionMatrix, zs: Sequence[float]
) -> list[OracleReport]:
    """:func:`covariance_oracle` at each z of ``zs`` (0 < z <= zm.z), from one eigh of K.

    K is factorized at z = 1 into its eigenvalues w and the nullifiers
    G = [Re L, -Im L] V in its eigenbasis, without the anti-squeezed half
    G_+ when its largest entry is within the oracle's own ``oracle_overlap``
    budget; neither the overlap nor its budget depends on z.  With
    L = -(A + i 1) e^{i Theta}, c = cos Theta and s = sin Theta on the rows
    of V = [V_x; V_p], G = A (s V_p - c V_x) + (s V_x + c V_p): one real
    product with A.  Each z then gives C = H H^T with H = G e^{z w} over the
    kept columns.
    """
    n = cluster.A.shape[0]
    if n != zm.n:
        raise DimensionMismatch(f"graph has {n} modes, interaction has {zm.n}")
    w, v = _generator_eigh(zm)
    c, s = np.cos(cluster.theta)[:, None], np.sin(cluster.theta)[:, None]
    vx, vp = v[:n], v[n:]
    g = cluster.A @ (s * vp - c * vx) + (s * vx + c * vp)
    overlap = max_abs(g[:, n:])
    if overlap <= ErrorModel.for_generator(cluster.A, w).budget("oracle_overlap"):
        g = g[:, :n]
    reports = []
    for z in zs:
        h = g * np.exp(z * w[: g.shape[1]])[None, :]
        cov = h @ h.T  # one same-buffer product (BLAS syrk): exactly symmetric
        reports.append(OracleReport(C=cov, H=h, max_abs=max_abs(cov), overlap=overlap))
    return reports
