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
Omega = [[0, 1], [-1, 0]]) and ``expm`` runs in real arithmetic.  Since
G_swap = T T^T and Q T = sqrt(2) [Re L, -Im L], the covariance is

    C = M M^T,    M = [Re L, -Im L] S,

with no complex product at all.  The left block of Q B is M_x - i M_p, so the
factor E = (A + i 1) e^{i Theta} X + (A - i 1) e^{-i Theta} conj(Y) equals
-M_x + i M_p and C = E E^dagger whenever the pair (X, Y) obeys the
bosonic-commutation conditions; the imaginary part of E E^dagger,
M_x M_p^T - M_p M_x^T, is the realness residual.  The blocks come back as
X = ((S_xx + S_pp) + i (S_px - S_xp)) / 2 and
Y = ((S_xx - S_pp) + i (S_px + S_xp)) / 2.

The path never touches the eigenpairs of P that the interaction matrix
carries for the closed form; the only spectral call is its own eigenvalue
bound on z * lambda_max.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import DimensionMismatch, OracleMismatch
from .graphs import adjacency_matrix, nullifier_map, phase_vector
from .matfun import as_complex_matrix, max_abs, symmetry_defect
from .synthesis import (
    BogoliubovPair,
    CovarianceReport,
    InteractionMatrix,
    check_squeeze_budget,
    covariance_closed_form,
    interaction_from_cluster,
    resolve_gauge,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class SweepPoint(NamedTuple):
    """One row of a convergence sweep."""

    z: float
    max_abs: float
    frobenius: float


def swap_form(n: int) -> np.ndarray:
    """2N x 2N block-swap matrix [[0, 1], [1, 0]] = T T^T; squares to 1."""
    if n <= 0:
        raise ValueError("mode count must be positive")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [eye, zero]])


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


def quadrature_flow(
    zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Real symplectic 2N x 2N flow S = exp(K) by scaling and squaring."""
    strengths = np.linalg.eigvalsh((zm.P + zm.P.conj().T) / 2.0)
    check_squeeze_budget(float(strengths[-1]), z, tol)
    return expm(quadrature_generator(zm.Z, z))


def bogoliubov_matrix(
    zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Full 2N x 2N Bogoliubov matrix B = T S T^-1 = [[X, Y], [Y*, X*]]."""
    pair = bogoliubov_oracle(zm, z, tol)
    return np.block([[pair.X, pair.Y], [pair.Y.conj(), pair.X.conj()]])


def bogoliubov_oracle(
    zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> BogoliubovPair:
    """Bogoliubov blocks read off the real flow S = exp(K).

    The lower block row of B is the entrywise conjugate of the upper one,
    so (X, Y) carry the whole matrix.
    """
    s = quadrature_flow(zm, z, tol)
    n = zm.n
    sxx, sxp = s[:n, :n], s[:n, n:]
    spx, spp = s[n:, :n], s[n:, n:]
    return BogoliubovPair(
        X=0.5 * ((sxx + spp) + 1j * (spx - sxp)),
        Y=0.5 * ((sxx - spp) + 1j * (spx + sxp)),
    )


def _covariance_from_flow(
    A, theta, s: np.ndarray, tol: Tolerances
) -> CovarianceReport:
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    n = a.shape[0]
    if s.shape != (2 * n, 2 * n):
        raise DimensionMismatch(
            f"Bogoliubov matrix shape {s.shape} does not match {n} modes"
        )
    left = nullifier_map(a, th, tol)[:, :n]
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


def covariance_from_pair(
    A, theta, pair: BogoliubovPair, tol: Tolerances = DEFAULT_TOLERANCES
) -> CovarianceReport:
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
    return _covariance_from_flow(A, theta, s, tol)


def covariance_oracle(
    A, theta, zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> CovarianceReport:
    """Nullifier covariance from the exponentiated generator.

    For inputs where the structure factor of Z matches the cluster (A,
    Theta), the result agrees with the closed form within the oracle
    tolerance; otherwise the covariance does not decay with z.
    """
    a = adjacency_matrix(A, tol)
    if a.shape[0] != zm.n:
        raise DimensionMismatch(
            f"graph has {a.shape[0]} modes, interaction has {zm.n}"
        )
    return _covariance_from_flow(a, theta, quadrature_flow(zm, z, tol), tol)


def convergence_sweep(
    A,
    theta,
    gauge,
    z_values: Sequence[float],
    tol: Tolerances = DEFAULT_TOLERANCES,
    cross_check: bool = True,
) -> list[SweepPoint]:
    """Closed-form covariance norms over an ascending list of scales.

    Realizes the infinite-squeezing limit as a finite sweep: for a valid
    gauge the max-entry norm decreases strictly in z.  The first and last
    rows are cross-checked against the brute-force path; disagreement
    beyond the oracle tolerance raises :class:`OracleMismatch`.
    """
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be non-empty")
    if any(not (np.isfinite(z) and z > 0) for z in zs):
        raise ValueError("z values must be positive and finite")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z values must be strictly ascending")
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    rows = []
    for z in zs:
        zm = interaction_from_cluster(a, th, resolve_gauge(gauge, a, th, z, tol), tol)
        closed = covariance_closed_form(a, th, zm, z, tol)
        rows.append(
            SweepPoint(z=z, max_abs=closed.max_abs, frobenius=closed.frobenius)
        )
        # Checked while this row's interaction is alive: no endpoint is kept.
        if cross_check and z in (zs[0], zs[-1]):
            gap = max_abs(closed.C - covariance_oracle(a, th, zm, z, tol).C)
            if gap > tol.oracle * (1.0 + closed.max_abs):
                raise OracleMismatch(
                    f"closed-form and brute-force covariances differ by "
                    f"{gap:.3e} at z = {z}"
                )
    return rows
