"""Interferometer reduction of a multi-mode squeezing transformation.

Any Bogoliubov pair factorizes as X = V cosh(z D) W^dagger and
Y = V sinh(z D) W^T with V, W unitary and D the diagonal of squeezer
strengths.  For a squeezing transformation with interaction matrix Z = P U
the factors follow from the eigendecomposition P = T^dagger D T, which the
interaction matrix already carries (``strengths``, ``modes``), and a
balancing unitary R obtained from the Autonne-Takagi factorization of
-i T U T^T:

    V = T^dagger R,    W = -i U T^T conj(R),    D = eigenvalues of P.

The structure factor is recovered from the interferometer alone through
U = i V V^T, which holds for every admissible choice of the factors.

A unitary V describes a cluster with adjacency A (at phases Theta) exactly
when (A + i 1) e^{i Theta} V + (A - i 1) e^{-i Theta} conj(V) = 0; writing
e^{i Theta} V = V_r + i V_i this is V_i = A V_r.  All solutions are
V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O with O real orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotOrthogonal, NotUnitary
from .matfun import (
    _principal_angles,
    as_complex_matrix,
    max_abs,
    phase_fixed_columns,
    spectrum_clusters,
    takagi_symmetric_unitary,
)
from .synthesis import ClusterPlan, InteractionMatrix, check_squeeze_budget
from .tolerances import DEFAULT_TOLERANCES


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Interferometer-squeezer-interferometer factors at a fixed scale z.

    ``D`` holds the per-mode squeezer strengths in ascending order, so the
    squeezing blocks are cosh(z D) and sinh(z D).  ``T`` diagonalizes the
    strength factor P and ``R`` is the balancing unitary; the factors are
    not unique, so consumers must check them through residuals only.
    ``gap`` and ``spread`` are the smallest eigen-gap the reduction resolved
    and the widest group it treated as degenerate (strengths and balancing
    blocks, relative to their scale); they bound how well X and Y rebuild.
    """

    V: np.ndarray
    W: np.ndarray
    D: np.ndarray
    R: np.ndarray
    T: np.ndarray
    z: float
    gap: float
    spread: float

    @property
    def decibels(self) -> np.ndarray:
        """Squeezing of each single-mode squeezer in dB."""
        return 20.0 * self.z * self.D / math.log(10.0)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Bogoliubov blocks (X, Y) rebuilt from the factors."""
        x = (self.V * np.cosh(self.z * self.D)[None, :]) @ self.W.conj().T
        y = (self.V * np.sinh(self.z * self.D)[None, :]) @ self.W.T
        return x, y


def bloch_messiah(zm: InteractionMatrix, z: float) -> BlochMessiahFactors:
    """Reduce a squeezing transformation to squeezers plus interferometers.

    The balancing factorization is applied blockwise per degenerate group of
    squeezer strengths: -i T U T^T commutes with D for a symmetric Z, so it
    is block-diagonal in T's basis, and a blockwise R is guaranteed to
    commute with cosh(z D) even when eigenvalues of the structure factor
    coincide across distinct strengths.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    w, v = zm.strengths, phase_fixed_columns(zm.modes)
    check_squeeze_budget(float(w[-1]), z)
    n = zm.n
    # -i T U T^T is block-diagonal, so only its diagonal blocks are formed,
    # from U conj(T^dagger), which W reuses
    uv = zm.U @ v.conj()
    r = np.zeros((n, n), dtype=complex)
    v_factor = np.empty_like(v, dtype=complex)
    w_factor = np.empty_like(uv)
    degeneracy = DEFAULT_TOLERANCES.degeneracy
    scale = max(1.0, float(w[-1]))
    groups = spectrum_clusters(w, degeneracy * scale)
    gap, spread = _grouping(w, groups, scale)
    singles = [g[0] for g in groups if len(g) == 1]
    if singles:
        # A 1 x 1 block s is its own Takagi factorization, R = e^{i arg(s)/2}
        # on the angle branch of symmetric_unitary_angles; it resolves no
        # eigen-gap and groups nothing, so gap and spread stay as they are.
        s = (-1j * np.sum(v.conj() * uv, axis=0))[singles]  # diagonal of -i T U T^T
        defect = np.abs(s * s.conj() - 1.0)
        if np.max(defect) > DEFAULT_TOLERANCES.rtol:
            raise NotUnitary(f"unitarity defect {np.max(defect):.3e} exceeds tolerance")
        r_singles = np.exp(0.5j * _principal_angles(s))
        r[singles, singles] = r_singles
        v_factor[:, singles] = v[:, singles] * r_singles[None, :]
        w_factor[:, singles] = -1j * uv[:, singles] * r_singles.conj()[None, :]
    for group in (slice(g[0], g[-1] + 1) for g in groups if len(g) > 1):
        block = takagi_symmetric_unitary(-1j * v[:, group].conj().T @ uv[:, group])
        r[group, group] = block
        v_factor[:, group] = v[:, group] @ block
        w_factor[:, group] = -1j * uv[:, group] @ block.conj()
        # The block's Re(S) has eigenvalues cos L, and R R^T = Q e^{i L} Q^T
        # with Q real, so each column of R squares to e^{i L}.
        cos = np.sort(np.sum(block * block, axis=0).real)
        block_gap, block_spread = _grouping(cos, spectrum_clusters(cos, degeneracy), 1.0)
        gap, spread = min(gap, block_gap), max(spread, block_spread)
    return BlochMessiahFactors(
        V=v_factor, W=w_factor, D=w, R=r, T=v.conj().T, z=float(z), gap=gap, spread=spread
    )


def _grouping(values, groups, scale: float) -> tuple[float, float]:
    """Smallest gap between and widest spread within ``groups`` of ascending
    ``values``, relative to ``scale``."""
    gaps = [values[g[0]] - values[g[0] - 1] for g in groups[1:]]
    spread = max(values[g[-1]] - values[g[0]] for g in groups)
    return float(min(gaps, default=math.inf)) / scale, float(spread) / scale


def canonical_cluster_interferometer(cluster: ClusterPlan, O) -> np.ndarray:
    """Interferometer V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O.

    O is a free real orthogonal seed; every choice yields a unitary V
    satisfying the cluster condition for (A, Theta).  In the plan's frame
    F = e^{-i Theta} Q: V = F diag((1 + i lam)/|1 + i lam|) F^T e^{i Theta} O.
    """
    a = cluster.A
    o = np.asarray(O, dtype=float)
    if np.iscomplexobj(O) and max_abs(np.asarray(O).imag) > DEFAULT_TOLERANCES.orthogonal:
        raise NotOrthogonal("seed must be a real matrix")
    if o.shape != a.shape:
        raise ValueError("seed shape does not match the graph")
    if max_abs(o @ o.T - np.eye(a.shape[0])) > DEFAULT_TOLERANCES.orthogonal:
        raise NotOrthogonal(
            f"seed orthogonality defect {max_abs(o @ o.T - np.eye(a.shape[0])):.3e}"
        )
    lam, f = cluster.eigenvalues, cluster.frame
    rotation = (1.0 + 1j * lam) / np.sqrt(lam * lam + 1.0)
    return (f * rotation[None, :]) @ (f.T @ (np.exp(1j * cluster.theta)[:, None] * o))


def cluster_condition_residual(V, cluster: ClusterPlan) -> float:
    """Max-entry modulus of (A + i 1) e^{i Theta} V + (A - i 1) e^{-i Theta} V*.

    Zero exactly when V is an interferometer generating the cluster (A,
    Theta); equivalently V_i = A V_r for e^{i Theta} V = V_r + i V_i.
    """
    a = cluster.A
    v = as_complex_matrix(V)
    if v.shape != a.shape:
        raise ValueError("interferometer shape does not match the graph")
    # with M = e^{i Theta} V the sum is (A + i) M + (A - i) conj(M), which is
    # 2 (A Re M - Im M): real, from one real product
    m = np.exp(1j * cluster.theta)[:, None] * v
    return max_abs(2.0 * (a @ m.real - m.imag))


def unitary_from_interferometer(V) -> np.ndarray:
    """Structure factor U = i V V^T of a general Gaussian transformation.

    Invariant under V -> V O for real orthogonal O, so it is well defined on
    the whole orbit of admissible interferometers.
    """
    v = as_complex_matrix(V)
    u = 1j * v @ v.T
    return (u + u.T) / 2.0
