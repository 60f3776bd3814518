"""Interferometer reduction of a multi-mode squeezing transformation.

Any Bogoliubov pair factorizes as X = V cosh(z D) V^dagger and
Y = V sinh(z D) V^T with V unitary and D the diagonal of squeezer
strengths.  For a squeezing transformation with interaction matrix Z = P U
the factors follow from the eigendecomposition P = T^dagger D T, which the
interaction matrix already carries (``strengths``, ``modes``), and a
balancing unitary R obtained from the Autonne-Takagi factorization of
-i T U T^T, one per group of equal strengths:

    V = T^dagger R,    D = eigenvalues of P.

The structure factor is recovered from the interferometer alone through
U = i V V^T, which holds for every admissible choice of the factors;
``verify`` checks it as the ``interferometer_identity`` row.  It makes the
second interferometer -i U T^T conj(R) equal to V, so V is the only one.

A unitary V describes a cluster with adjacency A (at phases Theta) exactly
when (A + i 1) e^{i Theta} V + (A - i 1) e^{-i Theta} conj(V) = 0; writing
e^{i Theta} V = V_r + i V_i this is V_i = A V_r.  All solutions are
V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O with O real orthogonal.  For
the built-in gauges P is diagonal in the cluster plan's frame
F = e^{-i Theta} Q, so T = F^dagger and R = diag(``rotation``) give the
member O = Q; otherwise each group's R is read off the plan its block encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import takagi_symmetric_unitary
from .errors import NotOrthogonal
from .matfun import as_complex_matrix, half_phase, max_abs, phase_fixed_columns
from .synthesis import ClusterPlan, InteractionMatrix, check_squeeze_budget
from .tolerances import DEFAULT_TOLERANCES


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Interferometer-squeezer-interferometer factors at a fixed scale z.

    ``D`` holds the per-mode squeezer strengths in ascending order, so the
    squeezing blocks are cosh(z D) and sinh(z D).  ``T`` diagonalizes the
    strength factor P and ``R`` is the balancing unitary; the factors are
    not unique, so consumers must check them through residuals only.
    ``gap`` is the smallest gap between groups of strengths, or the Cayley
    margin 2 sin(pi / 4 n_g) of the Takagi of a group of n_g > 1 modes if
    smaller, and ``spread`` the widest group treated as degenerate (strengths
    relative to their scale); they bound how well X and Y rebuild.
    """

    V: np.ndarray
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
        x = (self.V * np.cosh(self.z * self.D)[None, :]) @ self.V.conj().T
        y = (self.V * np.sinh(self.z * self.D)[None, :]) @ self.V.T
        return x, y


def bloch_messiah(
    zm: InteractionMatrix, z: float, cluster: ClusterPlan | None = None
) -> BlochMessiahFactors:
    """Reduce a squeezing transformation to squeezers plus interferometers.

    ``cluster`` is the plan whose built-in gauge planned ``zm``: its frame
    and rotation, in the order of the strengths, give T = F^dagger and the
    diagonal R = diag(rotation), which resolve no group.  Without
    it (a custom gauge, or Z alone) the balancing factorization is applied
    blockwise per degenerate group of squeezer strengths: -i T U T^T
    commutes with D for a symmetric Z, so it is block-diagonal in T's basis,
    and a blockwise R is guaranteed to commute with cosh(z D) even when
    eigenvalues of the structure factor coincide across distinct strengths.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    w = zm.strengths
    check_squeeze_budget(float(w[-1]), z)
    if cluster is not None:
        f, rotation = cluster.frame, cluster.rotation
        return BlochMessiahFactors(
            V=f * rotation[None, :], D=w, R=np.diag(rotation), T=f.conj().T,
            z=float(z), gap=math.inf, spread=0.0,
        )
    v = phase_fixed_columns(zm.modes)
    n = zm.n
    # -i T U T^T is block-diagonal, so only its diagonal blocks are formed,
    # from U conj(T^dagger)
    uv = zm.U @ v.conj()
    r = np.zeros((n, n), dtype=complex)
    v_factor = np.empty_like(v, dtype=complex)
    scale = max(1.0, float(w[-1]))
    cuts = np.flatnonzero(np.diff(w) > DEFAULT_TOLERANCES.degeneracy * scale) + 1
    groups = np.split(np.arange(n), cuts)
    gap = float(np.min(np.diff(w)[cuts - 1], initial=math.inf)) / scale
    spread = float(max(w[g[-1]] - w[g[0]] for g in groups)) / scale
    singles = [g[0] for g in groups if len(g) == 1]
    if singles:
        # A 1 x 1 block s is its own Takagi factorization, R = e^{i arg(s)/2},
        # taken for all of them at once; it resolves nothing.
        s = (-1j * np.sum(v.conj() * uv, axis=0))[singles]  # diagonal of -i T U T^T
        r_singles = half_phase(s)
        r[singles, singles] = r_singles
        v_factor[:, singles] = v[:, singles] * r_singles[None, :]
    for g in (g for g in groups if len(g) > 1):
        group = slice(g[0], g[-1] + 1)
        block = takagi_symmetric_unitary(-1j * v[:, group].conj().T @ uv[:, group])
        r[group, group] = block
        v_factor[:, group] = v[:, group] @ block
        gap = min(gap, 2.0 * math.sin(math.pi / (4 * len(g))))  # the Takagi's Cayley margin
    return BlochMessiahFactors(V=v_factor, D=w, R=r, T=v.conj().T, z=float(z), gap=gap, spread=spread)


def canonical_cluster_interferometer(cluster: ClusterPlan, O) -> np.ndarray:
    """Interferometer V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O.

    O is a free real orthogonal seed; every choice yields a unitary V
    satisfying the cluster condition for (A, Theta).  In the plan's frame
    F = e^{-i Theta} Q: V = F diag((1 + i lam)/|1 + i lam|) F^T e^{i Theta} O.
    """
    a = cluster.A
    seed = np.asarray(O)
    if np.iscomplexobj(seed) and max_abs(seed.imag) > DEFAULT_TOLERANCES.orthogonal:
        raise NotOrthogonal("seed must be a real matrix")
    o = np.asarray(seed.real, dtype=float)
    if o.shape != a.shape:
        raise ValueError("seed shape does not match the graph")
    defect = max_abs(o @ o.T - np.eye(a.shape[0]))
    if defect > DEFAULT_TOLERANCES.orthogonal:
        raise NotOrthogonal(f"seed orthogonality defect {defect:.3e}")
    f = cluster.frame
    return (f * cluster.rotation[None, :]) @ (f.T @ (np.exp(1j * cluster.theta)[:, None] * o))


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

