"""Interferometer reduction of a multi-mode squeezing transformation.

Any Bogoliubov pair factorizes as X = V cosh(z D) V^dagger and
Y = V sinh(z D) V^T with V unitary and D the diagonal of squeezer
strengths.  For a squeezing transformation with interaction matrix Z = P U
the factors are read off the cluster (A, Theta) that U encodes.  Its plan's
canonical interferometer W = F diag(rotation), F = e^{-i Theta} Q, has
U = i W W^T, and a compatible P is W S_W W^dagger with S_W real symmetric,
so one real eigendecomposition S_W = O diag(D) O^T gives

    V = W O,    D = the strengths,    R = diag(rotation),

and T with P = T^dagger diag(D) T and V = T^dagger R.  The built-in gauges
are O = 1 (T = F^dagger); a custom P's modes are W O already, so a record
read off the plan that built it takes no factorization.  No Takagi
factorization, grouping of equal strengths or eigen-gap enters.  Given Z
alone, the cluster is the one ``analyze`` recovers from U at its equal phases.

The structure factor is recovered from the interferometer alone through
U = i V V^T, which holds for every real orthogonal O; ``verify`` checks it
as the ``interferometer_identity`` row.

A unitary V describes a cluster with adjacency A (at phases Theta) exactly
when (A + i 1) e^{i Theta} V + (A - i 1) e^{-i Theta} conj(V) = 0; writing
e^{i Theta} V = V_r + i V_i this is V_i = A V_r.  All solutions are
V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O with O real orthogonal, and
W O is the member with seed Q O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _equal_phases, _recovered_plan
from .errors import NotOrthogonal
from .matfun import _spectral, as_complex_matrix, max_abs
from .synthesis import ClusterPlan, InteractionMatrix, check_squeeze_budget
from .tolerances import DEFAULT_TOLERANCES


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Interferometer-squeezer-interferometer factors at a fixed scale z.

    ``D`` holds the per-mode squeezer strengths in ascending order, so the
    squeezing blocks are cosh(z D) and sinh(z D).  ``T`` diagonalizes the
    strength factor P and ``R`` is the balancing unitary; the factors are
    not unique, so consumers must check them through residuals only.
    """

    V: np.ndarray
    D: np.ndarray
    R: np.ndarray
    T: np.ndarray
    z: float

    @property
    def decibels(self) -> np.ndarray:
        """Squeezing of each single-mode squeezer in dB."""
        return 20.0 * self.z * self.D / math.log(10.0)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Bogoliubov blocks (X, Y) rebuilt from the factors."""
        x = _spectral(self.V, np.cosh(self.z * self.D))
        y = (self.V * np.sinh(self.z * self.D)[None, :]) @ self.V.T
        return x, y


def bloch_messiah(zm: InteractionMatrix, z: float) -> BlochMessiahFactors:
    """Reduce a squeezing transformation to squeezers plus interferometers.

    A planned ``zm`` reads V off its own plan: W for a built-in gauge, the
    modes W O of a custom P.  Only Z alone recovers a plan, from U at the
    equal phases, and reads V = W O off its S_W.  D is the strengths of ``zm``.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    w = zm.strengths
    check_squeeze_budget(float(w[-1]), z)
    cluster = _recovered_plan(zm.U, _equal_phases(zm.U)) if zm.cluster is None else zm.cluster
    if zm.gauge in ("identity", "faithful"):  # P is diagonal in F, O = 1
        v, t = cluster.interferometer, cluster.frame.conj().T
    else:  # a custom P's modes are W O; those of Z alone come off the recovered S_W
        v = cluster.eigenpairs(zm.P)[1] if zm.cluster is None else zm.modes
        t = cluster.rotation[:, None] * v.conj().T
    return BlochMessiahFactors(V=v, D=w, R=np.diag(cluster.rotation), T=t, z=float(z))


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
    return cluster.interferometer @ (cluster.frame.T @ (np.exp(1j * cluster.theta)[:, None] * o))


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

