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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import _equal_phases, _recovered_plan
from .errors import NotOrthogonal
from .matfun import _real_product, _spectral, as_complex_matrix, max_abs
from .synthesis import ClusterPlan, InteractionMatrix, _decibels
from .tolerances import ORTHOGONAL


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Interferometer-squeezer-interferometer factors at a fixed scale z.

    ``D`` holds the per-mode squeezer strengths in ascending order, so the
    squeezing blocks are cosh(z D) and sinh(z D).  ``T`` diagonalizes the
    strength factor P and ``R`` = diag(``rotation``) is the balancing
    unitary; both are formed on first read, so a request that only checks
    V forms neither.  ``frame`` is F when V = F diag(rotation) (O = 1), and
    T = F^dagger.  The factors are not unique, so consumers must check them
    through residuals only.
    """

    V: np.ndarray
    D: np.ndarray
    rotation: np.ndarray
    z: float
    frame: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def R(self) -> np.ndarray:
        return np.diag(self.rotation)

    @cached_property
    def T(self) -> np.ndarray:
        """T = R V^dagger, with P = T^dagger diag(D) T; F^dagger when O = 1."""
        if self.frame is not None:
            return self.frame.conj().T
        return self.rotation[:, None] * self.V.conj().T

    @property
    def decibels(self) -> np.ndarray:
        """Squeezing of each single-mode squeezer in dB."""
        return _decibels(self.z, self.D)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Bogoliubov blocks (X, Y) rebuilt from the factors."""
        x = _spectral(self.V, np.cosh(self.z * self.D))
        y = _spectral(self.V, np.sinh(self.z * self.D), transpose=True)
        return x, y


def bloch_messiah(zm: InteractionMatrix) -> BlochMessiahFactors:
    """Reduce a squeezing transformation at its z to squeezers plus interferometers.

    A planned ``zm`` reads V off its own plan: W for a built-in gauge, the
    modes W O of a custom P.  Only Z alone recovers a plan, from U at the
    equal phases, and reads V = W O off its S_W.  D is the strengths of ``zm``.
    """
    w = zm.strengths
    cluster = _recovered_plan(zm.U, _equal_phases(zm.U)) if zm.cluster is None else zm.cluster
    if zm.diagonal:  # P is diagonal in F, O = 1
        return BlochMessiahFactors(V=cluster.interferometer, D=w, rotation=cluster.rotation, z=zm.z,
                                   frame=cluster.frame)
    # a custom P's modes are W O; those of Z alone come off the recovered S_W
    v = cluster.eigenpairs(zm.P)[1] if zm.cluster is None else zm.modes
    return BlochMessiahFactors(V=v, D=w, rotation=cluster.rotation, z=zm.z)


def canonical_cluster_interferometer(cluster: ClusterPlan, O) -> np.ndarray:
    """Interferometer V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O.

    O is a free real orthogonal seed; every choice yields a unitary V
    satisfying the cluster condition for (A, Theta).  The plan's real Q
    gives (1 + i A)(A^2 + 1)^{-1/2} = Q diag(rotation) Q^T in one real
    product, and its product with the real O is one more.
    """
    a = cluster.A
    seed = np.asarray(O)
    if np.iscomplexobj(seed) and max_abs(seed.imag) > ORTHOGONAL:
        raise NotOrthogonal("seed must be a real matrix")
    o = np.asarray(seed.real, dtype=float)
    if o.shape != a.shape:
        raise ValueError("seed shape does not match the graph")
    defect = max_abs(o @ o.T - np.eye(a.shape[0]))
    if defect > ORTHOGONAL:
        raise NotOrthogonal(f"seed orthogonality defect {defect:.3e}")
    root = _spectral(cluster.by_magnitude[1], cluster.rotation, transpose=True)
    # root O = (O^T root^T)^T, one real product with O
    return np.exp(-1j * cluster.theta)[:, None] * _real_product(o.T, root.T).T


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

