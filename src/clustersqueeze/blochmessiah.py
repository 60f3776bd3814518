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

from .errors import NotOrthogonal
from .graphs import adjacency_matrix, phase_vector
from .matfun import (
    _spectral,
    as_complex_matrix,
    max_abs,
    phase_fixed_columns,
    spectrum_clusters,
    takagi_symmetric_unitary,
)
from .synthesis import InteractionMatrix, check_squeeze_budget
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Interferometer-squeezer-interferometer factors at a fixed scale z.

    ``D`` holds the per-mode squeezer strengths in ascending order, so the
    squeezing blocks are cosh(z D) and sinh(z D).  ``T`` diagonalizes the
    strength factor P and ``R`` is the balancing unitary; the factors are
    not unique, so consumers must check them through residuals only.
    """

    V: np.ndarray
    W: np.ndarray
    D: np.ndarray
    R: np.ndarray
    T: np.ndarray
    z: float

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def decibels(self) -> np.ndarray:
        """Squeezing of each single-mode squeezer in dB."""
        return 20.0 * self.z * self.D / math.log(10.0)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """Bogoliubov blocks (X, Y) rebuilt from the factors."""
        x = (self.V * np.cosh(self.z * self.D)[None, :]) @ self.W.conj().T
        y = (self.V * np.sinh(self.z * self.D)[None, :]) @ self.W.T
        return x, y


def bloch_messiah(
    zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> BlochMessiahFactors:
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
    check_squeeze_budget(float(w[-1]), z, tol)
    n = zm.n
    balanced = -1j * v.conj().T @ zm.U @ v.conj()
    r = np.zeros((n, n), dtype=complex)
    gap = tol.degeneracy * max(1.0, float(w[-1]))
    for group in spectrum_clusters(w, gap):
        idx = np.ix_(group, group)
        r[idx] = takagi_symmetric_unitary(balanced[idx], tol)
    v_factor = v @ r
    w_factor = -1j * zm.U @ v.conj() @ r.conj()
    return BlochMessiahFactors(
        V=v_factor, W=w_factor, D=w, R=r, T=v.conj().T, z=float(z)
    )


def canonical_cluster_interferometer(
    A, theta, O, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Interferometer V = e^{-i Theta} (1 + i A)(A^2 + 1)^{-1/2} O.

    O is a free real orthogonal seed; every choice yields a unitary V
    satisfying the cluster condition for (A, Theta).
    """
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    o = np.asarray(O, dtype=float)
    if np.iscomplexobj(O) and max_abs(np.asarray(O).imag) > tol.orthogonal:
        raise NotOrthogonal("seed must be a real matrix")
    if o.shape != a.shape:
        raise ValueError("seed shape does not match the graph")
    if max_abs(o @ o.T - np.eye(a.shape[0])) > tol.orthogonal:
        raise NotOrthogonal(
            f"seed orthogonality defect {max_abs(o @ o.T - np.eye(a.shape[0])):.3e}"
        )
    w, q = np.linalg.eigh(a)
    inv_root = _spectral(q, 1.0 / np.sqrt(w * w + 1.0))
    eye = np.eye(a.shape[0])
    return np.exp(-1j * th)[:, None] * ((eye + 1j * a) @ inv_root @ o)


def cluster_condition_residual(V, A, theta, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Max-entry modulus of (A + i 1) e^{i Theta} V + (A - i 1) e^{-i Theta} V*.

    Zero exactly when V is an interferometer generating the cluster (A,
    Theta); equivalently V_i = A V_r for e^{i Theta} V = V_r + i V_i.
    """
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    v = as_complex_matrix(V)
    if v.shape != a.shape:
        raise ValueError("interferometer shape does not match the graph")
    eye = np.eye(a.shape[0])
    ph = np.exp(1j * th)
    lhs = (a + 1j * eye) @ (ph[:, None] * v) + (a - 1j * eye) @ (
        ph.conj()[:, None] * v.conj()
    )
    return max_abs(lhs)


def unitary_from_interferometer(V) -> np.ndarray:
    """Structure factor U = i V V^T of a general Gaussian transformation.

    Invariant under V -> V O for real orthogonal O, so it is well defined on
    the whole orbit of admissible interferometers.
    """
    v = as_complex_matrix(V)
    u = 1j * v @ v.T
    return (u + u.T) / 2.0
