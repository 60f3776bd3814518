"""Dense complex-matrix kernels.

Everything else in the library is built on the three operations here:
functions of Hermitian matrices through the eigendecomposition, the polar
decomposition Z = P U of a complex symmetric matrix, and the Autonne-Takagi
factorization S = R R^T of a symmetric unitary.  Every function f(H) of a
Hermitian matrix is evaluated by one kernel, :func:`_spectral`, from
eigenpairs the caller already holds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NotSymmetric, NotUnitary, SingularInput
from .tolerances import DEFAULT_TOLERANCES


def as_complex_matrix(values) -> np.ndarray:
    """Coerce to a complex square matrix, rejecting NaN/Inf entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def max_abs(m) -> float:
    """Max-entry modulus; zero for empty input."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def symmetry_defect(m) -> float:
    m = np.asarray(m)
    return max_abs(m - m.T)


def hermiticity_defect(m) -> float:
    m = np.asarray(m)
    return max_abs(m - m.conj().T)


def unitarity_defect(m) -> float:
    m = np.asarray(m)
    return max_abs(m @ m.conj().T - np.eye(m.shape[0]))


def realness_defect(m) -> float:
    return max_abs(np.asarray(m).imag)


def _real_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a complex m; a real a makes it one real product: the float
    view of m holds its real and imaginary parts in alternate columns."""
    if np.iscomplexobj(a):
        return a @ m
    m = np.ascontiguousarray(m, dtype=complex)
    return (a @ m.view(float)).view(complex)


def _spectral(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """f(H) = Q diag(f(L)) Q^dagger from the eigenvectors Q of H and f(L)."""
    return (q * values[None, :]) @ q.conj().T


def phase_fixed_columns(q: np.ndarray) -> np.ndarray:
    """Copy of an eigenvector matrix with a deterministic phase per column.

    Each column is rescaled so its first component of non-negligible modulus
    is real and positive.  Contracts downstream remain residual-based; the
    fixed phase only stabilizes output for repeated runs.
    """
    q = q.copy()
    modulus = np.abs(q)
    above = modulus > 1e-8 * modulus.max(axis=0, initial=1.0)
    first = above.argmax(axis=0)
    # One in-place scaling per column, as the column-by-column form scaled
    # them; the tests pin the result to that form bit for bit.
    for j in np.flatnonzero(above.any(axis=0)):
        pivot = q[first[j], j]
        q[:, j] *= pivot.conjugate() / abs(pivot)
    return q


def polar_decompose_symmetric(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Polar decomposition Z = P U of a complex symmetric matrix.

    P = (Z Z^dagger)^(1/2) is Hermitian positive definite and U is unitary.
    Symmetry of Z makes U symmetric as well and gives the commutation
    P U = U conj(P) used throughout the squeezing algebra.  Returns
    (P, U, sigma, Q) with P = Q diag(sigma) Q^dagger, sigma ascending, from
    the one SVD Z = Q diag(sigma) V^dagger, and U = Q V^dagger.  The SVD
    keeps U unitary to rounding whatever cond(P) is; the eigenvectors of
    Z Z^dagger would square it (Higham, *Functions of Matrices*, 2008, ch. 8).

    Raises :class:`NotSymmetric` for asymmetric input and
    :class:`SingularInput` when sigma_min / sigma_max falls below the
    singularity threshold; only non-singular matrices define a valid
    multi-mode squeezing interaction.
    """
    zm = as_complex_matrix(z)
    scale = max(1.0, max_abs(zm))
    if symmetry_defect(zm) > DEFAULT_TOLERANCES.rtol * scale:
        raise NotSymmetric(
            f"symmetry defect {symmetry_defect(zm):.3e} exceeds tolerance"
        )
    w, s, vh = np.linalg.svd(zm)
    sigma, q = s[::-1], w[:, ::-1]
    if sigma[-1] == 0.0 or sigma[0] < DEFAULT_TOLERANCES.singular * sigma[-1]:
        raise SingularInput(
            f"sigma_min/sigma_max = {sigma[0]:.3e}/{sigma[-1]:.3e} below "
            f"threshold {DEFAULT_TOLERANCES.singular:.1e}"
        )
    p = _spectral(q, sigma)
    p = (p + p.conj().T) / 2.0
    return p, w @ vh, sigma, q


def symmetric_unitary_angles(s) -> tuple[np.ndarray, np.ndarray]:
    """Joint real-orthogonal diagonalization of a symmetric unitary.

    For symmetric unitary S the real and imaginary parts commute, so a single
    real orthogonal Q gives S = Q e^{i L} Q^T with real angles L.  Re(S) is
    diagonalized first; inside each degenerate eigenspace (gap below the
    degeneracy tolerance) Im(S) is re-diagonalized, which fixes
    the exactly-degenerate cases produced by structured graphs.  Angles are
    on the principal branch (-pi, pi], with -pi mapped to +pi.
    """
    sm = as_complex_matrix(s)
    n = sm.shape[0]
    if unitarity_defect(sm) > DEFAULT_TOLERANCES.rtol * n:
        raise NotUnitary(
            f"unitarity defect {unitarity_defect(sm):.3e} exceeds tolerance"
        )
    if symmetry_defect(sm) > DEFAULT_TOLERANCES.rtol * max(1.0, max_abs(sm)):
        raise NotSymmetric(
            f"symmetry defect {symmetry_defect(sm):.3e} exceeds tolerance"
        )
    re = (sm.real + sm.real.T) / 2.0
    im = (sm.imag + sm.imag.T) / 2.0
    w, q = np.linalg.eigh(re)
    # ||S||_2 = 1: S has just passed the unitarity check
    groups = spectrum_clusters(w, DEFAULT_TOLERANCES.degeneracy)
    for g in groups:
        if len(g) > 1:
            block = q[:, g].T @ im @ q[:, g]
            _, v = np.linalg.eigh((block + block.T) / 2.0)
            q[:, g] = q[:, g] @ v
    d = np.einsum("ij,ij->j", q, sm @ q)
    return q, _principal_angles(d)


def _principal_angles(d: np.ndarray) -> np.ndarray:
    """Arguments of unit-modulus values on (-pi, pi], with -pi mapped to +pi."""
    angles = np.angle(d)
    return np.where(angles < -np.pi + 1e-12, angles + 2.0 * np.pi, angles)


def takagi_symmetric_unitary(s) -> np.ndarray:
    """Autonne-Takagi factor R of a symmetric unitary: R unitary, R R^T = S.

    Built as R = Q e^{i L / 2} from :func:`symmetric_unitary_angles`; the
    factorization is not unique, so callers must check it only through the
    residual ``R @ R.T - S``.
    """
    q, angles = symmetric_unitary_angles(s)
    return q * np.exp(0.5j * angles)[None, :]


def spectrum_clusters(values: Sequence[float], gap: float) -> list[list[int]]:
    """Group indices of an ascending 1-D array into gap-separated clusters."""
    groups: list[list[int]] = []
    start = 0
    n = len(values)
    for i in range(1, n + 1):
        if i == n or values[i] - values[i - 1] > gap:
            groups.append(list(range(start, i)))
            start = i
    return groups
