"""Dense complex-matrix kernels.

The library is built on three operations: functions f(H) of Hermitian
matrices, Q diag(d) Q^dagger, and the symmetric Q diag(d) Q^T, all by one
kernel (:func:`_spectral`) from eigenpairs the caller holds, which takes
real arithmetic for a real Q; the polar decomposition Z = P U of a
complex symmetric matrix; and the Cayley map of a symmetric unitary to a
real symmetric matrix, kept regular by one phase read off the spectrum of
Re S (:func:`regularizing_angle`).
"""

from __future__ import annotations

import numpy as np

from .errors import NonRealResult, NotSymmetric, SingularInput
from .tolerances import REALNESS, RTOL, SINGULAR


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


def _spectral(q: np.ndarray, values: np.ndarray, transpose: bool = False) -> np.ndarray:
    """f(H) = Q diag(f(L)) Q^dagger from the eigenvectors Q of H and f(L),
    or Q diag(d) Q^T with ``transpose``.  A real Q has Q^T = Q^dagger and
    takes real arithmetic: a real product for real values, and for complex
    ones the product of Q with the float view of diag(d) Q^T."""
    if np.iscomplexobj(values) and not np.iscomplexobj(q):
        return _real_product(q, values[:, None] * q.T)
    return (q * values[None, :]) @ (q.T if transpose else q.conj().T)


def _symmetric_part(m: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """The symmetric or Hermitian part (m + mirror) / 2, mirror = m^T or
    m^dagger; ``m`` itself, bits and signed zeros kept, when it equals
    ``mirror`` in value."""
    if np.array_equal(m, mirror):
        return m
    m = m + mirror
    m *= 0.5  # in place: no second full-size copy is held
    return m


class _PolarSplit(tuple):
    """(P, U, sigma, Q), with the symmetric part of Z they split as ``part``."""


def polar_decompose_symmetric(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Polar decomposition Z = P U of a complex symmetric matrix.

    P = (Z Z^dagger)^(1/2) is Hermitian positive definite and U is unitary.
    Symmetry of Z makes U symmetric as well and gives the commutation
    P U = U conj(P) used throughout the squeezing algebra.  Returns
    (P, U, sigma, Q) with P = Q diag(sigma) Q^dagger, sigma ascending, from
    the one SVD Z = Q diag(sigma) V^dagger, and U = Q V^dagger.  The SVD
    keeps U unitary to rounding whatever cond(P) is; the eigenvectors of
    Z Z^dagger would square it (Higham, *Functions of Matrices*, 2008, ch. 8).
    The asymmetry the ``RTOL`` gate lets through is dropped: the tuple's
    ``part``, Z's symmetric part, is split, so U is symmetric to rounding.

    Raises :class:`NotSymmetric` for asymmetric input and
    :class:`SingularInput` when sigma_min / sigma_max falls below the
    singularity threshold; only non-singular matrices define a valid
    multi-mode squeezing interaction.
    """
    zm = as_complex_matrix(z)
    scale = max(1.0, max_abs(zm))
    if symmetry_defect(zm) > RTOL * scale:
        raise NotSymmetric(
            f"symmetry defect {symmetry_defect(zm):.3e} exceeds tolerance"
        )
    part = _symmetric_part(zm, zm.T)
    w, s, vh = np.linalg.svd(part)
    sigma, q = s[::-1], w[:, ::-1]
    if sigma[-1] == 0.0 or sigma[0] < SINGULAR * sigma[-1]:
        raise SingularInput(
            f"sigma_min/sigma_max = {sigma[0]:.3e}/{sigma[-1]:.3e} below "
            f"threshold {SINGULAR:.1e}"
        )
    p = _spectral(q, sigma)
    p = (p + p.conj().T) / 2.0
    split = _PolarSplit((p, w @ vh, sigma, q))
    split.part = part
    return split


def cayley_real(w: np.ndarray) -> np.ndarray:
    """Real symmetric K = -i (W + i 1)^{-1} (W - i 1) of a symmetric unitary W
    whose W + i the caller keeps regular.

    Raises :class:`NonRealResult` when K carries an imaginary residual above
    tolerance, which signals that W was not symmetric unitary to sufficient
    accuracy.
    """
    eye = np.eye(w.shape[0])
    k = -1j * np.linalg.solve(w + 1j * eye, w - 1j * eye)
    defect = realness_defect(k)
    if defect > REALNESS * max(1.0, max_abs(k)):
        raise NonRealResult(
            f"imaginary residual {defect:.3e}; input was not symmetric "
            "unitary to sufficient accuracy"
        )
    return (k.real + k.real.T) / 2.0


def regularizing_angle(s: np.ndarray) -> float:
    """alpha with sigma_min(e^{i alpha} S + 1) >= 2 sin(pi / 4n) for a
    symmetric unitary S of order n, from one ``eigvalsh``.

    Re S is Hermitian with the eigenvalues cos L of the eigen-angles L of S,
    so the 2n angles +-arccos(cos L) hold every eigen-angle.  Their widest
    gap is at least pi / n wide; alpha turns its midpoint onto pi, which
    leaves every eigenvalue of e^{i alpha} S at least pi / 2n from -1.
    """
    arc = np.arccos(np.clip(np.linalg.eigvalsh(s.real), -1.0, 1.0))
    angles = np.sort(np.concatenate([arc, -arc]))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    return float(np.pi - (angles[widest] + gaps[widest] / 2.0))
