"""Forward direction: from a weighted cluster to a squeezing transformation.

Given an adjacency matrix A, local phases Theta and a positive-definite gauge
factor P, this module builds the symmetric unitary structure factor

    U = -i e^{-i Theta} (A - i 1)(A + i 1)^{-1} e^{-i Theta},

the interaction matrix Z = P U, the Bogoliubov blocks

    X = cosh(z P),    Y = -i sinh(z P) U,

and the closed-form nullifier covariance

    C = (A + i 1) e^{i Theta} e^{-2 z P} e^{-i Theta} (A - i 1) = E E^dagger,

with E = (A + i 1) e^{i Theta} e^{-z P}.  The gauge factor is free up to the
reality condition checked by :func:`validate_gauge`; the faithful choice
makes C exactly e^{-2z} times the identity.  X, Y, C and the squeezer
strengths all come from the one eigendecomposition of P that
:class:`InteractionMatrix`, the synthesis plan, carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    GaugeIncompatible,
    NotHermitian,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitary,
    SingularInput,
)
from .graphs import adjacency_matrix, phase_vector
from .matfun import (
    _spectral,
    as_complex_matrix,
    hermiticity_defect,
    max_abs,
    polar_decompose_symmetric,
    symmetry_defect,
    unitarity_defect,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class InteractionMatrix:
    """Synthesis plan: Z = P U with the eigendecomposition of P.

    P is Hermitian positive definite (the squeezing strengths) and U is
    symmetric unitary (the cluster structure).  ``strengths`` (ascending)
    and ``modes`` (column eigenvectors) are the eigenpairs of P, computed
    once here and read by every consumer.  Build instances through
    :meth:`from_matrix` or :meth:`from_factors`, which enforce the
    invariants.
    """

    Z: np.ndarray
    P: np.ndarray
    U: np.ndarray
    strengths: np.ndarray
    modes: np.ndarray

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @classmethod
    def from_matrix(cls, Z, tol: Tolerances = DEFAULT_TOLERANCES) -> "InteractionMatrix":
        """Polar-decompose a complex symmetric non-singular matrix."""
        zm = as_complex_matrix(Z)
        p, u = polar_decompose_symmetric(zm, tol)
        w, q = np.linalg.eigh((p + p.conj().T) / 2.0)
        return cls(Z=zm, P=p, U=u, strengths=w, modes=q)

    @classmethod
    def from_factors(cls, P, U, tol: Tolerances = DEFAULT_TOLERANCES) -> "InteractionMatrix":
        """Assemble Z = P U from validated factors."""
        p = as_complex_matrix(P)
        u = as_complex_matrix(U)
        if p.shape != u.shape:
            raise ValueError("factor shapes differ")
        if hermiticity_defect(p) > tol.rtol * max(1.0, max_abs(p)):
            raise NotHermitian("gauge factor is not Hermitian")
        w, q = np.linalg.eigh((p + p.conj().T) / 2.0)
        if w[0] <= tol.positive * max(1.0, w[-1]):
            raise NotPositiveDefinite(
                f"gauge factor has min eigenvalue {w[0]:.3e}"
            )
        if w[0] < tol.singular * w[-1]:
            raise SingularInput("gauge factor is numerically singular")
        if unitarity_defect(u) > tol.rtol * u.shape[0]:
            raise NotUnitary("structure factor is not unitary")
        if symmetry_defect(u) > tol.rtol * max(1.0, max_abs(u)):
            raise NotSymmetric("structure factor is not symmetric")
        z = p @ u
        if symmetry_defect(z) > tol.interaction_symmetry * max(1.0, max_abs(z)):
            raise NotSymmetric(
                "P U is not symmetric; the factors are not gauge-compatible"
            )
        return cls(Z=z, P=p, U=u, strengths=w, modes=q)


@dataclass(frozen=True)
class BogoliubovPair:
    """Blocks (X, Y) of a 2N x 2N Bogoliubov matrix [[X, Y], [Y*, X*]]."""

    X: np.ndarray
    Y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def defects(self) -> tuple[float, float]:
        """Residuals of the bosonic-commutation conditions.

        Returns max-entry residuals of ``X X^dagger - Y Y^dagger - 1`` and
        ``X Y^T - Y X^T``; both vanish for a genuine Bogoliubov pair.
        """
        eye = np.eye(self.n)
        first = max_abs(self.X @ self.X.conj().T - self.Y @ self.Y.conj().T - eye)
        second = max_abs(self.X @ self.Y.T - self.Y @ self.X.T)
        return first, second


@dataclass(frozen=True)
class CovarianceReport:
    """Nullifier covariance C with its factor E and numerical residuals.

    ``C`` is the real symmetric covariance as reported; ``E`` satisfies
    C = E E^dagger up to ``imag_residual`` (the largest imaginary entry of
    E E^dagger, the realness defect of the covariance) and
    ``asym_residual`` (asymmetry of the raw product before symmetrization).
    """

    C: np.ndarray
    E: np.ndarray
    max_abs: float
    imag_residual: float
    asym_residual: float

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.C))


class GaugeCheck(NamedTuple):
    ok: bool
    residual: float


class SqueezerMode(NamedTuple):
    """One single-mode squeezer of the physical recipe."""

    strength: float      # eigenvalue of P == singular value of Z
    cosh_factor: float   # singular value of X
    sinh_factor: float   # singular value of Y
    decibels: float      # 20 z strength / ln 10


def unitary_from_adjacency(A, theta, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Symmetric unitary structure factor of a cluster.

    (A + i 1) is invertible for every real symmetric A, so this is defined
    for all inputs of the right shape.
    """
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    eye = np.eye(a.shape[0])
    m = np.linalg.solve(a + 1j * eye, a - 1j * eye)
    ph = np.exp(-1j * th)
    u = -1j * ph[:, None] * m * ph[None, :]
    return (u + u.T) / 2.0


def gauge_identity(n: int) -> np.ndarray:
    """Trivial gauge P = 1: equal squeezers, covariance (A^2 + 1) e^{-2z}."""
    if n <= 0:
        raise ValueError("mode count must be positive")
    return np.eye(n, dtype=complex)


def gauge_faithful(A, theta, z: float, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Gauge factor that makes the nullifier covariance exactly e^{-2z} 1.

    P = 1 + e^{-i Theta} ln(A^2 + 1) e^{i Theta} / (2 z); Hermitian with
    eigenvalues >= 1, and always compatible with the reality condition.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    eye = np.eye(a.shape[0])
    w, q = np.linalg.eigh(a @ a + eye)
    log_gram = _spectral(q, np.log(w))
    ph = np.exp(-1j * th)
    p = eye + ph[:, None] * log_gram * ph.conj()[None, :] / (2.0 * z)
    return (p + p.conj().T) / 2.0


def validate_gauge(A, theta, P, tol: Tolerances = DEFAULT_TOLERANCES) -> GaugeCheck:
    """Check the reality condition tying a gauge factor to a cluster.

    P is compatible exactly when (A + i 1) e^{i Theta} P e^{-i Theta}
    (A - i 1) is a real matrix, which is equivalent to P U being symmetric.
    Returns the verdict together with the relative imaginary residual of the
    test matrix.
    """
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    p = as_complex_matrix(P)
    if p.shape[0] != a.shape[0]:
        raise ValueError("gauge factor shape does not match the graph")
    if hermiticity_defect(p) > tol.rtol * max(1.0, max_abs(p)):
        raise NotPositiveDefinite("gauge factor is not Hermitian")
    eigs = np.linalg.eigvalsh((p + p.conj().T) / 2.0)
    if eigs[0] <= tol.positive * max(1.0, eigs[-1]):
        raise NotPositiveDefinite(
            f"gauge factor has min eigenvalue {eigs[0]:.3e}"
        )
    eye = np.eye(a.shape[0])
    ph = np.exp(1j * th)
    test = (a + 1j * eye) @ (ph[:, None] * p * ph.conj()[None, :]) @ (a - 1j * eye)
    residual = max_abs(test.imag) / max_abs(test)
    return GaugeCheck(ok=bool(residual <= tol.rtol), residual=float(residual))


def require_compatible_gauge(
    A, theta, P, tol: Tolerances = DEFAULT_TOLERANCES
) -> GaugeCheck:
    """:func:`validate_gauge`, raising :class:`GaugeIncompatible` on failure."""
    check = validate_gauge(A, theta, P, tol)
    if not check.ok:
        raise GaugeIncompatible(
            f"gauge reality residual {check.residual:.3e} exceeds {tol.rtol:.1e}"
        )
    return check


def interaction_from_cluster(
    A, theta, P, tol: Tolerances = DEFAULT_TOLERANCES
) -> InteractionMatrix:
    """Interaction matrix Z = P U for a cluster and a compatible gauge."""
    require_compatible_gauge(A, theta, P, tol)
    u = unitary_from_adjacency(A, theta, tol)
    return InteractionMatrix.from_factors(P, u, tol)


def check_squeeze_budget(
    strength_max: float, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> None:
    """Reject z * lambda_max beyond the double-precision cosh budget."""
    if z * strength_max > tol.z_cap:
        raise DomainError(
            f"z * max squeezer strength = {z * strength_max:.2f} exceeds "
            f"{tol.z_cap:.0f}; cosh would exhaust double precision"
        )


def bogoliubov_from_interaction(
    zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> BogoliubovPair:
    """Bogoliubov blocks of the squeezing transformation at scale z >= 0.

    z = 0 is the identity transformation (X = 1, Y = 0) and is accepted as a
    boundary case.
    """
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    w, q = zm.strengths, zm.modes
    check_squeeze_budget(float(w[-1]), z, tol)
    x = _spectral(q, np.cosh(z * w))
    y = -1j * _spectral(q, np.sinh(z * w)) @ zm.U
    return BogoliubovPair(X=x, Y=y)


def covariance_closed_form(
    A, theta, zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> CovarianceReport:
    """Closed-form nullifier covariance of the synthesized state.

    ``zm`` is the interaction matrix of the cluster (A, Theta), as built by
    :func:`interaction_from_cluster`, which checks the gauge; e^{-z P} comes
    from its eigenpairs.  Single code path for every gauge; the special
    cases (faithful gauge e^{-2z} 1, trivial gauge (A^2 + 1) e^{-2z},
    self-inverse graphs 2 e^{-2z} 1) are consequences used as test oracles,
    not branches.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    a = adjacency_matrix(A, tol)
    th = phase_vector(theta, a.shape[0])
    if a.shape[0] != zm.n:
        raise DimensionMismatch(
            f"graph has {a.shape[0]} modes, interaction has {zm.n}"
        )
    eye = np.eye(a.shape[0])
    decay = _spectral(zm.modes, np.exp(-z * zm.strengths))
    e_factor = (a + 1j * eye) @ (np.exp(1j * th)[:, None] * decay)
    raw = e_factor @ e_factor.conj().T
    c = (raw.real + raw.real.T) / 2.0
    return CovarianceReport(
        C=c,
        E=e_factor,
        max_abs=max_abs(c),
        imag_residual=max_abs(raw.imag),
        asym_residual=symmetry_defect(raw),
    )


def squeezer_spectrum(
    zm: InteractionMatrix, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[SqueezerMode]:
    """Per-mode squeezing recipe: eigenvalues of P with gains and decibels.

    The eigenvalues of P (singular values of Z) fix the strengths of the
    single-mode squeezers in the interferometer decomposition; returned in
    ascending order.
    """
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    w = zm.strengths
    check_squeeze_budget(float(w[-1]), z, tol)
    return [
        SqueezerMode(
            strength=float(lam),
            cosh_factor=float(np.cosh(z * lam)),
            sinh_factor=float(np.sinh(z * lam)),
            decibels=float(20.0 * z * lam / math.log(10.0)),
        )
        for lam in w
    ]


def resolve_gauge(
    gauge, A, theta, z: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Map a gauge selector to a concrete P.

    ``gauge`` is ``"identity"``, ``"faithful"`` or an explicit Hermitian
    matrix; explicit matrices are validated where they are used.
    """
    a = adjacency_matrix(A, tol)
    if isinstance(gauge, str):
        if gauge == "identity":
            return gauge_identity(a.shape[0])
        if gauge == "faithful":
            return gauge_faithful(a, theta, z, tol)
        raise ValueError(f"unknown gauge {gauge!r}; use 'identity' or 'faithful'")
    return as_complex_matrix(gauge)
