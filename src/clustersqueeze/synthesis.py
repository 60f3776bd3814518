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
makes C exactly e^{-2z} times the identity.

Two plans carry the factorizations.  :class:`ClusterPlan`, the checked
cluster that every cluster-side function takes, holds the one real
eigendecomposition A = Q diag(lam) Q^T, taken on first use: with
F = e^{-i Theta} Q, U = -i F diag((lam - i)/(lam + i)) F^T and the faithful
gauge F diag(1 + ln(1 + lam^2) / (2z)) F^dagger need no further
factorization.  :class:`InteractionMatrix` holds Z = P U with the
eigenpairs of P (from the cluster plan, one ``eigh`` of a custom P or a
polar split of Z), and X, Y, C and the squeezer strengths come from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
)
from .graphs import adjacency_matrix, phase_vector
from .matfun import (
    _real_product,
    _spectral,
    as_complex_matrix,
    hermiticity_defect,
    max_abs,
    polar_decompose_symmetric,
    symmetry_defect,
    unitarity_defect,
)
from .tolerances import DEFAULT_TOLERANCES, ErrorModel


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

    @property
    def asymmetry(self) -> float:
        """Relative asymmetry of Z; zero exactly when the gauge is compatible."""
        return symmetry_defect(self.Z) / max(1.0, max_abs(self.Z))

    @classmethod
    def from_matrix(cls, Z) -> "InteractionMatrix":
        """Polar-decompose a complex symmetric non-singular matrix; P's
        eigenpairs come from the split's one ``eigh``, which also checks Z."""
        p, u, w, q = polar_decompose_symmetric(Z)
        return cls(Z=np.asarray(Z, dtype=complex), P=p, U=u, strengths=w, modes=q)

    @classmethod
    def from_factors(cls, P, U) -> "InteractionMatrix":
        """Assemble Z = P U, checking both factors.

        P must be Hermitian (else :class:`NotHermitian`), and positive
        definite and not numerically singular (:func:`_require_definite`),
        read off the ``eigh`` that gives ``strengths`` and ``modes``.  U must
        be symmetric unitary and P U symmetric (else
        :class:`GaugeIncompatible`).  The reality condition tying P to a
        cluster is :func:`validate_gauge`'s.
        """
        p = as_complex_matrix(P)
        u = as_complex_matrix(U)
        if p.shape != u.shape:
            raise ValueError("factor shapes differ")
        if hermiticity_defect(p) > DEFAULT_TOLERANCES.rtol * max(1.0, max_abs(p)):
            raise NotHermitian("gauge factor is not Hermitian")
        w, q = np.linalg.eigh((p + p.conj().T) / 2.0)
        _require_definite(w)
        if unitarity_defect(u) > DEFAULT_TOLERANCES.rtol * u.shape[0]:
            raise NotUnitary("structure factor is not unitary")
        if symmetry_defect(u) > DEFAULT_TOLERANCES.rtol * max(1.0, max_abs(u)):
            raise NotSymmetric("structure factor is not symmetric")
        z = p @ u
        if symmetry_defect(z) > DEFAULT_TOLERANCES.interaction_symmetry * max(1.0, max_abs(z)):
            raise GaugeIncompatible(
                "P U is not symmetric; the factors are not gauge-compatible"
            )
        return cls(Z=z, P=p, U=u, strengths=w, modes=q)


def _require_definite(w: np.ndarray) -> None:
    """Reject ascending gauge strengths that are not positive or numerically singular."""
    if w[0] <= DEFAULT_TOLERANCES.positive * max(1.0, w[-1]):
        raise NotPositiveDefinite(f"gauge factor has min eigenvalue {w[0]:.3e}")
    if w[0] < DEFAULT_TOLERANCES.singular * w[-1]:
        raise NotPositiveDefinite("gauge factor is numerically singular")


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
        xy = self.X @ self.Y.T  # and Y X^T is its transpose
        return first, max_abs(xy - xy.T)


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
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.C))


class GaugeCheck(NamedTuple):
    residual: float
    scale: float  # largest entry of the test matrix, which residual is relative to


class SqueezerMode(NamedTuple):
    """One single-mode squeezer of the physical recipe."""

    strength: float      # eigenvalue of P == singular value of Z
    cosh_factor: float   # singular value of X
    sinh_factor: float   # singular value of Y
    decibels: float      # 20 z strength / ln 10


def unitary_from_adjacency(A, theta) -> np.ndarray:
    """Symmetric unitary structure factor of a cluster, defined for every
    real symmetric A (A + i 1 is invertible)."""
    return ClusterPlan.of(A, theta).U


@dataclass(frozen=True)
class ClusterPlan:
    """A checked cluster (A, Theta), built by :meth:`of`.  On first use of
    ``eigenvalues``, ``frame`` or ``U`` it takes A = Q diag(lam) Q^T once:
    F = e^{-i Theta} Q and U = -i F diag((lam - i)/(lam + i)) F^T, whose
    product is formed with the real Q and the phases applied entrywise."""

    A: np.ndarray
    theta: np.ndarray

    @classmethod
    def of(cls, A, theta) -> "ClusterPlan":
        a = adjacency_matrix(A)
        return cls(A=a, theta=phase_vector(theta, a.shape[0]))

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.A)

    eigenvalues = property(lambda self: self._spectrum[0])

    @cached_property
    def _phases(self) -> np.ndarray:
        return np.exp(-1j * self.theta)

    @cached_property
    def frame(self) -> np.ndarray:
        return self._phases[:, None] * self._spectrum[1]

    @cached_property
    def U(self) -> np.ndarray:
        lam, q = self._spectrum
        ph = self._phases
        core = _real_product(q, ((lam - 1j) / (lam + 1j))[:, None] * q.T)
        u = -1j * ph[:, None] * core * ph[None, :]
        return (u + u.T) / 2.0

    def interaction(self, gauge, z: float | None = None) -> tuple[InteractionMatrix, GaugeCheck]:
        """Plan Z = P U for a gauge, and the check of that gauge.

        ``gauge`` is ``"identity"`` (P and its modes 1, so P and X stay
        real), ``"faithful"`` (modes F, strengths 1 + ln(1 + lam^2) / (2 z)
        ascending) or an explicit P, which
        :meth:`InteractionMatrix.from_factors` factorizes after the reality
        check.  Every gauge must be compatible to within one rounded stage:
        a ``gauge_condition`` or ``interaction_symmetric`` residual above its
        :class:`ErrorModel` budget raises :class:`GaugeIncompatible`, so the
        rows built on P see no incompatibility beyond the rounding they
        budget for.
        """
        if isinstance(gauge, str):
            zm = self._builtin(gauge, z)
            check = validate_gauge(self, zm.P)
        else:
            check = validate_gauge(self, gauge)
            zm = InteractionMatrix.from_factors(gauge, self.U)
        model = ErrorModel.for_cluster(self, zm, 0.0, check.scale)  # budgets free of z
        for name, residual in (("gauge_condition", check.residual), ("interaction_symmetric", zm.asymmetry)):
            if residual > model.budget(name):
                raise GaugeIncompatible(
                    f"{name} residual {residual:.3e} exceeds its budget "
                    f"{model.budget(name):.1e}: P is compatible only above rounding"
                )
        return zm, check

    def _builtin(self, gauge: str, z: float | None) -> InteractionMatrix:
        n = self.A.shape[0]
        if gauge == "identity":
            w, modes = np.ones(n), np.eye(n)
            p = np.eye(n)
        elif gauge == "faithful":
            if z is None or not (np.isfinite(z) and z > 0):
                raise ValueError("squeezing scale z must be positive and finite")
            order = np.argsort(np.abs(self.eigenvalues), kind="stable")
            lam, q = self.eigenvalues[order], self._spectrum[1][:, order]
            w, modes = 1.0 + np.log1p(lam * lam) / (2.0 * z), self.frame[:, order]
            # F diag(w) F^dagger, with the real Q diag(w) Q^T between the phases
            p = self._phases[:, None] * ((q * w[None, :]) @ q.T) * self._phases.conj()[None, :]
        else:
            raise ValueError(f"unknown gauge {gauge!r}; use 'identity' or 'faithful'")
        _require_definite(w)
        p = (p + p.conj().T) / 2.0
        return InteractionMatrix(Z=p @ self.U, P=p, U=self.U, strengths=w, modes=modes)


def validate_gauge(cluster: ClusterPlan, P) -> GaugeCheck:
    """Check the reality condition tying a gauge factor to a cluster.

    P is compatible exactly when (A + i 1) e^{i Theta} P e^{-i Theta}
    (A - i 1) is a real matrix, which is equivalent to P U being symmetric.
    Returns the relative imaginary residual of that test matrix and its
    largest entry; a residual above ``rtol`` raises
    :class:`GaugeIncompatible`.  Hermiticity, positivity and singularity
    concern P alone and are checked where its eigenpairs are formed.
    """
    a = cluster.A
    if np.shape(P) != a.shape:
        raise DimensionMismatch("gauge factor shape does not match the graph")
    p = as_complex_matrix(P)
    ph = np.exp(1j * cluster.theta)
    b = ph[:, None] * p * ph.conj()[None, :]
    # (A + i) B (A - i) in real products with the symmetric A:
    # B (A - i) = (A B^T)^T - i B
    right = _real_product(a, b.T).T - 1j * b
    test = _real_product(a, right) + 1j * right
    scale = max_abs(test)
    # The test matrix vanishes only for P = 0, which is real.
    residual = max_abs(test.imag) / scale if scale else 0.0
    if not residual <= DEFAULT_TOLERANCES.rtol:
        raise GaugeIncompatible(
            f"gauge reality residual {residual:.3e} exceeds {DEFAULT_TOLERANCES.rtol:.1e}"
        )
    return GaugeCheck(residual=float(residual), scale=scale)


def check_squeeze_budget(strength_max: float, z: float) -> None:
    """Reject z * lambda_max beyond the double-precision cosh budget."""
    if z * strength_max > DEFAULT_TOLERANCES.z_cap:
        raise DomainError(
            f"z * max squeezer strength = {z * strength_max:.2f} exceeds "
            f"{DEFAULT_TOLERANCES.z_cap:.0f}; cosh would exhaust double precision"
        )


def bogoliubov_from_interaction(zm: InteractionMatrix, z: float) -> BogoliubovPair:
    """Bogoliubov blocks of the squeezing transformation at scale z >= 0.

    z = 0 is the identity transformation (X = 1, Y = 0) and is accepted as a
    boundary case.
    """
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    w, q = zm.strengths, zm.modes
    check_squeeze_budget(float(w[-1]), z)
    x = _spectral(q, np.cosh(z * w))
    y = -1j * _spectral(q, np.sinh(z * w)) @ zm.U
    return BogoliubovPair(X=x, Y=y)


def covariance_closed_form(
    cluster: ClusterPlan, zm: InteractionMatrix, z: float
) -> CovarianceReport:
    """Closed-form nullifier covariance of the synthesized state.

    ``zm`` is the interaction matrix of the cluster, as built by
    :meth:`ClusterPlan.interaction`, which checks the gauge; e^{-z P} comes
    from its eigenpairs.  Single code path for every gauge; the special
    cases (faithful gauge e^{-2z} 1, trivial gauge (A^2 + 1) e^{-2z},
    self-inverse graphs 2 e^{-2z} 1) are consequences used as test oracles,
    not branches.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    a = cluster.A
    if a.shape[0] != zm.n:
        raise DimensionMismatch(f"graph has {a.shape[0]} modes, interaction has {zm.n}")
    rotated = np.exp(1j * cluster.theta)[:, None] * _spectral(zm.modes, np.exp(-z * zm.strengths))
    e_factor = _real_product(a, rotated) + 1j * rotated  # (A + i 1) e^{i Theta} e^{-z P}
    raw = e_factor @ e_factor.conj().T
    c = (raw.real + raw.real.T) / 2.0
    return CovarianceReport(
        C=c,
        E=e_factor,
        max_abs=max_abs(c),
        imag_residual=max_abs(raw.imag),
        asym_residual=symmetry_defect(raw),
    )


def squeezer_spectrum(zm: InteractionMatrix, z: float) -> list[SqueezerMode]:
    """Per-mode squeezing recipe: eigenvalues of P with gains and decibels.

    The eigenvalues of P (singular values of Z) fix the strengths of the
    single-mode squeezers in the interferometer decomposition; returned in
    ascending order.
    """
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    w = zm.strengths
    check_squeeze_budget(float(w[-1]), z)
    return [
        SqueezerMode(
            strength=float(lam),
            cosh_factor=float(np.cosh(z * lam)),
            sinh_factor=float(np.sinh(z * lam)),
            decibels=float(20.0 * z * lam / math.log(10.0)),
        )
        for lam in w
    ]
