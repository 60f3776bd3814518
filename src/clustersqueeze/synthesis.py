"""Forward direction: from a weighted cluster to a squeezing transformation.

Given an adjacency matrix A, local phases Theta and a positive-definite gauge
factor P, this module builds the symmetric unitary structure factor

    U = -i e^{-i Theta} (A - i 1)(A + i 1)^{-1} e^{-i Theta},

the interaction matrix Z = P U, the Bogoliubov blocks

    X = cosh(z P),    Y = -i sinh(z P) U,

and the closed-form nullifier covariance

    C = (A + i 1) e^{i Theta} e^{-2 z P} e^{-i Theta} (A - i 1) = E E^dagger,

with E = (A + i 1) e^{i Theta} e^{-z P}.  The gauge factor is free up to the
reality condition that :meth:`ClusterPlan.interaction` gates; the faithful
choice makes C exactly e^{-2z} times the identity.

With P = Q_P diag(w) Q_P^dagger the covariance is taken in the nullifier
frame M = (A + i 1) e^{i Theta} Q_P, one real product with A: H = M e^{-z w}
scales its columns and C = H H^dagger, because Q_P^dagger Q_P = 1.  E = H
Q_P^dagger is formed only when a report reads it.  M does not depend on z
(the modes of every gauge are z-free), so a sweep forms it once and pays one
Gram product per row.

Two plans carry the factorizations.  :class:`ClusterPlan`, the checked
cluster that every cluster-side function takes, holds the one real
eigendecomposition A = Q diag(lam) Q^T, taken on first use: with
F = e^{-i Theta} Q, U = -i F diag((lam - i)/(lam + i)) F^T and the faithful
gauge F diag(1 + ln(1 + lam^2) / (2z)) F^dagger need no further
factorization.  :class:`InteractionMatrix` holds Z = P U with the
eigenpairs of P, and X, Y, C and the squeezer strengths come from them.
The cluster plan builds it for every gauge; the polar split of Z builds it
when only Z is given.  In the plan's canonical interferometer
W = F diag((1 + i lam) / |1 + i lam|), U = i W W^T, and every compatible
gauge is P = W S_W W^dagger with S_W real symmetric positive definite.  A
custom P's eigenpairs come from one real ``eigh`` of S_W = O diag(w) O^T:
its modes are W O, and the built-in gauges are the case O = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    GaugeIncompatible,
    NotHermitian,
    NotPositiveDefinite,
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
)
from .tolerances import DEFAULT_TOLERANCES, ErrorModel


@dataclass(frozen=True)
class InteractionMatrix:
    """Synthesis plan: Z = P U with the eigendecomposition of P.

    P is Hermitian positive definite (the squeezing strengths) and U is
    symmetric unitary (the cluster structure).  ``strengths`` (ascending)
    and ``modes`` (column eigenvectors) are the eigenpairs of P, computed
    once here and read by every consumer.  Build instances through
    :meth:`from_matrix` or :meth:`ClusterPlan.interaction`, which enforce
    the invariants.  ``cluster`` is the plan that built the record and
    ``gauge`` the gauge it named, ``"identity"``, ``"faithful"`` or
    ``"custom"`` (whose modes are W O); both are None for a polar split.
    """

    Z: np.ndarray
    P: np.ndarray
    U: np.ndarray
    strengths: np.ndarray
    modes: np.ndarray
    cluster: ClusterPlan | None = field(default=None, repr=False, compare=False)
    gauge: str | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @cached_property
    def asymmetry(self) -> float:
        """Relative asymmetry of Z; zero exactly when the gauge is compatible."""
        return symmetry_defect(self.Z) / max(1.0, max_abs(self.Z))

    @classmethod
    def from_matrix(cls, Z) -> "InteractionMatrix":
        """Polar-decompose a complex symmetric non-singular matrix; P's
        eigenpairs come from the split's one SVD, which also checks Z.  Z is
        held as the symmetric part the split factorizes, so P U = Z to
        rounding and P is compatible with the cluster U encodes."""
        p, u, w, q = split = polar_decompose_symmetric(Z)
        return cls(Z=split.part, P=p, U=u, strengths=w, modes=q)


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
        xy = _real_product(self.X, self.Y.T)  # and Y X^T is its transpose
        return first, max_abs(xy - xy.T)


@dataclass(frozen=True)
class CovarianceReport:
    """Nullifier covariance C = H H^dagger with its factor.

    ``C`` is the real symmetric covariance as reported, ``max_abs`` its
    largest entry.  ``H`` is the factor in the eigenbasis ``modes`` of P,
    so E = H Q_P^dagger; without ``modes``, H is E itself.  E and
    ``imag_residual``, the largest imaginary entry of H H^dagger and thus
    the realness defect of the covariance, are formed on first read.
    """

    C: np.ndarray
    H: np.ndarray
    max_abs: float
    modes: np.ndarray | None = None

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.C))

    @cached_property
    def E(self) -> np.ndarray:
        return self.H if self.modes is None else self.H @ self.modes.conj().T

    @cached_property
    def imag_residual(self) -> float:
        if not np.iscomplexobj(self.H):
            return 0.0
        cross = self.H.imag @ self.H.real.T  # Im H H^dagger = cross - cross^T
        return symmetry_defect(cross)


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
    """A checked cluster (A, Theta), built by :meth:`of` or from an exactly
    symmetric A.  Its properties take A = Q diag(lam) Q^T once, on first use:
    F = e^{-i Theta} Q and U = -i F diag((lam - i)/(lam + i)) F^T."""

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
    def by_magnitude(self) -> tuple[np.ndarray, np.ndarray]:
        """lam and Q in ascending |lam| (stable order): the order of the
        faithful strengths and of the Bloch-Messiah factors read off the plan."""
        order = np.argsort(np.abs(self.eigenvalues), kind="stable")
        return self.eigenvalues[order], self._spectrum[1][:, order]

    @cached_property
    def frame(self) -> np.ndarray:
        """F = e^{-i Theta} Q, its columns in the order of ``by_magnitude``."""
        return self._phases[:, None] * self.by_magnitude[1]

    @cached_property
    def rotation(self) -> np.ndarray:
        """(1 + i lam) / |1 + i lam|; F diag(rotation) is the canonical interferometer."""
        lam = self.by_magnitude[0]
        return (1.0 + 1j * lam) / np.sqrt(lam * lam + 1.0)

    @cached_property
    def interferometer(self) -> np.ndarray:
        """W = F diag(rotation), the canonical interferometer with O = Q."""
        return self.frame * self.rotation[None, :]

    def eigenpairs(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Strengths w and modes W O of a Hermitian P compatible with the
        cluster, from one real eigh(Re S_W) = O diag(w) O^T, S_W = W^dagger P W.

        With G = diag(sqrt(1 + lam^2)), the gauge gate's test matrix
        (A + i) e^{i Theta} P e^{-i Theta} (A - i) is Q G S_W G Q^T, and
        G >= 1, so Im S_W is no larger in the 2-norm than the imaginary
        part the gate judges: Re S_W drops nothing the gate does not bound.
        """
        w_frame = self.interferometer
        s = w_frame.conj().T @ (p @ w_frame)
        w, o = np.linalg.eigh(s.real)
        # W O = (O^T W^T)^T, one real product with O
        return w, _real_product(o.T, w_frame.T).T

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
        ascending) or an explicit P (modes W O, see :meth:`eigenpairs`).
        One builder plans every gauge and checks what concerns P first: an
        explicit P's shape (:class:`DimensionMismatch`), finiteness and
        Hermiticity (:class:`NotHermitian`), then for every gauge
        positivity and singularity of the strengths
        (:class:`NotPositiveDefinite`); an explicit P's strengths are those
        of Re S_W, which are P's to rounding whenever the gate passes.  One gate
        then judges compatibility: a reality (``gauge_condition``) or
        ``interaction_symmetric`` residual above its :class:`ErrorModel`
        budget raises :class:`GaugeIncompatible`, so the rows built on P see
        no incompatibility beyond the rounding they budget for.
        """
        zm = self._plan(gauge, z)
        check = _reality_check(self, zm.P)
        model = ErrorModel.for_cluster(self, zm, 0.0, check.scale)  # budgets free of z
        for name, residual in (("gauge_condition", check.residual), ("interaction_symmetric", zm.asymmetry)):
            if not residual <= model.budget(name):
                raise GaugeIncompatible(
                    f"{name} residual {residual:.3e} exceeds its budget "
                    f"{model.budget(name):.1e}: P fails the reality condition beyond rounding"
                )
        return zm, check

    def faithful_strengths(self, z: float | None) -> np.ndarray:
        """1 + ln(1 + lam^2) / (2 z) in the order of ``by_magnitude``: the
        faithful gauge's strengths, the only ones that depend on z."""
        if z is None or not (np.isfinite(z) and z > 0):
            raise ValueError("squeezing scale z must be positive and finite")
        lam = self.by_magnitude[0]
        return 1.0 + np.log1p(lam * lam) / (2.0 * z)

    def _plan(self, gauge, z: float | None) -> InteractionMatrix:
        """The record of Z = P U, P Hermitian with its eigenpairs, for any gauge of this plan."""
        n = self.A.shape[0]
        if not isinstance(gauge, str):
            if np.shape(gauge) != self.A.shape:
                raise DimensionMismatch("gauge factor shape does not match the graph")
            p = as_complex_matrix(gauge)
            if hermiticity_defect(p) > DEFAULT_TOLERANCES.rtol * max(1.0, max_abs(p)):
                raise NotHermitian("gauge factor is not Hermitian")
            p = (p + p.conj().T) / 2.0
            w, modes = self.eigenpairs(p)
            gauge = "custom"
        elif gauge == "identity":
            w, modes = np.ones(n), np.eye(n)
            p = np.eye(n)
        elif gauge == "faithful":
            w, modes, q = self.faithful_strengths(z), self.frame, self.by_magnitude[1]
            # F diag(w) F^dagger, with the real Q diag(w) Q^T between the phases
            p = self._phases[:, None] * _spectral(q, w) * self._phases.conj()[None, :]
            p = (p + p.conj().T) / 2.0
        else:
            raise ValueError(f"unknown gauge {gauge!r}; use 'identity' or 'faithful'")
        if not w[0] > DEFAULT_TOLERANCES.singular * w[-1]:
            raise NotPositiveDefinite(
                f"gauge factor has min eigenvalue {w[0]:.3e}: not positive definite "
                "or numerically singular"
            )
        return InteractionMatrix(Z=p @ self.U, P=p, U=self.U, strengths=w, modes=modes,
                                 cluster=self, gauge=gauge)


def _reality_check(cluster: ClusterPlan, p: np.ndarray) -> GaugeCheck:
    """Relative imaginary residual and largest entry of the test matrix
    (A + i 1) e^{i Theta} P e^{-i Theta} (A - i 1) of a finite P of the
    cluster's shape, real exactly when P is compatible (P U symmetric);
    the plan's gate judges the residual by its budget."""
    a = cluster.A
    ph = np.exp(1j * cluster.theta)
    b = ph[:, None] * p * ph.conj()[None, :]
    # (A + i) B (A - i) in real products with the symmetric A:
    # B (A - i) = (A B^T)^T - i B
    right = _real_product(a, b.T).T - 1j * b
    test = _real_product(a, right) + 1j * right
    scale = max_abs(test)
    # The test matrix vanishes only for P = 0, which is real.
    residual = max_abs(test.imag) / scale if scale else 0.0
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
    sinh = _spectral(q, np.sinh(z * w))
    # -i sinh(zP) U; a real sinh(zP) takes the -i into U and one real product
    y = (-1j * sinh) @ zm.U if np.iscomplexobj(sinh) else _real_product(sinh, -1j * zm.U)
    return BogoliubovPair(X=x, Y=y)


def covariance_closed_form(
    cluster: ClusterPlan, zm: InteractionMatrix, z: float
) -> CovarianceReport:
    """Closed-form nullifier covariance of the synthesized state.

    ``zm`` is compatible with the cluster: built by :meth:`ClusterPlan.interaction`,
    which gates the gauge, or a polar split and the cluster ``analyze``
    recovers from its own U, compatible by construction.  C = H H^dagger
    with H = M e^{-z w} from the nullifier frame M = (A + i 1) e^{i Theta}
    Q_P of P's eigenpairs (w, Q_P); E = H Q_P^dagger is formed on first
    read.  Single code path for every gauge; the special cases (faithful
    gauge e^{-2z} 1, trivial gauge (A^2 + 1) e^{-2z}, self-inverse graphs
    2 e^{-2z} 1) are consequences used as test oracles, not branches.
    """
    if not (np.isfinite(z) and z > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    if cluster.A.shape[0] != zm.n:
        raise DimensionMismatch(f"graph has {cluster.A.shape[0]} modes, interaction has {zm.n}")
    return _frame_covariance(_nullifier_frame(cluster, zm.modes), zm.strengths, z, zm.modes)


def _nullifier_frame(cluster: ClusterPlan, modes: np.ndarray) -> np.ndarray:
    """M = (A + i 1) e^{i Theta} Q_P: one real product with A."""
    rotated = np.exp(1j * cluster.theta)[:, None] * modes
    return _real_product(cluster.A, rotated) + 1j * rotated


def _frame_covariance(
    frame: np.ndarray, strengths: np.ndarray, z: float, modes: np.ndarray | None = None
) -> CovarianceReport:
    """C = H H^dagger with H = M e^{-z w}, for the frame M of ``modes``."""
    h = frame * np.exp(-z * strengths)[None, :]
    # Re H H^dagger from the float view [Re H, Im H] (columns interleaved):
    # one same-buffer product (BLAS syrk), exactly symmetric
    real = np.ascontiguousarray(h).view(float)
    c = real @ real.T
    return CovarianceReport(C=c, H=h, max_abs=max_abs(c), modes=modes)


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
