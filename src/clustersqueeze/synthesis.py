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
eigendecomposition A = Q diag(lam) Q^T, taken on first use and held once,
in ascending |lam|; U is formed on first read, in eigh's own order and
layout, which fix its bits.  With F = e^{-i Theta} Q,
U = -i F diag((lam - i)/(lam + i)) F^T and the faithful gauge
F diag(1 + ln(1 + lam^2) / (2z)) F^dagger need no further factorization.  :class:`InteractionMatrix` holds Z = P U with the
eigenpairs of P, and X, Y, C and the squeezer strengths come from them.
The cluster plan builds and gates it for every gauge; the polar split of
Z builds it when only Z is given.  In the plan's canonical interferometer
W = F diag((1 + i lam) / |1 + i lam|), U = i W W^T, and every compatible
gauge is P = W S_W W^dagger with S_W real symmetric positive definite.  A
custom P's eigenpairs come from one real ``eigh`` of S_W = O diag(w) O^T:
its modes are W O, and the built-in gauges are the case O = 1.

The real route.  A P diagonal in the plan's frame, P = F diag(w) F^dagger
(the identity and faithful gauges, whose records are ``diagonal``), has
every block of the form Q diag(d) Q^T between diagonal phases.  With
r = (lam - i)/(lam + i), each comes from real products with Q
(:func:`~clustersqueeze.matfun._spectral` forms every Q diag(d) Q^T):

    Z = -i F diag(w r) F^T,               X = F diag(cosh zw) F^dagger,
    Y = -F diag(sinh(zw) r) F^T,          C = R diag(e^{-2zw}) R^T,

with the real R = Q diag(sqrt(1 + lam^2)), because (A + i) Q =
Q diag(lam + i); C is one syrk of R e^{-zw}, which a sweep scales per row.
A scalar P = w 1, the identity gauge, takes Z = w U, X = cosh(zw) 1 and
Y = -i sinh(zw) U with no product, and C = e^{-2zw} (A A^T + 1) from one
syrk of A, which keeps the zeros of A^2 + 1.  Nothing else takes this
route: a custom gauge keeps Z = P U and its blocks from its modes W O;
``analyze``'s polar split keeps the complex frame for C; and the oracle
reads only Z, A and Theta.  P does not feed Z here: the gauge gate
judges the published P's reality, and ``InteractionMatrix.departure``
ties it to Z.  E = Q diag((lam + i) e^{-zw}) Q^T e^{i Theta},
formed only when read, is (A + i) e^{i Theta} e^{-zw} for a scalar P, with
no product, so the zeros of A stay exact zeros of E.  The realness defect
that the ``covariance_real`` row judges comes from H = (A + i) Q e^{-zw},
one real product with A: Im H H^dagger is the commutator of Q e^{-2zw} Q^T
with A, which vanishes when A Q = Q diag(lam), the identity R rests on.

Zero phases and the gate.  A plan whose Theta is exactly zero has F = Q,
so the faithful P, its modes, X and the Bloch-Messiah T = F^dagger are real
arrays, equal in value to what the phase factors 1 would give.  The gauge
gate judges the test matrix T = (A + i 1) B (A - i 1), B = e^{i Theta} P
e^{-i Theta} = Br + i Bi, through Im T = A Bi A + Br A - (Br A)^T + Bi in
real products (:func:`_reality_check`): at zero phases B = P, so the
faithful P takes one product and the identity's none, and the scale is
T's largest diagonal entry, which is max|T| since T is Hermitian positive
semi-definite for a positive-definite P.
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
from .tolerances import RTOL, SINGULAR, ErrorModel, check_squeeze_budget, positive_scale


@dataclass(frozen=True)
class InteractionMatrix:
    """Synthesis plan: Z = P U with the eigendecomposition of P.

    P is Hermitian positive definite (the squeezing strengths) and U is
    symmetric unitary (the cluster structure).  ``strengths`` (ascending)
    and ``modes`` (column eigenvectors) are the eigenpairs of P, computed
    once here and read by every consumer, as is ``z``, the scale the record
    is planned at.  Build instances through :meth:`from_matrix` or
    :meth:`ClusterPlan.interaction`, which enforce the invariants and the
    squeeze budget z max(strengths) <= ``Z_CAP``.  ``cluster`` is the plan
    that built the record and ``gauge`` the gauge it named, ``"identity"``,
    ``"faithful"`` or ``"custom"`` (whose modes are W O); both are None for
    a polar split.  A record of a built-in gauge is ``diagonal``: its P is
    F diag(strengths) F^dagger in its plan's frame F, and its Z, X, Y and C
    come off the plan's real Q.
    """

    Z: np.ndarray
    P: np.ndarray
    U: np.ndarray
    strengths: np.ndarray
    modes: np.ndarray
    z: float
    cluster: ClusterPlan | None = field(default=None, repr=False, compare=False)
    gauge: str | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def diagonal(self) -> bool:
        """P = F diag(strengths) F^dagger in its plan's frame F: a built-in gauge."""
        return self.cluster is not None and self.gauge in ("identity", "faithful")

    @property
    def scalar(self) -> bool:
        """A diagonal P that is w 1 (:func:`_uniform`), as the identity gauge's is."""
        return self.diagonal and _uniform(self.strengths)

    @cached_property
    def asymmetry(self) -> float:
        """Relative asymmetry of Z.  Z = P U is symmetric exactly when P is
        compatible; a built-in gauge's Z = -i F diag(w r) F^T is symmetric
        by construction, up to the rounding of its product with Q."""
        return symmetry_defect(self.Z) / max(1.0, max_abs(self.Z))

    @cached_property
    def departure(self) -> float:
        """max|Z v - P (U v)| on the fixed unit probe v of :func:`_probe`, in
        O(N^2).  A built-in gauge forms Z off the plan's Q apart from P, so
        this is what ties the published P to Z, and through Z to the oracle."""
        v = _probe(self.n)
        return max_abs(self.Z @ v - self.P @ (self.U @ v))

    @cached_property
    def reality(self) -> GaugeCheck | None:
        """The reality check of P that the plan's gate judged; None for a polar split."""
        return None if self.cluster is None else _reality_check(self.cluster, self.P)

    @classmethod
    def from_matrix(cls, Z, z: float) -> "InteractionMatrix":
        """Polar-decompose a complex symmetric non-singular matrix and plan it
        at scale z; P's eigenpairs come from the split's one SVD, which also
        checks Z.  Z is held as the symmetric part the split factorizes, so
        P U = Z to rounding and P is compatible with the cluster U encodes."""
        p, u, w, q = split = polar_decompose_symmetric(Z)
        z = check_squeeze_budget(float(w[-1]), z)
        return cls(Z=split.part, P=p, U=u, strengths=w, modes=q, z=z)


@dataclass(frozen=True)
class BogoliubovPair:
    """Blocks (X, Y) of a 2N x 2N Bogoliubov matrix [[X, Y], [Y*, X*]].

    ``scalar`` is c when X = c 1, set by :func:`bogoliubov_from_interaction`
    for a record whose P is scalar; it is no constructor argument, so a
    copy with a new X (``dataclasses.replace``) is judged by its products.
    """

    X: np.ndarray
    Y: np.ndarray
    scalar: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def defects(self) -> tuple[float, float]:
        """Residuals of the bosonic-commutation conditions.

        Returns max-entry residuals of ``X X^dagger - Y Y^dagger - 1`` and
        ``X Y^T - Y X^T``; both vanish for a genuine Bogoliubov pair.  A
        scalar X = c 1 takes no product with X: X X^dagger is c^2 1 and
        X Y^T is c Y^T, the values the products give.
        """
        eye, c = np.eye(self.n), self.scalar
        if c is None:
            gram = self.X @ self.X.conj().T - self.Y @ self.Y.conj().T
            xy = _real_product(self.X, self.Y.T)  # and Y X^T is its transpose
        else:
            gram = -(self.Y @ self.Y.conj().T)
            gram[np.diag_indices_from(gram)] += c * c
            xy = c * self.Y.T
        return max_abs(gram - eye), max_abs(xy - xy.T)


@dataclass(frozen=True)
class CovarianceReport:
    """Closed-form nullifier covariance C = H H^dagger with its factor.

    ``C`` is the real symmetric covariance as reported, ``max_abs`` its
    largest entry.  ``H`` is the complex factor in the eigenbasis Q_P of
    the ``record``'s P.  E and ``imag_residual``, the largest imaginary
    entry of H H^dagger and thus the realness defect of the covariance, are
    formed on first read: E = H Q_P^dagger, or for a record diagonal in its
    plan's frame off the plan's real Q (:func:`_nullifiers`).
    """

    C: np.ndarray
    H: np.ndarray
    max_abs: float
    record: InteractionMatrix = field(repr=False, compare=False)

    @cached_property
    def E(self) -> np.ndarray:
        zm = self.record
        return _nullifiers(zm) if zm.diagonal else self.H @ zm.modes.conj().T

    @cached_property
    def imag_residual(self) -> float:
        cross = self.H.imag @ self.H.real.T  # Im H H^dagger = cross - cross^T
        return symmetry_defect(cross)


class GaugeCheck(NamedTuple):
    """The gauge gate's reading of the test matrix T = (A + i) B (A - i),
    B = e^{i Theta} P e^{-i Theta}: max|Im T| relative to ``scale``, T's
    largest diagonal entry, which is max|T| for a positive-definite P."""

    residual: float
    scale: float


class _Spectrum(NamedTuple):
    """A = Q diag(lam) Q^T in ascending |lam|, with r = (lam - i)/(lam + i)
    and the ``order`` that took eigh's columns to it."""

    lam: np.ndarray
    q: np.ndarray
    r: np.ndarray
    order: np.ndarray


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
    symmetric A.  Its properties read one eigendecomposition A = Q diag(lam)
    Q^T, taken on first use (:attr:`_factorization`): F = e^{-i Theta} Q and
    U = -i F diag(r) F^T, r = (lam - i)/(lam + i)."""

    A: np.ndarray
    theta: np.ndarray

    @classmethod
    def of(cls, A, theta) -> "ClusterPlan":
        a = adjacency_matrix(A)
        return cls(A=a, theta=phase_vector(theta, a.shape[0]))

    @cached_property
    def _phases(self) -> np.ndarray:
        return np.exp(-1j * self.theta)

    @cached_property
    def _factorization(self) -> _Spectrum:
        """The one eigh of A, held in ascending |lam| (stable order), the
        order of the faithful strengths and of the Bloch-Messiah factors
        read off the plan."""
        lam, q = np.linalg.eigh(self.A)
        order = np.argsort(np.abs(lam), kind="stable")
        lam = lam[order]
        return _Spectrum(lam, q[:, order], (lam - 1j) / (lam + 1j), order)

    @property
    def by_magnitude(self) -> tuple[np.ndarray, np.ndarray]:
        """lam and Q in ascending |lam| (stable order)."""
        lam, q, _, _ = self._factorization
        return lam, q

    @cached_property
    def U(self) -> np.ndarray:
        """U = -i F diag(r) F^T, formed on first read, so a plan that never
        reads it (the one ``bloch_messiah`` recovers for Z alone) makes no
        product for it.  It is formed in eigh's own order and operand
        layout, a C-ordered Q (``take`` gives one, ``q[:, eigh]`` an
        F-ordered one), which fixes its bits: a product by BLAS rounds
        differently by layout as well as by order."""
        _, q, r, order = self._factorization
        eigh = np.argsort(order)
        ph = self._phases
        u = -1j * ph[:, None] * _spectral(q.take(eigh, axis=1), r[eigh], transpose=True) * ph[None, :]
        return (u + u.T) / 2.0

    @property
    def kappa(self) -> float:
        """1 + max|lam(A)| >= ||A + i||_2, the bound on how much U amplifies
        rounding that the gauge gate and :class:`ErrorModel` read."""
        return 1.0 + float(abs(self._factorization.lam[-1]))

    @cached_property
    def _real_frame(self) -> bool:
        """Whether Theta is exactly zero, so that F = Q is real."""
        return not np.any(self.theta)

    @cached_property
    def frame(self) -> np.ndarray:
        """F = e^{-i Theta} Q, its columns in the order of ``by_magnitude``;
        the real Q at zero phases, where adding 0.0 turns each -0.0 of eigh
        into the 0.0 that the product with the phases gives, so that T = F^dagger
        and V = F diag(rotation) keep their bits."""
        q = self._factorization.q
        return q + 0.0 if self._real_frame else self._phases[:, None] * q

    @cached_property
    def rotation(self) -> np.ndarray:
        """(1 + i lam) / |1 + i lam|; F diag(rotation) is the canonical interferometer."""
        lam = self._factorization.lam
        return (1.0 + 1j * lam) / np.sqrt(lam * lam + 1.0)

    @cached_property
    def interferometer(self) -> np.ndarray:
        """W = F diag(rotation), the canonical interferometer with O = Q."""
        return self.frame * self.rotation[None, :]

    def _in_frame(self, d: np.ndarray, transpose: bool = False) -> np.ndarray:
        """F diag(d) F^dagger, or F diag(d) F^T with ``transpose``, for d in
        the order of ``by_magnitude``: Q diag(d) Q^T (:func:`_spectral`, in
        real arithmetic) between the phases, with none at zero phases, where
        a real d gives a real matrix."""
        inner = _spectral(self._factorization.q, d, transpose)
        if self._real_frame:
            return inner
        ph = self._phases
        return ph[:, None] * inner * (ph if transpose else ph.conj())[None, :]

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

    def interaction(self, gauge, z: float) -> InteractionMatrix:
        """The record of Z = P U for a gauge at scale z, once its gate has passed.

        ``gauge`` is ``"identity"`` (P and its modes 1, so P and X stay
        real), ``"faithful"`` (modes F, strengths 1 + ln(1 + lam^2) / (2 z)
        ascending; P and X real at zero phases, where F = Q) or an explicit
        P (modes W O, see :meth:`eigenpairs`).
        One builder plans every gauge and checks what concerns P first: an
        explicit P's shape (:class:`DimensionMismatch`), finiteness and
        Hermiticity (:class:`NotHermitian`), then for every gauge
        positivity and singularity of the strengths
        (:class:`NotPositiveDefinite`).  The gate then judges the record's
        ``reality`` and ``asymmetry``: either residual above its
        :class:`ErrorModel` budget raises :class:`GaugeIncompatible`, so the
        rows built on P see no incompatibility beyond the rounding they
        budget for.  The gate's two budgets are free of z and form no
        cosh(z lambda_max).  Only a gauge that passes meets the squeeze
        budget on its largest strength (:class:`DomainError`): an explicit
        P's strengths are those of Re S_W, which are P's to rounding only
        when the gate passes.  The gate's test matrix has entries up to
        kappa^2 max(eig P) with the plan's ``kappa``; a bound past the float
        range is a :class:`DomainError`, kappa^2 alone checked before the
        faithful strengths square lam, as are faithful strengths past it.
        """
        kappa = self.kappa
        _in_float_range(kappa * kappa, kappa)
        zm = self._plan(gauge, z)
        _in_float_range(kappa * kappa * float(zm.strengths[-1]), kappa)
        model = ErrorModel.of(zm)
        for name, residual in (("gauge_condition", zm.reality.residual), ("interaction_symmetric", zm.asymmetry)):
            if not residual <= model.budget(name):
                raise GaugeIncompatible(
                    f"{name} residual {residual:.3e} exceeds its budget "
                    f"{model.budget(name):.1e}: P fails the reality condition beyond rounding"
                )
        check_squeeze_budget(float(zm.strengths[-1]), zm.z)
        return zm

    def faithful_strengths(self, z: float) -> np.ndarray:
        """1 + ln(1 + lam^2) / (2 z) in the order of ``by_magnitude``: the
        faithful gauge's strengths, the only ones that depend on z.  A z so
        small that a strength overflows is a :class:`DomainError`."""
        z = positive_scale(z)
        lam = self.by_magnitude[0]
        with np.errstate(over="ignore"):
            w = 1.0 + np.log1p(lam * lam) / (2.0 * z)
        if not np.all(np.isfinite(w)):
            raise DomainError(f"faithful strengths 1 + ln(1 + lam^2) / (2 z) overflow at z = {z!r}")
        return w

    def _plan(self, gauge, z) -> InteractionMatrix:
        """The record of Z = P U at z, for any gauge of this plan.

        A P diagonal in the frame F (the built-in gauges) takes Z = P U =
        -i F diag(w r) F^T off the real Q, or Z = w U when P is a scalar.
        Every record holds U, formed first, as it was beside the
        factorization: formed after P and Z, it raised the peak RSS of
        perfbench's verify-dense (N = 320) from 72.2 to 76.0 MB.
        """
        n, u = self.A.shape[0], self.U
        if not isinstance(gauge, str):
            if np.shape(gauge) != self.A.shape:
                raise DimensionMismatch("gauge factor shape does not match the graph")
            p = as_complex_matrix(gauge)
            if hermiticity_defect(p) > RTOL * max(1.0, max_abs(p)):
                raise NotHermitian("gauge factor is not Hermitian")
            p = (p + p.conj().T) / 2.0
            w, modes = self.eigenpairs(p)
            gauge = "custom"
        elif gauge == "identity":
            w, modes = np.ones(n), np.eye(n)
            p = np.eye(n)
        elif gauge == "faithful":
            w, modes = self.faithful_strengths(z), self.frame
            p = self._in_frame(w)
            p = (p + p.conj().T) / 2.0
        else:
            raise ValueError(f"unknown gauge {gauge!r}; use 'identity' or 'faithful'")
        if not w[0] > SINGULAR * w[-1]:
            raise NotPositiveDefinite(
                f"gauge factor has min eigenvalue {w[0]:.3e}: not positive definite "
                "or numerically singular"
            )
        if gauge == "custom":
            interaction = p @ u
        elif _uniform(w):
            interaction = _scaled(u, w[0])
        else:
            interaction = self._in_frame(-1j * w * self._factorization.r, transpose=True)
        return InteractionMatrix(Z=interaction, P=p, U=u, strengths=w, modes=modes,
                                 z=positive_scale(z), cluster=self, gauge=gauge)


def _uniform(w: np.ndarray) -> bool:
    """Whether the ascending strengths w are all equal: a P diagonal in its
    plan's frame is then w 1, and its blocks need no product with Q."""
    return bool(w[0] == w[-1])


def _probe(n: int) -> np.ndarray:
    """The fixed real unit vector that ``InteractionMatrix.departure`` tests
    Z = P U on, v_k ~ cos(sqrt(2) k): no two entries are equal, so no
    eigenvector of a graph is orthogonal to it by the graph's symmetry."""
    v = np.cos(math.sqrt(2.0) * np.arange(1, n + 1))
    return v / np.linalg.norm(v)


def _scaled(m: np.ndarray, factor: float) -> np.ndarray:
    """A complex m times a real factor, each part scaled alone: a factor 1
    keeps every bit, signed zeros included."""
    return (m.view(float) * factor).view(complex)


def _in_float_range(bound: float, kappa: float) -> None:
    """Reject a gate whose test matrix bound kappa^2 max(eig P) overflows."""
    if not bound < math.inf:
        raise DomainError(
            f"(1 + max|eig A|)^2 max(eig P) overflows double precision "
            f"(max|eig A| = {kappa - 1.0:.3e}): the gauge gate cannot judge P"
        )


def _reality_check(cluster: ClusterPlan, p: np.ndarray) -> GaugeCheck:
    """Relative imaginary residual and scale of the test matrix
    T = (A + i 1) B (A - i 1), B = e^{i Theta} P e^{-i Theta}, of a finite P
    of the cluster's shape, real exactly when P is compatible (P U symmetric).

    With B = Br + i Bi and the symmetric A, Im T = A Bi A + Br A - (Br A)^T
    + Bi, in real products: Br A is one, or a row scaling when B is
    diagonal, and A Bi A two more, taken only when Bi is nonzero.  A plan at
    zero phases has B = P, so a real P (every built-in one there) takes Br A
    alone.  The scale is the largest diagonal entry of T, diag(A Br A) +
    2 diag(A Bi) + diag(Br), in O(N^2).  T = M B M^dagger with M = A + i is
    Hermitian positive semi-definite when P is, so |T_jk| <= sqrt(T_jj T_kk)
    and this is max|T|.  The gate judges only a P whose Re S_W is positive
    definite (:meth:`ClusterPlan.eigenpairs`; the strengths are checked
    first), and T_jj = x^T Re S_W x for a real x != 0, so the scale is
    positive.  The gate's residual and its budget are both relative to the
    scale, so its verdict does not depend on it.
    """
    a = cluster.A
    if cluster._real_frame:
        b = p
    else:
        ph = np.exp(1j * cluster.theta)
        b = ph[:, None] * p * ph.conj()[None, :]
        np.fill_diagonal(b, np.diagonal(p))  # the phases cancel there exactly
    diagonal = np.count_nonzero(b) == np.count_nonzero(np.diagonal(b))

    def times_a(m: np.ndarray) -> np.ndarray:
        return np.diagonal(m)[:, None] * a if diagonal else m @ a

    br = np.ascontiguousarray(b.real)
    br_a = times_a(br)
    imag = br_a - br_a.T
    diag = np.einsum("ij,ij->j", a, br_a) + np.diagonal(br)
    bi = b.imag if np.iscomplexobj(b) else None
    if bi is not None and bi.any():
        bi = np.ascontiguousarray(bi)
        imag += a @ times_a(bi) + bi
        diag += 2.0 * np.einsum("ij,ij->j", a, bi)
    scale, defect = float(np.max(diag)), max_abs(imag)
    # the scale is positive for every P the gate judges (above); any other T passes only if real
    residual = defect / scale if scale > 0 else (0.0 if defect == 0 else math.inf)
    return GaugeCheck(residual=float(residual), scale=scale)


def bogoliubov_from_interaction(zm: InteractionMatrix) -> BogoliubovPair:
    """Bogoliubov blocks X = cosh(z P) and Y = -i sinh(z P) U of the
    squeezing transformation at the record's scale z.

    A P diagonal in its plan's frame F takes X = F diag(cosh zw) F^dagger
    and Y = -F diag(sinh(zw) r) F^T, each from one real product with Q; a
    scalar P = w 1 takes X = cosh(zw) 1 and Y = -i sinh(zw) U with none.
    Any other P takes its blocks from its modes and U.
    """
    w, z = zm.strengths, zm.z
    cosh, sinh = np.cosh(z * w), np.sinh(z * w)
    if zm.scalar:
        pair = BogoliubovPair(X=np.eye(zm.n) * cosh[0], Y=_scaled(-1j * zm.U, sinh[0]))
        object.__setattr__(pair, "scalar", cosh[0])
        return pair
    if zm.diagonal:
        plan = zm.cluster
        y = plan._in_frame(-sinh * plan._factorization.r, transpose=True)
        return BogoliubovPair(X=plan._in_frame(cosh), Y=y)
    x = _spectral(zm.modes, cosh)
    sinh = _spectral(zm.modes, sinh)
    # -i sinh(zP) U; a real sinh(zP) takes the -i into U and one real product
    y = (-1j * sinh) @ zm.U if np.iscomplexobj(sinh) else _real_product(sinh, -1j * zm.U)
    return BogoliubovPair(X=x, Y=y)


def covariance_closed_form(cluster: ClusterPlan, zm: InteractionMatrix) -> CovarianceReport:
    """Closed-form nullifier covariance of the synthesized state at the record's z.

    ``zm`` is compatible with the cluster: built by the
    :meth:`ClusterPlan.interaction` of a plan of this A and Theta, which
    gates the gauge, or a polar split and the cluster ``analyze`` recovers
    from its own U, compatible by construction.  C = H H^dagger with
    H = M e^{-z w} from the nullifier frame M = (A + i 1) e^{i Theta} Q_P of
    P's eigenpairs (w, Q_P); E = H Q_P^dagger is formed on first read.  A
    record diagonal in its plan's frame takes C off that plan's real frame
    (:func:`_covariance_frame`) and E off Q (:func:`_nullifiers`), and its
    H = (A + i) Q e^{-z w}, in the modes F, from one real product with A:
    Im H H^dagger is then the commutator of Q e^{-2 z w} Q^T with A, so
    ``imag_residual`` judges the identity A Q = Q diag(lam) that R rests
    on.  The special cases (faithful gauge e^{-2z} 1, trivial gauge
    (A^2 + 1) e^{-2z}, self-inverse graphs 2 e^{-2z} 1) are consequences
    used as test oracles, not branches.
    """
    if cluster.A.shape[0] != zm.n:
        raise DimensionMismatch(f"graph has {cluster.A.shape[0]} modes, interaction has {zm.n}")
    decay = np.exp(-zm.z * zm.strengths)
    scaled = _covariance_frame(cluster, zm) * decay[None, :]
    c = _frame_covariance(scaled, decay[0] * decay[0] if zm.scalar else 0.0)
    if not zm.diagonal:
        return CovarianceReport(C=c, H=scaled, max_abs=max_abs(c), record=zm)
    plan = zm.cluster
    q, h = plan.by_magnitude[1], np.empty(zm.Z.shape, dtype=complex)
    np.multiply(plan.A @ q, decay, out=h.real)
    np.multiply(q, decay, out=h.imag)
    return CovarianceReport(C=c, H=h, max_abs=max_abs(c), record=zm)


def _nullifiers(zm: InteractionMatrix) -> np.ndarray:
    """E = (A + i 1) e^{i Theta} e^{-z P} of a record diagonal in its plan's
    frame: Q diag((lam + i) e^{-z w}) Q^T e^{i Theta}, one real product with
    Q, or for a scalar P = w 1 (A + i 1) e^{i Theta} e^{-z w} with none, so
    that the zeros of A stay exact."""
    plan, w = zm.cluster, zm.strengths
    decay, ph = np.exp(-zm.z * w), np.exp(1j * plan.theta)
    if zm.scalar:
        e = plan.A * ph[None, :]
        e[np.diag_indices_from(e)] += 1j * ph
        e *= decay[None, :]
        return e
    lam, q = plan.by_magnitude
    return _spectral(q, (lam + 1j) * decay, transpose=True) * ph[None, :]


def _covariance_frame(cluster: ClusterPlan, zm: InteractionMatrix) -> np.ndarray:
    """The frame whose columns, scaled by e^{-z w}, factor C = Re H H^dagger.

    A record diagonal in its plan's frame F has (A + i 1) e^{i Theta} F =
    (A + i 1) Q = Q diag(lam + i): its columns are those of the real
    R = Q diag(sqrt(1 + lam^2)) times phases that H H^dagger drops.  For a
    scalar P = w 1, C = e^{-2zw} (A A^T + 1): the frame is A itself, and
    :func:`_frame_covariance` adds e^{-2zw} 1, so that the zeros of
    A^2 + 1 stay exact.  Any other record takes the nullifier frame
    M = (A + i 1) e^{i Theta} Q_P, one real product with A.
    """
    if zm.scalar:
        return zm.cluster.A
    if zm.diagonal:
        lam, q = zm.cluster.by_magnitude
        return q * np.sqrt(lam * lam + 1.0)[None, :]
    rotated = np.exp(1j * cluster.theta)[:, None] * zm.modes
    return _real_product(cluster.A, rotated) + 1j * rotated


def _frame_covariance(h: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """C = Re H H^dagger + shift 1 of a scaled frame H, real or complex: one
    same-buffer product (BLAS syrk), exactly symmetric, of H itself or of
    its float view [Re H, Im H] (columns interleaved)."""
    real = np.ascontiguousarray(h).view(float)
    c = real @ real.T
    if shift:
        c[np.diag_indices_from(c)] += shift
    return c


def squeezer_spectrum(zm: InteractionMatrix) -> list[SqueezerMode]:
    """Per-mode squeezing recipe at the record's z: eigenvalues of P, gains, decibels.

    The eigenvalues of P (singular values of Z) fix the strengths of the
    single-mode squeezers in the interferometer decomposition; returned in
    ascending order.
    """
    w, z = zm.strengths, zm.z
    return [
        SqueezerMode(
            strength=float(lam),
            cosh_factor=float(np.cosh(z * lam)),
            sinh_factor=float(np.sinh(z * lam)),
            decibels=float(_decibels(z, lam)),
        )
        for lam in w
    ]


def _decibels(z: float, strength):
    """Squeezing in dB, 20 z strength / ln 10, of a strength or an array of them."""
    return 20.0 * z * strength / math.log(10.0)
