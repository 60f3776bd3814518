"""Input thresholds and the error model that judges every check.

Module constants hold the thresholds that validate input and steer
algorithms; no option changes them.  :func:`positive_scale` states the one
rule for a squeezing scale, a finite z > 0, and :func:`check_squeeze_budget`
adds ``Z_CAP`` where an interaction record is planned at its z.  A check's
verdict compares its residual with a budget c * u * N * magnitude (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002): u is the unit
roundoff, N the mode count, the magnitude comes from the request's
interaction record (:meth:`ErrorModel.of`), and c is 4 per rounded stage
(a factorization, solve or N-term matrix product, each adding at most
gamma_N ~ N u) between the inputs and the residual; the 4 covers complex
arithmetic (sqrt(2) gamma_{N+2}, Lemma 3.5).  The budgets of the two
gauge-compatibility checks also gate the input, so a gauge that passes the
gate passes those checks.  The Bloch-Messiah factors come from a cluster
plan's real eigendecomposition for every gauge, so no budget holds an
eigen-gap or a spread of near-equal strengths.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0 ** -53
#: relative asymmetry of a bare Z, and non-Hermiticity of a custom P, that
#: the input checks let through to the part they keep
RTOL = 1e-9
#: sigma_min / sigma_max below which a matrix counts as singular; a gauge
#: factor's lambda_min must exceed it times lambda_max, which also makes the
#: gauge positive definite
SINGULAR = 1e-10
#: largest tolerated asymmetry of a raw adjacency input
INPUT_ASYMMETRY = 1e-12
#: sigma_min at which analyze keeps the supplied phases; below it the
#: closed-form phases of ``find_regular_phases`` replace them
PHASE_ACCEPT = 1e-6
#: sigma_min required of the inverse relation at any phases, supplied or
#: closed-form
REGULAR_MIN = 1e-8
#: imaginary residual allowed in a recovered adjacency matrix
REALNESS = 1e-8
#: residual of O @ O.T - 1 allowed for a real orthogonal seed
ORTHOGONAL = 1e-12
#: reject z * max(eig P) beyond this (cosh overflows double precision)
Z_CAP = 30.0


def positive_scale(z) -> float:
    """The squeezing scale z as a float: a real number, not a bool, whose
    float is finite and > 0.  Anything else (None, a string, a list, an int
    past the float range) is a ``ValueError``.  Every function that takes z
    checks it here."""
    value = math.nan
    if isinstance(z, numbers.Real) and not isinstance(z, bool):  # numpy's bool is no numbers.Real
        with contextlib.suppress(OverflowError):  # an int past the float range
            value = float(z)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("squeezing scale z must be positive and finite")
    return value


def check_squeeze_budget(strength_max: float, z) -> float:
    """z as a float (:func:`positive_scale`) once z * lambda_max, the largest
    strength of the record planned at z, is within the cosh budget ``Z_CAP``."""
    z = positive_scale(z)
    zl = float(z * strength_max)
    if zl > Z_CAP:
        raise DomainError(
            f"z * max squeezer strength = {zl!r} exceeds {Z_CAP:.0f}; cosh would exhaust double precision"
        )
    return z


#: check name -> (magnitude, c); each c counts three rounded stages for P
#: (A A, eigh, product); the cluster plan's faithful P takes two of them.
#: The two compatibility rows also gate the input: a gauge is accepted only
#: when compatible to within one rounded stage of P (c = 4), the error every
#: later row already budgets for P.  Every row can fail on a wrong result
#: (tests/test_check_power.py); a residual the construction fixes is no row.
CHECKS = {
    "gauge_condition": ("reality", 4),
    "interaction_symmetric": ("asymmetry", 4),
    # Z v - P (U v) on a unit v, 7 stages: eigh of A, the products with Q
    # that form a built-in gauge's Z, P and U (3), and the three
    # matrix-vector products; a custom P's Z = P U takes one product
    # instead of Z's and P's
    "interaction_product": ("interaction", 28),
    "structure_unitary": ("structure", 12),  # eigh of A, Q diag Q^T, U U^dagger
    # a custom P's route: P, U, eigh, X, Y (2), two products.  A P diagonal
    # in the plan's frame takes fewer: eigh of A, X and Y as one product with
    # Q each (none for a scalar P), then the two products
    "bogoliubov_unitary_defect": ("bogoliubov", 40),
    "bogoliubov_symmetry_defect": ("bogoliubov", 40),
    # a custom P's route: P, eigh, the frame M = (A + i) e^{i Theta} Q_P,
    # H H^dagger, and one stage to spare.  A P diagonal in the plan's frame
    # takes fewer: C from eigh of A and the syrk of R e^{-zw}, and
    # covariance_real's H = (A + i) Q e^{-zw} from eigh of A, one product
    # with A and the cross product Im H H^dagger
    "covariance_real": ("covariance", 28),
    "faithful_gauge_identity": ("covariance", 28),
    "uniform_gauge_formula": ("covariance", 32),  # and A A
    # closed form (7 stages as above), U and Z (2), eigh of K
    # and G = [Re L, -Im L] V (order 2N, 2 stages each), H H^T
    "covariance_vs_oracle": ("oracle", 56),
    "oracle_overlap": ("overlap", 24),  # U and Z (2), eigh of K and G (order 2N)
    # The reduction rows count the longest route, Z alone: the polar split
    # (SVD, P, U: 3), the recovered plan (Cayley solve, eigh of A': 2), S_W
    # (2), eigh of Re S_W, V = W O; then X/Y (2), V again as V^dagger or V^T
    # (2), the rebuild and one stage to spare.  A cluster plan's route has
    # fewer stages before V (eigh of A, U, and a custom P's S_W and eigh)
    "blochmessiah_x": ("reduction", 60),
    "blochmessiah_y": ("reduction", 60),
    "interferometer_identity": ("eigenvectors", 44),  # the 9 stages to V, V V^T, one spare
    "cluster_condition": ("cluster", 48),  # the 9 stages to V, two products with A, one spare
    "bundle_Z_matches": ("interaction", 20),  # the stored result of the same stages
    "bundle_P_matches": ("interaction", 8),  # a built-in P: eigh of A, F diag(w) F^dagger
    "bundle_U_matches": ("structure", 4),
    # a custom P's route: P, eigh, cosh(zP), and for Y U and sinh(zP) U; a P
    # diagonal in the plan's frame takes eigh of A and one product with Q
    "bundle_X_matches": ("blocks", 20),
    "bundle_Y_matches": ("blocks", 28),
    "bundle_C_matches": ("covariance", 28),
}


@dataclass(frozen=True)
class ErrorModel:
    """Magnitudes that scale the rounding error of one request's results.

    ``kappa`` bounds how much the structure factor U amplifies rounding:
    1 + max|lam(A)| >= ||A + i||_2 = sqrt(1 + max|lam(A)|^2) when U comes
    from a cluster, the cluster plan's ``kappa``, and the
    condition number lambda_max / lambda_min of P when U comes from the
    polar split of an interaction matrix.  The two compatibility residuals
    are relative to ``z_scale`` (max(1, max|Z|)) and ``test_scale`` (the
    largest entry of the gauge's test matrix).  ``margin`` is inf when the
    Bloch-Messiah factors come from the cluster plan that built X and Y.
    From Z alone they come from the plan recovered from U at the equal
    phases, whose Cayley map amplifies U's rounding by at most
    1 / sigma_min(W + i) <= 1 / margin, margin = 2 sin(pi / 4N); X and Y
    still come from the polar split's modes.  No term depends on an
    eigen-gap or on the basis inside a group of equal strengths.
    """

    n: int
    z: float
    lam_min: float
    lam_max: float
    kappa: float
    z_scale: float = 1.0
    test_scale: float = 1.0
    margin: float = math.inf

    @classmethod
    def of(cls, zm) -> "ErrorModel":
        """Model of a record at its z: its plan's, with the gate's test scale, or
        for a polar split Z alone's, with the margin of the plan recovered from U."""
        n, z, lo, hi = zm.n, zm.z, float(zm.strengths[0]), float(zm.strengths[-1])
        if zm.cluster is None:
            return cls(n, z, lo, hi, hi / lo, margin=2.0 * math.sin(math.pi / (4 * n)))
        return cls(n, z, lo, hi, zm.cluster.kappa, max(1.0, float(np.max(np.abs(zm.Z)))), zm.reality.scale)

    @classmethod
    def for_generator(cls, A, w) -> "ErrorModel":
        """Model the brute-force oracle builds from its own data, for its
        ``oracle_overlap`` threshold.

        ``w`` holds the eigenvalues +-sigma(Z) of the quadrature generator
        at z = 1, and sigma(Z) = lambda(P), so lam_min = w[N] and
        lam_max = w[-1]; kappa = 1 + ||A||_inf >= 1 + max|lam(A)| needs only
        A.  The overlap magnitude does not depend on z (z = 0 keeps the
        others finite) and grows with kappa, so the threshold is no tighter
        than the row's budget under :meth:`of`, up to the rounding of w.
        """
        n = len(w) // 2
        kappa = 1.0 + float(np.max(np.sum(np.abs(A), axis=1)))
        return cls(n, 0.0, float(w[n]), float(w[-1]), kappa)

    @cached_property
    def _compatibility(self) -> dict[str, float]:
        """The magnitudes of the gate's two rows, free of z: the gate reads
        them before the squeeze budget, where cosh(z lambda_max) may overflow."""
        k = self.kappa
        return {
            # Im (A + i) e^{i Theta} P e^{-i Theta} (A - i), with ||A + i|| <= k
            "reality": k * k * self.lam_max / self.test_scale,
            # P U - (P U)^T of a custom P: the product, and U's error k u N,
            # which only the non-scalar part of P turns into asymmetry; a
            # built-in gauge's Z has only its product's rounding
            "asymmetry": (self.lam_max + k * (self.lam_max - self.lam_min)) / self.z_scale,
        }

    @cached_property
    def magnitudes(self) -> dict[str, float]:
        k, zl = self.kappa, self.z * self.lam_max
        cosh = math.cosh(zl)
        # Interferometer error in units of u N: U's, and the recovered
        # plan's Cayley round trip
        eigenvectors = k + 1.0 / self.margin
        # From Z alone, X and Y, and V, rest on two representations of P,
        # u N lambda_max (1 + eigenvectors) apart (S_W drops an imaginary
        # part up to P's asymmetry against the recovered U); the divided
        # differences of cosh(z .) and sinh(z .), at most z cosh(z lambda_max),
        # carry that into X and Y.  No gap enters.
        mixed = 0.0 if math.isinf(self.margin) else zl * (1.0 + eigenvectors)
        return {
            "structure": k,
            "interaction": k * self.lam_max,
            **self._compatibility,
            # X X^dagger and Y Y^dagger have entries up to cosh^2
            "bogoliubov": k * cosh * cosh,
            # X and Y; an error in P is amplified by z sinh
            "blocks": (k + zl) * cosh,
            # C = H H^dagger with ||H|| = ||E|| <= ||A + i|| e^{-z lambda_min}
            "covariance": k * k * (1.0 + zl) * math.exp(-2.0 * self.z * self.lam_min),
            # the oracle's C = G_- e^{2 w_-} G_-^T from the squeezed half of
            # K = V diag(w) V^T, G = [Re L, -Im L] V, ||G_-|| <= k.  A
            # perturbation dK moves C by at most k^2 2 e^{-2 z lambda_min} ||dK||
            # (e^{2w} has slope <= 2 e^{-2 z lambda_min} on w <= -z lambda_min,
            # and G_+ = 0 cancels the terms that cross into the anti-squeezed
            # half): dK is the eigh's (u N z lambda_max) and z dZ from U's
            # error, dZ ~ u N k lambda_max; G and H H^T add u N k^2 each
            "oracle": k * k * (1.0 + k * zl) * math.exp(-2.0 * self.z * self.lam_min),
            # G_+ = [Re L, -Im L] V_+ vanishes for a compatible Z; rounding
            # tilts the squeezed subspace by ||dK|| / (2 z lambda_min), the
            # gap between +-z sigma(Z), and G_- (<= k) turns the tilt into
            # G_+.  dK: the eigh's u N z lambda_max and z dZ, U's error
            # u N k lambda_max; the product G adds u N k.  z cancels
            "overlap": k * (1.0 + k * self.lam_max / self.lam_min),
            "eigenvectors": eigenvectors,
            "reduction": cosh * (eigenvectors + mixed),
            "cluster": k * eigenvectors,
        }

    def budget(self, name: str) -> float:
        magnitude, c = CHECKS[name]
        value = self._compatibility.get(magnitude)
        if value is None:
            value = self.magnitudes[magnitude]
        return c * UNIT_ROUNDOFF * self.n * value

    def checks(self, rows) -> list[dict]:
        """Report records of (name, residual) rows; ``tolerance`` is the budget."""
        records = []
        for name, residual in rows:
            budget = self.budget(name)
            records.append({"name": name, "residual": float(residual),
                            "tolerance": budget, "passed": bool(residual <= budget)})
        return records
