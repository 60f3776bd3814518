"""Input thresholds and the error model that judges every check.

The frozen :class:`Tolerances` record holds the thresholds that validate
input and steer algorithms.  A check's verdict instead compares its residual
with a budget c * u * N * magnitude (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002): u is the unit roundoff, N the mode count, the
magnitude comes from numbers the request already holds (:class:`ErrorModel`),
and c is 4 per rounded stage (a factorization, solve or N-term matrix
product, each adding at most gamma_N ~ N u) between the inputs and the
residual; the 4 covers complex arithmetic (sqrt(2) gamma_{N+2}, Lemma 3.5).
The budgets of the two gauge-compatibility checks also gate the input, so a
gauge that passes the gate passes those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class Tolerances:
    #: relative residual for algebraic identities (unitarity, symmetry, ...)
    rtol: float = 1e-9
    #: sigma_min / sigma_max below which a matrix counts as singular
    singular: float = 1e-10
    #: largest tolerated asymmetry of a raw adjacency input
    input_asymmetry: float = 1e-12
    #: relative symmetry residual required of an interaction matrix
    interaction_symmetry: float = 1e-10
    #: sigma_min at which a phase vector is accepted during the search
    phase_accept: float = 1e-6
    #: smallest sigma_min the search may fall back to before giving up
    phase_floor: float = 1e-8
    #: sigma_min required of the inverse relation when phases are supplied
    regular_min: float = 1e-8
    #: imaginary residual allowed in a recovered adjacency matrix
    realness: float = 1e-8
    #: eigenvalue gap below which spectra are treated as degenerate
    degeneracy: float = 1e-8
    #: relative eigenvalue floor for positive definiteness
    positive: float = 1e-12
    #: residual of O @ O.T - 1 allowed for a real orthogonal seed
    orthogonal: float = 1e-12
    #: reject z * max(eig P) beyond this (cosh overflows double precision)
    z_cap: float = 30.0


DEFAULT_TOLERANCES = Tolerances()

#: check name -> (magnitude, c); each c counts three rounded stages for P
#: (A A, eigh, product); the cluster plan's faithful P takes two of them.
#: The two compatibility rows also gate the input: a gauge is accepted only
#: when compatible to within one rounded stage of P (c = 4), the error every
#: later row already budgets for P.
CHECKS = {
    "gauge_condition": ("reality", 4),
    "interaction_symmetric": ("asymmetry", 4),
    "polar_product": ("interaction", 4),  # P U again
    "structure_unitary": ("structure", 8),  # U (eigh of A, or solve), U U^dagger
    "structure_symmetric": ("structure", 4),  # U
    "bogoliubov_unitary_defect": ("bogoliubov", 40),  # P, U, eigh, X, Y (2), two products
    "bogoliubov_symmetry_defect": ("bogoliubov", 40),
    "covariance_real": ("covariance", 28),  # P, eigh, e^{-zP}, E, E E^dagger
    "covariance_factor": ("covariance", 32),  # and E E^dagger again
    "covariance_psd": ("covariance", 32),  # and eigvalsh
    "faithful_gauge_identity": ("covariance", 28),
    "uniform_gauge_formula": ("covariance", 32),  # and A A
    "self_inverse_value": ("covariance", 28),
    # closed form (7 stages), U and Z (2), eigh of K and G = [Re L, -Im L] V
    # (order 2N, 2 stages each), H H^T
    "covariance_vs_oracle": ("oracle", 56),
    "oracle_overlap": ("overlap", 24),  # U and Z (2), eigh of K and G (order 2N)
    "blochmessiah_x": ("reduction", 60),  # P, U, eigh, X/Y, balancing (2), Takagi (2), V, W (2), rebuild
    "blochmessiah_y": ("reduction", 60),
    "interferometer_identity": ("eigenvectors", 44),  # P, U, eigh, balancing, Takagi, V, V V^T
    "cluster_condition": ("cluster", 48),  # as above, then two products with A
    "squeezer_match": ("strength", 16),  # P, eigh
    "bundle_Z_matches": ("interaction", 20),  # the stored result of the same stages
    "bundle_U_matches": ("structure", 4),
    "bundle_X_matches": ("blocks", 20),  # P, eigh, cosh(zP)
    "bundle_Y_matches": ("blocks", 28),  # and U, sinh(zP) U
    "bundle_C_matches": ("covariance", 28),
}


@dataclass(frozen=True)
class ErrorModel:
    """Magnitudes that scale the rounding error of one request's results.

    ``kappa`` bounds how much the structure factor U amplifies rounding:
    1 + max|lam(A)| >= ||A + i||_2 = sqrt(1 + max|lam(A)|^2) when U comes
    from a cluster, read off the cluster plan's eigenvalues, and the
    condition number lambda_max / lambda_min of P when U comes from the
    polar split of an interaction matrix.  The two compatibility residuals
    are relative to ``z_scale`` (max(1, max|Z|)) and ``test_scale`` (the
    largest entry of the gauge's test matrix).  ``gap`` and ``spread`` are
    the grouping Bloch-Messiah resolved: its eigenvectors carry an error
    u / gap, and a group treated as degenerate rebuilds X and Y only up to
    its spread.
    """

    n: int
    z: float
    lam_min: float
    lam_max: float
    kappa: float
    z_scale: float = 1.0
    test_scale: float = 1.0
    gap: float = math.inf
    spread: float = 0.0

    @classmethod
    def for_cluster(cls, cluster, zm, z: float, test_scale: float = 1.0) -> "ErrorModel":
        """Model of the plan ``zm`` of a :class:`~clustersqueeze.synthesis.ClusterPlan`."""
        rho = float(np.max(np.abs(cluster.eigenvalues)))  # ||A||_2
        lo, hi = float(zm.strengths[0]), float(zm.strengths[-1])
        z_scale = max(1.0, float(np.max(np.abs(zm.Z))))
        return cls(cluster.A.shape[0], z, lo, hi, 1.0 + rho, z_scale, test_scale)

    @classmethod
    def for_generator(cls, A, w) -> "ErrorModel":
        """Model the brute-force oracle builds from its own data, for its
        ``oracle_overlap`` threshold.

        ``w`` holds the eigenvalues +-sigma(Z) of the quadrature generator
        at z = 1, and sigma(Z) = lambda(P), so lam_min = w[N] and
        lam_max = w[-1]; kappa = 1 + ||A||_inf >= 1 + max|lam(A)| needs only
        A.  The overlap magnitude does not depend on z (z = 0 keeps the
        others finite) and grows with kappa, so the threshold is no tighter
        than the row's budget under :meth:`for_cluster`, up to the rounding
        of w.
        """
        n = len(w) // 2
        kappa = 1.0 + float(np.max(np.sum(np.abs(A), axis=1)))
        return cls(n, 0.0, float(w[n]), float(w[-1]), kappa)

    @classmethod
    def for_interaction(cls, strengths, z: float) -> "ErrorModel":
        lo, hi = float(strengths[0]), float(strengths[-1])
        return cls(len(strengths), z, lo, hi, hi / lo)

    def with_reduction(self, factors) -> "ErrorModel":
        """The model with the grouping of Bloch-Messiah ``factors``."""
        return replace(self, gap=factors.gap, spread=factors.spread)

    @cached_property
    def magnitudes(self) -> dict[str, float]:
        k, zl = self.kappa, self.z * self.lam_max
        cosh = math.cosh(zl)
        # Interferometer error in units of u N: u / gap from the resolved
        # eigenvectors, and a degenerate group's spread, amplified by z for
        # the strengths.
        grouping = (1.0 + self.z * max(1.0, self.lam_max)) * self.spread
        eigenvectors = k + 1.0 / self.gap + grouping / (UNIT_ROUNDOFF * self.n)
        return {
            "strength": self.lam_max,
            "structure": k,
            "interaction": k * self.lam_max,
            # Im (A + i) e^{i Theta} P e^{-i Theta} (A - i), with ||A + i|| <= k
            "reality": k * k * self.lam_max / self.test_scale,
            # P U - (P U)^T: the product, and U's error k u N, which only the
            # non-scalar part of P turns into asymmetry
            "asymmetry": (self.lam_max + k * (self.lam_max - self.lam_min)) / self.z_scale,
            # X X^dagger and Y Y^dagger have entries up to cosh^2
            "bogoliubov": k * cosh * cosh,
            # X and Y; an error in P is amplified by z sinh
            "blocks": (k + zl) * cosh,
            # C = E E^dagger with ||E|| <= ||A + i|| e^{-z lambda_min}
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
            "reduction": cosh * eigenvectors,
            "cluster": k * eigenvectors,
        }

    def budget(self, name: str) -> float:
        magnitude, c = CHECKS[name]
        return c * UNIT_ROUNDOFF * self.n * self.magnitudes[magnitude]

    def checks(self, rows) -> list[dict]:
        """Report records of (name, residual) rows; ``tolerance`` is the budget."""
        records = []
        for name, residual in rows:
            budget = self.budget(name)
            records.append({"name": name, "residual": float(residual),
                            "tolerance": budget, "passed": bool(residual <= budget)})
        return records
