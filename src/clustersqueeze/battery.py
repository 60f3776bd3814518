"""The check battery: every residual a request reports, with its verdict.

Every function takes one interaction record, planned at its z: the gated
record of a cluster plan, or for :func:`decompose` also a polar split of Z
alone.  A check is a row (name, residual) judged by the record's
:class:`~clustersqueeze.tolerances.ErrorModel` (``ErrorModel.of``).  Each
check record holds ``name``, ``residual``, ``tolerance`` and ``passed``; the
tolerance is the budget the model derives for that check, so no option sets
it.  The library is called through its module attributes, so the rows judge
what those names are bound to.

Every row judges the recipe as computed: Z = P U, X = cosh(zP) and
Y = -i sinh(zP) U.  A bundle publishes them with the structure the physics
fixes (:func:`structured`), and ``verify`` compares a stored bundle with
that structured form of its fresh recipe.  The built-in gauge a plan records
adds its rows; the reduction reads a plan's factors off the plan itself.

The battery also holds the verdict of a convergence sweep
(:func:`convergence_sweep`): its end rows are judged by the same
``covariance_vs_oracle`` comparison as a request's, so the closed form is
judged against the oracle in this module alone.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import blochmessiah, oracle, synthesis
from .errors import OracleMismatch
from .matfun import _symmetric_part, max_abs, unitarity_defect
from .tolerances import ErrorModel, positive_scale


class Checked(NamedTuple):
    """Check records, the model that judged them and the recipe they judge:
    the plan ``zm``, its ``pair`` and, for a cluster, the ``closed`` form."""

    checks: list[dict]
    model: ErrorModel
    zm: synthesis.InteractionMatrix
    pair: synthesis.BogoliubovPair
    closed: synthesis.CovarianceReport | None = None


class SweepPoint(NamedTuple):
    """One row of a convergence sweep."""

    z: float
    max_abs: float
    frobenius: float


def synthesize(zm) -> Checked:
    """Core rows of the gated record ``zm`` of a cluster plan, with the own
    rows of the built-in gauge it names."""
    cluster = zm.cluster
    # the oracle's order-2N eigh first, while X, Y, C and E are not yet held
    brute = oracle.covariance_oracle(cluster, zm)
    pair = synthesis.bogoliubov_from_interaction(zm)
    closed = synthesis.covariance_closed_form(cluster, zm)
    model = ErrorModel.of(zm)
    defect_one, defect_two = pair.defects()
    decay = math.exp(-2.0 * zm.z)
    rows = [
        ("gauge_condition", zm.reality.residual),
        ("interaction_symmetric", zm.asymmetry),
        ("interaction_product", zm.departure),
        ("structure_unitary", unitarity_defect(zm.U)),
        ("bogoliubov_unitary_defect", defect_one),
        ("bogoliubov_symmetry_defect", defect_two),
        ("covariance_real", closed.imag_residual),
        ("covariance_vs_oracle", max_abs(closed.C - brute.C)),
        ("oracle_overlap", brute.overlap),
    ]
    if zm.gauge == "faithful":
        rows.append(("faithful_gauge_identity", max_abs(closed.C - decay * np.eye(zm.n))))
    if zm.gauge == "identity":
        rows.append(("uniform_gauge_formula", max_abs(closed.C - (cluster.A @ cluster.A + np.eye(zm.n)) * decay)))
    return Checked(model.checks(rows), model, zm, pair, closed)


def verify(zm, stored=None) -> Checked:
    """:func:`synthesize`'s rows, then the reduction's and the cluster
    condition's; ``stored`` maps some of the names P, Z, U, X, Y and C to a
    bundle's matrices, and each is checked against its fresh value, Z, X
    and Y in their :func:`structured` form."""
    core = synthesize(zm)
    factors, rows = _reduction(zm, core.pair)
    rows.append(("cluster_condition", blochmessiah.cluster_condition_residual(factors.V, zm.cluster)))
    if stored:
        fresh = {"P": zm.P, "U": zm.U, "C": core.closed.C, **structured(zm, core.pair)}
        rows += [(f"bundle_{key}_matches", max_abs(m - fresh[key])) for key, m in stored.items()]
    return core._replace(checks=core.checks + core.model.checks(rows))


def structured(zm, pair) -> dict[str, np.ndarray]:
    """Z and Y as their symmetric parts and X as its Hermitian part, as a
    bundle publishes them.

    The products P U, Q cosh(zw) Q^dagger and -i sinh(zP) U are symmetric or
    Hermitian only to rounding.  These parts are so exactly, since
    a + b = b + a and a - b = -(b - a) in floating point: each entry below
    the diagonal has the bits of its mirror image, or of its negation in
    the imaginary part of X unless both are zero.  So a writer may format
    one triangle of each.  A matrix that already equals its mirror image in
    value is its own part and is returned as it is, so its bits stay, a 0.0
    facing a -0.0 included (two nodes with no edge between them can give
    one).

    The part dropped from Z is its antisymmetric part, which the squeezing
    Hamiltonian and the oracle never see and which ``interaction_symmetric``
    bounds; those dropped from X and Y are the rounding of their products,
    at most about 2 u N cosh(z lambda_max), under a tenth of the
    ``bundle_X_matches`` and ``bundle_Y_matches`` budgets, so a bundle that
    stores the raw products verifies too.  P, U and C are exact already.
    """
    mirrors = (("Z", zm.Z, zm.Z.T), ("X", pair.X, pair.X.conj().T), ("Y", pair.Y, pair.Y.T))
    return {key: _symmetric_part(m, mirror) for key, m, mirror in mirrors}


def decompose(zm) -> tuple[Checked, blochmessiah.BlochMessiahFactors]:
    """The Bloch-Messiah factors of ``zm`` and their reduction rows, judged
    by the model of the plan that built ``zm`` or of Z alone."""
    model = ErrorModel.of(zm)
    pair = synthesis.bogoliubov_from_interaction(zm)
    factors, rows = _reduction(zm, pair)
    return Checked(model.checks(rows), model, zm, pair), factors


def _reduction(zm, pair):
    """Bloch-Messiah factors and the rows that rebuild X, Y and U from them."""
    factors = blochmessiah.bloch_messiah(zm)
    x_rec, y_rec = factors.reconstruct()
    return factors, [
        ("blochmessiah_x", max_abs(x_rec - pair.X)),
        ("blochmessiah_y", max_abs(y_rec - pair.Y)),
        ("interferometer_identity", max_abs(1j * factors.V @ factors.V.T - zm.U)),
    ]


def convergence_sweep(cluster, gauge, z_values: Sequence[float]) -> list[SweepPoint]:
    """Closed-form covariance norms over an ascending list of scales.

    Realizes the infinite-squeezing limit as a finite sweep: for a valid
    gauge the max-entry norm decreases strictly in z.  The last z, where
    z lambda_max is largest, is planned first, so its record checks the
    squeeze budget; the others meet the scale rule and ascend to it.  The
    modes of every gauge are z-free, so the frame of the closed form is
    formed once (:func:`synthesis._covariance_frame`: A for a scalar P, the
    real R = Q diag(sqrt(1 + lam^2)) for another built-in one, the
    nullifier frame M for a custom one), and each row costs one Gram
    product C = H H^dagger, H = frame e^{-z w}, with the faithful strengths
    read off the cluster plan.  Only the end rows
    plan the gauge and run the oracle, which factorizes K once, or once per
    end for the faithful gauge, and each is judged by its record's model at
    its z; a failed ``covariance_vs_oracle`` record raises
    :class:`OracleMismatch`.
    """
    try:
        z_last = z_values[-1]
    except IndexError:
        raise ValueError("z_values must be non-empty") from None
    last = cluster.interaction(gauge, z_last)
    zs = [positive_scale(z) for z in z_values]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z values must be strictly ascending")
    faithful = last.gauge == "faithful"
    ends = list(dict.fromkeys((zs[0], last.z)))
    # The end rows' oracle covariances come first, so that the order-2N eigh
    # runs before the frame or any row's C is held; only their C stay.
    if faithful:  # Z depends on z: each end row plans its own gauge and K
        groups = ((last if z == last.z else cluster.interaction(gauge, z), [z]) for z in ends)
    else:  # one eigh of K serves both ends
        groups = [(last, ends)]
    oracles = {}
    for zm, at in groups:
        model = ErrorModel.of(zm)
        oracles |= {z: (brute.C, dataclasses.replace(model, z=z))
                    for z, brute in zip(at, oracle._covariance_oracles(cluster, zm, at))}
    frame, rows = synthesis._covariance_frame(cluster, last), []
    for z in zs:
        strengths = cluster.faithful_strengths(z) if faithful else last.strengths
        decay = np.exp(-z * strengths)
        c = synthesis._frame_covariance(frame * decay[None, :], decay[0] * decay[0] if last.scalar else 0.0)
        rows.append(SweepPoint(z=z, max_abs=max_abs(c), frobenius=float(np.linalg.norm(c))))
        if z in oracles:
            brute, model = oracles[z]
            [check] = model.checks([("covariance_vs_oracle", max_abs(c - brute))])
            if not check["passed"]:
                raise OracleMismatch(
                    f"closed-form and brute-force covariances differ by "
                    f"{check['residual']:.3e} at z = {z}"
                )
    return rows
