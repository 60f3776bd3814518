"""The check battery: every residual a request reports, with its verdict.

A check is a row (name, residual) judged by the request's
:class:`~clustersqueeze.tolerances.ErrorModel`, that of the cluster plan or,
for Z alone, of its polar split.  Each check record holds ``name``,
``residual``, ``tolerance`` and ``passed``; the tolerance is the budget the
model derives for that check, so no option sets it.  The library is called
through its module attributes, so the rows judge what those names are bound to.

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

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import blochmessiah, oracle, synthesis
from .errors import OracleMismatch
from .matfun import _symmetric_part, max_abs, unitarity_defect
from .tolerances import DEFAULT_TOLERANCES, ErrorModel


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


def synthesize(cluster, gauge, z: float) -> Checked:
    """Core rows of the recipe of a ``gauge`` selector of the cluster plan,
    with the own rows of the built-in gauge it names."""
    a = cluster.A
    eye = np.eye(a.shape[0])
    zm, check = cluster.interaction(gauge, z)
    # the oracle's order-2N eigh first, while X, Y, C and E are not yet held
    brute = oracle.covariance_oracle(cluster, zm, z)
    pair = synthesis.bogoliubov_from_interaction(zm, z)
    closed = synthesis.covariance_closed_form(cluster, zm, z)
    model = ErrorModel.for_cluster(cluster, zm, z, check.scale)
    defect_one, defect_two = pair.defects()
    decay = math.exp(-2.0 * z)
    rows = [
        ("gauge_condition", check.residual),
        ("interaction_symmetric", zm.asymmetry),
        ("structure_unitary", unitarity_defect(zm.U)),
        ("bogoliubov_unitary_defect", defect_one),
        ("bogoliubov_symmetry_defect", defect_two),
        ("covariance_real", closed.imag_residual),
        ("covariance_vs_oracle", max_abs(closed.C - brute.C)),
        ("oracle_overlap", brute.overlap),
    ]
    if zm.gauge == "faithful":
        rows.append(("faithful_gauge_identity", max_abs(closed.C - decay * eye)))
    if zm.gauge == "identity":
        square = a @ a
        rows.append(("uniform_gauge_formula", max_abs(closed.C - (square + eye) * decay)))
        if max_abs(square - eye) <= DEFAULT_TOLERANCES.input_asymmetry:
            rows.append(("self_inverse_value", max_abs(closed.C - 2.0 * decay * eye)))
    return Checked(model.checks(rows), model, zm, pair, closed)


def verify(cluster, gauge, z: float, stored=None) -> Checked:
    """:func:`synthesize`'s rows, then the reduction's and the cluster
    condition's; ``stored`` maps some of the names P, Z, U, X, Y and C to a
    bundle's matrices, and each is checked against its fresh value, Z, X
    and Y in their :func:`structured` form."""
    core = synthesize(cluster, gauge, z)
    zm, pair = core.zm, core.pair
    factors, rows = _reduction(zm, pair, z)
    rows.append(("cluster_condition", blochmessiah.cluster_condition_residual(factors.V, cluster)))
    if stored:
        fresh = {"P": zm.P, "U": zm.U, "C": core.closed.C, **structured(zm, pair)}
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


def decompose(zm, z: float) -> tuple[Checked, blochmessiah.BlochMessiahFactors]:
    """The Bloch-Messiah factors of ``zm`` and their reduction rows, judged
    by the model of the plan that built ``zm`` or of Z alone."""
    model = (ErrorModel.for_interaction(zm.strengths, z) if zm.cluster is None
             else ErrorModel.for_cluster(zm.cluster, zm, z))
    pair = synthesis.bogoliubov_from_interaction(zm, z)
    factors, rows = _reduction(zm, pair, z)
    return Checked(model.checks(rows), model, zm, pair), factors


def _reduction(zm, pair, z: float):
    """Bloch-Messiah factors and the rows that rebuild X, Y and U from them."""
    factors = blochmessiah.bloch_messiah(zm, z)
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
    z lambda_max is largest, is checked against ``z_cap`` before any other.
    The modes of every gauge are z-free, so the nullifier frame M is formed
    once and each row costs one Gram product C = H H^dagger, H = M e^{-z w};
    only the faithful strengths depend on z, and the rows read them off the
    cluster plan.  The first and last rows are cross-checked against the
    brute-force path: only they build the gauge plan (P, Z and its gate)
    and the oracle, which factorizes K once when Z does not depend on z and
    once per end row for the faithful gauge.  A failed
    ``covariance_vs_oracle`` record raises :class:`OracleMismatch`.
    """
    try:
        z_last = float(z_values[-1])
    except IndexError:
        raise ValueError("z_values must be non-empty") from None
    last, _ = cluster.interaction(gauge, z_last)
    synthesis.check_squeeze_budget(float(last.strengths[-1]), z_last)
    zs = [float(z) for z in z_values]
    if any(not (np.isfinite(z) and z > 0) for z in zs):
        raise ValueError("z values must be positive and finite")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z values must be strictly ascending")
    faithful = last.gauge == "faithful"
    ends = list(dict.fromkeys((zs[0], z_last)))
    # The end rows' oracle covariances come first, so that the order-2N eigh
    # runs before the frame or any row's C is held; only their C stay.
    if faithful:  # Z depends on z: each end row plans its own gauge and K
        groups = ((last if z == z_last else cluster.interaction(gauge, z)[0], [z]) for z in ends)
    else:  # one eigh of K serves both ends
        groups = [(last, ends)]
    oracles = {}
    for zm, at in groups:
        oracles |= {z: (brute.C, ErrorModel.for_cluster(cluster, zm, z))
                    for z, brute in zip(at, oracle._covariance_oracles(cluster, zm, at))}
    frame, rows = synthesis._nullifier_frame(cluster, last.modes), []
    for z in zs:
        strengths = cluster.faithful_strengths(z) if faithful else last.strengths
        closed = synthesis._frame_covariance(frame, strengths, z)
        rows.append(SweepPoint(z=z, max_abs=closed.max_abs, frobenius=closed.frobenius))
        if z in oracles:
            brute, model = oracles[z]
            [check] = model.checks([("covariance_vs_oracle", max_abs(closed.C - brute))])
            if not check["passed"]:
                raise OracleMismatch(
                    f"closed-form and brute-force covariances differ by "
                    f"{check['residual']:.3e} at z = {z}"
                )
    return rows
