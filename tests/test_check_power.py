"""Every check row can fail: a small relative fault in the object a row
guards flips its verdict.

A fault replaces one object X of a ``verify`` request by X + delta max|X| R,
with R a seeded random matrix of entries in [-1, 1] (complex where X is)
that keeps the structure the later stages assume: a Hermitian P, a symmetric
U, Z or C.  X is replaced where it is built: in the cluster plan (P, Z, U
and the eigenpairs of P, before the gauge gate), the Bogoliubov pair, the
closed-form covariance, the Bloch-Messiah factors (on either route), the
plan's eigenvectors as those factors or the closed form read them, or a
stored bundle field.
The faulted request then reports the row failed (exit 1), except for the
two rows that share their budget with the gauge gate: their fault is a
rejection (exit 3).  A stored P is compared only in a bundle of a built-in
gauge, which ``verify`` plans by its name; a custom bundle's P is its gauge.

``POWER`` is the table of those faults.  Cases are N in {8, 64}, the two
built-in gauges and z lambda_max in {1, 25}, on a dense random graph of
spectral radius 1 with random phases, and for ``uniform_gauge_formula``
also a perfect matching, whose A A = 1 exactly.  The Bloch-Messiah rows
are also pinned on the bundle route (``INTERACTION_POWER``) and for a
custom gauge on both routes (``CUSTOM_POWER``).

A built-in gauge forms Z off the plan's real Q apart from P, so
``interaction_product`` ties P to Z: a P that stays compatible passes the
gauge gate, and that row alone fails (``COMPATIBLE_P_FAULT``).  The
built-in gauges take their closed form off the plan's real Q, which
``covariance_real`` judges through the commutator of Q e^{-2zw} Q^T with A,
so its fault is in that Q; a custom gauge keeps the nullifier frame of its
modes, and a fault in them flips the row there (``CUSTOM_MODES_FAULT``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from clustersqueeze import blochmessiah, cli, synthesis
from clustersqueeze.graphs import format_graph
from clustersqueeze.matfun import max_abs
from clustersqueeze.tolerances import CHECKS

from conftest import matrix_to_json, random_compatible_gauge

GATE_ROWS = ("gauge_condition", "interaction_symmetric")

#: row -> (stage, object, shape of R, relative fault that flips the verdict
#: in every case).  Each fault is one decade above the smallest that did so
#: when measured, so that another BLAS does not undo the flip.  The graph
#: route reads the Bloch-Messiah factors off the cluster plan, which
#: resolves no eigen-gap, so their rows carry no 1 / gap term.
POWER = {
    "gauge_condition": ("plan", "P", "hermitian", 1e-12),
    "interaction_symmetric": ("plan", "Z", "antisymmetric", 1e-12),
    "interaction_product": ("plan", "Z", "symmetric", 1e-11),
    "structure_unitary": ("plan", "U", "symmetric", 1e-12),
    "bogoliubov_unitary_defect": ("pair", "X", "general", 1e-11),
    "bogoliubov_symmetry_defect": ("pair", "Y", "general", 1e-11),
    "covariance_real": ("closed frame", "Q", "general", 1e-9),
    "covariance_vs_oracle": ("closed", "C", "symmetric", 1e-9),
    "oracle_overlap": ("plan", "Z", "symmetric", 1e-10),
    "faithful_gauge_identity": ("closed", "C", "symmetric", 1e-9),
    "uniform_gauge_formula": ("closed", "C", "symmetric", 1e-9),
    "blochmessiah_x": ("factors", "V", "general", 1e-11),
    "blochmessiah_y": ("factors", "V", "general", 1e-10),
    "interferometer_identity": ("factors", "V", "general", 1e-11),
    "cluster_condition": ("factors", "V", "general", 1e-11),
    "bundle_Z_matches": ("bundle", "Z", "general", 1e-11),
    "bundle_P_matches": ("bundle", "P", "hermitian", 1e-11),
    "bundle_U_matches": ("bundle", "U", "general", 1e-12),
    "bundle_X_matches": ("bundle", "X", "general", 1e-10),
    "bundle_Y_matches": ("bundle", "Y", "general", 1e-10),
    "bundle_C_matches": ("bundle", "C", "general", 1e-9),
}

#: The reduction rows on the bundle route (``verify --interaction``), with V
#: faulted as above, on every built-in case.  A built-in bundle is planned
#: by the gauge it names, so V is the plan's W, as on the graph route, and
#: the faults are those of ``POWER``: a 1e-12 fault of V stays within the
#: blochmessiah_y budget of the 64-mode faithful case at z lambda_max = 1
#: on both routes.  Faults set by the rule above.
INTERACTION_POWER = {
    "blochmessiah_x": 1e-11,
    "blochmessiah_y": 1e-10,
    "interferometer_identity": 1e-11,
    "cluster_condition": 1e-11,
}

#: The same rows for a custom gauge (``random_compatible_gauge``, strengths
#: from 0.05 to 3.05) at N in {8, 64} and z lambda_max in {1, 25}, on the
#: graph route and the bundle route alike.  Only the strongest mode's
#: column of V is amplified by cosh(z lambda_max), hence the decade over
#: the built-in gauges for X and Y.  Faults set by the rule above.
CUSTOM_POWER = {
    "blochmessiah_x": 1e-10,
    "blochmessiah_y": 1e-10,
    "interferometer_identity": 1e-11,
    "cluster_condition": 1e-11,
}

#: covariance_real's fault of a custom gauge's modes, which its closed form
#: reads; set by the rule above.
CUSTOM_MODES_FAULT = 1e-9

#: interaction_product's fault of a P that stays compatible, P + delta max|P|
#: F diag(r) F^dagger: the gauge gate passes it, and a built-in gauge forms
#: Z, X, Y and C without P, so only the tie of P to Z sees it.  Set by the
#: rule above on the built-in and the custom cases.
COMPATIBLE_P_FAULT = 1e-10

#: Faults no row of their own guards since the rows that compared the
#: construction with itself are gone: (stage, object, shape, fault, the rows
#: of which at least one fails).  A tampered C is covariance_vs_oracle's
#: fault above, and a tampered stored C bundle_C_matches'.  Q is the
#: plan's eigenvector matrix as the Bloch-Messiah factors read it: V is
#: built from it and checked against A alone by cluster_condition.
UNGUARDED = {
    "strengths": ("plan", "strengths", "general", 1e-10,
                  {"covariance_vs_oracle", "faithful_gauge_identity", "uniform_gauge_formula"}),
    "D": ("factors", "D", "general", 1e-10, {"blochmessiah_x", "blochmessiah_y"}),
    "Q": ("frame", "Q", "general", 1e-11, {"cluster_condition"}),
}


def fault(m, delta, shape, rng, plan=None):
    """m + delta max|m| R with R of the given ``shape`` and entries in [-1, 1];
    a ``compatible`` R is F diag(r) F^dagger in the frame F of ``plan``, so
    that a P so faulted still passes the gauge gate."""
    m = np.asarray(m)
    if shape == "compatible":
        return m + delta * max_abs(m) * plan._in_frame(rng.uniform(-1.0, 1.0, m.shape[0]))
    r = rng.uniform(-1.0, 1.0, m.shape)
    if np.iscomplexobj(m):
        r = r + 1j * rng.uniform(-1.0, 1.0, m.shape)
    if shape == "symmetric":
        r = (r + r.T) / 2.0
    elif shape == "antisymmetric":
        r = (r - r.T) / 2.0
    elif shape == "hermitian":
        r = (r + r.conj().T) / 2.0
    return m + delta * max_abs(m) * r


class Case:
    """One case written for the command line: graph and phase files, the
    gauge, the z that gives its z lambda_max, and its synthesize bundle."""

    def __init__(self, tmp_path, n, gauge, zl, self_inverse=False):
        rng = np.random.default_rng(n)
        if self_inverse:
            a = np.kron(np.eye(n // 2), [[0.0, 1.0], [1.0, 0.0]])
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            a = (a + a.T) / 2.0
            a /= np.max(np.abs(np.linalg.eigvalsh(a)))
        stem = tmp_path / f"{n}-{gauge}-{zl:g}{'-self-inverse' if self_inverse else ''}"
        graph, phases = stem.with_suffix(".graph"), stem.with_suffix(".phases")
        graph.write_text(format_graph(a), encoding="utf-8")
        theta = rng.uniform(-math.pi, math.pi, n).tolist()
        phases.write_text("".join(f"{t!r}\n" for t in theta), encoding="utf-8")
        # with spectral radius 1, lambda_max is 1 for the identity gauge and
        # 1 + ln(2) / (2 z) for the faithful one
        z = zl if gauge == "identity" else zl - math.log(2.0) / 2.0
        spec = gauge
        if gauge == "custom":
            p = random_compatible_gauge(rng, a, theta)
            z = zl / float(np.linalg.eigvalsh(p)[-1])
            spec = f"custom:{stem.with_suffix('.gauge.json')}"
            stem.with_suffix(".gauge.json").write_text(json.dumps(matrix_to_json(p)), encoding="utf-8")
        self.id = stem.name
        self.gauge = gauge
        self.self_inverse = self_inverse
        self.argv = ["--graph", str(graph), "--phases", str(phases), "--gauge", spec, "-z", repr(z)]
        self.report = str(stem.with_suffix(".report.json"))

    @functools.cached_property
    def bundle(self) -> dict:
        assert cli.main(["synthesize", *self.argv, "--out", self.report]) == 0
        with open(self.report, encoding="utf-8") as fh:
            return json.load(fh)

    def reports(self, row) -> bool:
        """Whether verify reports ``row`` for this case."""
        if row == "faithful_gauge_identity":
            return self.gauge == "faithful"
        if row == "uniform_gauge_formula":
            return self.gauge == "identity"
        return not self.self_inverse

    def verify(self, monkeypatch, stage=None, name=None, shape="general", delta=0.0):
        """Exit code and {row: passed} of verify with object ``name`` built at
        ``stage`` faulted by ``delta``; the bundle stages verify the bundle."""
        rng = np.random.default_rng(2020)

        def faulted(build):
            def build_faulted(*args):
                built = build(*args)
                plan = getattr(built, "cluster", None)
                return dataclasses.replace(built, **{name: fault(getattr(built, name), delta, shape, rng, plan)})
            return build_faulted

        def faulted_plan(cluster):
            # Q as every reader but U, formed before the reordering, sees it
            spectrum = cluster._factorization
            plan = synthesis.ClusterPlan(cluster.A, cluster.theta)
            plan.__dict__["_factorization"] = spectrum._replace(q=fault(spectrum.q, delta, shape, rng))
            return plan

        def faulted_frame(build):
            def build_faulted(zm):
                return build(dataclasses.replace(zm, cluster=faulted_plan(zm.cluster)))
            return build_faulted

        def faulted_closed_frame(build):
            def build_faulted(cluster, zm):
                plan = faulted_plan(cluster)
                return build(plan, dataclasses.replace(zm, cluster=plan))
            return build_faulted

        argv = ["verify", *self.argv]
        bundle = self.bundle if stage == "bundle factors" else None
        with monkeypatch.context() as patch:
            if stage == "plan":
                patch.setattr(synthesis.ClusterPlan, "_plan", faulted(synthesis.ClusterPlan._plan))
            elif stage in ("pair", "closed"):
                build = {"pair": "bogoliubov_from_interaction", "closed": "covariance_closed_form"}[stage]
                patch.setattr(synthesis, build, faulted(getattr(synthesis, build)))
            elif stage in ("factors", "bundle factors"):
                patch.setattr(blochmessiah, "bloch_messiah", faulted(blochmessiah.bloch_messiah))
            elif stage == "frame":
                patch.setattr(blochmessiah, "bloch_messiah", faulted_frame(blochmessiah.bloch_messiah))
            elif stage == "closed frame":
                closed = synthesis.covariance_closed_form
                patch.setattr(synthesis, "covariance_closed_form", faulted_closed_frame(closed))
            elif stage == "bundle":
                stored = cli.matrix_from_json(self.bundle[name])
                bundle = {**self.bundle, name: matrix_to_json(fault(stored, delta, shape, rng))}
            if bundle is not None:
                patch.setattr(cli, "_load_json", lambda path, fields=None: bundle)
                argv = ["verify", "--interaction", "bundle.json"]
            code = cli.main([*argv, "--out", self.report])
        if code == cli.EXIT_GAUGE:
            return code, {}
        with open(self.report, encoding="utf-8") as fh:
            return code, {c["name"]: c["passed"] for c in json.load(fh)["checks"]}


@pytest.fixture(scope="module")
def custom_cases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("power-custom")
    return [Case(tmp, n, "custom", zl) for n in (8, 64) for zl in (1.0, 25.0)]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("power")
    built = [Case(tmp, n, gauge, zl) for n in (8, 64) for gauge in ("identity", "faithful") for zl in (1.0, 25.0)]
    return built + [Case(tmp, n, "identity", zl, self_inverse=True) for n in (8, 64) for zl in (1.0, 25.0)]


def test_every_row_has_a_fault():
    assert set(POWER) == set(CHECKS)


def test_unfaulted_cases_pass(cases, monkeypatch):
    for case in cases:
        reported = set()
        for stage in (None,) if case.self_inverse else (None, "bundle"):
            code, rows = case.verify(monkeypatch, stage, "C")
            assert code == 0 and all(rows.values()), case.id
            reported |= set(rows)
        assert {row for row in POWER if case.reports(row)} <= reported, case.id


@pytest.mark.parametrize("row", POWER)
def test_fault_flips_the_row(row, cases, monkeypatch, capsys):
    stage, name, shape, delta = POWER[row]
    for case in (case for case in cases if case.reports(row)):
        code, rows = case.verify(monkeypatch, stage, name, shape, delta)
        if row in GATE_ROWS:
            assert code == cli.EXIT_GAUGE and f"error: {row} residual" in capsys.readouterr().err, case.id
        else:
            assert code == cli.EXIT_CHECK_FAILED and rows[row] is False, case.id


@pytest.mark.parametrize("row", INTERACTION_POWER)
def test_fault_of_the_takagi_factors_flips_the_row(row, cases, monkeypatch):
    """V is the Autonne-Takagi factor of -i U: U = i V V^T."""
    for case in cases:
        code, rows = case.verify(monkeypatch, "bundle factors", "V", "general", INTERACTION_POWER[row])
        assert code == cli.EXIT_CHECK_FAILED and rows[row] is False, case.id


def test_unfaulted_custom_cases_pass(custom_cases, monkeypatch):
    for case in custom_cases:
        for stage in (None, "bundle"):
            code, rows = case.verify(monkeypatch, stage, "C")
            assert code == 0 and all(rows.values()), case.id
            assert set(CUSTOM_POWER) <= set(rows), case.id


@pytest.mark.parametrize("stage", ["factors", "bundle factors"])
@pytest.mark.parametrize("row", CUSTOM_POWER)
def test_fault_of_the_custom_gauge_factors_flips_the_row(row, stage, custom_cases, monkeypatch):
    for case in custom_cases:
        code, rows = case.verify(monkeypatch, stage, "V", "general", CUSTOM_POWER[row])
        assert code == cli.EXIT_CHECK_FAILED and rows[row] is False, case.id


def test_fault_of_a_compatible_p_flips_interaction_product(cases, custom_cases, monkeypatch):
    for case in [case for case in cases if not case.self_inverse] + custom_cases:
        code, rows = case.verify(monkeypatch, "plan", "P", "compatible", COMPATIBLE_P_FAULT)
        failed = {row for row, passed in rows.items() if not passed}
        assert code == cli.EXIT_CHECK_FAILED and failed == {"interaction_product"}, case.id


def test_fault_of_the_custom_modes_flips_covariance_real(custom_cases, monkeypatch):
    for case in custom_cases:
        code, rows = case.verify(monkeypatch, "plan", "modes", "general", CUSTOM_MODES_FAULT)
        assert code == cli.EXIT_CHECK_FAILED and rows["covariance_real"] is False, case.id


@pytest.mark.parametrize("what", UNGUARDED)
def test_fault_without_its_own_row_is_caught(what, cases, monkeypatch):
    stage, name, shape, delta, catchers = UNGUARDED[what]
    for case in (case for case in cases if not case.self_inverse):
        code, rows = case.verify(monkeypatch, stage, name, shape, delta)
        failed = {row for row, passed in rows.items() if not passed}
        assert code == cli.EXIT_CHECK_FAILED and failed & catchers, case.id


def test_faulted_structure_factor_of_single_groups_fails_a_reduction_row(cases, monkeypatch, capsys):
    """decompose --interaction on the faithful cases, whose strength groups
    are all 1 x 1, with a relative fault in the U of the polar split.  The
    factors come from the cluster recovered from U: a 1e-8 fault leaves its
    Cayley map with an imaginary residual, which rejects the request (exit
    4), and a 1e-10 fault passes that map and fails a reduction row.  The
    rows carry no 1 / gap term, so this holds at N = 64 and
    z lambda_max = 25 too."""
    split = synthesis.InteractionMatrix.from_matrix
    for case in (case for case in cases if case.gauge == "faithful"):
        bundle = case.bundle
        z = case.argv[case.argv.index("-z") + 1]
        for delta in (1e-8, 1e-10):
            rng = np.random.default_rng(2020)

            def faulted(Z, z):
                zm = split(Z, z)
                return dataclasses.replace(zm, U=fault(zm.U, delta, "symmetric", rng))

            with monkeypatch.context() as patch:
                patch.setattr(cli, "_load_json", lambda path, fields=None: bundle)
                patch.setattr(synthesis.InteractionMatrix, "from_matrix", staticmethod(faulted))
                code = cli.main(["decompose", "--interaction", "bundle.json", "-z", z, "--out", case.report])
            if delta == 1e-8:
                assert code == cli.EXIT_NUMERICAL and "imaginary residual" in capsys.readouterr().err, case.id
                continue
            assert code == cli.EXIT_OK, case.id
            with open(case.report, encoding="utf-8") as fh:
                failed = {c["name"] for c in json.load(fh)["checks"] if not c["passed"]}
            assert failed & {"blochmessiah_x", "blochmessiah_y", "interferometer_identity"}, case.id
