"""A Python caller gets from :mod:`clustersqueeze.battery` the verdict that
``verify`` reports: the same records, bit for bit, on the graph route and
on the graph's synthesize bundle, which is planned by the gauge it names."""

import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from clustersqueeze import (
    ClusterPlan, InteractionMatrix, OracleMismatch, battery, blochmessiah, cli, format_graph, oracle, synthesis,
)
from clustersqueeze.tolerances import CHECKS, ErrorModel

from conftest import matrix_to_json, random_adjacency, random_compatible_gauge, random_phases

GAUGES = pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
BUNDLE_ROWS = [f"bundle_{key}_matches" for key in ("Z", "U", "X", "Y", "C")]


def synthesized(gauge, tmp_path):
    """A graph at random phases, the ``gauge`` selector, the CLI flags that
    name them and the path of their synthesize bundle."""
    rng = np.random.default_rng(8)
    a = random_adjacency(rng, 8)
    theta = random_phases(rng, 8)
    z = 0.7
    graph, phases = tmp_path / "g.graph", tmp_path / "g.phases"
    graph.write_text(format_graph(a), encoding="utf-8")
    phases.write_text("".join(f"{t!r}\n" for t in theta.tolist()), encoding="utf-8")
    selector, spec = gauge, gauge
    if gauge == "custom":
        selector = random_compatible_gauge(rng, a, theta)
        spec = f"custom:{tmp_path / 'p.json'}"
        (tmp_path / "p.json").write_text(json.dumps(matrix_to_json(selector)), encoding="utf-8")
    flags = ["--graph", str(graph), "--phases", str(phases), "--gauge", spec, "-z", repr(z)]
    bundle_path = str(tmp_path / "bundle.json")
    assert cli.main(["synthesize", *flags, "--out", bundle_path]) == cli.EXIT_OK
    return ClusterPlan.of(a, theta), selector, z, flags, bundle_path


def stored_matrices(bundle: dict) -> dict:
    return {key: cli.matrix_from_json(bundle[key]) for key in ("Z", "U", "X", "Y", "C")}


@GAUGES
def test_battery_records_are_the_verify_report(gauge, tmp_path, capsys):
    cluster, selector, z, flags, bundle_path = synthesized(gauge, tmp_path)

    def reported(argv):
        assert cli.main(["verify", *argv]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)["checks"]

    checked = battery.verify(cluster.interaction(selector, z))
    assert checked.checks == reported(flags)
    assert all(c["passed"] for c in checked.checks)

    with open(bundle_path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    # a built-in gauge is planned by its name and its P compared; a custom
    # bundle's P is its gauge
    stored, p = stored_matrices(bundle), cli.matrix_from_json(bundle["P"])
    if gauge == "custom":
        selector = p
    else:
        selector, stored = bundle["gauge"], {"P": p, **stored}
    stored_plan = ClusterPlan.of(cli.matrix_from_json(bundle["adjacency"]), bundle["theta"])
    from_bundle = battery.verify(stored_plan.interaction(selector, bundle["z"]), stored)
    assert from_bundle.checks == reported(["--interaction", bundle_path])
    rows = [c for c in from_bundle.checks if c["name"].startswith("bundle_")]
    assert [c["name"] for c in rows] == ([] if gauge == "custom" else ["bundle_P_matches"]) + BUNDLE_ROWS
    # the very path that wrote the bundle rebuilds it
    assert gauge == "custom" or all(c["residual"] == 0.0 for c in rows)


@GAUGES
def test_verify_forms_no_r_or_t(gauge, tmp_path, monkeypatch):
    """Only decompose reports R and T, so verify leaves both unformed."""
    cluster, selector, z, _, _ = synthesized(gauge, tmp_path)
    made, bloch_messiah = [], blochmessiah.bloch_messiah
    monkeypatch.setattr(blochmessiah, "bloch_messiah", lambda zm: made.append(bloch_messiah(zm)) or made[-1])
    battery.verify(cluster.interaction(selector, z))
    [factors] = made
    assert "R" not in vars(factors) and "T" not in vars(factors)
    assert np.array_equal(factors.R, np.diag(cluster.rotation))
    assert np.allclose(factors.T.conj().T @ factors.R, factors.V, rtol=0.0, atol=1e-13)  # V = T^dagger R


@GAUGES
def test_a_fresh_bundle_matches_its_recipe_exactly(gauge, tmp_path):
    """The bundle rows compare a stored matrix with the structured form of
    the same computation, so an honest bundle reads 0.0 on all five."""
    cluster, selector, z, _, bundle_path = synthesized(gauge, tmp_path)
    with open(bundle_path, encoding="utf-8") as fh:
        stored = stored_matrices(json.load(fh))
    checks = battery.verify(cluster.interaction(selector, z), stored).checks[-5:]
    assert [(c["name"], c["residual"]) for c in checks] == [(name, 0.0) for name in BUNDLE_ROWS]


@GAUGES
def test_a_bundle_of_the_raw_products_verifies(gauge, tmp_path, capsys):
    """A bundle that stores the raw P U, X and Y, as bundles did before
    Z, X and Y were published structured, passes ``verify --interaction``:
    the parts the structured form drops lie within the bundle rows' budgets."""
    cluster, selector, z, _, bundle_path = synthesized(gauge, tmp_path)
    raw = battery.synthesize(cluster.interaction(selector, z))
    raw = {"Z": raw.zm.Z, "X": raw.pair.X, "Y": raw.pair.Y}
    with open(bundle_path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    published = stored_matrices(bundle)
    assert gauge == "identity" or not all(np.array_equal(raw[key], published[key]) for key in raw)
    bundle.update((key, matrix_to_json(m)) for key, m in raw.items())
    with open(bundle_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(bundle, indent=2) + "\n")
    assert cli.main(["verify", "--interaction", bundle_path]) == cli.EXIT_OK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert all(checks[f"bundle_{key}_matches"]["passed"] for key in raw)


def test_a_matrix_equal_to_its_mirror_image_keeps_its_bits():
    """A product that already equals its mirror image in value is published
    as computed, so a 0.0 facing a -0.0 keeps its sign and an identity
    bundle keeps the bytes of its raw products; any other is replaced by
    its symmetric or Hermitian part."""
    z = np.array([[0.8, -0.0], [0.0, -0.8]]) + 0.6j
    x = np.array([[1.5, 0.25j], [-0.25j, 1.5]])
    y = np.array([[0.5j, 1e-17], [0.0, -0.5j]])
    parts = battery.structured(SimpleNamespace(Z=z), SimpleNamespace(X=x, Y=y))
    assert parts["Z"] is z and parts["X"] is x
    assert np.array_equal(parts["Y"], np.array([[0.5j, 5e-18], [5e-18, -0.5j]]))

    # an isolated node and a self-loop, at random phases: Z = U is diagonal
    cluster = ClusterPlan.of(np.diag([0.0, 0.12803108577163247]), [0.46643233359121483, 2.807322639145519])
    z = 1.0110575814690477
    raw = battery.synthesize(cluster.interaction("identity", z))
    parts = battery.structured(raw.zm, raw.pair)
    assert parts["Z"] is raw.zm.Z and parts["X"] is raw.pair.X and parts["Y"] is raw.pair.Y


@GAUGES
def test_the_plan_returns_the_gated_record_alone(gauge, tmp_path):
    """``interaction`` returns one :class:`InteractionMatrix` that names its
    plan and gauge and keeps the reality check its gate judged."""
    cluster, selector, z, _, _ = synthesized(gauge, tmp_path)
    zm = cluster.interaction(selector, z)
    assert type(zm) is InteractionMatrix
    assert zm.cluster is cluster and zm.gauge == gauge
    assert zm.reality == synthesis._reality_check(cluster, zm.P)
    assert zm.reality is zm.reality  # cached, as the gate left it


@pytest.mark.parametrize(
    "command, route, expected",
    [("synthesize", "graph", 1), ("verify", "graph", 1), ("decompose", "graph", 1),
     ("verify", "bundle", 1), ("decompose", "bundle", 0), ("analyze", "bundle", 0)])
@GAUGES
def test_one_reality_check_per_planned_request(gauge, command, route, expected, tmp_path, capsys, monkeypatch):
    """The gate's check is the one the ``gauge_condition`` row and the error
    model read: a request that plans a record checks reality once, and one
    that splits a bare Z never does."""
    _, _, z, flags, bundle_path = synthesized(gauge, tmp_path)
    if route == "graph":
        argv = [command, *flags]
    else:
        argv = [command, "--interaction", bundle_path, *([] if command == "verify" else ["-z", repr(z)])]
    checked, reality_check = [], synthesis._reality_check
    monkeypatch.setattr(synthesis, "_reality_check", lambda cluster, p: checked.append(p) or reality_check(cluster, p))
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(checked) == expected


@GAUGES
def test_the_error_model_is_read_off_the_record(gauge, tmp_path):
    """``ErrorModel.of`` gives the budgets of the model formed by hand: for
    a planned record, the plan's kappa and the gate's test scale; for a
    polar split, Z alone with the margin of the plan recovered from U."""
    cluster, selector, z, _, _ = synthesized(gauge, tmp_path)
    zm = cluster.interaction(selector, z)
    split = InteractionMatrix.from_matrix(zm.Z, z)
    assert split.reality is None  # no plan, so no gate
    n, rho = zm.n, float(np.max(np.abs(cluster.by_magnitude[0])))
    by_hand = {
        "planned": (zm, ErrorModel(
            n=n, z=z, lam_min=float(zm.strengths[0]), lam_max=float(zm.strengths[-1]), kappa=1.0 + rho,
            z_scale=max(1.0, float(np.max(np.abs(zm.Z)))),
            test_scale=synthesis._reality_check(cluster, zm.P).scale)),
        "split": (split, ErrorModel(
            n=n, z=z, lam_min=float(split.strengths[0]), lam_max=float(split.strengths[-1]),
            kappa=float(split.strengths[-1]) / float(split.strengths[0]),
            margin=2.0 * np.sin(np.pi / (4 * n)))),
    }
    for record, expected in by_hand.values():
        model = ErrorModel.of(record)
        assert model == expected
        assert [model.budget(name) for name in CHECKS] == [expected.budget(name) for name in CHECKS]


SWEEP = [0.5, 0.9, 1.3, 1.7]


@pytest.mark.parametrize("gauge", ["identity", "faithful"])
@pytest.mark.parametrize("end", ["first", "last"])
def test_a_sweep_whose_oracle_is_off_by_1e8_at_an_end_row_fails(gauge, end, tmp_path, capsys, monkeypatch):
    """The sweep judges its end rows against the oracle: a 1e-8 relative
    change of the oracle's C at either end raises :class:`OracleMismatch`,
    and ``sweep`` exits 4 with nothing on stdout."""
    cluster, selector, _, flags, _ = synthesized(gauge, tmp_path)
    assert [row.z for row in battery.convergence_sweep(cluster, selector, SWEEP)] == SWEEP
    faulty = SWEEP[0] if end == "first" else SWEEP[-1]
    exact = oracle._covariance_oracles

    def scaled(cluster, zm, zs):
        return [dataclasses.replace(report, C=report.C * (1.0 + 1e-8)) if z == faulty else report
                for z, report in zip(zs, exact(cluster, zm, zs))]

    monkeypatch.setattr(oracle, "_covariance_oracles", scaled)
    message = rf"closed-form and brute-force covariances differ by \S+ at z = {re.escape(repr(faulty))}"
    with pytest.raises(OracleMismatch, match=f"^{message}$"):
        battery.convergence_sweep(cluster, selector, SWEEP)
    capsys.readouterr()
    argv = ["sweep", *flags[:6], "--z-range", "0.5:1.7:0.4"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and re.search(message, err)
