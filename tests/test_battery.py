"""A Python caller gets from :mod:`clustersqueeze.battery` the verdict that
``verify`` reports: the same records, bit for bit, on the graph route and
on the graph's synthesize bundle."""

import json

import numpy as np
import pytest

from clustersqueeze import ClusterPlan, battery, cli, format_graph

from conftest import matrix_to_json, random_adjacency, random_compatible_gauge, random_phases


@pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
def test_battery_records_are_the_verify_report(gauge, tmp_path, capsys):
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

    def reported(argv):
        assert cli.main(["verify", *argv]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)["checks"]

    cluster = ClusterPlan.of(a, theta)
    checked = battery.verify(cluster, selector, z, gauge)
    assert checked.checks == reported(flags)
    assert all(c["passed"] for c in checked.checks)

    with open(bundle_path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    stored = {key: cli.matrix_from_json(bundle[key]) for key in ("Z", "U", "X", "Y", "C")}
    from_bundle = battery.verify(
        ClusterPlan.of(cli.matrix_from_json(bundle["adjacency"]), bundle["theta"]),
        cli.matrix_from_json(bundle["P"]), bundle["z"], bundle["gauge"], stored,
    )
    assert from_bundle.checks == reported(["--interaction", bundle_path])
    assert [c["name"] for c in from_bundle.checks[-5:]] == [f"bundle_{key}_matches" for key in stored]
