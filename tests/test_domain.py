"""Accepted implies verifiable, and the checks keep their power.

Every input ``synthesize`` accepts (N from 1 to 8, weights up to 1e4, any
phases, the identity, faithful or a random compatible gauge, z * lambda_max
up to ``z_cap``) must pass ``verify`` on the graph route and on the bundle
route, and its bundle must pass ``decompose --interaction`` and be inverted
by ``analyze --interaction``.  Fixed cases cover the inputs the benchmark
once failed on, and the power tests show that the derived budgets still
reject defects far below the old fixed tolerances.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clustersqueeze import (
    BogoliubovPair,
    ClusterPlan,
    format_graph,
    oracle,
    parse_graph,
    synthesis,
)
from clustersqueeze.cli import EXIT_CHECK_FAILED, EXIT_GAUGE, EXIT_OK, main
from clustersqueeze.tolerances import Z_CAP

from conftest import matrix_to_json, perfbench_graph_text, random_compatible_gauge

EPR = np.array([[0.0, 1.0], [1.0, 0.0]])
PATH3 = parse_graph("3\n0 1 1.0\n1 2 0.5\n")
RING6 = parse_graph("6\n0 1 0.8\n1 2 -0.6\n2 3 1.1\n3 4 0.5\n4 5 -0.9\n0 5 0.7\n2 2 0.4\n")


def run(args, out_path):
    """Exit code and JSON report of one CLI request written to ``out_path``."""
    code = main([*args, "--out", str(out_path)])
    with open(out_path, encoding="utf-8") as fh:
        return code, json.load(fh)


def faithful_offset(a):
    """z * lambda_max - z of the faithful gauge: ln(1 + rho(A)^2) / 2."""
    rho = float(np.max(np.abs(np.linalg.eigvalsh(a)))) if a.size else 0.0
    return 0.5 * math.log1p(rho * rho)


def write_case(tmp_path, a, theta, p=None):
    """Graph and phase files, and the custom gauge P when given."""
    files = {"graph": tmp_path / "g.graph", "phases": tmp_path / "th.txt"}
    files["graph"].write_text(format_graph(a), encoding="utf-8")
    files["phases"].write_text("".join(f"{float(t)!r}\n" for t in theta), encoding="utf-8")
    if p is not None:
        files["gauge"] = tmp_path / "p.json"
        files["gauge"].write_text(json.dumps(matrix_to_json(p)), encoding="utf-8")
    return {key: str(path) for key, path in files.items()}


def cluster_flags(files, gauge, z):
    spec = f"custom:{files['gauge']}" if gauge == "custom" else gauge
    return ["--graph", files["graph"], "--phases", files["phases"], "--gauge", spec, "-z", repr(z)]


def failing(report):
    return [c["name"] for c in report["checks"] if not c["passed"]]


def assert_verifiable(tmp_path, a, theta, gauge, z, p=None):
    """synthesize accepts, its checks pass, verify passes on both routes,
    decompose passes on the bundle and analyze inverts it."""
    files = write_case(tmp_path, a, theta, p)
    flags = cluster_flags(files, gauge, z)
    bundle = tmp_path / "bundle.json"
    code = main(["synthesize", *flags, "--out", str(bundle)])
    if gauge == "custom" and code == EXIT_GAUGE:
        return  # rejected: this P is compatible only above rounding
    assert code == EXIT_OK
    assert failing(json.loads(bundle.read_text(encoding="utf-8"))) == []
    for args in (["verify", "--interaction", str(bundle)], ["verify", *flags]):
        code, report = run(args, tmp_path / "report.json")
        assert failing(report) == [], args[1]
        assert code == EXIT_OK and report["passed"] is True
    inverse = ["--interaction", str(bundle), "-z", repr(z), "--out", str(tmp_path / "inverse.json")]
    assert main(["decompose", *inverse]) == EXIT_OK
    assert failing(json.loads((tmp_path / "inverse.json").read_text(encoding="utf-8"))) == []
    assert main(["analyze", *inverse]) == EXIT_OK


@st.composite
def accepted_inputs(draw):
    n = draw(st.integers(1, 8))
    weight = 10.0 ** draw(st.floats(-1.0, 4.0))
    upper = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    density = draw(st.floats(0.0, 1.0))
    keep = draw(arrays(float, (n, n), elements=st.floats(0.0, 1.0))) < density
    a = np.triu(np.where(keep, weight * upper, 0.0))
    a = a + np.triu(a, 1).T
    theta = draw(arrays(float, n, elements=st.floats(-math.pi, math.pi)))
    gauge = draw(st.sampled_from(["identity", "faithful", "custom"]))
    headroom = draw(st.floats(1e-3, 0.999))  # share of z_cap used by z * lambda_max
    p = None
    if gauge == "identity":
        z = headroom * Z_CAP
    elif gauge == "faithful":
        offset = faithful_offset(a)
        z = headroom * (Z_CAP - offset)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = random_compatible_gauge(rng, a, theta)
        z = headroom * Z_CAP / float(np.linalg.eigvalsh(p)[-1])
    return a, theta, gauge, z, p


class TestAcceptedImpliesVerifiable:
    @settings(max_examples=100)  # three CLI requests per example
    @given(case=accepted_inputs())
    def test_domain(self, case, tmp_path_factory):
        a, theta, gauge, z, p = case
        assert_verifiable(tmp_path_factory.mktemp("case"), a, theta, gauge, z, p)

    @pytest.mark.parametrize(
        "n, headroom, gauge",
        [(8, 19.0, "identity"), (36, 24.0, "faithful"), (64, 29.4, "identity"), (64, 29.4, "faithful")],
    )
    def test_benchmark_high_z_recipe(self, n, headroom, gauge, tmp_path, monkeypatch):
        """Dense uniform[-1, 1] weights at the benchmark's largest z * lambda_max.

        synthesize and verify on both routes plan the built-in gauge by its
        name off the cluster plan, verify --interaction by the name its
        bundle stores, so no request plans a gauge matrix and the bundle
        rows compare the bundle with the path that wrote it.
        """
        factorized = []
        plan = synthesis.ClusterPlan._plan

        def recording(cluster, gauge, z):
            if not isinstance(gauge, str):
                factorized.append(gauge)
            return plan(cluster, gauge, z)

        monkeypatch.setattr(synthesis.ClusterPlan, "_plan", recording)
        rng = np.random.default_rng(n)
        a = parse_graph(perfbench_graph_text(rng, n))
        theta = rng.uniform(-math.pi, math.pi, n)
        z = headroom - (faithful_offset(a) if gauge == "faithful" else 0.0)
        assert_verifiable(tmp_path, a, theta, gauge, z)
        assert factorized == []

    @settings(max_examples=60)
    @given(case=accepted_inputs(), digits=st.integers(10, 15), seed=st.integers(0, 2**32 - 1))
    def test_perturbed_gauge_is_rejected_or_verifiable(self, case, digits, seed, tmp_path_factory):
        """Any of the gauges above, moved Hermitian-wise in its ``digits``-th
        significant digit and given as a custom gauge: synthesize either
        rejects it (exit 3) or verify passes it."""
        a, theta, gauge, z, p = case
        if p is None:
            p = ClusterPlan.of(a, theta).interaction(gauge, z).P
        rng = np.random.default_rng(seed)
        h = rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape)
        h = (h + h.conj().T) / (2.0 * np.max(np.abs(h)))
        p = p + 10.0 ** -digits * np.max(np.abs(p)) * h
        assert_verifiable(tmp_path_factory.mktemp("case"), a, theta, "custom", z, p)

    @pytest.mark.parametrize("a", [PATH3, RING6], ids=["n3", "n6"])
    def test_gauge_written_with_twelve_digits_is_rejected(self, a, tmp_path):
        """A (non-scalar) faithful gauge stored with 12 significant digits is
        compatible only to about 1e-12, far above rounding: synthesize,
        verify, decompose --graph and sweep all reject it with exit 3."""
        n = a.shape[0]
        theta, z = np.linspace(-1.0, 1.0, n), 2.0
        p = ClusterPlan.of(a, theta).interaction("faithful", z).P
        twelve = np.vectorize(lambda x: float(f"{x:.12g}"))
        files = write_case(tmp_path, a, theta, twelve(p.real) + 1j * twelve(p.imag))
        flags = cluster_flags(files, "custom", z)
        for command in ("synthesize", "verify", "decompose", "sweep"):
            assert main([command, *flags, "--out", str(tmp_path / "out")]) == EXIT_GAUGE, command

    def test_faithful_gauge_of_a_heavy_pair_graph(self, tmp_path):
        """Two disjoint edges, one of weight 2.2e3, at small z: a faithful P
        formed by eigh(A A + 1) missed the interaction_symmetric budget by
        a third and synthesize rejected its own gauge (exit 3); read off
        eigh(A), it is accepted and verifiable."""
        a = parse_graph("4\n0 0 -0.39181210530833477\n0 2 2186.3293060750702\n"
                        "1 1 -0.14952991179871966\n1 3 1.76011278009042\n2 2 0.18182129357203358\n")
        theta = np.array([1.4563875501688672, 0.21401461109623954, -2.8469768132570312, 0.9923368987664469])
        assert_verifiable(tmp_path, a, theta, "faithful", 0.021096199728020848)

    def test_dense_graph_with_a_barely_resolved_takagi_gap(self, tmp_path):
        """N = 320 at the identity gauge, on the bundle route.  A Takagi
        factorization of its one strength group through the eigenvectors
        of Re(S) resolved an eigen-gap of 1.03e-8 there, so the
        interferometer carried an eigenvector error u / gap (reduction
        residuals up to 4.5e-10).  The factors now come from the cluster
        plan's frame, which resolves no eigen-gap, and the residuals stay
        at rounding."""
        text = perfbench_graph_text(np.random.default_rng(342), 320)
        graph, bundle = tmp_path / "g.graph", tmp_path / "b.json"
        graph.write_text(text, encoding="utf-8")
        assert main(["synthesize", "--graph", str(graph), "--out", str(bundle)]) == EXIT_OK
        code, report = run(["verify", "--interaction", str(bundle)], tmp_path / "r.json")
        assert code == EXIT_OK and failing(report) == []
        reduction = ("blochmessiah_x", "blochmessiah_y", "interferometer_identity", "cluster_condition")
        assert max(c["residual"] for c in report["checks"] if c["name"] in reduction) < 1e-12

    def test_strengths_closer_than_the_degeneracy_threshold(self, tmp_path):
        """An isolated node and a self-loop of weight 1e-4 give faithful
        strengths 1 and 1 + ln(1 + 1e-8) / (2 z), closer than 1e-8, as in
        the benchmark's high-z bundles with isolated nodes.  A grouping of
        equal strengths rebuilt X there only up to z times their spread;
        the factors off the plan's frame group nothing."""
        a = parse_graph("3\n1 1 0.0001\n2 2 0.5\n")
        theta, z = np.array([0.3, -1.2, 2.0]), 4.0
        strengths = ClusterPlan.of(a, theta).interaction("faithful", z).strengths
        assert 0.0 < strengths[1] - strengths[0] < 1e-8
        assert_verifiable(tmp_path, a, theta, "faithful", z)

    @pytest.mark.parametrize(
        "text",
        ["3\n0 1 1e3\n1 2 1e3\n", "3\n0 1 1e6\n1 2 1e6\n",
         "8\n" + "".join(f"0 {j} 1e6\n" for j in range(1, 8))],
        ids=["path-1e3", "path-1e6", "star-1e6"],
    )
    def test_ill_conditioned_faithful_gauge_inverts(self, text, tmp_path):
        """Heavy weights at z = 1e-3 give a faithful P of condition number
        up to 1.4e4.  A polar split through eigh(Z Z^dagger) squared it: U
        lost unitarity to about 3e-8, decompose --interaction exited 4 on
        every case and analyze --interaction on the path of weights 1e6,
        while verify passed the same bundles."""
        a = parse_graph(text)
        assert_verifiable(tmp_path, a, np.zeros(a.shape[0]), "faithful", 1e-3)

    def test_structure_unitary_budget_counts_three_stages(self, tmp_path):
        """U U^dagger - 1 rounds through eigh(A), Q diag Q^T and U U^dagger.
        On this graph of weights ~1e-3 its residual 3.1e-15 exceeded a
        budget that counted two stages (2.7e-15)."""
        a = parse_graph("3\n0 0 -0.0005509214307907606\n0 1 0.0008296651732623069\n"
                        "0 2 1.7435316714980554e-05\n1 1 0.0001401807338223031\n"
                        "1 2 0.00046046177181329465\n2 2 -0.0009265407754964137\n")
        theta = np.array([0.6863721252545192, 0.7600627771309614, -0.4773298310218941])
        assert_verifiable(tmp_path, a, theta, "identity", 0.1)


POWER_CASES = pytest.mark.parametrize(
    "a, gauge",
    [(EPR, "identity"), (EPR, "faithful"), (RING6, "identity"), (RING6, "faithful")],
    ids=["epr-identity", "epr-faithful", "n6-identity", "n6-faithful"],
)


def power_case(tmp_path, a, gauge):
    """Files and flags of an input at z * lambda_max = 25."""
    n = a.shape[0]
    theta = np.linspace(-1.0, 1.0, n)
    z = 25.0 - (faithful_offset(a) if gauge == "faithful" else 0.0)
    return cluster_flags(write_case(tmp_path, a, theta), gauge, z)


class TestPower:
    @POWER_CASES
    def test_unperturbed_battery_passes(self, a, gauge, tmp_path):
        code, report = run(["verify", *power_case(tmp_path, a, gauge)], tmp_path / "r.json")
        assert code == EXIT_OK and failing(report) == []

    @POWER_CASES
    def test_scaled_y_fails_a_bogoliubov_row(self, a, gauge, tmp_path, monkeypatch):
        exact = synthesis.bogoliubov_from_interaction

        def scaled(*args, **kwargs):
            pair = exact(*args, **kwargs)
            return BogoliubovPair(X=pair.X, Y=pair.Y * (1.0 + 1e-9))

        monkeypatch.setattr(synthesis, "bogoliubov_from_interaction", scaled)
        code, report = run(["verify", *power_case(tmp_path, a, gauge)], tmp_path / "r.json")
        assert code == EXIT_CHECK_FAILED
        assert "bogoliubov_unitary_defect" in failing(report)

    @POWER_CASES
    def test_oracle_covariance_off_by_1e8_fails(self, a, gauge, tmp_path, monkeypatch):
        """The squeezed-half oracle resolves C relative to its own size, so a
        1e-8 relative change of the oracle's C fails covariance_vs_oracle
        even at z * lambda_max = 25."""
        exact = oracle.covariance_oracle

        def scaled(*args, **kwargs):
            report = exact(*args, **kwargs)
            return dataclasses.replace(report, C=report.C * (1.0 + 1e-8))

        monkeypatch.setattr(oracle, "covariance_oracle", scaled)
        code, report = run(["verify", *power_case(tmp_path, a, gauge)], tmp_path / "r.json")
        assert code == EXIT_CHECK_FAILED and failing(report) == ["covariance_vs_oracle"]

    @POWER_CASES
    def test_bundle_x_off_in_the_tenth_digit_fails(self, a, gauge, tmp_path):
        bundle = tmp_path / "bundle.json"
        code, obj = run(["synthesize", *power_case(tmp_path, a, gauge)], bundle)
        assert code == EXIT_OK
        x00 = obj["X"]["re"][0][0]
        obj["X"]["re"][0][0] = x00 + 10.0 ** (math.floor(math.log10(abs(x00))) - 9)
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        code, report = run(["verify", "--interaction", str(bundle)], tmp_path / "r.json")
        assert code == EXIT_CHECK_FAILED and failing(report) == ["bundle_X_matches"]
