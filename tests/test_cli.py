"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clustersqueeze
from clustersqueeze import ClusterPlan, SearchExhausted, analysis, cli, parse_graph, synthesis
from clustersqueeze.cli import (
    EXIT_INPUT,
    EXIT_OK,
    _dump_json,
    main,
    matrix_from_json,
    matrix_to_json,
)

from conftest import epr_adjacency, non_hermitian_compatible_gauge, random_compatible_gauge

EPR_GRAPH = "2\n0 1 1.0\n"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestMatrixJson:
    def test_real_matrix_omits_imaginary_block(self):
        obj = matrix_to_json(np.eye(2))
        assert "im" not in obj
        assert obj["rows"] == 2 and obj["cols"] == 2

    def test_round_trip_lossless(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
            assert np.array_equal(back, m)

    def test_real_complex_dtype_round_trips_as_real(self):
        m = np.eye(2, dtype=complex)
        back = matrix_from_json(matrix_to_json(m))
        assert not np.iscomplexobj(back)
        assert np.array_equal(back, np.eye(2))


class TestSynthesize:
    def test_epr_identity_bundle(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, err = run_cli(
            ["synthesize", "--graph", graph, "-z", "1.0"], capsys
        )
        assert code == 0 and err == ""
        bundle = json.loads(out)
        z_mat = matrix_from_json(bundle["Z"])
        assert np.allclose(z_mat, -np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
        c_mat = matrix_from_json(bundle["C"])
        assert bundle["covariance_max_abs"] == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-10
        )
        assert np.allclose(c_mat, 2.0 * math.exp(-2.0) * np.eye(2), atol=1e-10)
        assert all(check["passed"] for check in bundle["checks"])
        assert any(c["name"] == "self_inverse_value" for c in bundle["checks"])

    def test_single_node_faithful(self, tmp_path, capsys):
        graph = write(tmp_path, "one.graph", "1\n")
        code, out, _ = run_cli(
            ["synthesize", "--graph", graph, "--gauge", "faithful", "-z", "1.0"],
            capsys,
        )
        assert code == 0
        bundle = json.loads(out)
        assert np.allclose(matrix_from_json(bundle["Z"]), 1j * np.eye(1), atol=1e-12)
        assert bundle["covariance_max_abs"] == pytest.approx(
            math.exp(-2.0), abs=1e-10
        )
        assert any(c["name"] == "faithful_gauge_identity" for c in bundle["checks"])

    def test_custom_gauge_violating_reality_exits_3(self, tmp_path, capsys):
        graph = write(tmp_path, "tri.graph", "3\n0 1 1\n1 2 1\n")
        bad = {"rows": 3, "cols": 3, "re": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}
        gauge = write(tmp_path, "bad.json", json.dumps(bad))
        code, out, err = run_cli(
            ["synthesize", "--graph", graph, "--gauge", f"custom:{gauge}"], capsys
        )
        assert code == 3
        assert "reality" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "bad.graph", "2\n0 1\n")
        code, _, err = run_cli(["synthesize", "--graph", graph], capsys)
        assert code == 2 and "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["synthesize", "--graph", "/nope/missing"], capsys)
        assert code == 2 and "cannot read" in err

    def test_overflow_exits_4(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli(
            ["synthesize", "--graph", graph, "-z", "40.0"], capsys
        )
        assert code == 4 and "cosh" in err

    def test_deterministic_output(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", "3\n0 1 0.7\n1 2 -1.2\n0 0 0.3\n")
        args = ["synthesize", "--graph", graph, "--gauge", "faithful", "-z", "0.8"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file_and_text_format(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        out_path = tmp_path / "bundle.json"
        code, out, _ = run_cli(
            ["synthesize", "--graph", graph, "--out", str(out_path)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["command"] == "synthesize"
        code, out, _ = run_cli(
            ["synthesize", "--graph", graph, "--format", "text"], capsys
        )
        assert code == 0 and "checks:" in out


class TestAnalyze:
    def test_epr_interaction_recovers_edge(self, tmp_path, capsys):
        z_obj = matrix_to_json(-np.array([[0.0, 1.0], [1.0, 0.0]]))
        z_path = write(tmp_path, "z.json", json.dumps(z_obj))
        code, out, _ = run_cli(["analyze", "--interaction", z_path], capsys)
        assert code == 0
        report = json.loads(out)
        assert "0 1 1.0" in report["graph_text"]
        assert np.allclose(report["theta"], [0.0, 0.0])

    def test_disconnected_modes_give_empty_graph(self, tmp_path, capsys):
        z_obj = matrix_to_json(1j * np.eye(3))
        z_path = write(tmp_path, "z.json", json.dumps(z_obj))
        code, out, _ = run_cli(["analyze", "--interaction", z_path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["graph_text"] == "3\n"
        a = matrix_from_json(report["adjacency"])
        assert np.max(np.abs(a)) <= 1e-10

    def test_singular_zero_phases_trigger_search(self, tmp_path, capsys):
        z_obj = matrix_to_json(-1j * np.eye(1))
        z_path = write(tmp_path, "z.json", json.dumps(z_obj))
        code, out, _ = run_cli(["analyze", "--interaction", z_path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["phase_search_used"] is True
        assert report["sigma_min_at_input_phases"] == pytest.approx(0.0, abs=1e-12)
        assert report["sigma_min"] >= 1e-6
        assert report["theta"][0] != 0.0

    def test_reads_interaction_from_bundle(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle_path = tmp_path / "bundle.json"
        run_cli(["synthesize", "--graph", graph, "--out", str(bundle_path)], capsys)
        code, out, _ = run_cli(
            ["analyze", "--interaction", str(bundle_path)], capsys
        )
        assert code == 0
        recovered = json.loads(out)["graph_text"]
        assert recovered == EPR_GRAPH

    def test_search_exhausted_exits_5(self, tmp_path, capsys, monkeypatch):
        import clustersqueeze.analysis as analysis_mod

        def exhausted(*args, **kwargs):
            raise SearchExhausted("forced for the exit-code test")

        monkeypatch.setattr(analysis_mod, "find_regular_phases", exhausted)
        z_obj = matrix_to_json(-1j * np.eye(1))
        z_path = write(tmp_path, "z.json", json.dumps(z_obj))
        code, _, err = run_cli(["analyze", "--interaction", z_path], capsys)
        assert code == 5 and "forced" in err


class TestDecompose:
    def test_epr_squeezers(self, tmp_path, capsys):
        z_obj = matrix_to_json(-np.array([[0.0, 1.0], [1.0, 0.0]]))
        z_path = write(tmp_path, "z.json", json.dumps(z_obj))
        code, out, _ = run_cli(
            ["decompose", "--interaction", z_path, "-z", "1.0"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["D"] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert report["decibels"] == pytest.approx([8.686, 8.686], abs=1e-3)
        assert all(c["passed"] for c in report["checks"])

    def test_from_graph_route(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", "3\n0 1 1\n1 2 1\n")
        code, out, _ = run_cli(
            ["decompose", "--graph", graph, "--gauge", "faithful", "-z", "1.0"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        v = matrix_from_json(report["V"])
        assert np.max(np.abs(v @ v.conj().T - np.eye(3))) <= 1e-9

    def test_requires_some_input(self, capsys):
        code, _, err = run_cli(["decompose"], capsys)
        assert code == 2 and "provide" in err


class TestVerify:
    def test_bundle_passes(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle_path = tmp_path / "bundle.json"
        run_cli(["synthesize", "--graph", graph, "--out", str(bundle_path)], capsys)
        code, out, _ = run_cli(
            ["verify", "--interaction", str(bundle_path)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert any(c["name"].startswith("bundle_") for c in report["checks"])

    def test_tampered_bundle_fails(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle_path = tmp_path / "bundle.json"
        run_cli(["synthesize", "--graph", graph, "--out", str(bundle_path)], capsys)
        bundle = json.loads(bundle_path.read_text())
        bundle["C"]["re"][0][0] += 0.5
        bundle_path.write_text(json.dumps(bundle))
        code, out, _ = run_cli(
            ["verify", "--interaction", str(bundle_path)], capsys
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "bundle_C_matches" in failing

    def test_graph_route(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", "4\n0 1 1\n1 2 -0.5\n2 3 1\n0 3 0.25\n")
        code, out, _ = run_cli(
            ["verify", "--graph", graph, "--gauge", "faithful", "-z", "1.5"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_incomplete_bundle_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "frag.json", json.dumps({"Z": matrix_to_json(np.eye(1))}))
        code, _, err = run_cli(["verify", "--interaction", path], capsys)
        assert code == 2 and "bundle" in err


class TestSweep:
    def test_epr_identity_csv_values(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, _ = run_cli(
            ["sweep", "--graph", graph, "--z-range", "1:3:1"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,max_abs_C,frobenius_C"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert f"{values[0]:.6f}" == "0.270671"
        assert f"{values[1]:.6f}" == "0.036631"
        assert f"{values[2]:.6f}" == "0.004958"

    def test_csv_round_trips_doubles(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, _ = run_cli(
            ["sweep", "--graph", graph, "--z-range", "1:2:0.5"], capsys
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            z, max_abs, fro = (float(tok) for tok in line.split(","))
            assert max_abs == pytest.approx(2.0 * math.exp(-2.0 * z), abs=1e-12)
            assert fro == pytest.approx(math.sqrt(2.0) * max_abs, rel=1e-12)

    def test_single_z(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, _ = run_cli(["sweep", "--graph", graph, "-z", "1.0"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_json_format(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, _ = run_cli(
            ["sweep", "--graph", graph, "--z-range", "1:2:1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["z"] for r in rows] == [1.0, 2.0]

    def test_bad_range_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli(
            ["sweep", "--graph", graph, "--z-range", "3:1:1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("z_range", ["nan:1:0.5", "1:inf:1", "1:2:1e-20", "1e20:2e20:1"])
    def test_non_finite_or_stalling_range_exits_2(self, z_range, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, err = run_cli(["sweep", "--graph", graph, "--z-range", z_range], capsys)
        assert code == EXIT_INPUT and out == "" and "--z-range" in err

    def test_deterministic(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        args = ["sweep", "--graph", graph, "--z-range", "0.5:2.5:0.5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestGaugeOption:
    @pytest.mark.parametrize("command", ["synthesize", "verify", "sweep"])
    def test_unknown_gauge_exits_2(self, command, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli([command, "--graph", graph, "--gauge", "bogus"], capsys)
        assert code == EXIT_INPUT and "unknown gauge 'bogus'" in err

    def test_sweep_custom_unit_gauge_matches_identity(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", "3\n0 1 0.7\n1 2 -1.2\n0 0 0.3\n")
        eye = write(tmp_path, "eye.json", json.dumps(matrix_to_json(np.eye(3))))
        base = ["sweep", "--graph", graph, "--z-range", "0.5:1.5:0.5"]
        code_custom, custom, _ = run_cli([*base, "--gauge", f"custom:{eye}"], capsys)
        code_identity, identity, _ = run_cli([*base, "--gauge", "identity"], capsys)
        assert code_custom == code_identity == EXIT_OK
        assert custom == identity and len(custom.splitlines()) == 4


class TestOneFactorizationPerRequest:
    """A graph request factorizes A once, and the built-in gauges read U, P
    and the eigenpairs of P off that one real ``eigh``: no ``eigh`` of P and
    no ``solve``.  A custom gauge adds its one ``eigh`` of P.

    The oracle, kept apart from the plan on purpose, makes one ``eigh`` of
    its 2N x 2N generator K and reads its z * lambda_max budget off it; the
    one ``eigvalsh`` is the covariance_psd row's.  A sweep factorizes K once
    when Z does not depend on z (identity and custom gauges) and once per
    checked row, the first and the last, for the faithful gauge.
    """

    GRAPH = "6\n0 1 0.8\n1 2 -0.6\n2 3 1.1\n3 4 0.5\n4 5 -0.9\n0 5 0.7\n2 2 0.4\n"
    A = parse_graph(GRAPH)

    def _gauge(self, gauge, tmp_path):
        """--gauge value and the selector of the plan."""
        if gauge != "custom":
            return gauge, gauge
        p = random_compatible_gauge(np.random.default_rng(5), self.A, np.zeros(6))
        return f"custom:{write(tmp_path, 'p.json', json.dumps(matrix_to_json(p)))}", p

    @staticmethod
    def _count_gauge_checks(monkeypatch):
        checked = []
        validate_gauge = synthesis.validate_gauge

        def counting_validate_gauge(cluster, P):
            checked.append(P)
            return validate_gauge(cluster, P)

        for module in (synthesis, analysis):
            monkeypatch.setattr(module, "validate_gauge", counting_validate_gauge)
        return checked

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_counts(self, command, gauge, tmp_path, capsys, monkeypatch, request):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        spec, selector = self._gauge(gauge, tmp_path)
        p = ClusterPlan.of(self.A, np.zeros(6)).interaction(selector, 0.9)[0].P
        checked = self._count_gauge_checks(monkeypatch)
        calls = request.getfixturevalue("factorizations")  # counts from here, after p
        code, _, _ = run_cli([command, "--graph", graph, "--gauge", spec, "-z", "0.9"], capsys)
        assert code == EXIT_OK
        assert len(checked) == 1
        assert calls.of("eigh", self.A) == 1
        p_sym = (p + p.conj().T) / 2.0
        assert calls.of("eigh", p_sym) == (gauge == "custom")
        assert calls["solve"] == []
        assert calls.of("eigvalsh", p_sym) == 0 and len(calls["eigvalsh"]) == 1
        assert sum(1 for a in calls["eigh"] if a.shape == (12, 12)) == 1
        # eigh(A), the oracle's eigh(K), covariance_psd's eigvalsh(C); a
        # custom P's eigh; the identity gauge's Bloch-Messiah Takagi step, an
        # eigh of Re(-i U)
        expected = 3 + (gauge == "custom") + (command == "verify" and gauge == "identity")
        assert calls.total() == expected

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    def test_sweep_factorizes_the_graph_once(self, gauge, tmp_path, capsys, request):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        spec, _ = self._gauge(gauge, tmp_path)
        calls = request.getfixturevalue("factorizations")
        args = ["sweep", "--graph", graph, "--gauge", spec, "--z-range", "0.5:2.5:0.5"]
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_OK and len(out.splitlines()) == 6
        assert calls.of("eigh", self.A) == 1 and calls["solve"] == []
        oracle_eighs = sum(1 for a in calls["eigh"] if a.shape == (12, 12))
        assert oracle_eighs == (2 if gauge == "faithful" else 1)
        # eigh(A), the oracle's eigh(K) and a custom P's eigh
        assert calls.total() == 1 + oracle_eighs + (gauge == "custom")

    def test_searching_analyze_reuses_the_search_margin(self, tmp_path, capsys, factorizations):
        path = write(tmp_path, "z.json", json.dumps(matrix_to_json(-1j * np.eye(2))))
        code, out, _ = run_cli(["analyze", "--interaction", path], capsys)
        assert code == EXIT_OK and json.loads(out)["phase_search_used"] is True
        # the input phases and two schedule candidates (zero, pi/16); the
        # inverse reuses the accepted candidate's margin
        assert len(factorizations["svd"]) == 3

    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    def test_interaction_route_counts(self, gauge, tmp_path, capsys, request):
        """The polar split's eigh of Z Z^dagger gives the eigenpairs of P.
        analyze then measures the input phases (svd) and inverts (solve);
        decompose adds the identity gauge's Takagi eigh of Re(-i U)."""
        graph = write(tmp_path, "g.graph", self.GRAPH)
        bundle = str(tmp_path / "b.json")
        args = ["synthesize", "--graph", graph, "--gauge", gauge, "--out", bundle]
        assert run_cli(args, capsys)[0] == EXIT_OK
        z_product = matrix_from_json(json.loads(Path(bundle).read_text(encoding="utf-8"))["Z"])
        gram = z_product @ z_product.conj().T
        calls = request.getfixturevalue("factorizations")
        assert run_cli(["analyze", "--interaction", bundle], capsys)[0] == EXIT_OK
        assert calls.of("eigh", (gram + gram.conj().T) / 2.0) == 1
        assert len(calls["eigh"]) == 1 and len(calls["svd"]) == 1 and len(calls["solve"]) == 1
        assert calls.total() == 3
        for kernel in calls.values():
            kernel.clear()
        assert run_cli(["decompose", "--interaction", bundle], capsys)[0] == EXIT_OK
        assert calls.of("eigh", (gram + gram.conj().T) / 2.0) == 1
        assert calls.total() == 1 + (gauge == "identity")

    def test_analyze_makes_no_eigvalsh(self, tmp_path, capsys, monkeypatch, request):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        bundle = str(tmp_path / "b.json")
        args = ["synthesize", "--graph", graph, "--gauge", "faithful", "--out", bundle]
        assert run_cli(args, capsys)[0] == EXIT_OK
        checked = self._count_gauge_checks(monkeypatch)
        calls = request.getfixturevalue("factorizations")
        assert run_cli(["analyze", "--interaction", bundle], capsys)[0] == EXIT_OK
        assert len(checked) == 1
        assert calls["eigvalsh"] == []


class TestOneValidationPerRequest:
    """(A, Theta) is validated once per request, where the cluster plan is
    built.  The graph parser validates the matrix it builds, and analyze's
    graph text validates the recovered matrix in ``format_graph``."""

    GRAPH = TestOneFactorizationPerRequest.GRAPH

    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    @pytest.mark.parametrize(
        "command", [["synthesize"], ["verify"], ["decompose"], ["sweep", "--z-range", "0.5:2.5:0.5"]],
        ids=["synthesize", "verify", "decompose", "sweep"],
    )
    def test_graph_route(self, command, gauge, tmp_path, capsys, validations):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        code, _, _ = run_cli([*command, "--graph", graph, "--gauge", gauge], capsys)
        assert code == EXIT_OK
        assert len(validations) == 2  # parser and plan

    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    @pytest.mark.parametrize("command, expected", [("verify", 1), ("analyze", 2), ("decompose", 0)])
    def test_interaction_route(self, command, expected, gauge, tmp_path, capsys, request):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        bundle = str(tmp_path / "b.json")
        args = ["synthesize", "--graph", graph, "--gauge", gauge, "--out", bundle]
        assert run_cli(args, capsys)[0] == EXIT_OK
        validations = request.getfixturevalue("validations")
        assert run_cli([command, "--interaction", bundle], capsys)[0] == EXIT_OK
        assert len(validations) == expected


def _nearly_singular_gauge(a):
    """(A + i)^-1 S (A - i)^-1 with S = diag(1e-11, 1): compatible, positive
    definite, eigenvalue ratio 1e-11 (between the positivity and the
    singularity thresholds)."""
    eye = np.eye(a.shape[0])
    s = np.diag([1e-11, 1.0])
    return np.linalg.solve(a + 1j * eye, s) @ np.linalg.inv(a - 1j * eye)


GAUGE_COMMANDS = pytest.mark.parametrize(
    "command",
    [["synthesize"], ["verify"], ["decompose"], ["sweep", "--z-range", "0.5:1.5:0.5"]],
    ids=["synthesize", "verify", "decompose", "sweep"],
)


class TestMalformedCustomGauge:
    """Gauges that pass the reality check but are not Hermitian positive
    definite exit 3, whichever check rejects them; a gauge of the wrong
    size is an input error and exits 2."""

    @pytest.mark.parametrize(
        "p, message",
        [
            (-np.eye(2), "min eigenvalue -1.000e+00"),
            (np.zeros((2, 2)), "min eigenvalue 0.000e+00"),
            (non_hermitian_compatible_gauge(epr_adjacency()), "not Hermitian"),
            (_nearly_singular_gauge(epr_adjacency()), "numerically singular"),
        ],
        ids=["minus_one", "zero", "non_hermitian", "nearly_singular"],
    )
    @GAUGE_COMMANDS
    def test_exits_gauge(self, command, p, message, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        path = write(tmp_path, "p.json", json.dumps(matrix_to_json(p)))
        code, out, err = run_cli(
            [*command, "--graph", graph, "--gauge", f"custom:{path}"], capsys
        )
        assert code == cli.EXIT_GAUGE
        assert out == ""
        assert message in err

    @GAUGE_COMMANDS
    def test_wrong_size_exits_input(self, command, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        for p in (np.eye(3), np.ones((2, 3))):
            path = write(tmp_path, "p.json", json.dumps(matrix_to_json(p)))
            code, out, err = run_cli(
                [*command, "--graph", graph, "--gauge", f"custom:{path}"], capsys
            )
            assert code == EXIT_INPUT, p.shape
            assert out == ""
            assert "gauge factor shape does not match the graph" in err


NOT_SQUARE = matrix_to_json(np.ones((2, 3)))
NAN_P = matrix_to_json(np.array([[1.0, math.nan], [math.nan, 1.0]]))


class TestMalformedInput:
    """Input that fails validation exits 2 with a message naming the file;
    exit 4 stays for numerical failures (a singular Z, z beyond z_cap)."""

    # case -> (command, bundle field or None for a phase file, value, message)
    CASES = {
        "synthesize-phases-nan": ("synthesize", None, None, "phase angles must be finite"),
        "analyze-phases-nan": ("analyze", None, None, "phase angles must be finite"),
        "bundle-theta-nan": ("verify", "theta", [0.0, math.nan], "phase angles must be finite"),
        "bundle-z-negative": ("verify", "z", -1, "z must be positive and finite"),
        "bundle-z-text": ("verify", "z", "x", "z must be positive and finite"),
        "bundle-adjacency-not-square": ("verify", "adjacency", NOT_SQUARE, "adjacency matrix must be square"),
        "verify-bundle-Z-not-square": ("verify", "Z", NOT_SQUARE, "Z not of shape (2, 2)"),
        "analyze-bundle-Z-not-square": ("analyze", "Z", NOT_SQUARE, "matrix must be square"),
        "decompose-bundle-Z-not-square": ("decompose", "Z", NOT_SQUARE, "matrix must be square"),
        "bundle-P-nan": ("verify", "P", NAN_P, "matrix entries must be finite"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_input(self, case, tmp_path, capsys):
        command, field, value, message = self.CASES[case]
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = tmp_path / "b.json"
        assert run_cli(["synthesize", "--graph", graph, "--out", str(bundle)], capsys)[0] == EXIT_OK
        if field is None:
            bad = write(tmp_path, "phases.txt", "0.1\nnan\n")
            route = ["--graph", graph] if command == "synthesize" else ["--interaction", str(bundle)]
            args = [command, *route, "--phases", bad]
        else:
            obj = json.loads(bundle.read_text(encoding="utf-8"))
            obj[field] = value
            bad = write(tmp_path, "bad.json", json.dumps(obj))
            args = [command, "--interaction", bad]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: {bad}") and message in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @GAUGE_COMMANDS
    def test_non_finite_custom_gauge_exits_input(self, command, bad, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        path = write(tmp_path, "p.json", json.dumps(matrix_to_json(np.array([[1.0, 0.0], [0.0, bad]]))))
        code, out, err = run_cli([*command, "--graph", graph, "--gauge", f"custom:{path}"], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: {path}") and "matrix entries must be finite" in err

    def test_singular_interaction_exits_numerical(self, tmp_path, capsys):
        path = write(tmp_path, "z.json", json.dumps(matrix_to_json(np.diag([1.0, 0.0]))))
        code, _, err = run_cli(["analyze", "--interaction", path], capsys)
        assert code == cli.EXIT_NUMERICAL and "sigma_min/sigma_max" in err


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_phases_file(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        phases = write(tmp_path, "phases.txt", "# two angles\n0.3\n-0.4\n")
        code, out, _ = run_cli(
            ["synthesize", "--graph", graph, "--phases", phases, "--gauge", "faithful"],
            capsys,
        )
        assert code == 0
        bundle = json.loads(out)
        assert bundle["theta"] == pytest.approx([0.3, -0.4])
        assert bundle["covariance_max_abs"] == pytest.approx(
            math.exp(-2.0), abs=1e-10
        )

    def test_seed_is_recorded_and_read(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = str(tmp_path / "b.json")
        args = ["synthesize", "--graph", graph, "--seed", "7", "--out", bundle]
        assert run_cli(args, capsys)[0] == EXIT_OK
        assert json.loads(Path(bundle).read_text(encoding="utf-8"))["seed"] == 7
        code, out, _ = run_cli(["analyze", "--interaction", bundle, "--seed", "7"], capsys)
        assert code == EXIT_OK and json.loads(out)["seed"] == 7

    def test_wrong_phase_count_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        phases = write(tmp_path, "phases.txt", "0.1\n")
        code, _, err = run_cli(
            ["synthesize", "--graph", graph, "--phases", phases], capsys
        )
        assert code == 2 and "expected 2 angles" in err

    def test_bundle_phase_count_mismatch_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = tmp_path / "b.json"
        assert run_cli(["synthesize", "--graph", graph, "--out", str(bundle)], capsys)[0] == 0
        obj = json.loads(bundle.read_text(encoding="utf-8"))
        obj["theta"] = [0.0]
        bad = write(tmp_path, "bad.json", json.dumps(obj))
        code, _, err = run_cli(["verify", "--interaction", bad], capsys)
        assert code == 2 and "expected 2 phases, got 1" in err

    def test_bundle_gauge_of_the_wrong_shape_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = tmp_path / "b.json"
        assert run_cli(["synthesize", "--graph", graph, "--out", str(bundle)], capsys)[0] == 0
        obj = json.loads(bundle.read_text(encoding="utf-8"))
        obj["P"] = matrix_to_json(np.ones((2, 3)))
        bad = write(tmp_path, "bad.json", json.dumps(obj))
        code, _, err = run_cli(["verify", "--interaction", bad], capsys)
        assert code == 2 and "gauge factor shape does not match the graph" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["verify", "--interaction", "{bundle}", "--graph", "{graph}", "--gauge", "faithful",
              "--phases", "/nonexistent"], "not allowed with argument"),
            (["decompose", "--interaction", "{bundle}", "--graph", "{graph}"], "not allowed with argument"),
            (["verify", "--interaction", "{bundle}", "-z", "5"], "-z cannot be used with --interaction"),
            (["verify", "--interaction", "{bundle}", "--gauge", "faithful"], "--gauge cannot be used"),
            (["decompose", "--interaction", "{bundle}", "--phases", "zero"], "--phases cannot be used"),
            (["verify", "--graph", "{graph}", "--z-range", "1:3:1"], "unrecognized arguments"),
            (["synthesize", "--graph", "{graph}", "--z-range", "1:3:1"], "unrecognized arguments"),
            (["synthesize", "--graph", "{graph}", "--format", "csv"], "invalid choice: 'csv'"),
            (["decompose", "--graph", "{graph}", "--format", "csv"], "invalid choice: 'csv'"),
            (["verify", "--graph", "{graph}", "--seed", "99"], "unrecognized arguments"),
            (["verify", "--interaction", "{bundle}", "--seed", "99"], "unrecognized arguments"),
            (["decompose", "--graph", "{graph}", "--seed", "99"], "unrecognized arguments"),
            (["sweep", "--graph", "{graph}", "--z-range", "1:3:1", "--seed", "99"],
             "unrecognized arguments"),
        ],
        ids=["interaction-and-graph", "decompose-both-routes", "bundle-z", "bundle-gauge",
             "decompose-interaction-phases", "verify-z-range", "synthesize-z-range",
             "synthesize-csv", "decompose-csv", "verify-graph-seed", "verify-bundle-seed",
             "decompose-seed", "sweep-seed"],
    )
    def test_flags_the_command_would_ignore_exit_2(self, args, message, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = str(tmp_path / "b.json")
        assert run_cli(["synthesize", "--graph", graph, "--out", bundle], capsys)[0] == EXIT_OK
        args = [arg.format(graph=graph, bundle=bundle) for arg in args]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_INPUT and out == ""
        assert message in err

    def test_conflicting_scale_flags_exit_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli(
            ["sweep", "--graph", graph, "-z", "1", "--z-range", "1:2:1"], capsys
        )
        assert code == 2 and "not both" in err


def _ring_graph(n):
    return f"{n}\n" + "".join(f"{i} {(i + 1) % n} 1.0\n" for i in range(n))


def _random_graph(rng, n):
    lines = [f"{i} {j} {rng.uniform(-1.5, 1.5)!r}\n"
             for i in range(n) for j in range(i, n) if rng.uniform() < 0.6]
    return f"{n}\n" + "".join(lines)


class TestJsonWriter:
    """The CLI's JSON writer is byte-identical to ``json.dumps(obj, indent=2)``."""

    @staticmethod
    def assert_reference(obj):
        assert _dump_json(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("case", ["epr", "ring12", "random7"])
    def test_every_subcommand_output(self, case, tmp_path, capsys, monkeypatch):
        emitted = []

        def recording(obj):
            emitted.append(obj)
            return _dump_json(obj)

        monkeypatch.setattr(cli, "_dump_json", recording)
        rng = np.random.default_rng(7)
        graph_text = {"epr": EPR_GRAPH, "ring12": _ring_graph(12),
                      "random7": _random_graph(rng, 7)}[case]
        graph = write(tmp_path, "g.graph", graph_text)
        flags = ["--graph", graph, "-z", "0.7"]
        if case == "random7":
            phases = write(tmp_path, "th.txt", "".join(
                f"{t!r}\n" for t in rng.uniform(-np.pi, np.pi, 7).tolist()))
            flags += ["--phases", phases, "--gauge", "faithful"]
        bundle = str(tmp_path / "bundle.json")
        runs = [
            ["synthesize", *flags, "--out", bundle],
            ["synthesize", *flags],
            ["analyze", "--interaction", bundle, "-z", "0.7"],
            ["decompose", *flags],
            ["decompose", "--interaction", bundle, "-z", "0.7"],
            ["verify", "--interaction", bundle],
            ["verify", *flags],
            ["sweep", *flags[:2], *flags[4:], "--z-range", "0.5:1.5:0.5",
             "--format", "json"],
        ]
        for args in runs:
            code, out, _ = run_cli(args, capsys)
            assert code == EXIT_OK, args
            if "--out" not in args:
                assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(emitted) == len(runs)
        for obj in emitted:
            self.assert_reference(obj)

    def test_special_floats(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                  1.7976931348623157e308, -2.5e-308, 0.1]
        self.assert_reference({"row": values, "matrix": [values, values[::-1]],
                               "scalars": {"nan": math.nan, "inf": -math.inf}})

    def test_mixed_and_empty_containers(self):
        self.assert_reference({
            "mixed": [1, 2.5, True, False, None, -7],
            "ints": [0, -1, 2**70],
            "empty": [[], {}, [[]], {"a": {}}],
            "nested": [[1.0, 2.0], [], ["x", 3]],
            "tuple": (1.0, 2),
            "text": 'a, b "quoted" \\ caf\u00e9 \u03b8 \u65e5\u672c',
            "strings": ["a, b", "", "\n"],
            "z": None,
        })
        for obj in ([], {}, [[]], [1, 2], 3.5, "s, t", None, True):
            self.assert_reference(obj)


class TestModuleEntryPoints:
    @staticmethod
    def run_python(args):
        src = str(Path(clustersqueeze.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.run(
            [sys.executable, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def run_module(self, module, args):
        return self.run_python(["-m", module, *args])

    def test_cli_runs_without_scipy(self):
        proc = self.run_python(
            ["-c", "import sys, clustersqueeze.cli; print('scipy' in sys.modules)"]
        )
        assert proc.returncode == 0 and proc.stdout == "False\n"

    @pytest.mark.parametrize("module", ["clustersqueeze", "clustersqueeze.cli"])
    def test_missing_graph_exits_input(self, module, tmp_path):
        missing = str(tmp_path / "nonexist.graph")
        proc = self.run_module(module, ["verify", "--graph", missing])
        assert proc.returncode == EXIT_INPUT
        assert "cannot read" in proc.stderr

    @pytest.mark.parametrize("module", ["clustersqueeze", "clustersqueeze.cli"])
    def test_valid_verify_exits_ok(self, module, tmp_path):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        proc = self.run_module(module, ["verify", "--graph", graph])
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["passed"] is True
