"""End-to-end tests of the command-line interface."""

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import clustersqueeze
from clustersqueeze import ClusterPlan, analysis, battery, cli, format_graph, parse_graph, synthesis
from clustersqueeze.cli import (
    EXIT_INPUT,
    EXIT_OK,
    _emit_json,
    main,
    matrix_from_json,
)
from clustersqueeze.tolerances import ErrorModel

from conftest import (
    epr_adjacency,
    matrix_to_json,
    non_hermitian_compatible_gauge,
    random_adjacency,
    random_compatible_gauge,
    random_phases,
)

EPR_GRAPH = "2\n0 1 1.0\n"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _ring_graph(n):
    return f"{n}\n" + "".join(f"{i} {(i + 1) % n} 1.0\n" for i in range(n))


def _random_graph(rng, n):
    lines = [f"{i} {j} {rng.uniform(-1.5, 1.5)!r}\n"
             for i in range(n) for j in range(i, n) if rng.uniform() < 0.6]
    return f"{n}\n" + "".join(lines)


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
        assert any(c["name"] == "uniform_gauge_formula" for c in bundle["checks"])

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

    def test_unregularized_structure_factor_exits_4(self, tmp_path, capsys, monkeypatch):
        # an angle that leaves W + i singular, as Re U gives for a U that is
        # not symmetric unitary: alpha = -pi/2 makes c = 0, singular for -i
        monkeypatch.setattr(analysis, "regularizing_angle", lambda u: -np.pi / 2)
        z_obj = matrix_to_json(-1j * np.eye(1))
        z_path = write(tmp_path, "z.json", json.dumps(z_obj))
        code, out, err = run_cli(["analyze", "--interaction", z_path], capsys)
        assert code == cli.EXIT_NUMERICAL and out == ""
        assert "not a valid symmetric unitary" in err


def _nearly_symmetric(seed):
    """Z of a random cluster's faithful or identity gauge at z = 0.5 plus an
    antisymmetric part at 0.99 of the polar split's gate,
    rtol max(1, max|Z|)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = random_adjacency(rng, n, weight=10.0 ** rng.uniform(-3.0, 4.0))
    gauge = "identity" if seed % 2 else "faithful"
    z = ClusterPlan.of(a, random_phases(rng, n)).interaction(gauge, 0.5).Z
    z = (z + z.T) / 2.0
    d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = d - d.T
    return z + d * (0.99e-9 * max(1.0, np.max(np.abs(z))) / (2.0 * np.max(np.abs(d))))


def test_a_z_within_the_symmetry_gate_is_split_as_its_symmetric_part(tmp_path, capsys):
    """Factorized as given, this Z's U made the recovered plan's Cayley map
    reject it: analyze exited 4 ("imaginary residual 9.276e-07; input was
    not symmetric unitary ..."), though the split's gate had let it through
    and decompose accepted it.  Both commands now split its symmetric part
    and report exactly as for that part."""
    z = _nearly_symmetric(3238)
    asymmetry = np.max(np.abs(z - z.T))
    assert 0.98e-9 * max(1.0, np.max(np.abs(z))) < asymmetry <= 1e-9 * max(1.0, np.max(np.abs(z)))
    for command in ("analyze", "decompose"):
        reports = []
        for m in (z, (z + z.T) / 2.0):
            path = write(tmp_path, "z.json", json.dumps(matrix_to_json(m)))
            code, out, err = run_cli([command, "--interaction", path, "-z", "1e-3"], capsys)
            assert code == EXIT_OK, err
            reports.append(out)
        assert reports[0] == reports[1], command


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

    @pytest.mark.parametrize(
        "gauge, edit, row",
        [
            ("faithful", {"gauge": "identity"}, "bundle_P_matches"),
            ("identity", {"gauge": "faithful"}, "bundle_P_matches"),
            ("custom", {"gauge": "identity"}, "bundle_P_matches"),
            ("identity", {"z": 0.9 * (1.0 + 1e-9)}, "bundle_X_matches"),
            ("faithful", {"z": 0.9 * (1.0 + 1e-9)}, "bundle_P_matches"),
        ],
        ids=["faithful-as-identity", "identity-as-faithful", "custom-as-identity", "identity-z", "faithful-z"],
    )
    def test_a_bundle_is_checked_against_the_gauge_it_names(self, gauge, edit, row, tmp_path, capsys):
        """A built-in gauge is planned by the name the bundle stores, at its
        z, so a relabelled bundle or a tampered z fails the named row."""
        graph = write(tmp_path, "g.graph", TestOneFactorizationPerRequest.GRAPH)
        spec = gauge
        if gauge == "custom":
            p = random_compatible_gauge(np.random.default_rng(5), TestOneFactorizationPerRequest.A, np.zeros(6))
            spec = f"custom:{write(tmp_path, 'p.json', json.dumps(matrix_to_json(p)))}"
        bundle_path = tmp_path / "bundle.json"
        args = ["synthesize", "--graph", graph, "--gauge", spec, "-z", "0.9", "--out", str(bundle_path)]
        assert run_cli(args, capsys)[0] == EXIT_OK
        code, out, _ = run_cli(["verify", "--interaction", str(bundle_path)], capsys)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert code == EXIT_OK and ("bundle_P_matches" in names) == (gauge != "custom")
        bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
        bundle_path.write_text(json.dumps({**bundle, **edit}), encoding="utf-8")
        code, out, _ = run_cli(["verify", "--interaction", str(bundle_path)], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        assert row in [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]

    def test_a_built_in_bundle_with_a_non_hermitian_p_fails_its_p_row(self, tmp_path, capsys):
        """The stored P of a built-in gauge is only compared: a P that is not
        Hermitian fails bundle_P_matches (exit 1) rather than the custom
        gauge's Hermiticity check (exit 3)."""
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle_path = tmp_path / "bundle.json"
        assert run_cli(["synthesize", "--graph", graph, "--out", str(bundle_path)], capsys)[0] == EXIT_OK
        bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
        bundle["P"] = matrix_to_json(np.array([[1.0, 0.5], [0.0, 1.0]]))
        bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
        code, out, _ = run_cli(["verify", "--interaction", str(bundle_path)], capsys)
        assert code == cli.EXIT_CHECK_FAILED
        assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == ["bundle_P_matches"]

    @pytest.mark.parametrize("z", ["0.5", "1", "2"])
    def test_a_graph_near_a_perfect_matching_verifies(self, z, tmp_path, capsys):
        """A weight 4e-14 from 1 leaves A A within the 1e-12 input tolerance
        of 1 but not equal to it.  C is judged against (A A + 1) e^{-2z},
        not against 2 e^{-2z} 1, so the graph, its bundle and the bundle's
        records all pass."""
        graph = write(tmp_path, "g.graph", "2\n0 1 1.00000000000004\n")
        bundle_path = tmp_path / "bundle.json"
        args = ["synthesize", "--graph", graph, "-z", z, "--out", str(bundle_path)]
        assert run_cli(args, capsys)[0] == EXIT_OK
        assert all(c["passed"] for c in json.loads(bundle_path.read_text(encoding="utf-8"))["checks"])
        for route in (["--graph", graph, "-z", z], ["--interaction", str(bundle_path)]):
            code, out, _ = run_cli(["verify", *route], capsys)
            assert code == EXIT_OK and json.loads(out)["passed"] is True

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

    def test_z_range_values_do_not_drift(self, tmp_path, capsys):
        # z_k = round(START + k STEP, 12): adding STEP 2,899 times drifts by
        # 2e-12 and drops STOP
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, _ = run_cli(
            ["sweep", "--graph", graph, "--z-range", "0.01:29:0.01", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        zs = [r["z"] for r in json.loads(out)["rows"]]
        assert zs == [round(0.01 + k * 0.01, 12) for k in range(2900)]
        assert zs[-1] == 29.0

    def test_bad_range_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli(
            ["sweep", "--graph", graph, "--z-range", "3:1:1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "z_range", ["nan:1:0.5", "1:inf:1", "1:2:1e-20", "1e20:2e20:1", "1:1.000000000003:6e-13",
                    "1:1e308:1e-11", "1:2", "1:x:1"])
    def test_non_finite_or_stalling_range_exits_2(self, z_range, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, out, err = run_cli(["sweep", "--graph", graph, "--z-range", z_range], capsys)
        assert code == EXIT_INPUT and out == "" and "--z-range" in err

    def test_start_rounding_to_zero_or_too_many_rows_exits_2(self, tmp_path, capsys):
        """Every z is START + k STEP rounded to 12 decimals, so a START that
        rounds to 0 is no positive z; a range past the row limit is refused
        before any row is formed."""
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        over = f"1e-4:{(cli.MAX_SWEEP_ROWS + 1) * 1e-4!r}:1e-4"
        for z_range, message in (("1e-13:0.3:0.1", "--z-range START rounds to 0 at 12 decimals"),
                                  (over, f"--z-range asks for {cli.MAX_SWEEP_ROWS + 1} rows, more than")):
            code, out, err = run_cli(["sweep", "--graph", graph, "--z-range", z_range], capsys)
            assert code == EXIT_INPUT and out == "" and err.startswith(f"error: {message}")

    def test_row_limit_admits_its_own_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 3)
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        assert run_cli(["sweep", "--graph", graph, "--z-range", "1:3:1"], capsys)[0] == EXIT_OK
        assert run_cli(["sweep", "--graph", graph, "--z-range", "1:4:1"], capsys)[0] == EXIT_INPUT

    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    def test_range_past_z_cap_computes_no_row(self, gauge, tmp_path, capsys, monkeypatch):
        """z lambda_max rises with z, so the last z is checked first: no
        closed form is computed and no z but the last is formed.  A range
        whose grid could never be built exits as fast."""
        closed_forms = []
        closed_form = synthesis._frame_covariance  # each closed-form row of the sweep
        monkeypatch.setattr(synthesis, "_frame_covariance", lambda *a: closed_forms.append(a) or closed_form(*a))
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        for z_range in ("1:40:1", "1:1e300:1"):
            args = ["sweep", "--graph", graph, "--gauge", gauge, "--z-range", z_range]
            code, out, err = run_cli(args, capsys)
            assert code == cli.EXIT_NUMERICAL and out == "" and "exceeds 30" in err
            assert closed_forms == []

    def test_deterministic(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        args = ["sweep", "--graph", graph, "--z-range", "0.5:2.5:0.5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


EPR_CORE_CHECKS = """\
  [pass] gauge_condition: residual 0.000e+00 (tolerance 1.8e-15)
  [pass] interaction_symmetric: residual 0.000e+00 (tolerance 8.9e-16)
  [pass] interaction_product: residual 0.000e+00 (tolerance 1.2e-14)
  [pass] structure_unitary: residual 4.441e-16 (tolerance 5.3e-15)
  [pass] bogoliubov_unitary_defect: residual 6.661e-16 (tolerance 3.2e-14)
  [pass] bogoliubov_symmetry_defect: residual 0.000e+00 (tolerance 3.2e-14)
  [pass] covariance_real: residual 0.000e+00 (tolerance 9.0e-15)
  [pass] covariance_vs_oracle: residual 2.776e-16 (tolerance 2.6e-14)
  [pass] oracle_overlap: residual 2.220e-16 (tolerance 3.2e-14)
  [pass] uniform_gauge_formula: residual 0.000e+00 (tolerance 1.0e-14)
"""
EPR_REDUCTION_CHECKS = """\
  [pass] blochmessiah_x: residual 4.456e-16 (tolerance 3.6e-14)
  [pass] blochmessiah_y: residual 2.221e-16 (tolerance 3.6e-14)
  [pass] interferometer_identity: residual 2.220e-16 (tolerance 2.0e-14)
"""


class TestTextOutput:
    """The exact text and CSV of every command on EPR at z = 0.8 with the
    identity gauge."""

    EXPECTED = {
        "synthesize": """\
synthesize: 2 modes, gauge identity, z = 0.8
covariance max-entry: 0.40379303598931077
squeezers (strength, dB): (1, 6.94871), (1, 6.94871)
checks:
""" + EPR_CORE_CHECKS,
        "analyze": """\
analyze: 2 modes, z = 0.8
phase search used: False (sigma_min at input phases 1.414e+00)
chosen phases: [0.0, 0.0]
sigma_min: 1.414213562373095
recovered graph:
2
0 1 1.0
covariance max-entry at z = 0.8: 0.403793035989311
""",
        "decompose": """\
decompose: 2 modes, z = 0.8
squeezer strengths: 1, 1
squeezing (dB): 6.94871, 6.94871
checks:
""" + EPR_REDUCTION_CHECKS,
        "verify": "verify: z = 0.8: all checks passed\n" + EPR_CORE_CHECKS + EPR_REDUCTION_CHECKS
        + "  [pass] cluster_condition: residual 0.000e+00 (tolerance 4.3e-14)\n",
        "sweep-text": """\
sweep: gauge identity
  z = 0.4: max_abs 0.8986579282344432, frobenius 1.270894230043257
  z = 0.8: max_abs 0.40379303598931077, frobenius 0.5710495878878905
""",
        "sweep-csv": """\
z,max_abs_C,frobenius_C
0.4,0.8986579282344432,1.270894230043257
0.8,0.40379303598931077,0.5710495878878905
""",
    }

    @pytest.mark.parametrize("case", EXPECTED)
    def test_exact_output(self, case, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = str(tmp_path / "bundle.json")
        assert run_cli(["synthesize", "--graph", graph, "-z", "0.8", "--out", bundle], capsys)[0] == EXIT_OK
        args = {
            "analyze": ["analyze", "--interaction", bundle, "-z", "0.8", "--format", "text"],
            "sweep-text": ["sweep", "--graph", graph, "--z-range", "0.4:0.8:0.4", "--format", "text"],
            "sweep-csv": ["sweep", "--graph", graph, "--z-range", "0.4:0.8:0.4", "--format", "csv"],
        }.get(case, [case, "--graph", graph, "-z", "0.8", "--format", "text"])
        assert run_cli(args, capsys) == (EXIT_OK, self.EXPECTED[case], "")


class TestGaugeOption:
    @pytest.mark.parametrize("command", ["synthesize", "verify", "sweep"])
    def test_unknown_gauge_exits_2(self, command, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli([command, "--graph", graph, "--gauge", "bogus"], capsys)
        assert code == EXIT_INPUT and "unknown gauge 'bogus'" in err

    def test_sweep_custom_unit_gauge_matches_identity(self, tmp_path, capsys):
        """A custom P = 1 takes its modes W O off the plan's frame, the
        identity gauge the modes 1: the two C agree within the budget of a
        covariance rebuilt through the same stages."""
        text = "3\n0 1 0.7\n1 2 -1.2\n0 0 0.3\n"
        graph = write(tmp_path, "g.graph", text)
        eye = write(tmp_path, "eye.json", json.dumps(matrix_to_json(np.eye(3))))
        base = ["sweep", "--graph", graph, "--z-range", "0.5:1.5:0.5"]
        code_custom, custom, _ = run_cli([*base, "--gauge", f"custom:{eye}"], capsys)
        code_identity, identity, _ = run_cli([*base, "--gauge", "identity"], capsys)
        assert code_custom == code_identity == EXIT_OK
        assert len(custom.splitlines()) == len(identity.splitlines()) == 4
        cluster = ClusterPlan.of(parse_graph(text), np.zeros(3))
        for mine, theirs in zip(custom.splitlines()[1:], identity.splitlines()[1:]):
            (z, *norms), (z_identity, *expected) = (map(float, row.split(",")) for row in (mine, theirs))
            model = ErrorModel.of(cluster.interaction("identity", z))
            assert z == z_identity
            # a Frobenius norm moves by at most N = 3 times max|dC|
            assert max(abs(a - b) for a, b in zip(norms, expected)) <= 3 * model.budget("bundle_C_matches")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_sweep_names_a_custom_gauge_however_its_path_is_spelled(self, fmt, tmp_path, capsys, monkeypatch):
        graph = write(tmp_path, "g.graph", "3\n0 1 0.7\n1 2 -1.2\n0 0 0.3\n")
        eye = write(tmp_path, "eye.json", json.dumps(matrix_to_json(np.eye(3))))
        monkeypatch.chdir(tmp_path)
        base = ["sweep", "--graph", graph, "--z-range", "0.5:1.5:0.5", "--format", fmt]
        relative = run_cli([*base, "--gauge", "custom:eye.json"], capsys)
        assert relative == run_cli([*base, "--gauge", f"custom:{eye}"], capsys)
        code, out, _ = relative
        assert code == EXIT_OK
        assert (json.loads(out)["gauge"] if fmt == "json" else out.splitlines()[0]) == (
            "custom" if fmt == "json" else "sweep: gauge custom")


class TestOneFactorizationPerRequest:
    """A graph request factorizes A once, and the built-in gauges read U, P
    and the eigenpairs of P off that one real ``eigh``: no ``eigh`` of P and
    no ``solve``.  A custom gauge adds one real ``eigh`` of Re S_W,
    S_W = W^dagger P W in the plan's frame W, and no complex one.

    The oracle, kept apart from the plan on purpose, makes one ``eigh`` of
    its 2N x 2N generator K and reads its z * lambda_max budget off it; no
    row takes an ``eigvalsh``.  A sweep factorizes K once when Z does not
    depend on z (identity and custom gauges) and once per checked row, the
    first and the last, for the faithful gauge; it gates the gauge as often.
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
        """Reality checks, made by the plan's gate."""
        checked = []
        reality_check = synthesis._reality_check

        def counting_reality_check(cluster, P):
            checked.append(P)
            return reality_check(cluster, P)

        monkeypatch.setattr(synthesis, "_reality_check", counting_reality_check)
        return checked

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_counts(self, command, gauge, tmp_path, capsys, monkeypatch, request):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        spec, selector = self._gauge(gauge, tmp_path)
        plan = ClusterPlan.of(self.A, np.zeros(6))
        p, w = plan.interaction(selector, 0.9).P, plan.interferometer
        checked = self._count_gauge_checks(monkeypatch)
        calls = request.getfixturevalue("factorizations")  # counts from here, after p and w
        code, _, _ = run_cli([command, "--graph", graph, "--gauge", spec, "-z", "0.9"], capsys)
        assert code == EXIT_OK
        assert len(checked) == 1
        assert calls.of("eigh", self.A) == 1
        s_w = (w.conj().T @ ((p + p.conj().T) / 2.0 @ w)).real
        assert calls.of("eigh", s_w) == (gauge == "custom")
        assert not any(np.iscomplexobj(a) for a in calls["eigh"])
        assert calls["solve"] == []
        assert calls["eigvalsh"] == []
        assert sum(1 for a in calls["eigh"] if a.shape == (12, 12)) == 1
        # eigh(A) and the oracle's eigh(K); a custom P's eigh of Re S_W.
        # Bloch-Messiah reads every gauge's factors off those
        expected = 2 + (gauge == "custom")
        assert calls.total() == expected

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    def test_sweep_factorizes_the_graph_once(self, gauge, tmp_path, capsys, monkeypatch, request):
        """Only the end rows, which the oracle reads, build the gauge plan
        and its gate; the three rows between read their strengths off the
        cluster plan."""
        graph = write(tmp_path, "g.graph", self.GRAPH)
        spec, _ = self._gauge(gauge, tmp_path)
        checked = self._count_gauge_checks(monkeypatch)
        calls = request.getfixturevalue("factorizations")
        args = ["sweep", "--graph", graph, "--gauge", spec, "--z-range", "0.5:2.5:0.5"]
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_OK and len(out.splitlines()) == 6
        assert len(checked) == (2 if gauge == "faithful" else 1)
        assert calls.of("eigh", self.A) == 1 and calls["solve"] == []
        oracle_eighs = sum(1 for a in calls["eigh"] if a.shape == (12, 12))
        assert oracle_eighs == (2 if gauge == "faithful" else 1)
        # eigh(A), the oracle's eigh(K) and a custom P's eigh of Re S_W
        assert calls.total() == 1 + oracle_eighs + (gauge == "custom")

    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    def test_graph_decompose_factorizes_the_graph_only(self, gauge, tmp_path, capsys, request):
        """decompose --graph reads a built-in gauge's Bloch-Messiah factors
        off the plan, so eigh(A) is its only factorization."""
        graph = write(tmp_path, "g.graph", self.GRAPH)
        calls = request.getfixturevalue("factorizations")
        code, _, _ = run_cli(["decompose", "--graph", graph, "--gauge", gauge, "-z", "0.9"], capsys)
        assert code == EXIT_OK
        assert calls.of("eigh", self.A) == 1 and calls.total() == 1

    def test_searching_analyze_reuses_the_search_margin(self, tmp_path, capsys, factorizations):
        path = write(tmp_path, "z.json", json.dumps(matrix_to_json(-1j * np.eye(2))))
        code, out, _ = run_cli(["analyze", "--interaction", path], capsys)
        assert code == EXIT_OK and json.loads(out)["phase_search_used"] is True
        # the polar split's svd of Z, then the input phases' svd, the
        # regularizing angle's eigvalsh and its phases' svd; the inverse
        # reuses that margin and makes the Cayley map's one solve
        assert factorizations.of("svd", -1j * np.eye(2)) == 1
        assert len(factorizations["svd"]) == 1 + 2
        assert len(factorizations["eigvalsh"]) == len(factorizations["solve"]) == 1
        assert factorizations.total() == 5

    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    def test_interaction_route_counts(self, gauge, tmp_path, capsys, request):
        """The polar split's svd of Z gives the eigenpairs of P.  analyze
        then measures the input phases (svd) and inverts (solve); decompose
        recovers the cluster at the equal phases for every gauge (eigvalsh
        of Re U, the solve of the Cayley map and eigh of A') and reads the
        factors off one real eigh of Re S_W."""
        graph = write(tmp_path, "g.graph", self.GRAPH)
        bundle = str(tmp_path / "b.json")
        args = ["synthesize", "--graph", graph, "--gauge", gauge, "--out", bundle]
        assert run_cli(args, capsys)[0] == EXIT_OK
        z_product = matrix_from_json(json.loads(Path(bundle).read_text(encoding="utf-8"))["Z"])
        calls = request.getfixturevalue("factorizations")
        assert run_cli(["analyze", "--interaction", bundle], capsys)[0] == EXIT_OK
        assert calls.of("svd", z_product) == 1
        assert calls["eigh"] == [] and len(calls["svd"]) == 2 and len(calls["solve"]) == 1
        assert calls.total() == 3
        for kernel in calls.values():
            kernel.clear()
        assert run_cli(["decompose", "--interaction", bundle], capsys)[0] == EXIT_OK
        assert calls.of("svd", z_product) == 1
        assert [len(calls[kernel]) for kernel in ("svd", "eigvalsh", "solve", "eigh")] == [1, 1, 1, 2]
        assert not any(np.iscomplexobj(a) for a in calls["eigh"])
        assert calls.total() == 5

    def test_analyze_makes_no_eigvalsh(self, tmp_path, capsys, monkeypatch, request):
        graph = write(tmp_path, "g.graph", self.GRAPH)
        bundle = str(tmp_path / "b.json")
        args = ["synthesize", "--graph", graph, "--gauge", "faithful", "--out", bundle]
        assert run_cli(args, capsys)[0] == EXIT_OK
        checked = self._count_gauge_checks(monkeypatch)
        calls = request.getfixturevalue("factorizations")
        assert run_cli(["analyze", "--interaction", bundle], capsys)[0] == EXIT_OK
        # the split judged Z's symmetry, and the cluster comes from its U
        assert checked == []
        assert calls["eigvalsh"] == []


class TestFactorizationsPerCommand:
    """Every ``numpy.linalg`` ``eigh``, ``eigvalsh``, ``svd``, ``solve`` and
    ``inv`` each command makes at N = 24, per gauge, on the graph route and
    on the gauge's synthesize bundle.

    The graph route factorizes A once (and the oracle's K for verify); a
    custom P adds one real ``eigh`` of Re S_W.  ``verify --interaction``
    plans a built-in gauge by the name its bundle stores, as the graph route
    does, and the stored P of any other like a custom gauge.  ``analyze``
    makes the polar split's SVD, measures the input phases (SVD) and
    inverts (the Cayley ``solve``); where it replaces the input phases it
    adds the regularizing angle's ``eigvalsh`` and the SVD at the equal
    phases.  ``decompose --interaction`` makes the polar split's SVD, then
    recovers the cluster at the equal phases (``eigvalsh``, the Cayley
    ``solve``, ``eigh`` of A') and reads the factors off one real ``eigh``
    of Re S_W, whatever the gauge.
    """

    COUNTS = {
        ("verify", "graph"): {"identity": {"eigh": 2}, "faithful": {"eigh": 2}, "custom": {"eigh": 3}},
        ("decompose", "graph"): {"identity": {"eigh": 1}, "faithful": {"eigh": 1}, "custom": {"eigh": 2}},
        ("verify", "interaction"): {"identity": {"eigh": 2}, "faithful": {"eigh": 2}, "custom": {"eigh": 3}},
        ("analyze", "interaction"): dict.fromkeys(("identity", "faithful", "custom"), {"svd": 2, "solve": 1}),
        ("decompose", "interaction"): dict.fromkeys(
            ("identity", "faithful", "custom"), {"svd": 1, "eigvalsh": 1, "solve": 1, "eigh": 2}),
    }

    @staticmethod
    def _flags(gauge, route, tmp_path, capsys):
        """The flags of the N = 24 case of ``gauge``; on the interaction
        route, its synthesize bundle."""
        rng = np.random.default_rng(24)
        a = rng.uniform(-1.0, 1.0, (24, 24))
        a = (a + a.T) / 2.0
        theta = rng.uniform(-math.pi, math.pi, 24)
        spec = gauge
        if gauge == "custom":
            p = random_compatible_gauge(rng, a, theta)
            spec = f"custom:{write(tmp_path, 'p.json', json.dumps(matrix_to_json(p)))}"
        flags = ["--graph", write(tmp_path, "g.graph", format_graph(a)),
                 "--phases", write(tmp_path, "g.phases", "".join(f"{t!r}\n" for t in theta.tolist())),
                 "--gauge", spec, "-z", "0.8"]
        if route == "interaction":
            bundle = str(tmp_path / "b.json")
            assert run_cli(["synthesize", *flags, "--out", bundle], capsys)[0] == EXIT_OK
            flags = ["--interaction", bundle]
        return flags

    @staticmethod
    def _counted(argv, capsys, monkeypatch) -> tuple[dict, str]:
        """The kernel calls of the command ``argv``, which must succeed, and its output."""
        calls = {}
        for name in ("eigh", "eigvalsh", "svd", "solve", "inv"):
            def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        return calls, out

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    @pytest.mark.parametrize("command, route", list(COUNTS))
    def test_count(self, command, route, gauge, tmp_path, capsys, monkeypatch):
        flags = self._flags(gauge, route, tmp_path, capsys)
        if command == "decompose" and route == "interaction":
            flags += ["-z", "0.8"]
        assert self._counted([command, *flags], capsys, monkeypatch)[0] == self.COUNTS[command, route][gauge]

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    def test_count_of_an_analyze_that_replaces_the_phases(self, gauge, tmp_path, capsys, monkeypatch):
        """Equal phases c that put an eigenvalue e^{i phi} of U at -i in
        e^{2ic} U leave the inverse singular, so analyze replaces them."""
        flags = self._flags(gauge, "interaction", tmp_path, capsys)
        with open(flags[1], encoding="utf-8") as fh:
            u = matrix_from_json(json.load(fh)["U"])
        c = (-math.pi / 2.0 - float(np.angle(np.linalg.eigvals(u)[0]))) / 2.0
        phases = write(tmp_path, "c.phases", f"{c!r}\n" * 24)
        calls, out = self._counted(["analyze", *flags, "--phases", phases], capsys, monkeypatch)
        assert json.loads(out)["phase_search_used"] is True
        assert calls == {"svd": 3, "eigvalsh": 1, "solve": 1}


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
    @pytest.mark.parametrize("command, expected", [("verify", 1), ("analyze", 1), ("decompose", 0)])
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
            assert err == f"error: {path}: P not of shape (2, 2)\n"


def _z_one(command):
    """-z 1, which a sweep with its --z-range does not take."""
    return [] if command[0] == "sweep" else ["-z", "1"]


class TestCustomGaugeBeforeTheSqueezeBudget:
    """A custom P's strengths are those of Re S_W, which are P's only when
    the gate passes, so the gate judges P before z meets the squeeze
    budget.  P = diag(1, w) is incompatible with EPR: the request exits 3
    naming the gate's residual, not 4 on a strength P does not have.  At
    w = 1e4, z lambda_max of Re S_W passes 710, where cosh overflows: the
    gate's two budgets form no cosh."""

    @GAUGE_COMMANDS
    @pytest.mark.parametrize("weight, residual", [(100.0, "9.802e-01"), (1e4, "9.998e-01")])
    def test_an_incompatible_gauge_exits_gauge(self, command, weight, residual, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        path = write(tmp_path, "p.json", json.dumps(matrix_to_json(np.diag([1.0, weight]))))
        code, out, err = run_cli([*command, "--graph", graph, "--gauge", f"custom:{path}", *_z_one(command)], capsys)
        assert code == cli.EXIT_GAUGE and out == ""
        assert err.startswith(f"error: gauge_condition residual {residual} exceeds its budget ")

    @GAUGE_COMMANDS
    def test_a_compatible_gauge_over_the_cap_exits_numerical(self, command, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        path = write(tmp_path, "p.json", json.dumps(matrix_to_json(40.0 * np.eye(2))))
        code, out, err = run_cli([*command, "--graph", graph, "--gauge", f"custom:{path}", *_z_one(command)], capsys)
        assert code == cli.EXIT_NUMERICAL and out == ""
        assert "exceeds 30; cosh would exhaust double precision" in err


@pytest.mark.parametrize("z", ["1", "29"])
@pytest.mark.parametrize("graph_text", [EPR_GRAPH, _ring_graph(12), _random_graph(np.random.default_rng(30), 30)],
                         ids=["epr", "ring12", "random30"])
def test_tiny_uniform_gauge_is_accepted(graph_text, z, tmp_path, capsys):
    """A uniform gauge 1e-13 * 1 is positive definite and perfectly
    conditioned: it synthesizes, verifies and sweeps."""
    graph = write(tmp_path, "g.graph", graph_text)
    n = int(graph_text.split()[0])
    path = write(tmp_path, "p.json", json.dumps(matrix_to_json(1e-13 * np.eye(n))))
    for command in ("synthesize", "verify", "sweep"):
        code, _, err = run_cli([command, "--graph", graph, "--gauge", f"custom:{path}", "-z", z], capsys)
        assert code == EXIT_OK and err == "", command


NOT_SQUARE = matrix_to_json(np.ones((2, 3)))
NAN_P = matrix_to_json(np.array([[1.0, math.nan], [math.nan, 1.0]]))
EPR_NUMBERS = [[0.0, 1.0], [1.0, 0.0]]
EPR_TEXT = [["0.0", "1.0"], ["1.0", "0.0"]]


class TestMalformedInput:
    """Input that fails validation exits 2 with a message naming the file;
    exit 4 stays for numerical failures (a singular Z, z beyond Z_CAP)."""

    # case -> (command, bundle field or None for a phase file, value or the
    # phase file's text, message)
    CASES = {
        "synthesize-phases-nan": ("synthesize", None, "0.1\nnan\n", "phase angles must be finite"),
        "analyze-phases-nan": ("analyze", None, "0.1\nnan\n", "phase angles must be finite"),
        "bundle-theta-nan": ("verify", "theta", [0.0, math.nan], "phase angles must be finite"),
        "bundle-theta-object": ("verify", "theta", {"a": 1}, "not 'dict'"),
        "bundle-z-negative": ("verify", "z", -1, "z must be positive and finite"),
        "bundle-z-text": ("verify", "z", "x", "z must be positive and finite"),
        # float() reads these, but a JSON boolean or string is no number
        "bundle-z-true": ("verify", "z", True, "z must be positive and finite"),
        "bundle-z-numeric-text": ("verify", "z", "0.5", "z must be positive and finite"),
        "bundle-adjacency-not-square": ("verify", "adjacency", NOT_SQUARE, "adjacency matrix must be square"),
        "verify-bundle-Z-not-square": ("verify", "Z", NOT_SQUARE, "Z not of shape (2, 2)"),
        "analyze-bundle-Z-not-square": ("analyze", "Z", NOT_SQUARE, "matrix must be square"),
        "decompose-bundle-Z-not-square": ("decompose", "Z", NOT_SQUARE, "matrix must be square"),
        "bundle-P-nan": ("verify", "P", NAN_P, "matrix entries must be finite"),
        "bundle-Z-re-shape": ("analyze", "Z", {"rows": 2, "cols": 2, "re": [[1.0, 0.0]]},
                              "'re' block has shape (1, 2), not (2, 2)"),
        "bundle-Z-im-shape": ("analyze", "Z", {"rows": 2, "cols": 2, "re": np.eye(2).tolist(), "im": [[1.0]]},
                              "'im' block shape mismatch"),
        "synthesize-phases-not-an-angle": ("synthesize", None, "0.1\nx\n", "line 2: 'x' is not an angle"),
        # float() and int() read these too, but every number in a bundle is a
        # JSON number and a matrix's rows and cols are JSON integers
        "bundle-theta-numeric-text": ("verify", "theta", ["0.0", "0.0"], "phase angles must be numbers"),
        "bundle-theta-false": ("verify", "theta", [False, False], "phase angles must be numbers"),
        "bundle-adjacency-re-text": ("verify", "adjacency", {"rows": 2, "cols": 2, "re": EPR_TEXT},
                                     "'re' entries must be numbers"),
        "bundle-P-re-boolean": ("verify", "P", {"rows": 2, "cols": 2, "re": [[True, False], [False, True]]},
                                "'re' entries must be numbers"),
        # numpy reads a boolean beside numbers as 1.0 or 0.0
        "bundle-adjacency-boolean-among-numbers": ("verify", "adjacency",
                                                   {"rows": 2, "cols": 2, "re": [[True, 1.0], [1.0, 0.0]]},
                                                   "'re' entries must be numbers, not strings or booleans"),
        "bundle-theta-boolean-among-numbers": ("verify", "theta", [True, 0.0], "phase angles must be numbers"),
        "analyze-bundle-Z-im-boolean-among-numbers": ("analyze", "Z", {"rows": 2, "cols": 2, "re": EPR_NUMBERS,
                                                                       "im": [[0.0, False], [0.0, 0.0]]},
                                                      "'im' entries must be numbers"),
        "bundle-adjacency-rows-fraction": ("verify", "adjacency", {"rows": 2.7, "cols": 2, "re": EPR_NUMBERS},
                                           "'rows' and 'cols' must be integers"),
        "bundle-adjacency-rows-text": ("verify", "adjacency", {"rows": "2", "cols": 2, "re": EPR_NUMBERS},
                                       "'rows' and 'cols' must be integers"),
        "analyze-bundle-Z-re-text": ("analyze", "Z", {"rows": 2, "cols": 2, "re": EPR_TEXT},
                                     "'re' entries must be numbers"),
        # a JSON null is no number either, though float() would make it NaN
        "bundle-theta-null": ("verify", "theta", [None, 0.0], "phase angles must be numbers, not null"),
        "bundle-P-re-null": ("verify", "P", {"rows": 2, "cols": 2, "re": [[None, 0.0], [0.0, 1.0]]},
                             "'re' entries must be numbers, not null"),
        "bundle-theta-2d": ("verify", "theta", [[0.0], [0.0]], "phases must form a 1-D vector"),
        "bundle-z-null": ("verify", "z", None, "z must be positive and finite"),
        "bundle-z-list": ("verify", "z", [1.0], "z must be positive and finite"),
        # an asymmetric adjacency or Z is malformed input, not a numerical failure
        "bundle-adjacency-asymmetric": ("verify", "adjacency", {"rows": 2, "cols": 2, "re": [[0.0, 1.5], [1.0, 0.0]]},
                                        "input asymmetry 5.000e-01 exceeds tolerance"),
        "analyze-bundle-Z-asymmetric": ("analyze", "Z", {"rows": 2, "cols": 2, "re": [[0, 1], [0.5, 0]]},
                                        "symmetry defect 5.000e-01 exceeds tolerance"),
        "decompose-bundle-Z-asymmetric": ("decompose", "Z", {"rows": 2, "cols": 2, "re": [[0, 1], [0.5, 0]]},
                                          "symmetry defect 5.000e-01 exceeds tolerance"),
        # a JSON integer past a double's range is no traceback (exit 1)
        "bundle-theta-integer-overflow": ("verify", "theta", [10 ** 400, 0], "int too large to convert to float"),
        "bundle-P-integer-overflow": ("verify", "P", {"rows": 2, "cols": 2, "re": [[10 ** 400, 0], [0, 1]]},
                                      "int too large to convert to float"),
        # a vector or matrix of the wrong size names its file, as U does
        "bundle-theta-three-phases": ("verify", "theta", [0.0, 0.0, 0.0], "expected 2 phases, got 3"),
        "bundle-P-3x3": ("verify", "P", matrix_to_json(np.eye(3)), "P not of shape (2, 2)"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_input(self, case, tmp_path, capsys, monkeypatch):
        """A tampered bundle gives the same message in compact JSON, which is
        decoded whole, and in the writer's indent=2 layout, which the bundle
        fast path reads."""
        command, field, value, message = self.CASES[case]
        read, fast = cli._top_level_fields, []
        monkeypatch.setattr(cli, "_top_level_fields", lambda text, fields: fast.append(read(text, fields)) or fast[-1])
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = tmp_path / "b.json"
        assert run_cli(["synthesize", "--graph", graph, "--out", str(bundle)], capsys)[0] == EXIT_OK
        if field is None:
            bad = write(tmp_path, "phases.txt", value)
            route = ["--graph", graph] if command == "synthesize" else ["--interaction", str(bundle)]
            runs = [(bad, [command, *route, "--phases", bad], command != "synthesize")]
        else:
            obj = json.loads(bundle.read_text(encoding="utf-8"))
            obj[field] = value
            runs = []
            for text, read_fast in ((json.dumps(obj), False), (json.dumps(obj, indent=2) + "\n", True)):
                bad = write(tmp_path, f"bad-{read_fast}.json", text)
                runs.append((bad, [command, "--interaction", bad], read_fast))
        errors = set()
        for bad, args, read_fast in runs:
            fast.clear()
            code, out, err = run_cli(args, capsys)
            assert code == EXIT_INPUT and out == ""
            assert err.startswith(f"error: {bad}") and message in err
            assert [r is not None for r in fast] == ([read_fast] if command != "synthesize" else [])
            errors.add(err.replace(bad, "BUNDLE"))
        assert len(errors) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @GAUGE_COMMANDS
    def test_non_finite_custom_gauge_exits_input(self, command, bad, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        path = write(tmp_path, "p.json", json.dumps(matrix_to_json(np.array([[1.0, 0.0], [0.0, bad]]))))
        code, out, err = run_cli([*command, "--graph", graph, "--gauge", f"custom:{path}"], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: {path}") and "matrix entries must be finite" in err

    # case -> (file text, words of the decoder's message)
    UNDECODABLE = {
        "integer-over-digit-limit": ('{"rows": 1' + "0" * 5000 + "}", "(4300 digits)"),
        "nesting-too-deep": ("[" * 200_000, "maximum recursion depth"),
    }

    @pytest.mark.parametrize("route", ["verify", "analyze", "decompose", "custom-gauge"])
    @pytest.mark.parametrize("case", UNDECODABLE)
    def test_undecodable_json_exits_input(self, case, route, tmp_path, capsys):
        """Valid JSON that Python cannot decode is an input error naming the
        file, not a numerical failure (exit 4) or a traceback (exit 1)."""
        text, message = self.UNDECODABLE[case]
        path = write(tmp_path, "bad.json", text)
        if route == "custom-gauge":
            args = ["synthesize", "--graph", write(tmp_path, "epr.graph", EPR_GRAPH), "--gauge", f"custom:{path}"]
        else:
            args = [route, "--interaction", path]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: {path}: cannot decode JSON (") and message in err

    @pytest.mark.parametrize(
        "text", ["100000000\n0 1 1.0\n", "100000000\n", "10000000000\n0 1 1.0\n"],
        ids=["bulk-path", "line-path", "past-numpy-size-limit"])
    def test_mode_count_too_large_to_allocate_exits_input(self, text, tmp_path, capsys):
        """numpy refuses the N x N request (71 PiB at N = 1e8) before it
        touches memory: a parse error, not a traceback (exit 1)."""
        graph = write(tmp_path, "big.graph", text)
        code, out, err = run_cli(["verify", "--graph", graph], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: line 1: mode count 1") and "too large" in err

    @pytest.mark.parametrize("weight, command", [
        ("1e155", ["verify"]),
        ("1e155", ["synthesize", "--gauge", "faithful", "-z", "0.5"]),
        ("1.5e308", ["verify"]),
    ])
    def test_weights_whose_squares_overflow_exit_numerical(self, weight, command, tmp_path, capsys):
        """(1 + max|eig A|)^2 past the float range is a domain failure named
        as such before any gauge is built, with no numpy warning."""
        graph = write(tmp_path, "big.graph", f"2\n0 1 {weight}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli([*command, "--graph", graph], capsys)
        assert code == cli.EXIT_NUMERICAL and out == "" and caught == []
        assert err.startswith("error: (1 + max|eig A|)^2 max(eig P) overflows double precision")
        assert err.count("\n") == 1

    def test_weights_whose_squares_fit_verify(self, tmp_path, capsys):
        graph = write(tmp_path, "big.graph", "2\n0 1 1e150\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(["verify", "--graph", graph], capsys)
        assert code == EXIT_OK and err == "" and caught == []

    @pytest.mark.parametrize("z", ["5e-324", "1e-320", "1e-309"])
    def test_faithful_strengths_that_overflow_exit_numerical(self, z, tmp_path, capsys):
        """At a subnormal z, ln(1 + lam^2) / (2 z) overflows: a domain
        failure named as such, not a rejected gauge, with no numpy warning."""
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["verify", "--graph", graph, "--gauge", "faithful", "-z", z], capsys)
        assert code == cli.EXIT_NUMERICAL and out == "" and caught == []
        assert err == f"error: faithful strengths 1 + ln(1 + lam^2) / (2 z) overflow at z = {float(z)!r}\n"

    def test_faithful_strengths_too_far_apart_exit_gauge(self, tmp_path, capsys):
        """A path's lam = 0 keeps strength 1 while the others reach 5e299 at
        z = 1e-300: finite, but numerically singular (exit 3)."""
        graph = write(tmp_path, "path.graph", "3\n0 1 1.0\n1 2 1.0\n")
        code, out, err = run_cli(["verify", "--graph", graph, "--gauge", "faithful", "-z", "1e-300"], capsys)
        assert code == cli.EXIT_GAUGE and out == "" and "numerically singular" in err

    def test_the_squeeze_budget_shows_the_product_it_rejects(self, tmp_path, capsys):
        """The product z lambda_max is shown by its shortest repr, so it reads
        above the cap.  Every command judges P's largest strength, 1 exactly
        on EPR with the identity gauge, where the record is made."""
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        pattern = r"error: z \* max squeezer strength = (\S+) exceeds 30; cosh would exhaust double precision\n"
        for args, shown in ((["decompose", "--graph", graph, "-z", "30.001"], "30.001"),
                            (["verify", "--graph", graph, "-z", "30.001"], "30.001"),
                            (["sweep", "--graph", graph, "--z-range", "1:1e300:1"], "1e+300")):
            code, out, err = run_cli(args, capsys)
            assert code == cli.EXIT_NUMERICAL and out == ""
            assert re.fullmatch(pattern, err).group(1) == shown

    @pytest.mark.parametrize("command", ["synthesize", "verify", "sweep", "decompose", "analyze"])
    def test_every_command_has_the_same_squeeze_budget(self, command, tmp_path, capsys):
        """On EPR every command exits 0 at z = Z_CAP = 30 and 4 at z = 30.001:
        the budget is checked once, on P's largest strength, where the record
        is made.  analyze and decompose take the --interaction route from a
        z = 1 bundle, whose polar split puts lambda_max within rounding of 1;
        the four graph-route commands print the same error line."""
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = str(tmp_path / "epr.json")
        assert run_cli(["synthesize", "--graph", graph, "--out", bundle], capsys)[0] == EXIT_OK
        routes = {"analyze": [["--interaction", bundle]],
                  "decompose": [["--graph", graph], ["--interaction", bundle]]}.get(command, [["--graph", graph]])
        for route in routes:
            assert run_cli([command, *route, "-z", "30"], capsys)[0] == EXIT_OK
            code, out, err = run_cli([command, *route, "-z", "30.001"], capsys)
            assert code == cli.EXIT_NUMERICAL and out == "" and "exceeds 30; cosh would exhaust" in err
            if route[0] == "--graph":
                assert err == ("error: z * max squeezer strength = 30.001 exceeds 30; "
                               "cosh would exhaust double precision\n")

    def test_singular_interaction_exits_numerical(self, tmp_path, capsys):
        path = write(tmp_path, "z.json", json.dumps(matrix_to_json(np.diag([1.0, 0.0]))))
        code, _, err = run_cli(["analyze", "--interaction", path], capsys)
        assert code == cli.EXIT_NUMERICAL and "sigma_min/sigma_max" in err


class TestUnwritableOutput:
    """An --out that cannot be opened or written is an input error (exit 2),
    reported after the request's work, and a rejected request writes no file."""

    @pytest.mark.parametrize(
        "command",
        [["synthesize"], ["verify"], ["sweep", "--z-range", "0.5:1.5:0.5"], ["decompose", "--format", "text"]],
        ids=["synthesize-json", "verify-json", "sweep-csv", "decompose-text"],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_exits_input(self, command, target, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
        reason = os.strerror(errno.ENOENT if target == "missing-dir" else errno.EISDIR)
        code, stdout, err = run_cli([*command, "--graph", graph, "--out", str(out)], capsys)
        assert code == EXIT_INPUT and stdout == ""
        assert err == f"error: cannot write {out}: {reason}\n"

    def test_rejected_request_writes_no_file(self, tmp_path, capsys):
        graph = write(tmp_path, "bad.graph", "2\n0 1 1.0\n1 0 1.0\n")
        out = tmp_path / "x.json"
        assert run_cli(["synthesize", "--graph", graph, "--out", str(out)], capsys)[0] == EXIT_INPUT
        assert not out.exists()


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
        for gauge in ("identity", "faithful", "custom"):  # any gauge name
            obj["P"], obj["gauge"] = matrix_to_json(np.ones((2, 3))), gauge
            bad = write(tmp_path, "bad.json", json.dumps(obj))
            code, _, err = run_cli(["verify", "--interaction", bad], capsys)
            assert code == 2 and err == f"error: {bad}: P not of shape (2, 2)\n"

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
            (["synthesize", "--graph", "{graph}", "--seed", "99"], "unrecognized arguments"),
            (["analyze", "--interaction", "{bundle}", "--seed", "99"], "unrecognized arguments"),
        ],
        ids=["interaction-and-graph", "decompose-both-routes", "bundle-z", "bundle-gauge",
             "decompose-interaction-phases", "verify-z-range", "synthesize-z-range",
             "synthesize-csv", "decompose-csv", "verify-graph-seed", "verify-bundle-seed",
             "decompose-seed", "sweep-seed", "synthesize-seed", "analyze-seed"],
    )
    def test_flags_the_command_would_ignore_exit_2(self, args, message, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        bundle = str(tmp_path / "b.json")
        assert run_cli(["synthesize", "--graph", graph, "--out", bundle], capsys)[0] == EXIT_OK
        args = [arg.format(graph=graph, bundle=bundle) for arg in args]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_INPUT and out == ""
        assert message in err

    def test_documented_exit_codes_match_the_constants(self):
        """The codes the ``cli`` docstring and the README's exit-code
        paragraph list are exactly the ``EXIT_*`` values."""
        constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        docstring = cli.__doc__.partition("Exit codes:")[2]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.partition("Exit codes:")[2].partition("\n\n")[0]
        assert {int(code) for code in re.findall(r"(?:^|,)\s*(\d) [a-z]", docstring)} == constants
        assert {int(code) for code in re.findall(r"`(\d)`", paragraph)} == constants

    def test_conflicting_scale_flags_exit_2(self, tmp_path, capsys):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        code, _, err = run_cli(
            ["sweep", "--graph", graph, "-z", "1", "--z-range", "1:2:1"], capsys
        )
        assert code == 2 and "not both" in err


def _reference(obj):
    """``obj`` with each array replaced by its matrix object, as the writer reads it."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, dict):
        return {key: _reference(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference(value) for value in obj]
    return obj


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestJsonWriter:
    """The CLI's JSON writer is byte-identical to ``json.dumps(obj, indent=2)``
    of the report with its arrays as matrix objects."""

    @staticmethod
    def emitted(obj) -> _CountingStream:
        stream = _CountingStream()
        with contextlib.redirect_stdout(stream):
            _emit_json(obj, None)
        return stream

    def assert_reference(self, obj):
        assert self.emitted(obj).getvalue() == json.dumps(_reference(obj), indent=2) + "\n"

    @pytest.mark.parametrize("case", ["epr", "ring12", "random7", "random7-identity"])
    def test_every_subcommand_output(self, case, tmp_path, capsys, monkeypatch):
        emitted = []

        def recording(obj, out_path):
            emitted.append(obj)
            _emit_json(obj, out_path)

        monkeypatch.setattr(cli, "_emit_json", recording)
        rng = np.random.default_rng(7)
        graph_text = {"epr": EPR_GRAPH, "ring12": _ring_graph(12)}.get(case) or _random_graph(rng, 7)
        graph = write(tmp_path, "g.graph", graph_text)
        flags = ["--graph", graph, "-z", "0.7"]
        if case.startswith("random7"):
            phases = write(tmp_path, "th.txt", "".join(
                f"{t!r}\n" for t in rng.uniform(-np.pi, np.pi, 7).tolist()))
            flags += ["--phases", phases, "--gauge", "identity" if case.endswith("identity") else "faithful"]
        bundle = str(tmp_path / "bundle.json")
        assert run_cli(["synthesize", *flags, "--out", bundle], capsys)[0] == EXIT_OK
        runs = [
            ["synthesize", *flags],
            ["analyze", "--interaction", bundle, "-z", "0.7"],
            ["decompose", *flags],
            ["decompose", "--interaction", bundle, "-z", "0.7"],
            ["verify", "--interaction", bundle],
            ["verify", *flags],
            ["sweep", *flags[:2], *flags[4:], "--z-range", "0.5:1.5:0.5",
             "--format", "json"],
        ]
        out_path = tmp_path / "out.json"
        for args in runs:
            emitted.clear()
            code, to_file, _ = run_cli([*args, "--out", str(out_path)], capsys)
            assert code == EXIT_OK and to_file == "", args
            code, to_stdout, _ = run_cli(args, capsys)
            assert code == EXIT_OK, args
            assert len(emitted) == 2
            expected = json.dumps(_reference(emitted[0]), indent=2) + "\n"
            assert out_path.read_text(encoding="utf-8") == expected, args
            assert to_stdout == expected, args

    def test_special_floats(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                  1.7976931348623157e308, -2.5e-308, 0.1]
        self.assert_reference({"row": values, "matrix": [values, values[::-1]],
                               "array": np.array([values, values[::-1]]),
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

    def test_arrays_are_written_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)),
                  np.eye(2, dtype=complex), np.array([[1, -2]]), np.zeros((0, 3)),
                  np.zeros((2, 0)), np.array([[1.0 + 0.0j]])]
        report = {"first": arrays[0], "nested": [{"m": arrays[1]}, arrays[2:]], "last": 1.5}
        self.assert_reference(report)
        assert self.emitted(report).writes == len(arrays) + 1  # one per matrix, one for the tail

    @staticmethod
    def symmetric_blocks():
        """name -> matrix: blocks symmetric bit for bit, and near misses."""
        rng = np.random.default_rng(17)
        m = rng.normal(size=(5, 5))
        real = m + m.T
        signed_zero, ulp = real.copy(), real.copy()
        signed_zero[1, 3], signed_zero[3, 1] = 0.0, -0.0
        ulp[4, 0] = np.nextafter(ulp[0, 4], math.inf)
        m = rng.normal(size=(5, 5))
        anti = m - m.T  # the im block of a Hermitian matrix
        zero, signed_zero_anti, diagonal, ulp_anti = anti.copy(), anti.copy(), anti.copy(), anti.copy()
        zero[1, 3], zero[3, 1] = 0.0, 0.0
        signed_zero_anti[1, 3], signed_zero_anti[3, 1] = 0.0, -0.0
        diagonal[np.diag_indices(5)] = rng.normal(size=5)
        ulp_anti[4, 0] = np.nextafter(-ulp_anti[0, 4], math.inf)
        special = np.array([[0.0, math.nan, math.inf], [-math.nan, 1.5, -1e16], [-math.inf, 1e16, -0.0]])
        minus_zero_off = np.eye(5)  # diagonal in value, not in bits
        minus_zero_off[3, 1] = -0.0

        def complex_(im):  # real + 1j * im would turn -0.0 into 0.0
            out = real.astype(complex)
            out.imag = im
            return out

        return {
            "real": real,
            "complex": complex_(m + m.T),
            "re-only": complex_(m),
            "signed-zero": signed_zero,
            "one-ulp": ulp,
            "signed-zero-im": complex_(signed_zero),
            "one-ulp-im": complex_(ulp),
            "special": np.array([[math.nan, math.inf, -0.0], [math.inf, 5e-324, 1e16], [-0.0, 1e16, -math.inf]]),
            "hermitian": complex_(anti),
            "zero-facing-zero-im": complex_(zero),
            "zero-facing-minus-zero-im": complex_(signed_zero_anti),
            "diagonal-im": complex_(diagonal),
            "one-ulp-antisymmetric-im": complex_(ulp_anti),
            "antisymmetric-special": special,
            "eye": np.eye(5),
            "rotation-diagonal": np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 5))),  # like decompose's R
            "special-diagonal": np.diag([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
            "2x2-diagonal": np.diag([2.0, -3.0]),
            "minus-zero-off-diagonal": minus_zero_off,
            "1x1": np.array([[complex(-0.0, 2.5)]]),
            "0x0": np.zeros((0, 0), dtype=complex),
            "0x4": np.zeros((0, 4)),
            "3x0": np.zeros((3, 0)),
            "non-square": real[:2],
        }

    def test_symmetric_blocks(self):
        """Mirrored or not, each block's text is that of ``json.dumps``."""
        blocks = self.symmetric_blocks()
        self.assert_reference(blocks)
        for array in blocks.values():
            self.assert_reference(array)

    @staticmethod
    def counting(monkeypatch) -> list[int]:
        """The length of each list the writer's encoders encode from now on."""
        encoded = []

        class Counting(json.JSONEncoder):
            def encode(self, o):
                encoded.append(len(o))
                return super().encode(o)

        monkeypatch.setattr(json, "JSONEncoder", Counting)
        return encoded

    def test_only_bitwise_symmetric_blocks_are_mirrored(self, monkeypatch):
        """A block diagonal bit for bit, +0.0 off its diagonal, formats its n
        diagonal entries alone, in one encoder call; any other block
        symmetric bit for bit, or antisymmetric bit for bit below its
        diagonal, formats its upper triangle alone; a -0.0 off the diagonal
        of an identity, a 0.0 facing -0.0 in a symmetric block, a 0.0 facing
        0.0 in an antisymmetric one, or one ulp off either structure formats
        every entry."""
        encoded = self.counting(monkeypatch)
        # numbers encoded per block: 5 for a diagonal 5x5 one, 15 for a
        # mirrored one, 25 for a full one
        expected = {"real": 15, "complex": 15 + 15, "re-only": 15 + 25, "signed-zero": 25,
                    "one-ulp": 25, "signed-zero-im": 15 + 25, "one-ulp-im": 15 + 25,
                    "non-square": 10, "special": 6, "hermitian": 15 + 15,
                    "zero-facing-zero-im": 15 + 25, "zero-facing-minus-zero-im": 15 + 15,
                    "diagonal-im": 15 + 15, "one-ulp-antisymmetric-im": 15 + 25,
                    "antisymmetric-special": 6, "eye": 5, "rotation-diagonal": 5 + 5,
                    "special-diagonal": 5, "2x2-diagonal": 2, "minus-zero-off-diagonal": 25,
                    "1x1": 1 + 1, "0x0": 0}
        blocks = self.symmetric_blocks()
        for name, count in expected.items():
            encoded.clear()
            self.emitted(blocks[name])
            assert sum(encoded) == count, name
        encoded.clear()
        self.emitted(blocks["special-diagonal"])
        assert encoded == [5]

    def test_a_bitwise_repeat_at_the_same_indent_reuses_the_text(self, monkeypatch):
        """A matrix with the bits of an earlier one at the same indent is
        encoded once, and still written with one write of its own; one
        signed zero or one ulp apart, or at another depth, it is encoded
        again.  Every text is that of ``json.dumps``."""
        rng = np.random.default_rng(41)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m[2, 1] = complex(0.0, m[2, 1].imag)
        signed_zero, ulp = m.copy(), m.copy()
        signed_zero.real[2, 1] = -0.0
        ulp[3, 3] = complex(m[3, 3].real, np.nextafter(m[3, 3].imag, math.inf))
        encoded = self.counting(monkeypatch)
        reports = {
            "copy": ({"a": m, "b": m.copy(), "tail": [1.5, 2]}, 2 * 16 + 2),
            "same-object-thrice": ({"a": m, "x": 1.0, "b": m, "nested": {"c": 2}, "d": m}, 2 * 16),
            "signed-zero": ({"a": m, "b": signed_zero}, 4 * 16),
            "one-ulp": ({"a": m, "b": ulp}, 4 * 16),
            "interleaved": ({"a": m, "b": ulp, "c": m, "d": ulp}, 4 * 16),
            "other-depth": ({"a": m, "nested": [m, {"m": m}], "b": m}, 6 * 16),
            "real-and-complex": ({"a": m.real.copy(), "b": m.real.astype(complex)}, 2 * 16),
        }
        for name, (report, count) in reports.items():
            encoded.clear()
            stream = self.emitted(report)
            assert sum(encoded) == count, name
            assert stream.getvalue() == json.dumps(_reference(report), indent=2) + "\n", name
            matrices = 4 if name == "other-depth" else sum(isinstance(v, np.ndarray) for v in report.values())
            assert stream.writes == matrices + 1, name  # one per matrix, one for the tail

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    def test_every_bundle_block_but_e_is_one_triangle(self, gauge, tmp_path, capsys, monkeypatch):
        """At random phases a synthesize bundle holds Z and Y symmetric and
        P and X Hermitian bit for bit: the real blocks and the im blocks of
        Z and Y equal their transposes, and the im blocks of P and X are
        their negated transposes below the diagonal.  So the writer formats
        one triangle of every block but E's, and of the identity gauge's P
        = 1 and X = cosh(z) 1, diagonal at any phases, the diagonal alone."""
        n = 9
        rng = np.random.default_rng(29)
        a = random_adjacency(rng, n)
        theta = random_phases(rng, n)
        graph, phases = write(tmp_path, "g.graph", format_graph(a)), write(
            tmp_path, "th.txt", "".join(f"{t!r}\n" for t in theta.tolist()))
        spec = gauge
        if gauge == "custom":
            p = random_compatible_gauge(rng, a, theta)
            spec = "custom:" + write(tmp_path, "p.json", json.dumps(matrix_to_json(p)))
        reports = []
        monkeypatch.setattr(cli, "_emit_json", lambda obj, out_path: reports.append(obj))
        argv = ["synthesize", "--graph", graph, "--phases", phases, "--gauge", spec, "-z", "0.7"]
        assert run_cli(argv, capsys)[0] == EXIT_OK
        bundle = reports[0]

        sign = np.uint64(1 << 63)
        for key in ("adjacency", "Z", "P", "U", "X", "Y", "C"):
            m = bundle[key]
            re, im = np.real(m).view(np.uint64), np.imag(m).view(np.uint64)
            assert np.array_equal(re, re.T), key
            if key in ("P", "X"):
                assert gauge == "identity" or np.imag(m).any(), key
                if np.imag(m).any():
                    assert np.array_equal(np.tril(im, -1), np.tril(im.T ^ sign, -1)), key
            else:
                assert np.array_equal(im, im.T), key

        encoded = self.counting(monkeypatch)
        for key in ("adjacency", "Z", "P", "U", "X", "Y", "C", "E"):
            m = bundle[key]
            blocks = 2 if np.iscomplexobj(m) and m.imag.any() else 1
            per_block = (n if gauge == "identity" and key in ("P", "X")
                         else n * n if key == "E" else n * (n + 1) // 2)
            encoded.clear()
            self.emitted(m)
            assert sum(encoded) == blocks * per_block, key

    def test_identity_z_and_u_are_encoded_once_and_r_by_its_diagonal(self, tmp_path, capsys, monkeypatch):
        """An identity bundle's Z is its U bit for bit, at any phases, so the
        pair is encoded once: the bundle encodes as many numbers as it does
        without Z.  decompose's R = diag(rotation) encodes its 2n diagonal
        entries alone.  Both outputs read back as ``json.dumps`` writes
        them."""
        n = 9
        rng = np.random.default_rng(31)
        graph = write(tmp_path, "g.graph", format_graph(random_adjacency(rng, n)))
        phases = write(tmp_path, "th.txt", "".join(f"{t!r}\n" for t in random_phases(rng, n).tolist()))
        reports = []

        def recording(obj, out_path):
            reports.append(obj)
            _emit_json(obj, out_path)

        monkeypatch.setattr(cli, "_emit_json", recording)
        out = tmp_path / "out.json"
        flags = ["--graph", graph, "--phases", phases, "-z", "0.7", "--out", str(out)]
        encoded = self.counting(monkeypatch)
        assert run_cli(["synthesize", *flags], capsys)[0] == EXIT_OK
        bundle, with_z = reports[0], sum(encoded)
        assert out.read_text(encoding="utf-8") == json.dumps(_reference(bundle), indent=2) + "\n"
        assert np.array_equal(bundle["Z"].view(np.uint64), bundle["U"].view(np.uint64))
        encoded.clear()
        self.emitted({key: value for key, value in bundle.items() if key != "Z"})
        assert with_z == sum(encoded)

        encoded.clear()
        assert run_cli(["decompose", *flags], capsys)[0] == EXIT_OK
        factors = reports[1]
        assert out.read_text(encoding="utf-8") == json.dumps(_reference(factors), indent=2) + "\n"
        encoded.clear()
        self.emitted(factors["R"])
        assert sum(encoded) == 2 * n

    def test_bundle_write_allocates_less_than_its_output(self, tmp_path, capsys, monkeypatch):
        """Once the battery has built the recipe, writing its bundle holds
        one matrix as lists and text at a time, plus the text of one that a
        later matrix repeats, not the whole bundle; with the identity gauge
        every block is mirrored or diagonal, and Z's text is held for U."""
        graph = write(tmp_path, "g.graph", _random_graph(np.random.default_rng(5), 96))
        bundle = tmp_path / "bundle.json"
        held = []

        def checked(*args):
            result = synthesize(*args)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return result

        synthesize = battery.synthesize
        monkeypatch.setattr(battery, "synthesize", checked)
        for gauge in ("faithful", "identity"):
            held.clear()
            tracemalloc.start()
            try:
                code, _, _ = run_cli(["synthesize", "--graph", graph, "--gauge", gauge,
                                      "--out", str(bundle)], capsys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK and len(held) == 1, gauge
            assert peak - held[0] < bundle.stat().st_size, gauge


class TestModuleEntryPoints:
    @staticmethod
    def run_python(args, threads=None):
        """Run Python on the package's source tree; ``threads`` sets the BLAS
        thread count of the process."""
        src = str(Path(clustersqueeze.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if threads is not None:
            env |= dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads))
        return subprocess.run(
            [sys.executable, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def run_module(self, module, args, threads=None):
        return self.run_python(["-m", module, *args], threads)

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

    def test_a_bundle_written_at_two_blas_threads_verifies_at_one(self, tmp_path):
        """Bundle bytes are stable at a fixed BLAS thread count, verdicts at
        any.  With OpenBLAS 0.3.31 on 2 cores, N = 128 was the smallest of
        64, 96 and 128 whose faithful bundle of this dense random graph
        differs between 1 and 2 threads; the test asserts the verdict only."""
        graph = write(tmp_path, "dense.graph", format_graph(random_adjacency(np.random.default_rng(128), 128)))
        bundle = str(tmp_path / "bundle.json")
        written = self.run_module(
            "clustersqueeze", ["synthesize", "--graph", graph, "--gauge", "faithful", "-z", "0.5", "--out", bundle],
            threads=2)
        assert written.returncode == EXIT_OK, written.stderr
        verified = self.run_module("clustersqueeze", ["verify", "--interaction", bundle], threads=1)
        assert verified.returncode == EXIT_OK and json.loads(verified.stdout)["passed"] is True

    @pytest.mark.parametrize("module", ["clustersqueeze", "clustersqueeze.cli"])
    def test_valid_verify_exits_ok(self, module, tmp_path):
        graph = write(tmp_path, "epr.graph", EPR_GRAPH)
        proc = self.run_module(module, ["verify", "--graph", graph])
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["passed"] is True
