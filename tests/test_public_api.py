"""Every public name has a user besides the tests."""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import clustersqueeze
from clustersqueeze import cli
from clustersqueeze.tolerances import CHECKS, ErrorModel, Tolerances

ROOT = Path(__file__).resolve().parent.parent

# Public reference implementations: the library does not call them, and
# tests compare the derivations and the library's results against them.
REFERENCE_IMPLEMENTATIONS = {
    "squeezing_generator": "mode-basis generator G that the real quadrature generator K derives from",
    "bogoliubov_oracle": "X and Y read off the brute-force flow, against the closed-form blocks",
    "covariance_from_pair": "covariance of an explicit pair, which shows the reality condition is necessary",
    "k_matrix_form": "angle-matrix form K of a structure factor, the alternative route to A",
    "adjacency_from_k": "A = -cos(K) / (1 + sin(K)), against adjacency_from_unitary",
    "unitary_from_interferometer": "U = i V V^T, the interferometer identity of the decomposition",
}


def _sources():
    src = ROOT / "src" / "clustersqueeze"
    files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]
    return [f.read_text(encoding="utf-8") for f in files]


def _used_outside_tests(name, texts):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(
        word.search(line) and not own.match(line)
        for text in texts
        for line in text.splitlines()
    )


def test_no_test_only_public_names():
    texts = _sources()
    unused = [
        name
        for name in clustersqueeze.__all__
        if name not in REFERENCE_IMPLEMENTATIONS and not _used_outside_tests(name, texts)
    ]
    assert unused == []


def test_reference_implementations_are_public():
    assert set(REFERENCE_IMPLEMENTATIONS) <= set(clustersqueeze.__all__)


def test_every_tolerance_is_read():
    """A threshold whose uses all moved into the check table is not left behind."""
    src = ROOT / "src" / "clustersqueeze"
    texts = [f.read_text(encoding="utf-8") for f in src.glob("*.py") if f.name != "tolerances.py"]
    unread = [
        field.name
        for field in dataclasses.fields(Tolerances)
        if not any(re.search(rf"\bDEFAULT_TOLERANCES\.{field.name}\b", text) for text in texts)
    ]
    assert unread == []


def test_every_check_row_is_reported_and_every_magnitude_read(tmp_path, capsys):
    """A row deleted from the batteries takes its table entry with it, and a
    magnitude goes with the last row that reads it.  Verifying a bundle of
    the self-inverse EPR graph (identity gauge) and the graph itself
    (faithful gauge) reports every row once."""
    graph = tmp_path / "epr.graph"
    graph.write_text("2\n0 1 1.0\n", encoding="utf-8")
    bundle = str(tmp_path / "bundle.json")
    assert cli.main(["synthesize", "--graph", str(graph), "--out", bundle]) == 0
    reported = set()
    for argv in (["--interaction", bundle], ["--graph", str(graph), "--gauge", "faithful"]):
        assert cli.main(["verify", *argv]) == 0
        reported |= {check["name"] for check in json.loads(capsys.readouterr().out)["checks"]}
    assert reported == set(CHECKS)
    model = ErrorModel(n=2, z=1.0, lam_min=1.0, lam_max=2.0, kappa=2.0)
    assert set(model.magnitudes) == {magnitude for magnitude, _ in CHECKS.values()}


def test_commands_return_reports_and_main_writes_them():
    """No command reads --format or --out or writes output itself: each
    returns its report, and ``main`` renders and writes every one."""
    tree = ast.parse(inspect.getsource(cli))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {c.name for c in commands} == {
        "cmd_synthesize", "cmd_analyze", "cmd_decompose", "cmd_verify", "cmd_sweep"}
    offending = [
        (command.name, ast.unparse(node))
        for command in commands
        for node in ast.walk(command)
        if (isinstance(node, ast.Attribute) and node.attr in ("format", "out")
            and isinstance(node.value, ast.Name) and node.value.id == "args")
        or (isinstance(node, ast.Name) and node.id in ("_emit", "_emit_json"))
    ]
    assert offending == []
