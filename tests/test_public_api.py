"""Every public name has a user besides the tests, the modules keep their
layers, and the public functions reject bad input with typed errors."""

import ast
import functools
import importlib.util
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import clustersqueeze
from clustersqueeze import (
    ClusterPlan,
    DimensionMismatch,
    InteractionMatrix,
    NotOrthogonal,
    bloch_messiah,
    bogoliubov_from_interaction,
    canonical_cluster_interferometer,
    cli,
    cluster_condition_residual,
    convergence_sweep,
    covariance_closed_form,
    covariance_oracle,
    matfun,
    squeezer_spectrum,
    tolerances,
)
from clustersqueeze.tolerances import CHECKS, ErrorModel

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(f for f in (ROOT / "src" / "clustersqueeze").glob("*.py") if f.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _code_references():
    """Every name that code in the library (but ``__init__.py``) or the
    demos reads, as a ``Name`` or an ``Attribute``: docstrings, comments and
    imports are no use, nor is a reference inside the definition it names."""
    used = set()
    for _, tree in _trees(LIBRARY + DEMOS):
        for top in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {getattr(top, "name", None)}
    return used


def test_no_test_only_public_names():
    """Every public module-level function and class of every library
    module, and every name the package exports, has a code use besides the
    tests."""
    used = _code_references()
    public = {
        f"{path.stem}.{node.name}": node.name
        for path, tree in _trees(LIBRARY)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    public.update((f"clustersqueeze.{name}", name) for name in clustersqueeze.__all__)
    assert sorted(where for where, name in public.items() if name not in used) == []


def test_every_tolerance_is_read():
    """A threshold whose uses all moved into the check table is not left
    behind: every upper-case constant of tolerances.py is read as a name in
    the library outside its own definition."""
    constants = {name for name in vars(tolerances) if name.isupper()}
    read = {
        node.id
        for _, tree in _trees(LIBRARY)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert constants and sorted(constants - read) == []


def test_one_scale_rule():
    """Only tolerances.py states the rule for a squeezing scale z; every
    other module, the CLI's readers of -z and of a bundle's z included,
    takes it from ``positive_scale`` or ``check_squeeze_budget``, and the
    budget is checked where a record is made: only the two record
    constructors in synthesis.py call ``check_squeeze_budget``."""
    stating = [path.name for path in LIBRARY
               if path.name != "tolerances.py"
               and any(text in path.read_text(encoding="utf-8")
                       for text in ("np.isfinite(z", "squeezing scale z must", "must be positive and finite"))]
    assert stating == []
    budget_calls = [
        path.name
        for path, tree in _trees(LIBRARY)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_squeeze_budget"
    ]
    assert budget_calls == ["synthesis.py", "synthesis.py"]


def test_no_public_function_takes_z_beside_a_record():
    """A record carries the scale it is planned at, so no public function or
    method of the library that takes an interaction record ``zm`` takes a
    ``z`` too."""
    both = [
        f"{path.stem}.{node.name}"
        for path, tree in _trees(LIBRARY)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and {"zm", "z"} <= {arg.arg for arg in node.args.args + node.args.kwonlyargs}
    ]
    assert both == []


def test_a_record_is_judged_at_its_own_scale():
    """A record planned at one z cannot be judged at another: the closed form
    takes no z, and a faithful record's is e^{-2z} 1 at the z it was planned
    at, within the ``faithful_gauge_identity`` budget."""
    cluster = ClusterPlan.of(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    for z in (0.5, 1.0, 2.0):
        zm = cluster.interaction("faithful", z)
        assert zm.z == z
        residual = matfun.max_abs(covariance_closed_form(cluster, zm).C - math.exp(-2.0 * z) * np.eye(2))
        assert residual <= ErrorModel.of(zm).budget("faithful_gauge_identity")
    assert list(inspect.signature(covariance_closed_form).parameters) == ["cluster", "zm"]


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


def _package_imports(path):
    """The package modules a library module imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.partition(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found |= {n.split(".")[1] for n in names if n and n.startswith("clustersqueeze.")}
    return found


def test_module_layering():
    """The kernels stand below the physics, the forward synthesis below the
    inverse routes and the oracle, only ``__main__`` reaches the CLI, and
    the CLI reaches the error model, the kernels and the factors only
    through the battery."""
    imports = {path.stem: _package_imports(path) for path in LIBRARY}
    assert imports["matfun"] <= {"errors", "tolerances"}
    assert imports["graphs"] <= {"errors", "tolerances"}
    assert not imports["synthesis"] & {"analysis", "blochmessiah", "oracle", "cli"}
    assert sorted(stem for stem, names in imports.items() if "cli" in names) == ["__main__"]
    assert not imports["cli"] & {"tolerances", "matfun", "blochmessiah"}
    assert "oracle" not in imports["cli"]
    assert "cli" not in imports["battery"]


def test_the_oracle_reads_only_z_and_the_clusters_a_and_theta():
    """The brute-force path is independent of the closed form by its module
    boundary: from ``synthesis`` it imports the plan and record types only,
    of a cluster plan it reads A and theta, of an interaction Z, n and the
    scale z it is planned at, and no eigenpair or product of either plan."""
    tree = ast.parse((ROOT / "src" / "clustersqueeze" / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "synthesis":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "synthesis" not in ast.unparse(node)
    assert imported <= {"ClusterPlan", "InteractionMatrix"}
    read = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.setdefault(node.value.id, set()).add(node.attr)
    assert read["cluster"] <= {"A", "theta"} and read["zm"] <= {"Z", "n", "z"}
    forbidden = {"strengths", "modes", "P", "U", "_factorization", "by_magnitude", "kappa", "frame", "interferometer",
                 "interaction"}
    assert set().union(*read.values()) & forbidden == set()


def test_the_benchmark_hooks_name_existing_functions():
    """The traced benchmark run wraps the CLI's file helpers and its ``json``
    binding by name, wraps every function of the modules it lists, and its
    worker calls ``cli.main`` and package functions.  A library name they
    use that goes away breaks only the traced run, which the default
    untraced run does not exercise."""
    used, imported, modules = set(), set(), ()
    for name in ("tracing.py", "worker.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "clustersqueeze":
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MODULES":
                modules = ast.literal_eval(node.value)
    assert {"_read_text", "_emit", "json", "main"} <= used
    assert {"cli", "unitary_from_adjacency"} <= imported
    assert sorted(name for name in used if not hasattr(cli, name)) == []
    assert sorted(name for name in imported if not hasattr(clustersqueeze, name)) == []
    assert modules and all(importlib.util.find_spec(f"clustersqueeze.{short}") for short in modules)


def test_only_the_battery_judges_checks():
    """Every check record of a report comes from one place: no library
    module but ``battery`` calls ``ErrorModel.checks``."""
    callers = {
        path.stem
        for path, tree in _trees(LIBRARY)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "checks"
    }
    assert callers == {"battery"}


def _plan():
    return ClusterPlan.of(np.zeros((2, 2)), np.zeros(2))


def _interaction(z=1.0):
    return _plan().interaction("identity", z)


#: function of z -> call, for every way a scale z enters the library: the
#: two record constructors, the faithful strengths and a sweep.  The
#: consumers of a record take z only inside it, so asking one of them for a
#: bad z fails where its record is made.
SCALED = {
    "bogoliubov": lambda z: bogoliubov_from_interaction(_interaction(z)),
    "squeezer-spectrum": lambda z: squeezer_spectrum(_interaction(z)),
    "bloch-messiah": lambda z: bloch_messiah(_interaction(z)),
    "closed-form": lambda z: covariance_closed_form(_plan(), _interaction(z)),
    "oracle": lambda z: covariance_oracle(_plan(), _interaction(z)),
    "faithful-plan": lambda z: _plan().interaction("faithful", z),
    "custom-plan": lambda z: _plan().interaction(np.eye(2), z),
    "polar-split": lambda z: InteractionMatrix.from_matrix(1j * np.eye(2), z),
    "faithful-strengths": lambda z: _plan().faithful_strengths(z),
    # the last z passes the budget, so each earlier one meets the rule alone
    "convergence-sweep": lambda z: convergence_sweep(_plan(), "identity", [z, 2.0]),
}
BAD_SCALES = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "infinite": math.inf}
#: values that are no real number, or none a float can hold: each is the
#: one ValueError too, not a record at z = 1 (True) nor another error
NOT_SCALES = {"bool": True, "numpy-bool": np.True_, "string": "1.0", "list": [1.0], "huge-int": 10 ** 400}

# case -> (call, typed error, message)
LIBRARY_INPUT_ERRORS = {
    **{f"{name}-{kind}-z": (functools.partial(call, z), ValueError,
                            "squeezing scale z must be positive and finite")
       for name, call in SCALED.items() for kind, z in BAD_SCALES.items()},
    **{f"{name}-{kind}-z": (functools.partial(call, z), ValueError,
                            "squeezing scale z must be positive and finite")
       for name, call in (("identity-plan", lambda z: _plan().interaction("identity", z)),
                          ("polar-split", SCALED["polar-split"]),
                          ("faithful-strengths", SCALED["faithful-strengths"]))
       for kind, z in NOT_SCALES.items()},
    "convergence-sweep-last-nan-z": (lambda: convergence_sweep(_plan(), "identity", [1.0, math.nan]),
                                     ValueError, "squeezing scale z must be positive and finite"),
    "faithful-plan-without-z": (lambda: _plan().interaction("faithful", None), ValueError,
                                "squeezing scale z must be positive and finite"),
    "unknown-gauge": (lambda: _plan().interaction("uniform", 1.0), ValueError, "unknown gauge 'uniform'"),
    "complex-seed": (lambda: canonical_cluster_interferometer(_plan(), 1j * np.eye(2)), NotOrthogonal,
                     "seed must be a real matrix"),
    "seed-shape": (lambda: canonical_cluster_interferometer(_plan(), np.eye(3)), ValueError,
                   "seed shape does not match the graph"),
    "complex-matrix-ndim": (lambda: matfun.as_complex_matrix(np.ones(2)), ValueError,
                            "expected a 2-D matrix, got ndim=1"),
    "interferometer-shape": (lambda: cluster_condition_residual(np.eye(3), _plan()), ValueError,
                             "interferometer shape does not match the graph"),
    "closed-form-modes": (lambda: covariance_closed_form(ClusterPlan.of(np.zeros((3, 3)), np.zeros(3)),
                                                         _interaction()),
                          DimensionMismatch, "graph has 3 modes, interaction has 2"),
}


@pytest.mark.parametrize("case", LIBRARY_INPUT_ERRORS)
def test_library_input_errors_raise_their_typed_error(case):
    call, error, message = LIBRARY_INPUT_ERRORS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
