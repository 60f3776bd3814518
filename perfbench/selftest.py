"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every check holds.  It
checks that:

* a bundle with one tampered entry and a request forced to exit nonzero
  each count as one failed request flagged by the program, and that the
  failures repeat exactly across two runs of the same inputs (the second
  run also compares every output digest with the first);
* a request that raises counts as a failure the program did not flag;
* the harness's own output checks reject a tampered ``analyze`` output, a
  tampered ``sweep`` row and a changed output digest, and a change to the
  program's sources starts a fresh digest record;
* a request's speed factor is the reference kernel time over the median
  kernel time within the window around it;
* the metric names ``run.py`` prints are exactly those in BENCHMARK.json;
* ``run.py`` exits nonzero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "self-test"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from run import BLAS_ENV, END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import dense_graph, write_graph, write_phases  # noqa: E402

#: request id -> (failure reason, flagged by the program)
EXPECTED_FAILURES = {"verify-tampered": ("exit 1", True), "synthesize-duplicate-edge": ("exit 2", True)}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def build_inputs(cli) -> None:
    """Two small bundles, a tampered copy of one, and a malformed graph."""
    import numpy as np

    rng = np.random.default_rng(7)
    a = dense_graph(rng, 6)
    a[2, :] = a[:, 2] = 0.0
    theta = rng.uniform(-np.pi, np.pi, 6)
    theta[2] = np.pi / 2  # isolated node at pi/2 forces the phase search
    write_graph(WORK / "g.graph", a)
    write_phases(WORK / "g.phases", theta)
    for gauge in ("identity", "faithful"):
        code = cli.main(["synthesize", "--graph", "g.graph", "--phases", "g.phases",
                         "--gauge", gauge, "-z", "0.8", "--out", f"{gauge}.json"])
        expect(code == 0, f"set-up synthesize exited {code}")
    bundle = json.loads((WORK / "faithful.json").read_text())
    bundle["Z"]["re"][0][1] += 1e-3
    (WORK / "tampered.json").write_text(json.dumps(bundle))
    (WORK / "bad.graph").write_text("3\n0 1 0.5\n1 0 0.25\n")
    requests = [
        ("analyze-identity", ["analyze", "--interaction", "identity.json"], {"kind": "analyze", "bundle": "identity.json"}),
        ("analyze-faithful", ["analyze", "--interaction", "faithful.json"], {"kind": "analyze", "bundle": "faithful.json"}),
        ("verify-faithful", ["verify", "--interaction", "faithful.json"], {"kind": "verify"}),
        ("verify-tampered", ["verify", "--interaction", "tampered.json"], {"kind": "verify"}),
        ("decompose-identity", ["decompose", "--interaction", "identity.json"], {"kind": "checks"}),
        ("synthesize-duplicate-edge", ["synthesize", "--graph", "bad.graph"], {"kind": "checks"}),
        ("sweep-identity", ["sweep", "--graph", "g.graph", "--z-range", "0.5:0.95:0.2"],
         {"kind": "sweep", "graph": "g.graph", "gauge": "identity", "start": 0.5, "step": 0.2, "points": 3}),
    ]
    manifest = {
        "workload": "self-test", "seed": 0, "inputs_sha256": "", "warmup": ["verify", "--graph", "g.graph"],
        "requests": [{"id": i, "argv": argv, "check": spec} for i, argv, spec in requests],
    }
    (WORK / "manifest.json").write_text(json.dumps(manifest))


def measure_twice() -> list[list]:
    runs = []
    for k in range(2):
        result = WORK / f"result{k}.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"), "measure", str(WORK), str(result),
                        "1", "0", str(WORK / "digests.json")],
                       env={**os.environ, **BLAS_ENV}, check=True, timeout=120)
        runs.append(json.loads(result.read_text())["failures"])
    return runs


def check_failures(runs: list[list]) -> None:
    first, second = runs
    expect(first == second, f"failures differ between runs of the same inputs: {first} vs {second}")
    got = {request: (reason, flagged) for request, reason, flagged in first}
    expect(got == EXPECTED_FAILURES, f"expected failures {EXPECTED_FAILURES}, got {got}")


def check_checkers(cli) -> None:
    from clustersqueeze import unitary_from_adjacency

    def read(name):
        return (WORK / name).read_text()

    code = cli.main(["analyze", "--interaction", str(WORK / "faithful.json"), "--out", str(WORK / "a.json")])
    expect(code == 0, f"analyze exited {code}")
    report = json.loads(read("a.json"))
    bundle = json.loads(read("faithful.json"))
    expect(checks.analyze_report(report, bundle, unitary_from_adjacency) is None, "valid analyze output failed")
    report["adjacency"]["re"][0][1] += 1e-3
    report["adjacency"]["re"][1][0] += 1e-3
    expect(checks.analyze_report(report, bundle, unitary_from_adjacency) is not None,
           "tampered analyze output passed")

    spec = {"kind": "sweep", "graph": "g.graph", "gauge": "faithful", "start": 0.5, "step": 0.2, "points": 3}
    code = cli.main(["sweep", "--graph", str(WORK / "g.graph"), "--gauge", "faithful",
                     "--z-range", "0.5:0.95:0.2", "--out", str(WORK / "s.csv")])
    expect(code == 0, f"sweep exited {code}")
    csv = read("s.csv")
    expect(checks.sweep_report(csv, read("g.graph"), spec) is None, "valid sweep output failed")
    rows = csv.splitlines()
    z, max_abs, frob = rows[2].split(",")
    rows[2] = f"{z},{float(max_abs) * (1 + 1e-6)!r},{frob}"
    expect(checks.sweep_report("\n".join(rows), read("g.graph"), spec) is not None, "tampered sweep row passed")

    digests = worker.Digests(WORK / "unit-digests.json", "unit")
    expect(digests.check("r", "one") is None and digests.check("r", "one") is None, "same digest failed")
    expect(digests.check("r", "two") is not None, "changed digest passed")


def check_source_digests() -> None:
    """Digests are compared only between runs of the same program sources."""
    src = WORK / "src-copy"
    shutil.copytree(worker.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    before = worker.source_sha256(src)
    expect(before == worker.source_sha256(worker.SRC), "copied sources hash differently")
    with open(src / "clustersqueeze" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n# changed\n")
    after = worker.source_sha256(src)
    expect(after != before, "a changed source file left the source hash unchanged")
    manifest = {"workload": "w", "seed": 1, "inputs_sha256": "inputs"}
    key, changed_key = worker.digest_key(manifest), worker.digest_key(manifest, src)
    expect(key != changed_key, "the digest key ignores the program's sources")
    path = WORK / "source-digests.json"
    digests = worker.Digests(path, key)
    digests.check("r", "output")
    digests.save()
    expect(worker.Digests(path, changed_key).check("r", "changed output") is None,
           "changed sources did not start a fresh digest record")
    expect(worker.Digests(path, key).check("r", "changed output") is not None,
           "the record of the unchanged sources was lost")


def check_crash(cli) -> None:
    """A request that raises is a failure the program did not flag."""
    def crash(argv):
        raise RuntimeError("forced crash")

    manifest = {"requests": [{"id": "crash", "argv": ["verify", "--graph", "g.graph"],
                              "check": {"kind": "verify"}}]}
    attempts: list = []
    worker.run_pass(types.SimpleNamespace(main=crash), manifest,
                    worker.Digests(WORK / "crash-digests.json", "crash"), attempts)
    failures = worker.judge(attempts)
    expect(failures == [("crash", "raised RuntimeError: forced crash", False)],
           f"a crash was recorded as {failures}")


def check_speed_factors() -> None:
    ref = speed.REFERENCE_S
    probe = speed.Speed()
    # Calibrations at 0 s (slow host) and 10 s and 10.5 s (reference speed):
    # a request from 9 s to 9.5 s sees only the last two, one from 1 s to
    # 1.5 s only the first.
    probe.samples = [(0.0, 2 * ref), (10.0, ref), (10.5, ref)]
    probe.requests = [(9.0, 9.5), (1.0, 1.5)]
    expect(probe.factors() == [1.0, 0.5], f"speed factors {probe.factors()}, expected [1.0, 0.5]")
    probe.calibrate()
    expect(abs(probe.scale(1.0) * probe.samples[-1][1] - ref) < 1e-12, "scale() ignores the last calibration")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END,
           "end_to_end metrics differ from run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS,
           "per_layer metrics differ from tracing.py")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "inverse-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0, "run.py succeeded without the program's sources")
    expect('"metrics"' not in proc.stdout, "run.py printed a result without the program's sources")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    os.chdir(WORK)
    cli = worker.import_cli()
    build_inputs(cli)
    for name, test in [("failures repeat exactly across two runs", lambda: check_failures(measure_twice())),
                       ("a crash is not flagged by the program", lambda: check_crash(cli)),
                       ("output checks reject tampered outputs", lambda: check_checkers(cli)),
                       ("changed sources start a fresh digest record", check_source_digests),
                       ("speed factors use the calibrations around each request", check_speed_factors),
                       ("metric names match BENCHMARK.json", check_metric_names),
                       ("run.py fails without the program", check_bare_directory)]:
        test()
        print(f"ok  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
