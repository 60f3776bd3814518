"""Byte audit: replay a fixed, seeded set of command-line requests on two
source trees and list every request whose output differs.

    python tools/byte_audit.py OLD_SRC NEW_SRC [--slice smoke|grid|full] [--work DIR]
                               [--threads OLD NEW]

OLD_SRC and NEW_SRC are directories that hold a ``clustersqueeze`` package
(a checkout's ``src``).  Each tree runs in a Python process of its own,
which imports the package from that tree alone and calls ``cli.main`` in
process for every request, in a work directory of its own, with BLAS at one
thread, or at the count ``--threads`` gives each side (1 or 2): one tree
on both sides at ``--threads 1 2`` lists the requests whose bytes depend
on the thread count.  The requests are the same for both trees: the graph,
phase and gauge files are written here from fixed seeds, and every bundle a
later request reads is written by the tree's own ``synthesize --out``
request, which is audited too.  For each request the audit compares the exit code,
stdout, stderr and the bytes of the ``--out`` file; it prints one line per
request that differs and exits 1 if any does, else 0.  A request's stderr
record holds every warning it raised, each shown however often the requests
before it raised it, ahead of what it printed; the tree's own path in it
reads ``<tree>``.

Slices, each containing the one before:

* ``smoke``: every command on both routes at N = 2 for the identity,
  faithful and custom gauges, at random phases and at zero phases (no
  ``--phases``), in JSON, text and CSV, plus edited bundles,
  malformed inputs, scales at and past the squeeze budget or so small
  that the faithful strengths overflow, a graph within the input tolerance of a
  perfect matching, a custom gauge P = 1 with -0.0 off its diagonal,
  also on a graph whose adjacency has -0.0 off its diagonal, and a graph of
  disjoint blocks, whose eigenvectors hold exact zeros;
* ``grid``: the same at N = 2, 12, 24 and 64, dense random graphs at both
  kinds of phases;
* ``full``: also every request of the seed-11 pass of the three perfbench
  workloads, their set-up ``synthesize`` requests and warm-ups included,
  built by ``perfbench/workloads.py``'s ``generate``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SLICES = ("smoke", "grid", "full")
SIZES = {"smoke": (2,), "grid": (2, 12, 24, 64), "full": (2, 12, 24, 64)}
SEED = 2020
PERFBENCH_SEED = 11
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# --------------------------------------------------------------------------
# inputs, written without the package so that both trees read the same bytes

def _matrix_json(m: np.ndarray) -> dict:
    obj = {"rows": m.shape[0], "cols": m.shape[1], "re": m.real.tolist()}
    if np.iscomplexobj(m):
        obj["im"] = m.imag.tolist()
    return obj


def _write_graph(path: Path, a: np.ndarray) -> None:
    rows, cols = np.nonzero(np.triu(a))
    edges = [f"{i} {j} {float(a[i, j])!r}" for i, j in zip(rows.tolist(), cols.tolist())]
    path.write_text("\n".join([str(a.shape[0]), *edges]) + "\n", encoding="utf-8")


def _compatible_gauge(rng, a: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """e^{-i Theta} (A + i)^{-1} S (A - i)^{-1} e^{i Theta} for a random real
    symmetric positive definite S, scaled to strengths within [0.05, 3.05]."""
    n = a.shape[0]
    eye = np.eye(n)
    m = rng.normal(size=(n, n))
    core = np.linalg.solve(a + 1j * eye, m @ m.T + 0.5 * eye) @ np.linalg.inv(a - 1j * eye)
    ph = np.exp(1j * theta)
    p = ph.conj()[:, None] * core * ph[None, :]
    p = (p + p.conj().T) / 2.0
    return p * (3.0 / float(np.linalg.eigvalsh(p)[-1])) + 0.05 * eye


# --------------------------------------------------------------------------
# replay: one tree, in its own process

class Replay:
    """Runs requests through one tree's ``cli.main`` and records each one."""

    def __init__(self, cli):
        self.cli = cli
        self.tree = str(Path(cli.__file__).resolve().parent.parent)
        self.records: dict[str, dict] = {}

    def run(self, rid: str, argv: list[str]) -> int:
        if rid in self.records:
            raise ValueError(f"duplicate request id {rid}")
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out is not None and os.path.exists(out):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is an outcome to compare
                code = f"{type(exc).__name__}: {exc}"
        shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line) for w in caught)
        record = {"argv": argv, "exit": code, "stdout": _digest(stdout.getvalue().encode()),
                  "stderr": (shown + stderr.getvalue()).replace(self.tree, "<tree>")}
        if out is not None:
            record["out"] = _digest(Path(out).read_bytes()) if os.path.exists(out) else None
        self.records[rid] = record
        return code if isinstance(code, int) else -1


def _digest(data: bytes) -> str:
    return f"{len(data)}:{hashlib.sha256(data).hexdigest()}"


def _grid(replay: Replay, n: int) -> None:
    """Every command on both routes for the three gauges on one graph, at
    random phases and at zero phases (no --phases), each with a custom
    gauge compatible at its phases."""
    rng = np.random.default_rng([SEED, n])
    a = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    a = a + np.triu(a, 1).T
    theta = rng.uniform(-math.pi, math.pi, n)
    z = float(rng.uniform(0.3, 1.5))
    graph, phases = f"g{n}.graph", f"g{n}.phases"
    _write_graph(Path(graph), a)
    Path(phases).write_text("".join(f"{t!r}\n" for t in theta.tolist()), encoding="utf-8")
    routes = (("", theta, ["--phases", phases]), ("zero-", np.zeros(n), []))
    for route, angles, phase_flags in routes:
        custom = f"g{n}.{route}custom.json"
        Path(custom).write_text(json.dumps(_matrix_json(_compatible_gauge(rng, a, angles))), encoding="utf-8")
        for gauge in ("identity", "faithful", "custom"):
            spec = f"custom:{custom}" if gauge == "custom" else gauge
            cluster = ["--graph", graph, *phase_flags, "--gauge", spec]
            flags = [*cluster, "-z", repr(z)]
            tag, bundle = f"{n}-{route}{gauge}", f"b{n}-{route}{gauge}.json"
            replay.run(f"{tag}/synthesize", ["synthesize", *flags, "--out", bundle])
            replay.run(f"{tag}/synthesize-text", ["synthesize", *flags, "--format", "text"])
            for command in ("verify", "decompose"):
                replay.run(f"{tag}/{command}-graph", [command, *flags])
                replay.run(f"{tag}/{command}-graph-text", [command, *flags, "--format", "text", "--out", "out.txt"])
            z_range = f"{z!r}:{z + 1.0!r}:0.25"
            for fmt in ("csv", "json", "text"):
                replay.run(f"{tag}/sweep-{fmt}", ["sweep", *cluster, "--z-range", z_range, "--format", fmt])
            for fmt in ("json", "text"):
                replay.run(f"{tag}/verify-bundle-{fmt}", ["verify", "--interaction", bundle, "--format", fmt])
                replay.run(f"{tag}/decompose-bundle-{fmt}",
                           ["decompose", "--interaction", bundle, "-z", repr(z), "--format", fmt])
                replay.run(f"{tag}/analyze-{fmt}",
                           ["analyze", "--interaction", bundle, "-z", repr(z), "--format", fmt])
            replay.run(f"{tag}/analyze-phases", ["analyze", "--interaction", bundle, "--phases", phases])


ASYMMETRIC_Z = {"rows": 2, "cols": 2, "re": [[0, 1], [0.5, 0]]}

#: bundle field -> edited value, each read by ``verify --interaction`` (and
#: ``analyze`` and ``decompose`` for Z): text, booleans, nulls, fractions,
#: integers past a double's range and lists where numbers belong, a theta of
#: the wrong rank, and an asymmetric adjacency or Z
EDITS = {
    "z-true": ("z", True),
    "z-text": ("z", "0.5"),
    "z-null": ("z", None),
    "z-list": ("z", [1.0]),
    "theta-text": ("theta", ["0.0", "0.0"]),
    "theta-false": ("theta", [False, False]),
    "theta-null": ("theta", [None, None]),
    "theta-2d": ("theta", [[0.0], [0.0]]),
    "theta-integer-overflow": ("theta", [10 ** 400, 0]),
    "adjacency-asymmetric": ("adjacency", {"rows": 2, "cols": 2, "re": [[0.0, 1.5], [1.0, 0.0]]}),
    "Z-asymmetric": ("Z", ASYMMETRIC_Z),
    "adjacency-re-text": ("adjacency", {"rows": 2, "cols": 2, "re": [["0.0", "1.0"], ["1.0", "0.0"]]}),
    "adjacency-rows-fraction": ("adjacency", {"rows": 2.7, "cols": 2, "re": [[0.0, 1.0], [1.0, 0.0]]}),
    "adjacency-rows-text": ("adjacency", {"rows": "2", "cols": 2, "re": [[0.0, 1.0], [1.0, 0.0]]}),
    "P-re-boolean": ("P", {"rows": 2, "cols": 2, "re": [[True, False], [False, True]]}),
    "adjacency-bool": ("adjacency", {"rows": 2, "cols": 2, "re": [[True, 1.0], [1.0, 0.0]]}),
    "Z-re-text": ("Z", {"rows": 2, "cols": 2, "re": [["0.0", "-1.0"], ["-1.0", "0.0"]]}),
    "theta-three": ("theta", [0.0, 0.0, 0.0]),
    "P-3x3": ("P", _matrix_json(np.eye(3))),
}


#: graph text -> argv after ``--graph``: weights whose squares overflow
OVERFLOW = {
    "1e155-verify": ("2\n0 1 1e155\n", ["verify"]),
    "1e155-synthesize-faithful": ("2\n0 1 1e155\n", ["synthesize", "--gauge", "faithful", "-z", "0.5"]),
    "1.5e308-verify": ("2\n0 1 1.5e308\n", ["verify"]),
}


def _edits(replay: Replay) -> None:
    """Edited EPR bundles, a bare asymmetric Z, a custom gauge of the wrong
    size, sweep ranges whose START rounds to 0 or that ask for 100 001 rows,
    scales at and past the squeeze budget and a subnormal faithful one,
    graphs whose weights' squares overflow, a graph whose A A is within the input
    tolerance of 1 without equalling it, and a custom gauge P = 1 stored
    with -0.0 off its diagonal on EPR, a random graph and a graph of
    self-loops and -0.0 edges, whose adjacency is diagonal in value but not
    in bits, and both built-in gauges on a graph of disjoint blocks, whose
    eigenvectors hold exact zeros."""
    Path("epr.graph").write_text("2\n0 1 1.0\n", encoding="utf-8")
    replay.run("edit/synthesize", ["synthesize", "--graph", "epr.graph", "--out", "epr.json"])
    bundle = json.loads(Path("epr.json").read_text(encoding="utf-8"))
    for name, (field, value) in EDITS.items():
        path = f"epr-{name}.json"
        Path(path).write_text(json.dumps({**bundle, field: value}, indent=2) + "\n", encoding="utf-8")
        replay.run(f"edit/{name}/verify", ["verify", "--interaction", path])
        if field == "Z":
            for command in ("analyze", "decompose"):
                replay.run(f"edit/{name}/{command}", [command, "--interaction", path])
    Path("z-asymmetric.json").write_text(json.dumps(ASYMMETRIC_Z), encoding="utf-8")
    for command in ("analyze", "decompose"):
        replay.run(f"z-asymmetric/{command}", [command, "--interaction", "z-asymmetric.json"])
    Path("p3.json").write_text(json.dumps(_matrix_json(np.eye(3))), encoding="utf-8")
    replay.run("custom-gauge-3x3/verify", ["verify", "--graph", "epr.graph", "--gauge", "custom:p3.json"])
    for name, z_range in (("start-rounds-to-0", "1e-13:0.3:0.1"), ("100001-rows", "1e-4:10.0001:1e-4"),
                          ("past-z-cap", "1:40:1")):
        replay.run(f"sweep-range/{name}", ["sweep", "--graph", "epr.graph", "--z-range", z_range])
    replay.run("scale/verify-past-z-cap", ["verify", "--graph", "epr.graph", "-z", "30.001"])
    for command in ("synthesize", "verify", "decompose", "sweep", "analyze"):  # z lambda_max = Z_CAP
        route = ["--interaction", "epr.json"] if command == "analyze" else ["--graph", "epr.graph"]
        replay.run(f"scale/{command}-epr-z-30", [command, *route, "-z", "30"])
    for command in ("analyze", "decompose"):  # a bare Z meets the budget as a graph does
        replay.run(f"scale/{command}-z-100", [command, "--interaction", "epr.json", "-z", "100"])
    replay.run("scale/verify-faithful-subnormal",
               ["verify", "--graph", "epr.graph", "--gauge", "faithful", "-z", "1e-320"])
    for name, (text, argv) in OVERFLOW.items():
        Path(f"{name}.graph").write_text(text, encoding="utf-8")
        replay.run(f"overflow/{name}", [*argv, "--graph", f"{name}.graph"])
    Path("near.graph").write_text("2\n0 1 1.00000000000004\n", encoding="utf-8")
    for z in ("0.5", "1", "2"):
        flags = ["--graph", "near.graph", "-z", z]
        replay.run(f"near-matching/synthesize-{z}", ["synthesize", *flags, "--out", "near.json"])
        replay.run(f"near-matching/verify-{z}", ["verify", *flags])
        replay.run(f"near-matching/verify-bundle-{z}", ["verify", "--interaction", "near.json"])
    rng = np.random.default_rng([SEED, 12, 0])
    a = np.triu(rng.uniform(-1.0, 1.0, (12, 12)))
    _write_graph(Path("minus-zero12.graph"), a + np.triu(a, 1).T)
    # self-loops and -0.0 edges: an adjacency diagonal in value, not in bits
    loops = [f"{i} {i} {w!r}" for i, w in enumerate(rng.uniform(-1.0, 1.0, 12).tolist())]
    Path("loops12.graph").write_text("\n".join(["12", *loops, *(f"{i} {i + 1} -0.0" for i in range(11))]) + "\n",
                                     encoding="utf-8")
    for name, graph, n in (("epr", "epr.graph", 2), ("12", "minus-zero12.graph", 12),
                           ("loops12", "loops12.graph", 12)):
        p = np.full((n, n), -0.0)
        p[np.diag_indices(n)] = 1.0
        Path(f"minus-zero-p{n}.json").write_text(json.dumps(_matrix_json(p)), encoding="utf-8")
        flags = ["--graph", graph, "--gauge", f"custom:minus-zero-p{n}.json", "-z", "0.6"]
        bundle = f"minus-zero-{name}.json"
        replay.run(f"minus-zero-gauge/{name}/synthesize", ["synthesize", *flags, "--out", bundle])
        replay.run(f"minus-zero-gauge/{name}/decompose", ["decompose", *flags])
        replay.run(f"minus-zero-gauge/{name}/verify-bundle", ["verify", "--interaction", bundle])
    # disjoint blocks at zero phases: eigh's Q holds -0.0, and the real frame
    # F = Q must publish T = F^dagger and V as the phased route did
    Path("blocks6.graph").write_text("6\n0 1 1.0\n2 3 -0.5\n4 4 0.7\n", encoding="utf-8")
    for gauge in ("identity", "faithful"):
        for command in ("synthesize", "decompose"):
            replay.run(f"blocks6/{gauge}/{command}",
                       [command, "--graph", "blocks6.graph", "--gauge", gauge, "-z", "0.7"])


def _perfbench(replay: Replay, work: Path) -> None:
    """The seed-11 pass of every perfbench workload, as its worker runs it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, generate

    for workload in WORKLOADS:
        (work / workload).mkdir()
        os.chdir(work / workload)
        setups = itertools.count()
        manifest = generate(workload, PERFBENCH_SEED, work / workload,
                            lambda argv: replay.run(f"{workload}/setup-{next(setups)}", argv))
        requests = [{"id": "warmup", "argv": manifest["warmup"]}] + manifest["requests"]
        for request in requests:
            out = "out.csv" if request["argv"][0] == "sweep" else "out.json"
            replay.run(f"{workload}/{request['id']}", [*request["argv"], "--out", out])
        os.chdir(work)


def replay(src: Path, work: Path, slice_name: str) -> None:
    """Replay ``slice_name`` on the tree ``src`` in ``work``; write the
    records to ``work/records.json``."""
    sys.path.insert(0, str(src))
    from clustersqueeze import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"clustersqueeze imported from {cli.__file__}, not {src}")
    work.mkdir(parents=True)
    work = work.resolve()
    os.chdir(work)
    player = Replay(cli)
    for n in SIZES[slice_name]:
        _grid(player, n)
    _edits(player)
    if slice_name == "full":
        _perfbench(player, work)
    (work / "records.json").write_text(json.dumps(player.records, indent=1), encoding="utf-8")


# --------------------------------------------------------------------------
# comparison

def compare(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per request whose records differ, or that only one tree ran."""
    lines = []
    for rid in list(old) + [rid for rid in new if rid not in old]:
        if rid not in old or rid not in new:
            lines.append(f"{rid}: only in the {'old' if rid in old else 'new'} tree")
            continue
        a, b = old[rid], new[rid]
        what = [key for key in ("exit", "stdout", "stderr", "out") if a.get(key) != b.get(key)]
        if what:
            detail = f" (exit {a['exit']} -> {b['exit']})" if "exit" in what else ""
            lines.append(f"{rid}: {', '.join(what)} differ{detail}")
            lines += [f"    {side} stderr: {r['stderr'].strip()}" for side, r in (("old", a), ("new", b))
                      if "stderr" in what and r["stderr"]]
    return lines


def _run_tree(src: Path, work: Path, slice_name: str, threads: int) -> dict[str, dict]:
    env = {**os.environ, **{name: str(threads) for name in BLAS_THREADS}}
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(Path(__file__).resolve()), "--replay", str(src.resolve()), str(work), slice_name]
    subprocess.run(command, env=env, check=True)
    return json.loads((work / "records.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--replay"]:  # the process of one tree: SRC WORK SLICE
        replay(Path(argv[1]), Path(argv[2]), argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree holding clustersqueeze (e.g. a checkout's src)")
    parser.add_argument("new", type=Path, help="the other source tree")
    parser.add_argument("--slice", choices=SLICES, default="full")
    parser.add_argument("--work", type=Path, default=None, help="keep the work files here (default: a temp dir)")
    parser.add_argument("--threads", type=int, nargs=2, choices=(1, 2), default=(1, 1), metavar=("OLD", "NEW"),
                        help="BLAS threads of each side, 1 or 2 (default: 1 1)")
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "clustersqueeze" / "cli.py").is_file():
            parser.error(f"no clustersqueeze package under {src}")
    work = (args.work or Path(tempfile.mkdtemp(prefix="byte-audit-"))).resolve()
    try:
        old = _run_tree(args.old, work / "old", args.slice, args.threads[0])
        new = _run_tree(args.new, work / "new", args.slice, args.threads[1])
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    lines = compare(old, new)
    print("\n".join(lines + [f"byte audit ({args.slice}): {len(set(old) | set(new))} requests, "
                             f"{sum(not line.startswith(' ') for line in lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
