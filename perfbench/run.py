"""clustersqueeze benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload bundle-write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each workload runs in fresh processes
(see ``worker.py``) with the BLAS thread count fixed through the
environment.  The run generates the workload's inputs from the seed, times
``setup_s`` in seven fresh processes (the measuring process itself, three
set-up probes before it and three after it) and reports the median.  The
measuring process replays a fixed number of whole passes of the workload's
requests: ``--seconds`` divided by the workload's pass time at the
reference speed of ``speed.py`` (its ``pass_seconds``), rounded, at least
one.  A run of one seed thus does the same work, and has the same
failures, on any machine; it measures about ``--seconds`` at the
reference speed.  Throughput, latencies and ``setup_s`` are wall times
scaled to the reference machine's speed (see ``speed.py``); the report
prints the unscaled figures too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
The lines before it name every metric with its unit, the workload, its
seed and generator parameters, and the machine.

``failed`` counts every request that exited nonzero, raised, failed an
output check, or whose output digest differs from an earlier run of the
same seed and the same sources in this checkout.  ``correct`` is false when
a request fails in a way the program did not flag itself (it raised, a
check computed here fails, an output is malformed, or a digest changed);
failures the program reports through its exit code or its own ``checks``
count in ``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 6
#: A run of one workload must end within this many seconds.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

class BenchError(Exception):
    pass


def worker(args: list[str], deadline: float) -> None:
    env = {**os.environ, **BLAS_ENV}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")


def percentile_note(n: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    if n < 10:
        return f"{n} samples, none with ten beyond it; p50 and p90 are interpolated"
    return f"{n} samples, p{int(100 * (1 - 10 / n))} is the highest with ten beyond it"


def latency(walls: list[float], pass_size: int) -> dict[str, float]:
    """Throughput (median over passes), p50 and interpolated p90 of `walls`."""
    passes = [sum(walls[k:k + pass_size]) for k in range(0, len(walls), pass_size)]
    return {
        "throughput_rps": statistics.median(pass_size / t for t in passes),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[-1] if len(walls) > 1 else walls[0],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    for old in WORK.glob(f"{workload}-*"):  # keep one run's inputs per workload on disk
        shutil.rmtree(old)
    work = WORK / f"{workload}-{seed}"
    work.mkdir(parents=True)
    began = time.monotonic()
    worker(["generate", str(work), workload, str(seed)], deadline)
    generate_s = time.monotonic() - began

    def probe(k):
        worker(["setup", str(work), str(work / f"setup{k}.json")], deadline)
        return json.loads((work / f"setup{k}.json").read_text())

    # Half the set-up probes run before the measuring process and half after
    # it, so the median spans the whole run rather than one moment of it.
    setups = [probe(k) for k in range(SETUP_PROBES // 2)]
    passes = max(1, round(seconds / WORKLOADS[workload]["pass_seconds"]))
    worker(["measure", str(work), str(work / "result.json"), str(passes), "1" if trace else "0",
            str(WORK / "digests.json")], deadline)
    record = json.loads((work / "result.json").read_text())
    setups.append(record["setup"])
    setups += [probe(k) for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
    walls = record["walls"]
    failed = len(record["failures"])
    record["generate_s"] = generate_s
    record["correct"] = all(flagged for _, _, flagged in record["failures"])
    record["failed"] = failed
    if trace:
        record["metrics"] = {name: (record["layers"][name], unit) for name, unit in LAYER_METRICS}
        return record
    scaled = [w * f for w, f in zip(walls, record["speed_factors"])]
    record["unscaled"] = latency(walls, record["pass_size"])
    values = {
        **latency(scaled, record["pass_size"]),
        "success_rate": (record["attempted"] - failed) / record["attempted"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    record["setups"] = setups
    record["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END}
    return record


def report(record: dict, trace: bool) -> None:
    env = record["environment"]
    name = record["workload"]
    print(f"workload {name}, seed {record['seed']}: closed loop, 1 client, in-process cli.main")
    print(f"  why: {WORKLOADS[name]['why']}")
    print(f"  generator: {json.dumps(WORKLOADS[name]['params'])}")
    print(f"  machine: nproc {env['nproc']} (affinity {env['affinity']}), BLAS {env['blas']}, "
          f"threads {env['blas_threads_env']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}")
    per_pass = record["failed"] / (record["attempted"] / record["pass_size"])
    print(f"  requests: {record['attempted']} attempted in {record['attempted'] // record['pass_size']} "
          f"passes of {record['pass_size']}; {record['failed']} failed ({per_pass:g} per pass), "
          f"error_rate {record['failed'] / record['attempted']:.6f} ratio; "
          f"input generation {record['generate_s']:.2f} s")
    if not trace:
        print(f"  latency: {percentile_note(len(record['walls']))}; setup samples "
              + ", ".join(f"{s['setup_s']:.4f}" for s in record["setups"]) + " s (unscaled "
              + ", ".join(f"{s['setup_wall_s']:.4f}" for s in record["setups"]) + " s)")
        factors = record["speed_factors"]
        print(f"  host speed factor: median {statistics.median(factors):.4f}, range "
              f"{min(factors):.4f}-{max(factors):.4f}; unscaled wall-clock "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    reasons: dict[str, int] = {}
    for _, reason, _ in record["failures"]:
        key = reason.split(":")[0] if reason.startswith("failed checks") else reason[:60]
        reasons[key] = reasons.get(key, 0) + 1
    for reason, count in sorted(reasons.items()):
        print(f"  failure x{count}: {reason}")
    for metric, (value, unit) in record["metrics"].items():
        print(f"  {metric:<42} {value:>16.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clustersqueeze" / "cli.py").is_file():
        print(f"error: no clustersqueeze sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        time.monotonic() + DEADLINE_S))
            report(records[-1], bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    print(result_line(all(r["correct"] for r in records), sum(r["attempted"] for r in records),
                      sum(r["failed"] for r in records), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
