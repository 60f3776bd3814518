"""One workload process: generate inputs, set up, or measure.

    python3 perfbench/worker.py generate WORK_DIR WORKLOAD SEED
    python3 perfbench/worker.py setup    WORK_DIR RESULT_JSON
    python3 perfbench/worker.py measure  WORK_DIR RESULT_JSON PASSES TRACE DIGESTS_JSON

``run.py`` starts each mode in a fresh interpreter with the BLAS thread
count already fixed in the environment.  The worker drives
``clustersqueeze.cli.main(argv)`` in-process as a closed loop with one
client: the next request starts only after the previous one has returned.
Only ``cli.main`` is inside the timed window.  Each output's digest is
taken right after its request; the outputs are checked after the last
request, so that the checks' time and memory stay out of the measurement.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# numpy, the program and the harness modules that use them are imported
# inside functions, so that set-up timing covers their import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """Import the CLI from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from clustersqueeze import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"clustersqueeze imported from {cli.__file__}, not {SRC}")
    return cli


def quiet_call(cli, argv: list[str]) -> int:
    """`cli.main(argv)` with its stderr diagnostics discarded."""
    saved = sys.stderr
    with open(os.devnull, "w", encoding="utf-8") as sink:
        sys.stderr = sink
        try:
            return cli.main(argv)
        finally:
            sys.stderr = saved


def output_name(argv: list[str]) -> str:
    return "out.csv" if argv[0] == "sweep" else "out.json"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def cmd_generate(work: Path, workload: str, seed: int) -> None:
    from workloads import generate

    cli = import_cli()
    os.chdir(work)
    manifest = generate(workload, seed, work, lambda argv: quiet_call(cli, argv))
    inputs = hashlib.sha256()
    for path in sorted(work.iterdir()):
        inputs.update(path.name.encode() + b"\0" + path.read_bytes())
    manifest["inputs_sha256"] = inputs.hexdigest()
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def set_up(work: Path):
    """Import the CLI and finish one warm-up request.

    Returns (cli module, manifest, {"setup_s": seconds at the reference
    machine's speed, "setup_wall_s": seconds taken}).  The host speed is
    calibrated right after the timed set-up.
    """
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    os.chdir(work)
    start = time.perf_counter()
    cli = import_cli()
    argv = manifest["warmup"] + ["--out", output_name(manifest["warmup"])]
    code = quiet_call(cli, argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"warm-up request exited {code}: {argv}")
    from speed import Speed

    speed = Speed()
    speed.calibrate()
    return cli, manifest, {"setup_s": speed.scale(elapsed), "setup_wall_s": elapsed}


def cmd_setup(work: Path, result: Path) -> None:
    _, _, setup = set_up(work)
    result.write_text(json.dumps(setup), encoding="utf-8")


def source_sha256(src: Path = SRC) -> str:
    """sha256 over the path and bytes of every source file under `src`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def digest_key(manifest: dict, src: Path = SRC) -> str:
    return f"{manifest['workload']}/{manifest['seed']}/{manifest['inputs_sha256']}/{source_sha256(src)}"


class Digests:
    """sha256 of each request's output, compared across runs of one seed.

    Keyed by workload, seed, a hash of the generated inputs and a hash of the
    program's sources, so outputs are compared only between runs of the same
    code on the same inputs: a change to the program or to the generator
    starts a fresh record instead of failing every request.
    """

    def __init__(self, path: Path, key: str):
        self.path = path
        self.store = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.seen = self.store.setdefault(key, {})

    def check(self, request_id: str, digest: str) -> str | None:
        known = self.seen.setdefault(request_id, digest)
        return None if known == digest else f"output digest {digest[:12]} differs from {known[:12]}"

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store), encoding="utf-8")
        tmp.replace(self.path)


def run_pass(cli, manifest, digests, attempts, tracer=None, speed=None):
    """Run every request of the pass once; return the request wall times.

    Each attempt is appended to `attempts` as (request, outcome, mismatch,
    kept): the exit code or the exception raised, the digest mismatch or
    None, and the file that keeps the output.  One file is kept per request
    and distinct output, and :func:`judge` checks them after the
    measurement, so the checks' time and memory stay out of it.

    With `speed`, the host speed is calibrated between requests (outside
    the timed window) and once more after the last one.
    """
    walls = []
    for number, request in enumerate(manifest["requests"]):
        out = output_name(request["argv"])
        if os.path.exists(out):
            os.remove(out)
        argv = request["argv"] + ["--out", out]
        if speed is not None:
            speed.before_request()
        if tracer is not None:
            tracer.request = number
        start = time.perf_counter()
        try:
            outcome = quiet_call(cli, argv)
        except Exception as exc:  # a crash is a failed request, not a harness error
            outcome = exc
        end = time.perf_counter()
        walls.append(end - start)
        if speed is not None:
            speed.requests.append((start, end))
        if tracer is not None:
            tracer.request = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
        else:
            digest = hashlib.sha256(b"").hexdigest()
        kept = f"kept-{number}-{digest[:16]}-{out}"
        if os.path.exists(out):
            os.replace(out, kept)
        attempts.append((request, outcome, digests.check(request["id"], digest), kept))
    if speed is not None:
        speed.calibrate()
    return walls


def judge(attempts) -> list[tuple[str, str, bool]]:
    """The failures among `attempts`, as (request id, reason, program_flagged).

    program_flagged is true only when the program reported the failure
    itself, through a nonzero exit code or its own checks.  Each kept
    output is checked once.
    """
    from checks import check_output
    from clustersqueeze import unitary_from_adjacency

    def read_input(name):
        return Path(name).read_text(encoding="utf-8")

    verdicts: dict[str, tuple[str, bool] | None] = {}
    failures = []
    for request, outcome, mismatch, kept in attempts:
        if isinstance(outcome, Exception):
            failure = (f"raised {type(outcome).__name__}: {outcome}", False)
        elif outcome != 0:
            failure = (f"exit {outcome}", True)
        elif mismatch is not None:
            failure = (mismatch, False)
        else:
            if kept not in verdicts:
                data = Path(kept).read_bytes() if os.path.exists(kept) else b""
                verdicts[kept] = check_output(request["check"], data, read_input, unitary_from_adjacency)
            failure = verdicts[kept]
        if failure is not None:
            failures.append((request["id"], *failure))
    return failures


def cmd_measure(work: Path, result: Path, count: int, trace: bool, digest_path: Path) -> None:
    cli, manifest, setup = set_up(work)
    from speed import Speed

    # Priming, outside the timed window and not counted: the first request
    # at the workload's size pays one-off first-touch costs that the small
    # warm-up request does not.
    first = manifest["requests"][0]["argv"]
    quiet_call(cli, first + ["--out", output_name(first)])
    digests = Digests(digest_path, digest_key(manifest))
    attempts: list[tuple] = []
    passes: list[list[float]] = []
    tracer = None
    speed = Speed()
    untraced: list[float] = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for _ in range(count):
        passes.append(run_pass(cli, manifest, digests, attempts, tracer, speed))
        if tracer is not None and not untraced:
            # The tracing-overhead baseline: one pass with the wrappers idle,
            # after the first traced pass has warmed every code path.
            untraced = run_pass(cli, manifest, digests, attempts)
    digests.save()
    # The high-water RSS of the requests, before the checks load outputs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [w for p in passes for w in p]
    record = {
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "passes": len(passes),
        "pass_size": len(manifest["requests"]),
        "walls": walls,
        "speed_factors": speed.factors(),
        "attempted": len(attempts),
        "failures": judge(attempts),
        "setup": setup,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, walls)
        layers["bench.traced_throughput_rps"] = len(walls) / sum(walls)
        # Compare warm with warm: leave out the first traced pass when there
        # are later ones, since it ran before the baseline pass.
        warm = [w for p in (passes[1:] or passes) for w in p]
        layers["bench.tracing_overhead"] = (len(untraced) / sum(untraced)) / (len(warm) / sum(warm)) - 1.0
        record["layers"] = layers
        with open("spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result.write_text(json.dumps(record), encoding="utf-8")


def main(argv: list[str]) -> None:
    mode, work = argv[0], Path(argv[1]).resolve()
    if mode == "generate":
        cmd_generate(work, argv[2], int(argv[3]))
    elif mode == "setup":
        cmd_setup(work, Path(argv[2]).resolve())
    elif mode == "measure":
        cmd_measure(work, Path(argv[2]).resolve(), int(argv[3]), argv[4] == "1",
                    Path(argv[5]).resolve())
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
