"""Workload definitions and seeded input generation.

Each workload is a fixed *pass*: a list of CLI requests built from the seed.
A run replays a fixed number of passes, so the request mix, every count and
every failure are identical in every run of one seed, whatever the
machine's speed.  The seed draws the values (weights, phases, small
offsets of z); the structure that sets a request's cost (command, gauge,
N, the z grid) is the same for every seed, so runs of different seeds do
the same amount of work.

The program sees only the files written here: graph files, phase files and,
for ``inverse-small``, bundles the program's own ``synthesize --out`` wrote
at set-up.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Largest z * lambda_max the seed library accepts.  Fixed here, not read
#: from the program, so every commit is measured on the same inputs.
Z_CAP = 30.0
#: Share of a grid cell by which the seed moves each grid value.
JITTER = 0.1
GRID_NOTE = f"one value per cell of an even grid, moved by the seed within {JITTER:g} of the cell"

WORKLOADS = {
    "bundle-write": {
        "why": (
            "synthesize --out and decompose --graph --out on dense random "
            "graphs at N=192. Most of each request goes to JSON encoding and "
            "writing the output (about 11 MB for synthesize), so serializer "
            "changes show here."
        ),
        "params": {
            "n": 192,
            "graphs": 6,
            "weights": "uniform[-1, 1], dense, self-loops",
            "z": [0.3, 2.0],
            "z_spacing": GRID_NOTE,
            "pass": "4 synthesize, 2 decompose, gauges alternating in each",
        },
        "pass_seconds": 5.1,
    },
    "verify-dense": {
        "why": (
            "verify --graph and sweep --graph at N=320. Time goes to dense "
            "factorizations, the oracle expm and Bloch-Messiah; each output "
            "is about 3 KB, so this is the control for serializer changes. "
            "The faithful gauge gives 320 1x1 Takagi blocks, the identity "
            "gauge one block, so alternating gauges uses both Bloch-Messiah "
            "paths."
        ),
        "params": {
            "n": 320,
            "graphs": 6,
            "weights": "uniform[-1, 1], dense, self-loops",
            "z": [0.3, 2.0],
            "z_spacing": GRID_NOTE,
            "sweep_points": 3,
            "pass": "4 verify, 2 sweep, gauges alternating in each",
        },
        "pass_seconds": 7.7,
    },
    "inverse-small": {
        "why": (
            "analyze, verify --interaction and decompose --interaction on "
            "bundles built at set-up, N spread evenly over [2, 64]. Per-call Python "
            "overhead, the bundle read path and the phase search dominate; "
            "BLAS does little. Isolated nodes at phase +-pi/2 force the "
            "phase search. A high-z stratum (z * lambda_max up to z_cap) "
            "makes false verify failures show in the error rate."
        ),
        "params": {
            "n": [2, 64],
            "n_spacing": "even within each stratum, ascending, same sizes for every seed",
            "bundles": {"epr": 2, "ring12": 2, "isolated": 8, "random": 18, "high_z": 10},
            "isolated_nodes": "1 + N // 8",
            "density": [0.2, 1.0],
            "weights": "uniform[-1, 1]",
            "z": [0.3, 2.0],
            "high_z_headroom": [0.3, 0.98 * Z_CAP],
            "z_density_headroom_spacing": GRID_NOTE,
            "pass": "analyze, verify, decompose per bundle; gauges alternate by bundle",
        },
        "pass_seconds": 2.9,
    },
}

#: Offsets keep the three workloads' random streams apart for one seed.
_STREAM = {"bundle-write": 1, "verify-dense": 2, "inverse-small": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


def dense_graph(rng, n: int, density: float = 1.0) -> np.ndarray:
    """Random symmetric weights in [-1, 1]; each pair kept with `density`."""
    a = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    if density < 1.0:
        a = np.where(np.triu(rng.uniform(size=(n, n))) < density, a, 0.0)
    return a + np.triu(a, 1).T


def ring_graph(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def write_graph(path: Path, a: np.ndarray) -> None:
    """Graph file: mode count, then `i j w` for each nonzero upper entry."""
    n = a.shape[0]
    lines = [str(n)]
    rows, cols = np.nonzero(np.triu(a))
    lines += [f"{i} {j} {float(a[i, j])!r}" for i, j in zip(rows.tolist(), cols.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_phases(path: Path, theta) -> None:
    path.write_text("".join(f"{float(t)!r}\n" for t in theta), encoding="utf-8")


def faithful_offset(a: np.ndarray) -> float:
    """ln(1 + rho(A)^2) / 2: the faithful gauge has z * lambda_max(P) = z + this."""
    rho = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return 0.5 * math.log1p(rho * rho)


def _z_grid(start: float, step: float, points: int) -> str:
    return f"{start!r}:{start + step * (points - 1) + step / 4!r}:{step!r}"


def generate(workload: str, seed: int, work: Path, run_cli) -> dict:
    """Write the inputs of one workload into `work`; return the manifest.

    `run_cli(argv)` runs one program request (used to build bundles at
    set-up); it must return the exit code.
    """
    rng = _rng(workload, seed)
    build = {
        "bundle-write": _bundle_write,
        "verify-dense": _verify_dense,
        "inverse-small": _inverse_small,
    }[workload]
    requests, warmup = build(rng, work, run_cli)
    return {
        "workload": workload,
        "seed": seed,
        "why": WORKLOADS[workload]["why"],
        "params": WORKLOADS[workload]["params"],
        "warmup": warmup,
        "requests": requests,
    }


# Each pass holds twice as many of the main command as of the other one, so
# the median falls inside one latency cluster instead of in the gap between
# two equal halves; gauges alternate within each command.
_BUNDLE_CYCLE = [("synthesize", "identity"), ("synthesize", "faithful"), ("decompose", "identity"),
                 ("synthesize", "identity"), ("synthesize", "faithful"), ("decompose", "faithful")]
_VERIFY_CYCLE = [("verify", "identity"), ("verify", "faithful"), ("sweep", "faithful"),
                 ("verify", "identity"), ("verify", "faithful"), ("sweep", "identity")]


def _small_warmup_graph(rng, work: Path) -> str:
    write_graph(work / "warm.graph", dense_graph(rng, 8))
    return "warm.graph"


def _bundle_write(rng, work: Path, run_cli):
    p = WORKLOADS["bundle-write"]["params"]
    requests = []
    for k, z in enumerate(_grid(rng, p["graphs"], *p["z"])):
        name = f"g{k}.graph"
        write_graph(work / name, dense_graph(rng, p["n"]))
        command, gauge = _BUNDLE_CYCLE[k % len(_BUNDLE_CYCLE)]
        argv = [command, "--graph", name, "--gauge", gauge, "-z", repr(z)]
        requests.append({"id": f"{command}-{gauge}-{k}", "argv": argv, "check": {"kind": "checks"}})
    warm = _small_warmup_graph(rng, work)
    return requests, ["synthesize", "--graph", warm, "-z", "1.0"]


def _verify_dense(rng, work: Path, run_cli):
    p = WORKLOADS["verify-dense"]["params"]
    lo, hi = p["z"]
    span = (hi - lo) / 2  # each sweep covers half of the z range
    step = span / (p["sweep_points"] - 1)
    cycle = [_VERIFY_CYCLE[k % len(_VERIFY_CYCLE)] for k in range(p["graphs"])]
    verify_z = iter(_grid(rng, sum(c == "verify" for c, _ in cycle), lo, hi))
    sweep_start = iter(_grid(rng, sum(c == "sweep" for c, _ in cycle), lo, hi - span))
    requests = []
    for k, (command, gauge) in enumerate(cycle):
        name = f"g{k}.graph"
        write_graph(work / name, dense_graph(rng, p["n"]))
        if command == "verify":
            z = next(verify_z)
            argv = ["verify", "--graph", name, "--gauge", gauge, "-z", repr(z)]
            check = {"kind": "verify"}
        else:
            start = next(sweep_start)
            argv = ["sweep", "--graph", name, "--gauge", gauge,
                    "--z-range", _z_grid(start, step, p["sweep_points"])]
            check = {"kind": "sweep", "graph": name, "gauge": gauge,
                     "start": start, "step": step, "points": p["sweep_points"]}
        requests.append({"id": f"{command}-{gauge}-{k}", "argv": argv, "check": check})
    warm = _small_warmup_graph(rng, work)
    return requests, ["verify", "--graph", warm, "-z", "1.0"]


def _sizes(count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes evenly spaced over [lo, hi], ascending, for every seed."""
    return [int(v) for v in np.round(np.linspace(lo, hi, count)).astype(int)]


def _grid(rng, count: int, lo: float, hi: float) -> list[float]:
    """One value in each of `count` equal cells of [lo, hi], in order.

    The seed moves each value by at most JITTER / 2 of a cell from the
    cell's centre, so every seed gets inputs of the same cost.
    """
    width = (hi - lo) / count
    return [lo + width * (k + 0.5 + JITTER * float(rng.uniform(-0.5, 0.5))) for k in range(count)]


def _inverse_small(rng, work: Path, run_cli):
    p = WORKLOADS["inverse-small"]["params"]
    lo_n, hi_n = p["n"]
    sizes = {stratum: iter(_sizes(p["bundles"][stratum], lo, hi_n))
             for stratum, lo in (("isolated", max(lo_n, 3)), ("random", lo_n), ("high_z", lo_n))}
    densities = {stratum: iter(_grid(rng, p["bundles"][stratum], *p["density"]))
                 for stratum in ("isolated", "random", "high_z")}
    targets = iter(_grid(rng, p["bundles"]["high_z"], *p["high_z_headroom"]))
    specs = []  # (stratum, adjacency, theta, gauge, z)
    for _ in range(p["bundles"]["epr"]):
        specs.append(("epr", np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), None, None))
    for _ in range(p["bundles"]["ring12"]):
        specs.append(("ring12", ring_graph(12), np.zeros(12), None, None))
    for _ in range(p["bundles"]["isolated"]):
        n = next(sizes["isolated"])
        a = dense_graph(rng, n, next(densities["isolated"]))
        isolated = rng.choice(n, size=1 + n // 8, replace=False)
        a[isolated, :] = 0.0
        a[:, isolated] = 0.0
        theta = rng.uniform(-math.pi, math.pi, n)
        theta[isolated] = rng.choice([-math.pi / 2, math.pi / 2], size=isolated.size)
        specs.append(("isolated", a, theta, None, None))
    for _ in range(p["bundles"]["random"]):
        n = next(sizes["random"])
        a = dense_graph(rng, n, next(densities["random"]))
        specs.append(("random", a, rng.uniform(-math.pi, math.pi, n), None, None))
    for k in range(p["bundles"]["high_z"]):
        n = next(sizes["high_z"])
        a = dense_graph(rng, n, next(densities["high_z"]))
        gauge = "identity" if k % 2 == 0 else "faithful"
        target = next(targets)
        z = target if gauge == "identity" else target - faithful_offset(a)
        if z < p["z"][0]:  # the faithful gauge alone uses up the headroom
            gauge, z = "identity", target
        specs.append(("high_z", a, rng.uniform(-math.pi, math.pi, n), gauge, z))

    z_grid = iter(_grid(rng, sum(1 for spec in specs if spec[4] is None), *p["z"]))
    requests = []
    for k, (stratum, a, theta, gauge, z) in enumerate(specs):
        gauge = gauge or ("identity" if k % 2 == 0 else "faithful")
        z = float(z if z is not None else next(z_grid))
        stem = f"b{k}"
        write_graph(work / f"{stem}.graph", a)
        write_phases(work / f"{stem}.phases", theta)
        argv = ["synthesize", "--graph", f"{stem}.graph", "--phases", f"{stem}.phases",
                "--gauge", gauge, "-z", repr(z), "--out", f"{stem}.json"]
        code = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up synthesize exited {code}: {argv}")
        bundle = f"{stem}.json"
        tag = f"{stratum}-{gauge}-{k}"
        requests += [
            {"id": f"analyze-{tag}", "argv": ["analyze", "--interaction", bundle, "-z", repr(z)],
             "check": {"kind": "analyze", "bundle": bundle}},
            {"id": f"verify-{tag}", "argv": ["verify", "--interaction", bundle],
             "check": {"kind": "verify"}},
            {"id": f"decompose-{tag}", "argv": ["decompose", "--interaction", bundle, "-z", repr(z)],
             "check": {"kind": "checks"}},
        ]
    return requests, ["analyze", "--interaction", "b0.json"]
