"""Command-line interface.

Subcommands::

    synthesize   graph + gauge + z  ->  bundle {Z, P, U, X, Y, C, spectrum}
    analyze      interaction matrix ->  phases + adjacency + covariance
    decompose    interaction or graph -> squeezers + interferometers
    verify       bundle or graph    ->  full invariant battery (exit 1 on fail)
    sweep        graph + z range    ->  CSV of covariance norms vs z

A command rejects every flag it would ignore (exit 2): --interaction and
--graph exclude each other, --phases and --gauge belong to the graph route,
a bundle given to verify fixes z, only sweep takes --z-range and csv, and
only synthesize and analyze take --seed.

Matrices are serialized as ``{"rows": N, "cols": M, "re": [[...]], "im":
[[...]]}`` with ``im`` omitted for real matrices; numbers use the shortest
representation that round-trips a double.  JSON output is byte-identical to
``json.dumps(obj, indent=2)``; each flat list of numbers is formatted by one
call of the C encoder and then re-indented.  Graph files use the text format
described in :mod:`clustersqueeze.graphs`; phase files hold one angle per
line (``#`` comments allowed).

Each check record holds ``name``, ``residual``, ``tolerance`` and
``passed``; the tolerance is the budget that the request's
:class:`~clustersqueeze.tolerances.ErrorModel` derives for that check, so no
option sets it.

Exit codes: 0 success, 1 failed verification checks, 2 input/parse errors
(a malformed file or bundle field, or a gauge of the wrong shape), 3 rejected
gauge (incompatible, not Hermitian, not positive definite or numerically
singular), 4 numerical failure, 5 exhausted phase search.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, blochmessiah, oracle, synthesis
from .errors import (
    ClusterSqueezeError,
    DimensionMismatch,
    GaugeIncompatible,
    GraphFormatError,
    NotHermitian,
    NotPositiveDefinite,
    SearchExhausted,
)
from .graphs import format_graph, parse_graph, phase_vector
from .matfun import max_abs, symmetry_defect, unitarity_defect
from .tolerances import DEFAULT_TOLERANCES, ErrorModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_GAUGE = 3
EXIT_NUMERICAL = 4
EXIT_SEARCH = 5


class _InputError(Exception):
    """Wrapper for file/JSON problems mapped to the input exit code."""


# --------------------------------------------------------------------------
# serialization

def matrix_to_json(m) -> dict:
    """Complex-matrix JSON object; 'im' omitted when all entries are real."""
    a = np.asarray(m)
    out = {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": np.real(a).astype(float, copy=False).tolist(),
    }
    if np.iscomplexobj(a) and float(np.max(np.abs(a.imag))) != 0.0:
        out["im"] = a.imag.astype(float, copy=False).tolist()
    return out


def matrix_from_json(obj, path: str | None = None) -> np.ndarray:
    """The matrix of a JSON object; a malformed object or a NaN or infinite
    entry is an input error, naming ``path`` when given."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        m = np.asarray(obj["re"], dtype=float)
        if m.shape != (rows, cols):
            raise ValueError(f"'re' block has shape {m.shape}, not ({rows}, {cols})")
        if "im" in obj:
            im = np.asarray(obj["im"], dtype=float)
            if im.shape != (rows, cols):
                raise ValueError("'im' block shape mismatch")
            m = m + 1j * im
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        return m
    except (KeyError, TypeError, ValueError) as exc:
        where = f"{path}: " if path else ""
        raise _InputError(f"{where}malformed matrix object: {exc}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON ({exc})") from None


def _checked(what: str, build, *args):
    """``build(*args)``, its input checks' ``ValueError`` an input error about
    ``what``; library errors and ``LinAlgError`` stay numerical failures."""
    try:
        return build(*args)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise _InputError(f"{what}: {exc}") from None


def load_interaction(path: str) -> synthesis.InteractionMatrix:
    """Read an interaction matrix from a matrix JSON file or a bundle."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise _InputError(f"{path}: expected a JSON object")
    if "Z" in obj and "re" not in obj:
        obj = obj["Z"]
    return _checked(path, synthesis.InteractionMatrix.from_matrix, matrix_from_json(obj, path))


def load_phases(spec: str, n: int) -> np.ndarray:
    """--phases value: the literal 'zero' or a path to an angle-per-line file."""
    if spec == "zero":
        return np.zeros(n)
    values = []
    for lineno, raw in enumerate(_read_text(spec).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise _InputError(
                f"{spec} line {lineno}: {line!r} is not an angle"
            ) from None
    if len(values) != n:
        raise _InputError(f"{spec}: expected {n} angles, found {len(values)}")
    return _checked(spec, phase_vector, values, n)


def _load_gauge(spec: str | None):
    """--gauge value (default identity): the name for the report and the
    selector of :meth:`~clustersqueeze.synthesis.ClusterPlan.interaction`,
    'identity', 'faithful' or the matrix in custom:PATH."""
    spec = "identity" if spec is None else spec
    if spec in ("identity", "faithful"):
        return spec, spec
    if spec.startswith("custom:"):
        path = spec[len("custom:"):]
        return "custom", matrix_from_json(_load_json(path), path)
    raise _InputError(
        f"unknown gauge {spec!r}; use identity, faithful or custom:PATH"
    )


def _load_cluster(args):
    """The plan of the cluster in --graph at --phases, and :func:`_load_gauge`
    of --gauge."""
    if args.graph is None:
        raise _InputError("provide --interaction or --graph")
    a = parse_graph(_read_text(args.graph))
    theta = load_phases(args.phases or "zero", a.shape[0])
    return (synthesis.ClusterPlan.of(a, theta), *_load_gauge(args.gauge))


# --------------------------------------------------------------------------
# check battery: rows (name, residual) judged by the request's ErrorModel

def core_battery(cluster, gauge, z, gauge_name: str) -> tuple[list[dict], dict]:
    """Invariant checks shared by synthesize and verify, for a ``gauge``
    selector of the cluster plan; ``gauge_name`` picks the gauge's own rows.

    Returns (checks, computed) where computed holds the freshly built
    objects for serialization or deeper comparison, and the error model the
    checks were judged by.
    """
    a = cluster.A
    eye = np.eye(a.shape[0])
    zm, check = cluster.interaction(gauge, z)
    pair = synthesis.bogoliubov_from_interaction(zm, z)
    closed = synthesis.covariance_closed_form(cluster, zm, z)
    model = ErrorModel.for_cluster(cluster, zm, z, check.scale)
    brute = oracle.covariance_oracle(cluster, zm, z)
    spectrum = synthesis.squeezer_spectrum(zm, z)

    defect_one, defect_two = pair.defects()
    decay = math.exp(-2.0 * z)
    rows = [
        ("gauge_condition", check.residual),
        ("interaction_symmetric", zm.asymmetry),
        ("polar_product", max_abs(zm.P @ zm.U - zm.Z) / max(1.0, max_abs(zm.Z))),
        ("structure_unitary", unitarity_defect(zm.U)),
        ("structure_symmetric", symmetry_defect(zm.U)),
        ("bogoliubov_unitary_defect", defect_one),
        ("bogoliubov_symmetry_defect", defect_two),
        ("covariance_real", closed.imag_residual),
        ("covariance_psd", max(0.0, -float(np.linalg.eigvalsh(closed.C)[0]))),
        ("covariance_factor", max_abs(closed.C - closed.E @ closed.E.conj().T)),
        ("covariance_vs_oracle", max_abs(closed.C - brute.C)),
        ("oracle_overlap", brute.overlap),
    ]
    if gauge_name == "faithful":
        rows.append(("faithful_gauge_identity", max_abs(closed.C - decay * eye)))
    if gauge_name == "identity":
        rows.append(("uniform_gauge_formula", max_abs(closed.C - (a @ a + eye) * decay)))
        if max_abs(a @ a - eye) <= DEFAULT_TOLERANCES.input_asymmetry:
            rows.append(("self_inverse_value", max_abs(closed.C - 2.0 * decay * eye)))
    computed = dict(zm=zm, pair=pair, closed=closed, spectrum=spectrum, model=model)
    return model.checks(rows), computed


def _reduction_rows(zm, pair, factors) -> list[tuple[str, float]]:
    """Bloch-Messiah rows of verify and decompose."""
    x_rec, y_rec = factors.reconstruct()
    return [
        ("blochmessiah_x", max_abs(x_rec - pair.X)),
        ("blochmessiah_y", max_abs(y_rec - pair.Y)),
        ("interferometer_identity", max_abs(1j * factors.V @ factors.V.T - zm.U)),
    ]


def deep_battery(cluster, gauge, z, gauge_name: str) -> tuple[list[dict], dict]:
    """Core battery plus interferometer-reduction checks (verify command).

    Returns (checks, computed) with computed as in :func:`core_battery`; its
    model now carries the grouping Bloch-Messiah resolved.
    """
    checks, computed = core_battery(cluster, gauge, z, gauge_name)
    zm = computed["zm"]
    factors = blochmessiah.bloch_messiah(zm, z)
    model = computed["model"] = computed["model"].with_reduction(factors)
    rows = _reduction_rows(zm, computed["pair"], factors) + [
        ("cluster_condition", blochmessiah.cluster_condition_residual(factors.V, cluster)),
        ("squeezer_match", float(np.max(np.abs(np.sort(factors.D) - np.sort(zm.strengths))))),
    ]
    return checks + model.checks(rows), computed


# --------------------------------------------------------------------------
# output helpers

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, for string-keyed objects.

    The pure-Python encoder that ``indent`` selects formats every number in
    Python; here a list holding only floats and ints is encoded by one call
    of the C encoder (same ``float.__repr__``, same ``NaN``/``Infinity``)
    and its ``", "`` separators are turned into indented line breaks.
    """
    chunks: list[str] = []
    _write_json(obj, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _write_json(obj, newline: str, chunks: list[str]) -> None:
    """Append ``obj`` laid out as ``indent=2`` does; ``newline`` ends in its indent."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        brackets = "{}"
        items = [(json.dumps(key) + ": ", value) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= {float, int}:
            flat = json.dumps(obj)
            chunks.append("[" + inner + flat[1:-1].replace(", ", "," + inner) + newline + "]")
            return
        brackets = "[]"
        items = [("", value) for value in obj]
    else:
        chunks.append(json.dumps(obj))  # scalars and empty containers
        return
    separator = brackets[0] + inner
    for prefix, value in items:
        chunks.append(separator + prefix)
        _write_json(value, inner, chunks)
        separator = "," + inner
    chunks.append(newline + brackets[1])


def _summarize_checks(checks: list[dict]) -> list[str]:
    lines = []
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(
            f"  [{status}] {c['name']}: residual {c['residual']:.3e} "
            f"(tolerance {c['tolerance']:.1e})"
        )
    return lines


# --------------------------------------------------------------------------
# commands

def _scale(value, what: str) -> float:
    """A squeezing scale: a positive finite number, else an input error about ``what``."""
    try:
        if 0 < float(value) < math.inf:
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise _InputError(f"{what} must be positive and finite")


def _z(args) -> float:
    """-z value, 1.0 when absent."""
    return _scale(1.0 if args.z is None else args.z, "-z")


def _z_range(args) -> list[float]:
    """sweep's --z-range START:STOP:STEP, or the single -z value."""
    if args.z_range is None:
        return [_z(args)]
    if args.z is not None:
        raise _InputError("use either -z or --z-range, not both")
    parts = args.z_range.split(":")
    if len(parts) != 3:
        raise _InputError("--z-range expects START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _InputError("--z-range components must be numbers") from None
    if not (0 < start <= stop < math.inf and 0 < step < math.inf):
        raise _InputError("--z-range needs finite 0 < START <= STOP and STEP > 0")
    if round(start + step, 12) <= round(start, 12):  # values keep 12 decimals
        raise _InputError("--z-range STEP is too small to advance START")
    values, z = [], start
    while z <= stop + 1e-12:
        values.append(round(z, 12))
        z += step
    return values


def _graph_only(args, *flags) -> None:
    """Reject with --interaction the ``flags`` only the --graph route reads."""
    given = [flag for flag in flags if getattr(args, flag.lstrip("-")) is not None]
    if given:
        raise _InputError(f"{' and '.join(given)} cannot be used with --interaction")


def cmd_synthesize(args) -> int:
    cluster, gauge_name, gauge = _load_cluster(args)
    a, theta, n = cluster.A, cluster.theta, cluster.A.shape[0]
    z = _z(args)
    checks, computed = core_battery(cluster, gauge, z, gauge_name)
    zm, pair, closed = computed["zm"], computed["pair"], computed["closed"]
    bundle = {
        "command": "synthesize",
        "n": n,
        "z": z,
        "gauge": gauge_name,
        "seed": args.seed,
        "theta": [float(t) for t in theta],
        "adjacency": matrix_to_json(a),
        "Z": matrix_to_json(zm.Z),
        "P": matrix_to_json(zm.P),
        "U": matrix_to_json(zm.U),
        "X": matrix_to_json(pair.X),
        "Y": matrix_to_json(pair.Y),
        "C": matrix_to_json(closed.C),
        "E": matrix_to_json(closed.E),
        "covariance_max_abs": closed.max_abs,
        "squeezers": [
            {
                "strength": m.strength,
                "cosh_factor": m.cosh_factor,
                "sinh_factor": m.sinh_factor,
                "decibels": m.decibels,
            }
            for m in computed["spectrum"]
        ],
        "checks": checks,
    }
    if args.format == "text":
        lines = [
            f"synthesize: {n} modes, gauge {gauge_name}, z = {z}",
            f"covariance max-entry: {closed.max_abs!r}",
            "squeezers (strength, dB): "
            + ", ".join(
                f"({m.strength:.6g}, {m.decibels:.6g})" for m in computed["spectrum"]
            ),
            "checks:",
            *_summarize_checks(checks),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(bundle), args.out)
    return EXIT_OK


def _chopped(a: np.ndarray, threshold: float) -> np.ndarray:
    """Zero out noise-level weights for the graph-format rendering."""
    cut = threshold * max(1.0, float(np.max(np.abs(a))))
    return np.where(np.abs(a) < cut, 0.0, a)


def cmd_analyze(args) -> int:
    zm = load_interaction(args.interaction)
    theta = load_phases(args.phases, zm.n)
    z = _z(args)
    result = analysis.analyze_interaction(zm, theta=theta, z=z, seed=args.seed)
    margin_given = result.input_margin
    searched = bool(margin_given < DEFAULT_TOLERANCES.phase_accept)
    report = {
        "command": "analyze",
        "n": zm.n,
        "z": z,
        "seed": args.seed,
        "phase_search_used": searched,
        "sigma_min_at_input_phases": float(margin_given),
        "sigma_min": float(result.margin),
        "theta": [float(t) for t in result.theta],
        "adjacency": matrix_to_json(result.adjacency),
        "graph_text": format_graph(_chopped(result.adjacency, 1e-10)),
        "covariance_max_abs": result.covariance.max_abs,
        "C": matrix_to_json(result.covariance.C),
    }
    if args.format == "text":
        lines = [
            f"analyze: {zm.n} modes, z = {z}",
            f"phase search used: {searched} "
            f"(sigma_min at input phases {margin_given:.3e})",
            f"chosen phases: {[round(float(t), 6) for t in result.theta]}",
            f"sigma_min: {result.margin!r}",
            "recovered graph:",
            report["graph_text"].rstrip("\n"),
            f"covariance max-entry at z = {z}: {result.covariance.max_abs!r}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(report), args.out)
    return EXIT_OK


def _interaction_from_args(args):
    """Z either from --interaction or from graph + gauge flags, with the
    error model of its route."""
    z = _z(args)
    if args.interaction is not None:
        _graph_only(args, "--phases", "--gauge")
        zm = load_interaction(args.interaction)
        return zm, z, ErrorModel.for_interaction(zm.strengths, z)
    cluster, _, gauge = _load_cluster(args)
    zm, _ = cluster.interaction(gauge, z)
    return zm, z, ErrorModel.for_cluster(cluster, zm, z)


def cmd_decompose(args) -> int:
    zm, z, model = _interaction_from_args(args)
    factors = blochmessiah.bloch_messiah(zm, z)
    pair = synthesis.bogoliubov_from_interaction(zm, z)
    checks = model.with_reduction(factors).checks(_reduction_rows(zm, pair, factors))
    report = {
        "command": "decompose",
        "n": zm.n,
        "z": z,
        "V": matrix_to_json(factors.V),
        "W": matrix_to_json(factors.W),
        "R": matrix_to_json(factors.R),
        "T": matrix_to_json(factors.T),
        "D": [float(d) for d in factors.D],
        "zD": [float(z * d) for d in factors.D],
        "decibels": [float(db) for db in factors.decibels],
        "checks": checks,
    }
    if args.format == "text":
        lines = [
            f"decompose: {zm.n} modes, z = {z}",
            "squeezer strengths: " + ", ".join(f"{d:.6g}" for d in factors.D),
            "squeezing (dB): " + ", ".join(f"{d:.6g}" for d in factors.decibels),
            "checks:",
            *_summarize_checks(checks),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(report), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.interaction is not None:
        _graph_only(args, "--phases", "--gauge", "-z")  # the bundle fixes z
        path = args.interaction
        bundle = _load_json(path)
        required = ("adjacency", "theta", "P", "z", "gauge")
        if not (isinstance(bundle, dict) and all(key in bundle for key in required)):
            raise _InputError("verify needs a synthesize bundle with " + ", ".join(required))
        cluster = _checked(
            path, synthesis.ClusterPlan.of, matrix_from_json(bundle["adjacency"], path), bundle["theta"]
        )
        z = _scale(bundle["z"], f"{path}: z")
        # the stored P is checked and factorized like a custom gauge
        p = matrix_from_json(bundle["P"], path)
        stored = {key: matrix_from_json(bundle[key], path) for key in ("Z", "U", "X", "Y", "C") if key in bundle}
        wrong = [key for key, m in stored.items() if m.shape != cluster.A.shape]
        if wrong:
            raise _InputError(f"{path}: {', '.join(wrong)} not of shape {cluster.A.shape}")
        checks, computed = deep_battery(cluster, p, z, str(bundle["gauge"]))
        zm, pair = computed["zm"], computed["pair"]
        fresh = {"Z": zm.Z, "U": zm.U, "X": pair.X, "Y": pair.Y, "C": computed["closed"].C}
        checks += computed["model"].checks(
            (f"bundle_{key}_matches", max_abs(m - fresh[key])) for key, m in stored.items()
        )
    else:
        z = _z(args)
        cluster, gauge_name, gauge = _load_cluster(args)
        checks, _ = deep_battery(cluster, gauge, z, gauge_name)
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "z": z,
        "passed": passed,
        "checks": checks,
    }
    if args.format == "text":
        lines = [
            f"verify: z = {z}: {'all checks passed' if passed else 'FAILURES'}",
            *_summarize_checks(checks),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(report), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    cluster, _, gauge = _load_cluster(args)
    rows = oracle.convergence_sweep(cluster, gauge, _z_range(args))
    if args.format == "json":
        report = {
            "command": "sweep",
            "gauge": args.gauge,
            "rows": [
                {"z": r.z, "max_abs_C": r.max_abs, "frobenius_C": r.frobenius}
                for r in rows
            ],
        }
        _emit(_dump_json(report), args.out)
    elif args.format == "text":
        lines = [f"sweep: gauge {args.gauge}"] + [
            f"  z = {r.z!r}: max_abs {r.max_abs!r}, frobenius {r.frobenius!r}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = ["z,max_abs_C,frobenius_C"] + [
            f"{r.z!r},{r.max_abs!r},{r.frobenius!r}" for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser, *, formats=("json", "text"), seed=False) -> None:
    """--out, --format and -z; ``seed`` adds --seed, which only analyze's
    phase search reads and synthesize records in its bundle."""
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--format",
        choices=formats,
        default=formats[0],
        help=f"output format (default {formats[0]})",
    )
    if seed:
        sub.add_argument(
            "--seed",
            type=int,
            default=analysis.DEFAULT_PHASE_SEED,
            help="seed of the pseudo-random phase-search tail "
            f"(default {analysis.DEFAULT_PHASE_SEED})",
        )
    sub.add_argument("-z", type=float, default=None, help="squeezing scale (default 1.0)")


def _add_cluster(sub: argparse.ArgumentParser, *, interaction: str | None = None) -> None:
    """--graph, --phases and --gauge; with ``interaction`` help, --graph and
    --interaction are exclusive routes and --phases and --gauge unset."""
    if interaction is None:
        sub.add_argument("--graph", required=True, help="graph file")
        phases, gauge = "zero", "identity"
    else:
        route = sub.add_mutually_exclusive_group()
        route.add_argument("--interaction", default=None, help=interaction)
        route.add_argument("--graph", default=None, help="graph file (with --gauge)")
        phases = gauge = None
    sub.add_argument("--phases", default=phases, help="'zero' (default) or path to angles")
    sub.add_argument("--gauge", default=gauge, help="identity (default)|faithful|custom:PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersqueeze",
        description="Squeezing transformations for weighted-graph Gaussian "
        "cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="cluster -> interaction bundle")
    _add_cluster(p_syn)
    _add_common(p_syn, seed=True)
    p_syn.set_defaults(func=cmd_synthesize)

    p_ana = sub.add_parser("analyze", help="interaction -> cluster")
    p_ana.add_argument("--interaction", required=True, help="matrix JSON or bundle")
    p_ana.add_argument("--phases", default="zero", help="'zero' or path to angles")
    _add_common(p_ana, seed=True)
    p_ana.set_defaults(func=cmd_analyze)

    p_dec = sub.add_parser("decompose", help="interaction -> squeezers + interferometers")
    _add_cluster(p_dec, interaction="matrix JSON or bundle")
    _add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the full invariant battery")
    _add_cluster(p_ver, interaction="synthesize bundle (fixes the graph, phases, gauge and z)")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="covariance norms over ascending z")
    _add_cluster(p_swp)
    _add_common(p_swp, formats=("csv", "json", "text"))
    p_swp.add_argument("--z-range", default=None, help="START:STOP:STEP ascending scales")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (_InputError, GraphFormatError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GaugeIncompatible, NotHermitian, NotPositiveDefinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GAUGE
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (ClusterSqueezeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
