"""Command-line interface.

Subcommands::

    synthesize   graph + gauge + z  ->  bundle {Z, P, U, X, Y, C, spectrum}
    analyze      interaction matrix ->  phases + adjacency + covariance
    decompose    interaction or graph -> squeezers + interferometers
    verify       bundle or graph    ->  full invariant battery (exit 1 on fail)
    sweep        graph + z range    ->  CSV of covariance norms vs z

Matrices are serialized as ``{"rows": N, "cols": M, "re": [[...]], "im":
[[...]]}`` with ``im`` omitted for real matrices; numbers use the shortest
representation that round-trips a double.  JSON output is byte-identical to
``json.dumps(obj, indent=2)``; each flat list of numbers is formatted by one
call of the C encoder and then re-indented.  Graph files use the text format
described in :mod:`clustersqueeze.graphs`; phase files hold one angle per
line (``#`` comments allowed).

Exit codes: 0 success, 1 failed verification checks, 2 input/parse errors,
3 gauge incompatibility, 4 numerical failure, 5 exhausted phase search.
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
    GaugeIncompatible,
    GraphFormatError,
    NotPositiveDefinite,
    SearchExhausted,
)
from .graphs import adjacency_matrix, format_graph, parse_graph, phase_vector
from .matfun import max_abs, symmetry_defect, unitarity_defect
from .tolerances import DEFAULT_TOLERANCES, Tolerances

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


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        if re.shape != (rows, cols):
            raise ValueError(f"'re' block has shape {re.shape}, not ({rows}, {cols})")
        if "im" in obj:
            im = np.asarray(obj["im"], dtype=float)
            if im.shape != (rows, cols):
                raise ValueError("'im' block shape mismatch")
            return re + 1j * im
        return re
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed matrix object: {exc}") from None


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


def load_interaction(path: str, tol: Tolerances) -> synthesis.InteractionMatrix:
    """Read an interaction matrix from a matrix JSON file or a bundle."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise _InputError(f"{path}: expected a JSON object")
    if "Z" in obj and "re" not in obj:
        obj = obj["Z"]
    return synthesis.InteractionMatrix.from_matrix(matrix_from_json(obj), tol)


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
    return phase_vector(values, n)


def _gauge_selector(spec: str):
    """--gauge value: 'identity', 'faithful', or the matrix in custom:PATH."""
    if spec in ("identity", "faithful"):
        return spec
    if spec.startswith("custom:"):
        return matrix_from_json(_load_json(spec[len("custom:"):]))
    raise _InputError(
        f"unknown gauge {spec!r}; use identity, faithful or custom:PATH"
    )


def _load_gauge(spec: str, A, theta, z: float, tol: Tolerances):
    """Gauge name for the report and the concrete P at scale z."""
    selector = _gauge_selector(spec)
    name = selector if isinstance(selector, str) else "custom"
    return name, synthesis.resolve_gauge(selector, A, theta, z, tol)


# --------------------------------------------------------------------------
# check battery

def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def core_battery(A, theta, P, z, gauge_name: str, tol: Tolerances) -> tuple[list[dict], dict]:
    """Invariant checks shared by synthesize and verify.

    Returns (checks, computed) where computed holds the freshly built
    objects for serialization or deeper comparison.
    """
    a = adjacency_matrix(A, tol)
    n = a.shape[0]
    eye = np.eye(n)
    gauge = synthesis.require_compatible_gauge(a, theta, P, tol)
    u = synthesis.unitary_from_adjacency(a, theta, tol)
    zm = synthesis.InteractionMatrix.from_factors(P, u, tol)
    pair = synthesis.bogoliubov_from_interaction(zm, z, tol)
    closed = synthesis.covariance_closed_form(a, theta, zm, z, tol)
    brute = oracle.covariance_oracle(a, theta, zm, z, tol)
    spectrum = synthesis.squeezer_spectrum(zm, z, tol)

    cov_scale = 1.0 + closed.max_abs
    defect_one, defect_two = pair.defects()
    checks = [
        _check("gauge_condition", gauge.residual, tol.rtol),
        _check(
            "interaction_symmetric",
            symmetry_defect(zm.Z) / max(1.0, max_abs(zm.Z)),
            tol.interaction_symmetry,
        ),
        _check(
            "polar_product",
            max_abs(zm.P @ zm.U - zm.Z) / max(1.0, max_abs(zm.Z)),
            tol.interaction_symmetry,
        ),
        _check("structure_unitary", unitarity_defect(zm.U), 1e-10 * n),
        _check("structure_symmetric", symmetry_defect(zm.U), 1e-10),
        _check("bogoliubov_unitary_defect", defect_one, tol.rtol),
        _check("bogoliubov_symmetry_defect", defect_two, tol.rtol),
        _check("covariance_real", closed.imag_residual, tol.rtol * cov_scale),
        _check(
            "covariance_psd",
            max(0.0, -float(np.linalg.eigvalsh(closed.C)[0])),
            tol.rtol * cov_scale,
        ),
        _check(
            "covariance_factor",
            max_abs(closed.C - closed.E @ closed.E.conj().T),
            tol.rtol * cov_scale,
        ),
        _check(
            "covariance_vs_oracle",
            max_abs(closed.C - brute.C),
            tol.oracle * cov_scale,
        ),
    ]
    if gauge_name == "faithful":
        checks.append(
            _check(
                "faithful_gauge_identity",
                max_abs(closed.C - math.exp(-2.0 * z) * eye),
                tol.rtol,
            )
        )
    if gauge_name == "identity":
        checks.append(
            _check(
                "uniform_gauge_formula",
                max_abs(closed.C - (a @ a + eye) * math.exp(-2.0 * z)),
                tol.rtol,
            )
        )
        if max_abs(a @ a - eye) <= tol.input_asymmetry:
            checks.append(
                _check(
                    "self_inverse_value",
                    max_abs(closed.C - 2.0 * math.exp(-2.0 * z) * eye),
                    tol.rtol,
                )
            )
    computed = {
        "zm": zm,
        "pair": pair,
        "closed": closed,
        "spectrum": spectrum,
    }
    return checks, computed


def deep_battery(A, theta, P, z, gauge_name: str, tol: Tolerances) -> tuple[list[dict], dict]:
    """Core battery plus interferometer-reduction checks (verify command).

    Returns (checks, computed) with computed as in :func:`core_battery`.
    """
    checks, computed = core_battery(A, theta, P, z, gauge_name, tol)
    zm = computed["zm"]
    pair = computed["pair"]
    factors = blochmessiah.bloch_messiah(zm, z, tol)
    x_rec, y_rec = factors.reconstruct()
    strengths = np.array([m.strength for m in computed["spectrum"]])
    checks += [
        _check("blochmessiah_x", max_abs(x_rec - pair.X), tol.oracle),
        _check("blochmessiah_y", max_abs(y_rec - pair.Y), tol.oracle),
        _check(
            "interferometer_identity",
            max_abs(1j * factors.V @ factors.V.T - zm.U),
            tol.rtol,
        ),
        _check(
            "cluster_condition",
            blochmessiah.cluster_condition_residual(factors.V, A, theta, tol),
            tol.oracle,
        ),
        _check(
            "squeezer_match",
            float(np.max(np.abs(np.sort(factors.D) - np.sort(strengths)))),
            tol.rtol,
        ),
    ]
    return checks, computed


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

def _tolerances(args) -> Tolerances:
    if args.tol is not None:
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise _InputError("--tol must be a positive number")
        return DEFAULT_TOLERANCES.with_rtol(args.tol)
    return DEFAULT_TOLERANCES


def _z_list(args) -> list[float]:
    if args.z_range is not None:
        if args.z is not None:
            raise _InputError("use either -z or --z-range, not both")
        parts = args.z_range.split(":")
        if len(parts) != 3:
            raise _InputError("--z-range expects START:STOP:STEP")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise _InputError("--z-range components must be numbers") from None
        if step <= 0 or start <= 0 or stop < start:
            raise _InputError("--z-range needs 0 < START <= STOP and STEP > 0")
        values = []
        z = start
        while z <= stop + 1e-12:
            values.append(round(z, 12))
            z += step
        return values
    z = 1.0 if args.z is None else args.z
    if not (np.isfinite(z) and z > 0):
        raise _InputError("-z must be positive and finite")
    return [z]


def cmd_synthesize(args) -> int:
    tol = _tolerances(args)
    a = parse_graph(_read_text(args.graph), tol)
    n = a.shape[0]
    theta = load_phases(args.phases, n)
    z = _z_list(args)[0]
    gauge_name, p = _load_gauge(args.gauge, a, theta, z, tol)
    checks, computed = core_battery(a, theta, p, z, gauge_name, tol)
    zm = computed["zm"]
    pair = computed["pair"]
    closed = computed["closed"]
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
    tol = _tolerances(args)
    zm = load_interaction(args.interaction, tol)
    if args.phases != "zero":
        theta = load_phases(args.phases, zm.n)
    else:
        theta = np.zeros(zm.n)
    z = _z_list(args)[0]
    result = analysis.analyze_interaction(
        zm, theta=theta, z=z, seed=args.seed, tol=tol
    )
    margin_given = result.input_margin
    searched = bool(margin_given < tol.phase_accept)
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
        "graph_text": format_graph(_chopped(result.adjacency, 1e-10), tol),
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


def _interaction_from_args(args, tol: Tolerances):
    """Resolve Z either from --interaction or from graph + gauge flags."""
    z = _z_list(args)[0]
    if args.interaction is not None:
        return load_interaction(args.interaction, tol), z
    if args.graph is None:
        raise _InputError("provide --interaction or --graph")
    a = parse_graph(_read_text(args.graph), tol)
    theta = load_phases(args.phases, a.shape[0])
    _, p = _load_gauge(args.gauge, a, theta, z, tol)
    return synthesis.interaction_from_cluster(a, theta, p, tol), z


def cmd_decompose(args) -> int:
    tol = _tolerances(args)
    zm, z = _interaction_from_args(args, tol)
    factors = blochmessiah.bloch_messiah(zm, z, tol)
    pair = synthesis.bogoliubov_from_interaction(zm, z, tol)
    x_rec, y_rec = factors.reconstruct()
    checks = [
        _check("blochmessiah_x", max_abs(x_rec - pair.X), tol.oracle),
        _check("blochmessiah_y", max_abs(y_rec - pair.Y), tol.oracle),
        _check(
            "interferometer_identity",
            max_abs(1j * factors.V @ factors.V.T - zm.U),
            tol.rtol,
        ),
    ]
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
    tol = _tolerances(args)
    z = _z_list(args)[0]
    bundle_checks: list[dict] = []
    if args.interaction is not None:
        bundle = _load_json(args.interaction)
        required = ("adjacency", "theta", "P", "z", "gauge")
        if not all(key in bundle for key in required):
            raise _InputError(
                "verify needs a synthesize bundle with "
                + ", ".join(required)
            )
        a = adjacency_matrix(matrix_from_json(bundle["adjacency"]), tol)
        theta = phase_vector(bundle["theta"], a.shape[0])
        p = matrix_from_json(bundle["P"])
        z = float(bundle["z"])
        gauge_name = str(bundle["gauge"])
        checks, computed = deep_battery(a, theta, p, z, gauge_name, tol)
        zm, pair = computed["zm"], computed["pair"]
        for key, fresh in (
            ("Z", zm.Z),
            ("U", zm.U),
            ("X", pair.X),
            ("Y", pair.Y),
            ("C", computed["closed"].C),
        ):
            if key in bundle:
                stored = matrix_from_json(bundle[key])
                bundle_checks.append(
                    _check(
                        f"bundle_{key}_matches",
                        max_abs(stored - fresh),
                        tol.oracle * (1.0 + max_abs(fresh)),
                    )
                )
    else:
        if args.graph is None:
            raise _InputError("provide --interaction (bundle) or --graph")
        a = parse_graph(_read_text(args.graph), tol)
        theta = load_phases(args.phases, a.shape[0])
        gauge_name, p = _load_gauge(args.gauge, a, theta, z, tol)
        checks, _ = deep_battery(a, theta, p, z, gauge_name, tol)
    checks += bundle_checks
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
    tol = _tolerances(args)
    a = parse_graph(_read_text(args.graph), tol)
    theta = load_phases(args.phases, a.shape[0])
    zs = _z_list(args)
    gauge_spec = args.gauge
    rows = oracle.convergence_sweep(a, theta, _gauge_selector(gauge_spec), zs, tol)
    if args.format == "json":
        report = {
            "command": "sweep",
            "gauge": gauge_spec,
            "rows": [
                {"z": r.z, "max_abs_C": r.max_abs, "frobenius_C": r.frobenius}
                for r in rows
            ],
        }
        _emit(_dump_json(report), args.out)
    elif args.format == "text":
        lines = [f"sweep: gauge {gauge_spec}"] + [
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

def _add_common(sub: argparse.ArgumentParser, *, fmt_default: str) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default=fmt_default,
        help=f"output format (default {fmt_default})",
    )
    sub.add_argument("--tol", type=float, default=None, help="override the algebraic tolerance")
    sub.add_argument(
        "--seed",
        type=int,
        default=analysis.DEFAULT_PHASE_SEED,
        help="seed of the pseudo-random phase-search tail "
        f"(default {analysis.DEFAULT_PHASE_SEED})",
    )
    sub.add_argument("-z", type=float, default=None, help="squeezing scale (default 1.0)")
    sub.add_argument("--z-range", default=None, help="START:STOP:STEP ascending scales")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersqueeze",
        description="Squeezing transformations for weighted-graph Gaussian "
        "cluster states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="cluster -> interaction bundle")
    p_syn.add_argument("--graph", required=True, help="graph file")
    p_syn.add_argument("--phases", default="zero", help="'zero' or path to angles")
    p_syn.add_argument("--gauge", default="identity", help="identity|faithful|custom:PATH")
    _add_common(p_syn, fmt_default="json")
    p_syn.set_defaults(func=cmd_synthesize)

    p_ana = sub.add_parser("analyze", help="interaction -> cluster")
    p_ana.add_argument("--interaction", required=True, help="matrix JSON or bundle")
    p_ana.add_argument("--phases", default="zero", help="'zero' or path to angles")
    _add_common(p_ana, fmt_default="json")
    p_ana.set_defaults(func=cmd_analyze)

    p_dec = sub.add_parser("decompose", help="interaction -> squeezers + interferometers")
    p_dec.add_argument("--interaction", default=None, help="matrix JSON or bundle")
    p_dec.add_argument("--graph", default=None, help="graph file (with --gauge)")
    p_dec.add_argument("--phases", default="zero", help="'zero' or path to angles")
    p_dec.add_argument("--gauge", default="identity", help="identity|faithful|custom:PATH")
    _add_common(p_dec, fmt_default="json")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the full invariant battery")
    p_ver.add_argument("--interaction", default=None, help="synthesize bundle")
    p_ver.add_argument("--graph", default=None, help="graph file (with --gauge)")
    p_ver.add_argument("--phases", default="zero", help="'zero' or path to angles")
    p_ver.add_argument("--gauge", default="identity", help="identity|faithful|custom:PATH")
    _add_common(p_ver, fmt_default="json")
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="covariance norms over ascending z")
    p_swp.add_argument("--graph", required=True, help="graph file")
    p_swp.add_argument("--phases", default="zero", help="'zero' or path to angles")
    p_swp.add_argument("--gauge", default="identity", help="identity|faithful|custom:PATH")
    _add_common(p_swp, fmt_default="csv")
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
    except (_InputError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GaugeIncompatible, NotPositiveDefinite) as exc:
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
