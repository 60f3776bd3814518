"""Output checks the harness applies to every request.

A request passes when the program exited 0 and its output holds up:

* ``checks``  -- every ``checks[*].passed`` is true (``synthesize`` and
  ``decompose`` exit 0 even when a check fails, so the exit code alone
  is not enough);
* ``verify``  -- as ``checks``, and the report's ``passed`` is true;
* ``analyze`` -- the recovered (adjacency, phases) rebuild the bundle's
  structure factor U through the public ``unitary_from_adjacency`` within
  the forward-error bound of :func:`analyze_bound`;
* ``sweep``   -- each CSV row matches the covariance norms computed here
  from the graph file alone: ``(A^2 + 1) e^{-2z}`` for the identity gauge
  and ``e^{-2z} 1`` for the faithful gauge, within :func:`sweep_bound`.

Each check returns None on success or a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0 ** -53
#: Safety factor over the first-order error terms (max-entry vs 2-norm
#: conversions, a handful of chained products).
SAFETY = 16.0


def matrix(obj) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    return re + 1j * np.asarray(obj["im"], dtype=float) if "im" in obj else re


def read_graph(text: str) -> np.ndarray:
    """Adjacency from the graph file format (independent of the program)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(lines[0][0])
    a = np.zeros((n, n))
    for i, j, w in lines[1:]:
        a[int(i), int(j)] = a[int(j), int(i)] = float(w)
    return a


def program_checks(report: dict) -> str | None:
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ValueError("output has no checks")
    failed = [c.get("name", "?") for c in checks if c.get("passed") is not True]
    return f"failed checks: {', '.join(failed)}" if failed else None


def verify_report(report: dict) -> str | None:
    reason = program_checks(report)
    if reason is None and report.get("passed") is not True:
        return "report says passed = false"
    return reason


def analyze_bound(n: int, rho: float, kappa: float, sigma_min: float) -> float:
    """Forward-error bound on max|U(A_rec, theta_rec) - U_bundle|.

    The program takes U from the polar split of Z, which is accurate to
    ~u N kappa(P).  Recovering A from W = e^{i theta} U e^{i theta} through
    (W + i)^{-1} amplifies an error in W by at most (1 + rho) / sigma_min,
    and rebuilding U from A through (A + i)^{-1}, whose norm is at most 1,
    by at most 2.  First order: 2 u N (1 + rho) (1 + kappa) / sigma_min.
    """
    return SAFETY * 2.0 * UNIT_ROUNDOFF * n * (1.0 + rho) * (1.0 + kappa) / sigma_min


def analyze_report(report: dict, bundle: dict, unitary_from_adjacency) -> str | None:
    a = matrix(report["adjacency"])
    theta = np.asarray(report["theta"], dtype=float)
    u_bundle = matrix(bundle["U"])
    strengths = [m["strength"] for m in bundle["squeezers"]]
    n = a.shape[0]
    if u_bundle.shape != (n, n) or theta.shape != (n,):
        return "recovered cluster has the wrong size"
    residual = float(np.max(np.abs(unitary_from_adjacency(a, theta) - u_bundle)))
    rho = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    bound = analyze_bound(n, rho, strengths[-1] / strengths[0], float(report["sigma_min"]))
    if not residual <= bound:
        return f"rebuilt U differs by {residual:.3e} (bound {bound:.3e})"
    return None


def sweep_bound(n: int, rho: float, z: float, headroom: float) -> float:
    """Forward-error bound on a covariance norm at scale z.

    C = E E^dagger with E = (A + i) e^{i Theta} e^{-z P}: the product
    scales errors by ||A + i||^2 = 1 + rho^2, and e^{-z P} through the
    eigenpairs of P carries a relative error ~u N (1 + z lambda_max(P)).
    """
    return SAFETY * UNIT_ROUNDOFF * n * (1.0 + rho * rho) * (1.0 + headroom) * math.exp(-2.0 * z)


def sweep_z_values(start: float, step: float, points: int) -> list[float]:
    """The z grid the CLI builds for START:STOP:STEP (accumulated steps)."""
    values, z = [], start
    for _ in range(points):
        values.append(round(z, 12))
        z += step
    return values


def sweep_report(text: str, graph_text: str, spec: dict) -> str | None:
    rows = text.strip().splitlines()
    if rows[0] != "z,max_abs_C,frobenius_C":
        return "unexpected CSV header"
    zs = sweep_z_values(spec["start"], spec["step"], spec["points"])
    if len(rows) - 1 != len(zs):
        return f"{len(rows) - 1} rows, expected {len(zs)}"
    a = read_graph(graph_text)
    n = a.shape[0]
    w = np.linalg.eigvalsh(a)
    rho = float(np.max(np.abs(w)))
    gram = a @ a + np.eye(n)
    for row, z in zip(rows[1:], zs):
        got_z, got_max, got_frob = (float(v) for v in row.split(","))
        if abs(got_z - z) > 1e-9:
            return f"row z = {got_z!r}, expected {z!r}"
        decay = math.exp(-2.0 * z)
        if spec["gauge"] == "faithful":
            want_max, want_frob = decay, math.sqrt(n) * decay
            headroom = z + 0.5 * math.log1p(rho * rho)
        else:
            want_max, want_frob = float(np.max(np.abs(gram))) * decay, float(np.linalg.norm(gram)) * decay
            headroom = z
        bound = sweep_bound(n, rho, z, headroom)
        if not (abs(got_max - want_max) <= bound and abs(got_frob - want_frob) <= bound * math.sqrt(n)):
            return f"z = {z!r}: norms ({got_max!r}, {got_frob!r}) off ({want_max!r}, {want_frob!r}) by more than {bound:.3e}"
    return None


def check_output(spec: dict, data: bytes, read_input, unitary_from_adjacency) -> tuple[str, bool] | None:
    """Check one request's output bytes against its spec.

    Returns None, or (reason, program_flagged): program_flagged is true when
    the program's own report marks the failure (a failed ``checks`` entry or
    ``passed`` false), and false when a check computed here finds it.
    """
    kind = spec["kind"]
    try:
        if kind == "sweep":
            reason, flagged = sweep_report(data.decode("utf-8"), read_input(spec["graph"]), spec), False
        elif kind == "checks":
            reason, flagged = program_checks(json.loads(data)), True
        elif kind == "verify":
            reason, flagged = verify_report(json.loads(data)), True
        elif kind == "analyze":
            bundle = json.loads(read_input(spec["bundle"]))
            reason, flagged = analyze_report(json.loads(data), bundle, unitary_from_adjacency), False
        else:
            return f"unknown check kind {kind!r}", False
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", False
    return None if reason is None else (reason, flagged)
