"""Span tracing for the traced run, wrapped around the program from outside.

:func:`install` replaces each public function of the seven library modules
at every module binding that refers to it (modules import by name, so
``oracle.covariance_closed_form`` and ``synthesis.covariance_closed_form``
are separate bindings of one function), the JSON calls the CLI makes
through its ``json`` binding, the CLI's file read and write helpers, and the
dense kernels: ``numpy.linalg.eigh/eigvalsh/solve/svd``, ``norm(., 2)``
(an SVD) and ``scipy.linalg.expm``.  Request-level CLI functions (``main``,
``build_parser``, ``cmd_*``) are not spans: their self time is argparse,
validation and glue, and is reported as ``bench.unaccounted_s``.

Spans are kept in memory: name, start, end, parent span, request id, a
size (matrix order or byte count) and whether the call raised.  They are
recorded only while a request is open, so the harness's own output checks,
which call numpy and the public library, stay outside the counted window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("graphs", "synthesis", "matfun", "oracle", "blochmessiah", "analysis", "cli")
LINALG = ("eigh", "eigvalsh", "solve", "svd", "norm2", "expm")

# Span fields.
NAME, START, END, PARENT, REQUEST, SIZE, RAISED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None

    def wrap(self, name, fn, size_in=None, size_out=None):
        """Return `fn` recording a span `name` while a request is open.

        `size_in(args, kwargs)` or `size_out(result)` give the span's size;
        a callable that returns None records no span for that call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            size = size_in(args, kwargs) if size_in else 0
            if size is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.request, size, True]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[RAISED] = False
                return result
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
                if size_out and not span[RAISED]:
                    span[SIZE] = size_out(result)

        return traced


def _order(args, kwargs):
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[-1]) if shape else 0


def _norm2(args, kwargs):
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return _order(args, kwargs) if ord_ == 2 else None


class _JsonProxy:
    """Stands in for the CLI's `json` module binding: times dumps/loads."""

    def __init__(self, tracer):
        self.dumps = tracer.wrap("json.dumps", json.dumps)
        self.loads = tracer.wrap("json.loads", json.loads)

    def __getattr__(self, attr):
        return getattr(json, attr)


def _request_level(short: str, attr: str) -> bool:
    return short == "cli" and (attr in ("main", "run", "build_parser") or attr.startswith("cmd_"))


def install(tracer: Tracer, package: str = "clustersqueeze") -> None:
    """Wrap the library's public functions and the dense kernels in spans."""
    import numpy.linalg
    import scipy.linalg

    modules = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
    cli = modules["cli"]
    wrapped: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or _request_level(short, attr)):
                continue
            size_in = _order if attr == "takagi_symmetric_unitary" else None
            wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj, size_in=size_in)
    wrapped[id(cli._read_text)] = tracer.wrap("cli._read_text", cli._read_text, size_out=len)
    wrapped[id(cli._emit)] = tracer.wrap("cli._emit", cli._emit, size_in=lambda a, k: len(a[0]))
    expm = tracer.wrap("linalg.expm", scipy.linalg.expm, size_in=_order)
    wrapped[id(scipy.linalg.expm)] = expm

    for mod in [importlib.import_module(package), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    cli.json = _JsonProxy(tracer)
    scipy.linalg.expm = expm
    for attr in ("eigh", "eigvalsh", "solve", "svd"):
        setattr(numpy.linalg, attr, tracer.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr), size_in=_order))
    numpy.linalg.norm = tracer.wrap("linalg.norm2", numpy.linalg.norm, size_in=_norm2)


# --------------------------------------------------------------------------
# per-layer metrics

SERIALIZE = ("cli.matrix_to_json", "json.dumps", "cli._emit")
PARSE = ("json.loads", "cli.matrix_from_json", "graphs.parse_graph", "cli._read_text")
SELF_TIMES = {
    "cli.core_battery_s": ("cli.core_battery",),
    "cli.deep_battery_s": ("cli.deep_battery",),
    "oracle.expm_s": ("linalg.expm",),
    "oracle.covariance_oracle_s": ("oracle.covariance_oracle",),
    "oracle.convergence_sweep_s": ("oracle.convergence_sweep",),
    "synthesis.interaction_from_cluster_s": ("synthesis.interaction_from_cluster",),
    "synthesis.bogoliubov_from_interaction_s": ("synthesis.bogoliubov_from_interaction",),
    "synthesis.covariance_closed_form_s": ("synthesis.covariance_closed_form",),
    "synthesis.squeezer_spectrum_s": ("synthesis.squeezer_spectrum",),
    "synthesis.gauge_faithful_s": ("synthesis.gauge_faithful",),
    "matfun.polar_decompose_symmetric_s": ("matfun.polar_decompose_symmetric",),
    "blochmessiah.bloch_messiah_s": ("blochmessiah.bloch_messiah",),
    "analysis.find_regular_phases_s": ("analysis.find_regular_phases",),
    "linalg.busy_s": tuple(f"linalg.{k}" for k in LINALG),
}

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("cli.serialize_s", "s/req"),
    ("cli.bytes_out", "B/req"),
    ("cli.parse_s", "s/req"),
    ("cli.bytes_in", "B/req"),
    *[(name, "s/req") for name in SELF_TIMES],
    ("oracle.expm.calls", "count/req"),
    ("synthesis.validate_gauge.calls", "count/req"),
    ("matfun.takagi_symmetric_unitary.calls", "count/req"),
    ("blochmessiah.takagi_blocks", "count/req"),
    ("blochmessiah.takagi_blocks_1x1", "count/req"),
    ("analysis.regularity_margin.calls", "count/req"),
    ("analysis.phase_search.accept_ratio", "ratio"),
    *[(f"linalg.{k}.calls", "count/req") for k in ("eigh", "eigh_1x1", "eigvalsh", "solve", "svd", "expm")],
    ("linalg.factorizations_per_request", "count/req"),
    ("bench.request_s", "s/req"),
    ("bench.unaccounted_s", "s/req"),
    ("bench.traced_throughput_rps", "1/s"),
    ("bench.tracing_overhead", "ratio"),
]


def layer_metrics(spans: list[list], request_walls: list[float]) -> dict[str, float]:
    """Per-request means of span self times and counts over `request_walls`.

    A span's self time is its duration minus its children's durations, so
    the self times of all spans of a request plus ``bench.unaccounted_s``
    add up to the request's wall time.  ``norm(., 2)`` calls count in
    ``linalg.busy_s`` and ``linalg.factorizations_per_request`` but have no
    count of their own.  ``bench.traced_throughput_rps`` and
    ``bench.tracing_overhead`` are filled in by the caller.
    """
    self_time = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_time):
        by_name[s[NAME]] += t
        calls[s[NAME]] += 1
        size[s[NAME]] += s[SIZE]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    blocks = [s for s in spans if s[NAME] == "matfun.takagi_symmetric_unitary"
              and parent_name(s) == "blochmessiah.bloch_messiah"]
    searches = [s for s in spans if s[NAME] == "analysis.find_regular_phases"]
    candidates = sum(1 for s in spans if s[NAME] == "analysis.regularity_margin"
                     and parent_name(s) == "analysis.find_regular_phases")
    linalg = [s for s in spans if s[NAME].startswith("linalg.")]
    requests = len(request_walls)
    totals = {
        "cli.serialize_s": sum(by_name[k] for k in SERIALIZE),
        "cli.bytes_out": size["cli._emit"],
        "cli.parse_s": sum(by_name[k] for k in PARSE),
        "cli.bytes_in": size["cli._read_text"],
        **{metric: sum(by_name[k] for k in names) for metric, names in SELF_TIMES.items()},
        "oracle.expm.calls": sum(1 for s in spans if s[NAME] == "linalg.expm"
                                 and parent_name(s).startswith("oracle.")),
        "synthesis.validate_gauge.calls": calls["synthesis.validate_gauge"],
        "matfun.takagi_symmetric_unitary.calls": calls["matfun.takagi_symmetric_unitary"],
        "blochmessiah.takagi_blocks": len(blocks),
        "blochmessiah.takagi_blocks_1x1": sum(1 for s in blocks if s[SIZE] == 1),
        "analysis.regularity_margin.calls": calls["analysis.regularity_margin"],
        **{f"linalg.{k}.calls": calls[f"linalg.{k}"] for k in LINALG if k != "norm2"},
        "linalg.eigh_1x1.calls": sum(1 for s in linalg if s[NAME] == "linalg.eigh" and s[SIZE] == 1),
        "linalg.factorizations_per_request": sum(1 for s in linalg if s[SIZE] >= 2),
        "bench.request_s": sum(request_walls),
        "bench.unaccounted_s": sum(request_walls) - sum(self_time),
    }
    out = {name: totals[name] / requests for name in totals}
    accepted = sum(1 for s in searches if not s[RAISED])
    out["analysis.phase_search.accept_ratio"] = accepted / candidates if candidates else 0.0
    return out
