"""Command-line interface.

Subcommands::

    synthesize   graph + gauge + z  ->  bundle {adjacency, theta, Z, P, U, X, Y,
                                                C, E, squeezers, checks}
    analyze      interaction matrix ->  phases + adjacency + covariance
    decompose    interaction or graph -> {V, R, T, D, zD, decibels, checks}:
                                          squeezers D and the interferometer V
                                          (X = V cosh(zD) V^dagger)
    verify       bundle or graph    ->  full invariant battery (exit 1 on fail)
    sweep        graph + z range    ->  CSV of covariance norms vs z

A command rejects every flag it would ignore (exit 2): --interaction and
--graph exclude each other, --phases and --gauge belong to the graph route,
a bundle given to verify fixes z, and only sweep takes --z-range and csv.

Matrices are serialized as ``{"rows": N, "cols": M, "re": [[...]], "im":
[[...]]}`` with ``im`` omitted for real matrices, numbers in the shortest
representation that round-trips a double; JSON output is byte-identical to
``json.dumps(obj, indent=2)`` and streamed one matrix at a time
(:func:`_emit_json`).  A block formats its diagonal alone when it is +0.0
off it bit for bit, one triangle when it is symmetric or antisymmetric bit
for bit, and a matrix that repeats an earlier one bit for bit at the same
indent is written from that one's text, held only until its last repeat.
At any phases the identity gauge's Z is its U, and its P and X and
decompose's R are diagonal; its E.im is diagonal at Theta = 0 only.  A
bundle is read for the fields its route needs
(:func:`_load_json`): Z for analyze and decompose, all but ``E``,
``squeezers`` and ``checks`` for verify, which plans a bundle's built-in
gauge by the name it stores and compares every stored matrix with the fresh
one.  Graph files use the text format of :mod:`clustersqueeze.graphs`;
phase files hold one angle per line (``#`` comments allowed).  Each command
returns its exit code and one report dict, which :func:`main` writes as
JSON or as the text or CSV that :func:`_render` reads off the report; its
checks come from :mod:`clustersqueeze.battery`.

Exit codes: 0 success, 1 failed verification checks, 2 input/parse errors
(a malformed file or bundle field, an asymmetric adjacency or Z among them,
a gauge or phase vector of the wrong shape, each naming its file, a
--z-range past :data:`MAX_SWEEP_ROWS` rows, or an --out that cannot be
opened or written), 3 rejected gauge (incompatible, not Hermitian, not
positive definite or numerically singular), 4 numerical failure (a singular
interaction matrix, z beyond Z_CAP, faithful strengths that overflow at a
tiny z, weights whose squares overflow, or a structure factor that no
phases regularize).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

import numpy as np

from . import analysis, battery, synthesis
from .errors import (
    ClusterSqueezeError,
    DimensionMismatch,
    GaugeIncompatible,
    GraphFormatError,
    NotHermitian,
    NotPositiveDefinite,
    NotSymmetric,
)
from .graphs import _floats, format_graph, parse_graph, phase_vector

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_GAUGE = 3
EXIT_NUMERICAL = 4


class _InputError(Exception):
    """Wrapper for file/JSON problems mapped to the input exit code."""


# --------------------------------------------------------------------------
# serialization

def _blocks(a: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The float blocks of a matrix object: ``re``, then ``im`` unless every
    entry is real."""
    blocks = [("re", np.real(a).astype(float, copy=False))]
    if np.iscomplexobj(a) and a.imag.any():
        blocks.append(("im", a.imag.astype(float, copy=False)))
    return blocks


def matrix_from_json(obj, path: str | None = None) -> np.ndarray:
    """The matrix of a JSON object of JSON numbers; a malformed object or a
    NaN or infinite entry is an input error, naming ``path`` when given."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        if type(rows) is not int or type(cols) is not int:
            raise ValueError("'rows' and 'cols' must be integers")
        m = _floats(obj["re"], "'re' entries")
        if m.shape != (rows, cols):
            raise ValueError(f"'re' block has shape {m.shape}, not ({rows}, {cols})")
        if "im" in obj:
            im = _floats(obj["im"], "'im' entries")
            if im.shape != (rows, cols):
                raise ValueError("'im' block shape mismatch")
            m = m + 1j * im
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        return m
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        where = f"{path}: " if path else ""
        raise _InputError(f"{where}malformed matrix object: {exc}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_json(path: str, fields=None) -> dict:
    """The JSON value in ``path``, booleans in arrays read as their text
    (:func:`_booleans_as_text`).  Given ``fields``, an object laid out as
    :func:`_emit_json` writes it is read by :func:`_top_level_fields`, which
    decodes only those fields; any other text goes to ``json.loads``, so
    errors are worded as for the whole text, and of an object only the
    ``fields`` have their booleans read as text.  Text the decoder cannot
    turn into values (an integer past Python's digit limit, or nesting past
    the recursion limit) is an input error too."""
    text = _read_text(path)
    if fields is not None:
        obj = _top_level_fields(text, fields)
        if obj is not None:
            return obj
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON ({exc})") from None
    except (ValueError, RecursionError) as exc:
        raise _InputError(f"{path}: cannot decode JSON ({exc})") from None
    if fields is None or not isinstance(value, dict):
        return _booleans_as_text(value, text)
    return {key: _booleans_as_text(v, text) if key in fields else v for key, v in value.items()}


def _booleans_as_text(value, text: str, start: int = 0, stop: int | None = None):
    """``value``, decoded from ``text[start:stop]``, with each boolean in an
    array read as its JSON text, so the number checks turn it down as a
    string (numpy reads it beside numbers as 1.0 or 0.0).  Its text holds a
    ``u`` or an ``f``, as no number's does but Infinity's ``f``, so two
    ``memchr`` scans pass a matrix without one, and a list of numbers alone
    is passed by one scan of its types."""
    if text.find("u", start, stop) < 0 and text.find("f", start, stop) < 0:
        return value

    def walk(v):
        if isinstance(v, list):
            if set(map(type, v)) <= {float, int}:  # a row of numbers, passed in one scan
                return v
            return [("true" if x else "false") if isinstance(x, bool) else walk(x) for x in v]
        return {key: walk(x) for key, x in v.items()} if isinstance(v, dict) else v

    return walk(value)


_TOP_KEY = re.compile(r'\n  "([A-Za-z_][A-Za-z0-9_]*)": ')
_DECODER = json.JSONDecoder()
# Accepts and rejects what ``json.loads`` does, with the same scanner, but
# turns each float into the length of its text: converting a float the
# scanner accepted cannot fail, and it is most of the cost of a matrix.
_VALIDATOR = json.JSONDecoder(parse_float=len)


def _top_level_fields(text: str, fields) -> dict | None:
    """The object in ``text`` with only ``fields`` decoded, when ``text`` is
    laid out as :func:`_emit_json` writes an object; otherwise None.

    A dict is returned only when ``json.loads(text)`` would succeed with the
    same keys and equal values for ``fields`` (a boolean in an array read as
    its text, :func:`_booleans_as_text`); every other field holds None.
    Each member must be one ``"key": value`` at indent 2, decoded where it
    stands: a field in ``fields`` by :data:`_DECODER`, any other by
    :data:`_VALIDATOR`.  The value must end right at the ``,`` before the
    next member or at the closing ``\\n}\\n``.  Anything else gives None: a
    repeated key, a byte order mark, a member not so laid out (CRLF line
    ends and whitespace after a value included), text after the closing
    brace or a value that does not decode.
    """
    if not (text.startswith('{\n  "') and text.endswith("\n}\n")):
        return None
    out: dict = {}
    start, end = 1, len(text) - 3
    while start != end + 1:
        key = _TOP_KEY.match(text, start)
        if key is None or key[1] in out:
            return None
        try:
            if key[1] in fields:
                out[key[1]], stop = _DECODER.raw_decode(text, key.end())
                out[key[1]] = _booleans_as_text(out[key[1]], text, key.end(), stop)
            else:
                out[key[1]], stop = None, _VALIDATOR.raw_decode(text, key.end())[1]
        except (ValueError, RecursionError):
            return None
        if stop != end and text[stop] != ",":
            return None
        start = stop + 1
    return out


def _checked(what: str, build, *args):
    """``build(*args)``; a ``ValueError``, ``TypeError`` or ``OverflowError``
    (an input check, a JSON value of the wrong type or range), a
    ``NotSymmetric`` input or a ``DimensionMismatch`` (a vector or matrix of
    the wrong size) is an input error about ``what``; other library
    errors and ``LinAlgError`` stay numerical.  No builder wrapped here
    gates a gauge, so ``GaugeIncompatible`` keeps its own exit code."""
    try:
        return build(*args)
    except np.linalg.LinAlgError:
        raise
    except (DimensionMismatch, NotSymmetric, OverflowError, TypeError, ValueError) as exc:
        raise _InputError(f"{what}: {exc}") from None


def load_interaction(path: str, z: float) -> synthesis.InteractionMatrix:
    """Read an interaction matrix from a matrix JSON file or a bundle and
    plan it at scale z."""
    obj = _load_json(path, ("Z", "rows", "cols", "re", "im"))
    if not isinstance(obj, dict):
        raise _InputError(f"{path}: expected a JSON object")
    if "Z" in obj and "re" not in obj:
        obj = obj["Z"]
    return _checked(path, synthesis.InteractionMatrix.from_matrix, matrix_from_json(obj, path), z)


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


def _load_cluster(args):
    """The plan of the cluster in --graph at --phases, and of --gauge (default
    identity) the name for the report and the selector of
    :meth:`~clustersqueeze.synthesis.ClusterPlan.interaction`: 'identity',
    'faithful' or the matrix in custom:PATH, of the graph's shape."""
    if args.graph is None:
        raise _InputError("provide --interaction or --graph")
    a = parse_graph(_read_text(args.graph))
    theta = load_phases(args.phases or "zero", a.shape[0])
    cluster = synthesis.ClusterPlan.of(a, theta)
    spec = "identity" if args.gauge is None else args.gauge
    if spec in ("identity", "faithful"):
        return cluster, spec, spec
    if not spec.startswith("custom:"):
        raise _InputError(f"unknown gauge {spec!r}; use identity, faithful or custom:PATH")
    path = spec[len("custom:"):]
    p = matrix_from_json(_load_json(path), path)
    if p.shape != a.shape:
        raise _InputError(f"{path}: P not of shape {a.shape}")
    return cluster, "custom", p


# --------------------------------------------------------------------------
# output helpers

@contextlib.contextmanager
def _output(out_path: str | None):
    """The file ``out_path`` opened for writing, or stdout; an ``OSError``
    opening or writing the file is an input error."""
    if not out_path:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise _InputError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    """Write ``json.dumps(ref, indent=2) + "\\n"`` byte for byte to ``out_path``
    or stdout, where ``ref`` is ``obj`` (string-keyed) with each 2-D array
    replaced by its matrix object: ``rows``, ``cols``, the ``re`` block and,
    unless every entry is real, the ``im`` block (see :func:`_blocks`).

    The pure-Python encoder that ``indent`` selects formats every number in
    Python; here a list of numbers is encoded by one call of the C encoder
    (same ``float.__repr__``, same ``NaN``/``Infinity``) built with the
    list's line break and indent as its item separator, so its text needs no
    further pass.  A matrix block diagonal bit for bit formats its diagonal
    alone, and one symmetric bit for bit, or antisymmetric below its
    diagonal, one triangle (see :func:`_row_items`).  When the walk
    reaches the first array, the report's arrays are listed in walk order
    (:class:`_Repeats`), and an array with the shape, dtype and bits of an
    earlier one at the same indent takes that one's text.  An array's rows
    are turned into lists and text only when the walk reaches it, and the
    matrix's text goes out with one ``write``; it is held beyond that
    write only while a later matrix repeats it, so at most one matrix is
    held as lists and text, beside the text of those that later matrices
    repeat.
    """
    repeats = _Repeats(obj)
    chunks: list[str] = []
    with _output(out_path) as fh:
        _write_json(obj, "\n", chunks, fh, repeats)
        chunks.append("\n")
        fh.write("".join(chunks))


_CONTAINERS = (np.ndarray, dict, list, tuple)
_SCALARS = {bool, float, int, str, type(None)}


def _arrays(obj, newline: str, found: list[tuple[np.ndarray, str]]) -> None:
    """Append each array in ``obj`` with the ``newline`` :func:`_write_json`
    writes it at, in the order it writes them."""
    if isinstance(obj, np.ndarray):
        found.append((obj, newline))
    elif isinstance(obj, _CONTAINERS):
        inner = newline + "  "
        for value in obj.values() if isinstance(obj, dict) else obj:
            if type(value) not in _SCALARS:  # no call for a plain scalar
                _arrays(value, inner, found)


class _Repeats:
    """The arrays of a report, in walk order, that repeat an earlier one:
    at the same indent with the same shape, dtype and bytes, so with the
    same text.  Bytes, not ``==``: 0.0 and -0.0 compare equal but print
    differently.  The report is searched for arrays when the walk reaches
    its first, so a report of none is walked once.  A repeated array's
    text is held from its write to its last repeat, and each repeat writes
    that text."""

    def __init__(self, report):
        self._report = report
        self._source: list[int] | None = None  # the first array each one repeats, or itself
        self._last: dict[int, int] = {}  # a repeated array -> its last repeat
        self._held: dict[int, str] = {}
        self._count = 0

    def _find(self) -> list[int]:
        arrays: list[tuple[np.ndarray, str]] = []
        _arrays(self._report, "\n", arrays)
        # first arrays by what is cheap to compare: only these need all their bytes read
        alike: dict[tuple, list[int]] = {}
        source: list[int] = []
        for k, (a, newline) in enumerate(arrays):
            firsts = alike.setdefault((a.shape, a.dtype, newline, a[:1].tobytes()), [])
            j = next((j for j in firsts if arrays[j][0].tobytes() == a.tobytes()), k)
            source.append(j)
            if j == k:
                firsts.append(k)
            else:
                self._last[j] = k
        return source

    def write(self, a: np.ndarray, newline: str, chunks: list[str], fh) -> None:
        """Write the chunks, then the matrix object of ``a``, the next array
        of the walk, with one ``write``."""
        if self._source is None:
            self._source = self._find()
        k, self._count = self._count, self._count + 1
        j = self._source[k]
        if j != k:  # a repeat, the last one drops the text
            chunks.append(self._held.pop(j) if self._last[j] == k else self._held[j])
        elif k in self._last:
            text: list[str] = []
            _write_matrix(a, newline, text)
            self._held[k] = "".join(text)
            chunks.append(self._held[k])
        else:
            _write_matrix(a, newline, chunks)
        fh.write("".join(chunks))
        chunks.clear()


def _write_json(obj, newline: str, chunks: list[str], fh, repeats: _Repeats) -> None:
    """Append ``obj`` laid out as ``indent=2`` does; ``newline`` ends in its
    indent.  An array's text is written to ``fh`` with the chunks before it
    (:meth:`_Repeats.write`)."""
    inner = newline + "  "
    if isinstance(obj, np.ndarray):
        repeats.write(obj, newline, chunks, fh)
        return
    if isinstance(obj, dict) and obj:
        brackets = "{}"
        items = [(json.dumps(key) + ": ", value) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= {float, int}:  # one encoder call; its separator holds the indent
            encoder = json.JSONEncoder(separators=("," + inner, ": "))
            chunks.append(f"[{inner}{encoder.encode(obj)[1:-1]}{newline}]")
            return
        brackets = "[]"
        items = [("", value) for value in obj]
    else:
        chunks.append(json.dumps(obj))  # scalars and empty containers
        return
    separator = brackets[0] + inner
    for prefix, value in items:
        chunks.append(separator + prefix)
        _write_json(value, inner, chunks, fh, repeats)
        separator = "," + inner
    chunks.append(newline + brackets[1])


def _write_matrix(a: np.ndarray, newline: str, chunks: list[str]) -> None:
    """Append the matrix object of ``a`` (``rows``, ``cols`` and its
    :func:`_blocks` as lists of rows) laid out as ``indent=2`` does."""
    inner, row, entry = newline + "  ", newline + "    ", newline + "      "
    rows, cols = a.shape
    chunks.append(f'{{{inner}"rows": {rows},{inner}"cols": {cols}')
    for key, block in _blocks(a):
        chunks.append(f',{inner}"{key}": ')
        separator = "[" + row
        for items in _row_items(block, entry):
            chunks.append(f"{separator}[{entry}{items}{row}]" if cols else separator + "[]")
            separator = "," + row
        chunks.append(inner + "]" if rows else "[]")
    chunks.append(newline + "}")


_SIGN_BIT = np.uint64(1 << 63)


def _diagonal(block: np.ndarray) -> bool:
    """Whether ``block`` is square, n >= 2, with every bit off its diagonal
    zero: +0.0 there, not -0.0, which prints differently.  The two entries
    next to the first diagonal entry are read first, so most blocks are
    turned down before the whole of one is read."""
    n = block.shape[0]
    if n != block.shape[1] or n < 2:
        return False
    bits = block.view(np.uint64)
    if bits[0, 1] or bits[1, 0]:
        return False
    return np.count_nonzero(bits) == np.count_nonzero(np.diagonal(bits))


def _mirror(block: np.ndarray) -> str | None:
    """How a ``block``'s entries below the diagonal follow from their mirror
    images bit for bit: ``""`` when the block equals its transpose, ``"-"``
    when each is its mirror image with the sign bit flipped, else None.

    Bits, not ``==``: 0.0 and -0.0 compare equal but print differently.  The
    first column is compared first, so an unstructured block is turned down
    before the whole of it is read.
    """
    n = block.shape[0]
    if n != block.shape[1]:
        return None
    if n < 2:
        return ""
    bits = block.view(np.uint64)
    flip = bits[1, 0] ^ bits[0, 1]
    if flip not in (0, _SIGN_BIT) or not np.all(bits[1:, 0] ^ bits[0, 1:] == flip):
        return None
    # the diagonal matches itself, never with its sign bit flipped
    if np.count_nonzero(bits ^ bits.T == flip) != n * n - (n if flip else 0):
        return None
    return "-" if flip else ""


def _row_items(block: np.ndarray, indent: str):
    """The text of each row of ``block`` between its brackets, entries joined
    by ``"," + indent``, as the C encoder formats them.

    The encoder's item separator holds the indent, so a row is one
    ``encode`` call.  A block that :func:`_diagonal` finds diagonal bit for
    bit encodes its diagonal alone, n numbers in one call: row i is i
    ``0.0`` entries, the diagonal entry and n - 1 - i more.  Any other
    square block that :func:`_mirror` finds symmetric or antisymmetric bit
    for bit below the diagonal formats only its upper triangle: each entry
    below the diagonal takes the text of its mirror image, or that text
    with its sign flipped (the text of -x is that of x with a ``-`` added
    or removed; NaN prints without a sign).
    """
    separator = "," + indent
    encoder = json.JSONEncoder(separators=(separator, ": "))
    if _diagonal(block):
        n, before, after = block.shape[0], "0.0" + separator, separator + "0.0"
        for i, text in enumerate(encoder.encode(np.diagonal(block).tolist())[1:-1].split(separator)):
            yield before * i + text + after * (n - 1 - i)
        return
    sign = _mirror(block)
    if sign is None:
        for values in block:
            yield encoder.encode(values.tolist())[1:-1]
        return
    upper: list[list[str]] = []  # row j's texts of entries (j, j), (j, j + 1), ...
    for i, values in enumerate(block):
        texts = encoder.encode(values[i:].tolist())[1:-1].split(separator)
        lower = [above[i - j] for j, above in enumerate(upper)]
        if sign:
            lower = [t[1:] if t[0] == "-" else t if t == "NaN" else "-" + t for t in lower]
        upper.append(texts)
        yield separator.join(lower + texts)


def _render(r: dict, fmt: str) -> str:
    """The text or CSV of a command's report ``r``, read from the report
    alone: the lines of its (command, format), then one line per check."""
    match r["command"], fmt:
        case "synthesize", "text":
            squeezers = (f"({m['strength']:.6g}, {m['decibels']:.6g})" for m in r["squeezers"])
            lines = [
                f"synthesize: {r['n']} modes, gauge {r['gauge']}, z = {r['z']}",
                f"covariance max-entry: {r['covariance_max_abs']!r}",
                "squeezers (strength, dB): " + ", ".join(squeezers),
                "checks:",
            ]
        case "analyze", "text":
            lines = [
                f"analyze: {r['n']} modes, z = {r['z']}",
                f"phase search used: {r['phase_search_used']} "
                f"(sigma_min at input phases {r['sigma_min_at_input_phases']:.3e})",
                f"chosen phases: {[round(t, 6) for t in r['theta']]}",
                f"sigma_min: {r['sigma_min']!r}",
                "recovered graph:",
                r["graph_text"].rstrip("\n"),
                f"covariance max-entry at z = {r['z']}: {r['covariance_max_abs']!r}",
            ]
        case "decompose", "text":
            lines = [
                f"decompose: {r['n']} modes, z = {r['z']}",
                "squeezer strengths: " + ", ".join(f"{d:.6g}" for d in r["D"]),
                "squeezing (dB): " + ", ".join(f"{d:.6g}" for d in r["decibels"]),
                "checks:",
            ]
        case "verify", "text":
            lines = [f"verify: z = {r['z']}: {'all checks passed' if r['passed'] else 'FAILURES'}"]
        case "sweep", "text":
            lines = [f"sweep: gauge {r['gauge']}"] + [
                f"  z = {row['z']!r}: max_abs {row['max_abs_C']!r}, frobenius {row['frobenius_C']!r}"
                for row in r["rows"]
            ]
        case "sweep", "csv":
            lines = ["z,max_abs_C,frobenius_C"] + [
                f"{row['z']!r},{row['max_abs_C']!r},{row['frobenius_C']!r}" for row in r["rows"]
            ]
    for c in r.get("checks", ()):
        status = "pass" if c["passed"] else "FAIL"
        lines.append(
            f"  [{status}] {c['name']}: residual {c['residual']:.3e} "
            f"(tolerance {c['tolerance']:.1e})"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# commands

def _z(args) -> float:
    """-z value, 1.0 when absent."""
    return _checked("-z", battery.positive_scale, 1.0 if args.z is None else args.z)


#: most rows a --z-range may ask for; at 1e5 rows a JSON sweep of the EPR
#: graph took 1.4 s and 140 MB peak RSS on a 2-core VM
MAX_SWEEP_ROWS = 100_000


class _ZRange:
    """--z-range's z_k = round(START + k STEP, 12), k = 0..last, each formed
    when read, so the sweep checks the last z before the others exist, and
    the row limit only after that."""

    def __init__(self, start: float, step: float, last: int):
        self._start, self._step, self._k = start, step, range(last + 1)

    def __getitem__(self, k: int) -> float:
        return round(self._start + self._k[k] * self._step, 12)

    def __iter__(self):
        if len(self._k) > MAX_SWEEP_ROWS:
            raise _InputError(f"--z-range asks for {len(self._k)} rows, more than {MAX_SWEEP_ROWS}")
        values = [self[k] for k in self._k]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise _InputError("--z-range STEP is too small to advance z at 12 decimals")
        return iter(values)


def _z_range(args) -> list[float] | _ZRange:
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
    if round(start, 12) == 0:
        raise _InputError("--z-range START rounds to 0 at 12 decimals")
    if round(start + step, 12) <= round(start, 12):  # values keep 12 decimals
        raise _InputError("--z-range STEP is too small to advance START")
    # each z_k from k: summing STEP drifts and can drop STOP
    steps = (stop - start + 1e-12) / step
    if steps == math.inf:
        raise _InputError("--z-range spans more steps than a float can count")
    return _ZRange(start, step, math.floor(steps))


def _graph_only(args, *flags) -> None:
    """Reject with --interaction the ``flags`` only the --graph route reads."""
    given = [flag for flag in flags if getattr(args, flag.lstrip("-")) is not None]
    if given:
        raise _InputError(f"{' and '.join(given)} cannot be used with --interaction")


def cmd_synthesize(args) -> tuple[int, dict]:
    cluster, gauge_name, gauge = _load_cluster(args)
    z = _z(args)
    checks, _, zm, pair, closed = battery.synthesize(cluster.interaction(gauge, z))
    published = battery.structured(zm, pair)
    return EXIT_OK, {
        "command": "synthesize",
        "n": cluster.A.shape[0],
        "z": z,
        "gauge": gauge_name,
        "theta": [float(t) for t in cluster.theta],
        "adjacency": cluster.A,
        "Z": published["Z"],
        "P": zm.P,
        "U": zm.U,
        "X": published["X"],
        "Y": published["Y"],
        "C": closed.C,
        "E": closed.E,
        "covariance_max_abs": closed.max_abs,
        "squeezers": [m._asdict() for m in synthesis.squeezer_spectrum(zm)],
        "checks": checks,
    }


def _chopped(a: np.ndarray, threshold: float) -> np.ndarray:
    """Zero out noise-level weights for the graph-format rendering."""
    cut = threshold * max(1.0, float(np.max(np.abs(a))))
    return np.where(np.abs(a) < cut, 0.0, a)


def cmd_analyze(args) -> tuple[int, dict]:
    z = _z(args)
    zm = load_interaction(args.interaction, z)
    theta = load_phases(args.phases, zm.n)
    result = analysis.analyze_interaction(zm, theta=theta)
    return EXIT_OK, {
        "command": "analyze",
        "n": zm.n,
        "z": z,
        "phase_search_used": result.phases_replaced,
        "sigma_min_at_input_phases": float(result.input_margin),
        "sigma_min": float(result.margin),
        "theta": [float(t) for t in result.theta],
        "adjacency": result.adjacency,
        "graph_text": format_graph(_chopped(result.adjacency, 1e-10)),
        "covariance_max_abs": result.covariance.max_abs,
        "C": result.covariance.C,
    }


def cmd_decompose(args) -> tuple[int, dict]:
    z = _z(args)
    if args.interaction is not None:
        _graph_only(args, "--phases", "--gauge")
        checked, factors = battery.decompose(load_interaction(args.interaction, z))
    else:
        cluster, _, gauge = _load_cluster(args)
        checked, factors = battery.decompose(cluster.interaction(gauge, z))
    return EXIT_OK, {
        "command": "decompose",
        "n": checked.zm.n,
        "z": z,
        "V": factors.V,
        "R": factors.R,
        "T": factors.T,
        "D": [float(d) for d in factors.D],
        "zD": [float(z * d) for d in factors.D],
        "decibels": [float(db) for db in factors.decibels],
        "checks": checked.checks,
    }


def cmd_verify(args) -> tuple[int, dict]:
    if args.interaction is not None:
        _graph_only(args, "--phases", "--gauge", "-z")  # the bundle fixes z
        path = args.interaction
        required, matrices = ("adjacency", "theta", "P", "z", "gauge"), ("Z", "U", "X", "Y", "C")
        bundle = _load_json(path, required + matrices)
        if not (isinstance(bundle, dict) and all(key in bundle for key in required)):
            raise _InputError("verify needs a synthesize bundle with " + ", ".join(required))
        adjacency = matrix_from_json(bundle["adjacency"], path)
        cluster = _checked(path, synthesis.ClusterPlan.of, adjacency, bundle["theta"])
        z = _checked(f"{path}: z", battery.positive_scale, bundle["z"])
        stored = {key: matrix_from_json(bundle[key], path) for key in ("P", *matrices) if key in bundle}
        wrong = [key for key, m in stored.items() if m.shape != cluster.A.shape]
        if wrong:
            raise _InputError(f"{path}: {', '.join(wrong)} not of shape {cluster.A.shape}")
        # a built-in gauge is planned by its name, as on the graph route, and
        # its stored P compared; any other gauge is the stored P itself
        gauge = bundle["gauge"]
        if gauge not in ("identity", "faithful"):
            gauge = stored.pop("P")
    else:
        z, stored = _z(args), None
        cluster, _, gauge = _load_cluster(args)
    checks = battery.verify(cluster.interaction(gauge, z), stored).checks
    passed = all(c["passed"] for c in checks)
    report = {"command": "verify", "z": z, "passed": passed, "checks": checks}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), report


def cmd_sweep(args) -> tuple[int, dict]:
    cluster, gauge_name, gauge = _load_cluster(args)
    rows = battery.convergence_sweep(cluster, gauge, _z_range(args))
    return EXIT_OK, {
        "command": "sweep",
        "gauge": gauge_name,
        "rows": [{"z": r.z, "max_abs_C": r.max_abs, "frobenius_C": r.frobenius} for r in rows],
    }


# --------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser, *, formats=("json", "text")) -> None:
    """--out, --format and -z."""
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--format",
        choices=formats,
        default=formats[0],
        help=f"output format (default {formats[0]})",
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
    _add_common(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_ana = sub.add_parser("analyze", help="interaction -> cluster")
    p_ana.add_argument("--interaction", required=True, help="matrix JSON or bundle")
    p_ana.add_argument("--phases", default="zero", help="'zero' or path to angles")
    _add_common(p_ana)
    p_ana.set_defaults(func=cmd_analyze)

    p_dec = sub.add_parser("decompose", help="interaction -> squeezers + interferometer")
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
        code, report = args.func(args)
        if args.format == "json":
            _emit_json(report, args.out)
        else:
            _emit(_render(report, args.format), args.out)
        return code
    except (_InputError, GraphFormatError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GaugeIncompatible, NotHermitian, NotPositiveDefinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GAUGE
    except (ClusterSqueezeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
