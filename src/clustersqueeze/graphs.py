"""Cluster model: weighted adjacency matrices and local phases.

The graph file format (UTF-8 text) is:

* first non-comment line: the mode count N,
* each following non-comment line: ``i j w`` with 0-based integer node
  indices and a real weight; ``i == j`` sets a self-loop,
* lines starting with ``#`` are ignored,
* a repeated unordered pair ``(i, j)`` is an error.

:func:`parse_graph` reads the edge list with one call of numpy's text
reader and checks whole columns.  That bulk path accepts a subset of what
the per-line loop :func:`_parse_lines` accepts, and gives the same matrix
bit for bit.  Text holding a line break other than ``\n`` and ``\r\n`` goes
to the loop, since numpy's reader does not end a line there; so does every
input the bulk path rejects (a token that numpy does not read as the
column's type, a line without exactly three tokens, a trailing comment, a
non-finite weight, an index out of range, a repeated pair, no edges, a
mode count too large to allocate), and the loop words the error with its
line number.
"""

from __future__ import annotations

import io
import re
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    IndexOutOfRange,
    NotSymmetric,
    ParseError,
)
from .tolerances import INPUT_ASYMMETRY


def adjacency_matrix(values) -> np.ndarray:
    """Validate and exactly symmetrize a real weighted adjacency matrix.

    Input asymmetry beyond the input tolerance is an error; below it the
    matrix is replaced by (A + A.T) / 2 so downstream code may rely on exact
    symmetry.  A pair whose sum overflows is halved before it is added, so
    every finite input gives a finite matrix, and an exactly symmetric one
    keeps its bits.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency weights must be finite")
    with np.errstate(over="ignore"):  # a pair beyond half the float range
        defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if defect > INPUT_ASYMMETRY * max(1.0, float(np.max(np.abs(a)))):
            raise NotSymmetric(f"input asymmetry {defect:.3e} exceeds tolerance")
        mean = (a + a.T) / 2.0
    return mean if np.isfinite(mean).all() else np.where(np.isfinite(mean), mean, a / 2.0 + a.T / 2.0)


def _floats(values, what: str) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, but strings, or booleans alone,
    are no numbers though float() reads them: one dtype test, no scan.  A
    null, which float() would read as NaN, makes the array one of objects,
    and only such an array is scanned for it."""
    kind = (array := np.asarray(values)).dtype.kind
    if kind in "bSU":
        raise ValueError(f"{what} must be numbers, not strings or booleans")
    if kind in "fiu":
        return array.astype(float, copy=False)
    if kind == "O" and any(v is None for v in array.flat):
        raise ValueError(f"{what} must be numbers, not null")
    return np.asarray(values, dtype=float)


def phase_vector(values, n: int | None = None) -> np.ndarray:
    """Validate local rotation angles and reduce them to (-pi, pi]."""
    theta = np.atleast_1d(_floats(values, "phase angles"))
    if theta.ndim != 1:
        raise ValueError("phases must form a 1-D vector")
    if not np.all(np.isfinite(theta)):
        raise ValueError("phase angles must be finite")
    if n is not None and theta.shape[0] != n:
        raise DimensionMismatch(
            f"expected {n} phases, got {theta.shape[0]}"
        )
    reduced = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return np.where(reduced == -np.pi, np.pi, reduced)


# Besides "\n", str.splitlines breaks lines at these; numpy's reader does
# not end a line there, so text holding one goes to the loop.
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# A whole-line comment with the line break before it.
_COMMENT_LINE = re.compile(r"\n[ \t]*#[^\n]*")
_EDGE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def parse_graph(text: str) -> np.ndarray:
    """Parse the graph file format into a symmetric adjacency matrix.

    The edge lines are parsed in bulk; on any failure the per-line loop
    runs instead and raises the error (see the module docstring).
    """
    plain = text.replace("\r\n", "\n")
    if any(c in plain for c in _LINE_BREAKS):
        return _parse_lines(text)
    if "#" in plain:
        plain = _COMMENT_LINE.sub("", "\n" + plain)
    head, _, body = plain.lstrip(" \t\n").partition("\n")
    try:
        n = int(head)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. an edge list with no edges
            edges = np.loadtxt(io.StringIO(body), dtype=_EDGE, comments=None, ndmin=1)
    except (ValueError, Warning):
        return _parse_lines(text)
    if n <= 0:
        return _parse_lines(text)
    try:
        a = np.zeros((n, n))
    except (MemoryError, ValueError):  # numpy refuses before touching memory
        return _parse_lines(text)
    i, j, w = edges["i"], edges["j"], edges["w"]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys = np.sort(lo * n + hi)
    if not (
        np.isfinite(w).all()
        and lo.min() >= 0
        and hi.max() < n
        and (keys[1:] != keys[:-1]).all()
    ):
        return _parse_lines(text)
    a[i, j] = a[j, i] = w
    return adjacency_matrix(a)


def _parse_lines(text: str) -> np.ndarray:
    """Line-by-line reader: the reference semantics and the error messages."""
    n: int | None = None
    a: np.ndarray | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise ParseError(
                    f"line {lineno}: expected a single mode count, got {line!r}"
                )
            try:
                n = int(tokens[0])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: mode count {tokens[0]!r} is not an integer"
                ) from None
            if n <= 0:
                raise ParseError(f"line {lineno}: mode count must be positive")
            try:
                a = np.zeros((n, n))
            except (MemoryError, ValueError) as exc:
                raise ParseError(
                    f"line {lineno}: mode count {n} is too large ({exc})"
                ) from None
            continue
        if len(tokens) != 3:
            raise ParseError(
                f"line {lineno}: expected 'i j w', got {line!r}"
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(
                f"line {lineno}: node indices must be integers, got {line!r}"
            ) from None
        try:
            w = float(tokens[2])
        except ValueError:
            raise ParseError(
                f"line {lineno}: weight {tokens[2]!r} is not a number"
            ) from None
        if not np.isfinite(w):
            raise ParseError(f"line {lineno}: weight must be finite")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(
                f"line {lineno}: node index out of range for {n} modes"
            )
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdge(f"line {lineno}: duplicate edge ({i}, {j})")
        seen.add(key)
        a[i, j] = w
        a[j, i] = w
    if n is None:
        raise ParseError("empty graph file: missing mode count")
    return adjacency_matrix(a)


def format_graph(A) -> str:
    """Serialize an adjacency matrix to the graph file format.

    Weights use the shortest representation that round-trips a double, so
    parse(format(A)) reproduces A exactly.
    """
    a = adjacency_matrix(A)
    rows, cols = np.nonzero(np.triu(a))
    lines = [str(a.shape[0])] + [
        f"{i} {j} {w!r}"
        for i, j, w in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    ]
    return "\n".join(lines) + "\n"
