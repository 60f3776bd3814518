"""Shared generators for randomized tests.

All randomness flows through explicitly seeded generators so every test is
deterministic; tolerances in the assertions are the contract values, not
calibrated slack.  Hypothesis runs derandomized under the ``tier1``
profile for the same reason.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from clustersqueeze import (
    DuplicateEdge,
    IndexOutOfRange,
    ParseError,
    adjacency_matrix,
    graphs,
    oracle,
    phase_vector,
)

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("tier1")


def random_adjacency(rng, n, weight=2.0, density=1.0, self_loops=True):
    """Random symmetric weighted adjacency with entries in [-weight, weight]."""
    a = rng.uniform(-weight, weight, (n, n))
    a = (a + a.T) / 2.0
    if density < 1.0:
        mask = rng.uniform(size=(n, n)) < density
        mask = mask | mask.T
        a = np.where(mask, a, 0.0)
    if not self_loops:
        np.fill_diagonal(a, 0.0)
    return a


def random_phases(rng, n):
    return rng.uniform(-np.pi, np.pi, n)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))[None, :]


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_symmetric_unitary(rng, n):
    u = random_unitary(rng, n)
    return u @ u.T


def random_hermitian_pd(rng, n, shift=None):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = m @ m.conj().T
    return h + (n if shift is None else shift) * np.eye(n)


def hermitian_function(m, f):
    """f(H) of a Hermitian matrix from its eigendecomposition."""
    h = np.asarray(m, dtype=complex)
    w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (q * f(w)[None, :]) @ q.conj().T


def random_compatible_gauge(rng, A, theta, strength_cap=3.0):
    """Random positive-definite gauge satisfying the reality condition.

    Every compatible gauge is e^{-i Theta} (A + i)^{-1} S (A - i)^{-1}
    e^{i Theta} for a real symmetric positive definite S; the result is
    rescaled so its largest eigenvalue stays below the cap (keeps cosh(z P)
    in comfortable double-precision range for the tests).
    """
    a = np.asarray(A, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    s = rng.normal(size=(n, n))
    s = s @ s.T + 0.5 * eye
    ph = np.exp(1j * np.asarray(theta))
    core = np.linalg.solve(a + 1j * eye, s) @ np.linalg.inv(a - 1j * eye)
    p = ph.conj()[:, None] * core * ph[None, :]
    p = (p + p.conj().T) / 2.0
    top = float(np.linalg.eigvalsh(p)[-1])
    if top > strength_cap:
        p = p * (strength_cap / top) + 0.05 * eye
    return p


def non_hermitian_compatible_gauge(A):
    """(A + i)^-1 R (A - i)^-1 with R real and not symmetric.

    Passes the reality condition at zero phases but is not Hermitian.
    """
    a = np.asarray(A, dtype=float)
    eye = np.eye(a.shape[0])
    r = eye + np.triu(np.ones_like(a), 1)
    return np.linalg.solve(a + 1j * eye, r) @ np.linalg.inv(a - 1j * eye)


def random_gauge(rng, kind, A, theta):
    """Gauge selector of the requested kind for a theorem-consistent
    instance: the name of a built-in gauge, or a random compatible P."""
    if kind in ("identity", "faithful"):
        return kind
    return random_compatible_gauge(rng, A, theta)


def reference_unitary_from_adjacency(A, theta):
    """The structure factor by a complex solve, as it was before the
    cluster plan, verbatim."""
    a = adjacency_matrix(A)
    th = phase_vector(theta, a.shape[0])
    eye = np.eye(a.shape[0])
    m = np.linalg.solve(a + 1j * eye, a - 1j * eye)
    ph = np.exp(-1j * th)
    u = -1j * ph[:, None] * m * ph[None, :]
    return (u + u.T) / 2.0


def reference_gauge_faithful(A, theta, z):
    """The faithful gauge 1 + e^{-i Theta} ln(A^2 + 1) e^{i Theta} / (2 z)
    through eigh(A A + 1), as it was before the cluster plan, verbatim."""
    a = adjacency_matrix(A)
    th = phase_vector(theta, a.shape[0])
    eye = np.eye(a.shape[0])
    w, q = np.linalg.eigh(a @ a + eye)
    log_gram = (q * np.log(w)[None, :]) @ q.conj().T
    ph = np.exp(-1j * th)
    p = eye + ph[:, None] * log_gram * ph.conj()[None, :] / (2.0 * z)
    return (p + p.conj().T) / 2.0


def reference_quadrature_flow(Z, z):
    """The quadrature flow exp(K) by scipy's scaling and squaring, as the
    oracle computed it before the ``eigh`` of K."""
    return scipy.linalg.expm(oracle.quadrature_generator(Z, z))


FACTORIZATIONS = ("eigh", "eigvalsh", "solve", "svd", "norm2")


@pytest.fixture
def factorizations(monkeypatch):
    """Record the N x N factorizations of order >= 2 made while the test
    runs: kernel name -> list of copied first arguments.

    The kernels are those the benchmark's ``linalg.factorizations_per_request``
    counts: ``numpy.linalg`` ``eigh``, ``eigvalsh``, ``solve`` and ``svd``,
    and ``norm(., 2)`` (an SVD, recorded as ``norm2``).  ``calls.total()``
    is their number.
    """
    calls = _Factorizations({name: [] for name in FACTORIZATIONS})

    def counting(name, original, counted=lambda args, kwargs: True):
        def wrapper(a, *args, **kwargs):
            if np.ndim(a) >= 2 and np.shape(a)[-1] >= 2 and counted(args, kwargs):
                calls[name].append(np.array(a))
            return original(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "norm", counting(
        "norm2", np.linalg.norm, lambda args, kwargs: (args[0] if args else kwargs.get("ord")) == 2))
    return calls


@pytest.fixture
def validations(monkeypatch):
    """Record the adjacency matrices validated while the test runs: a copy
    of the argument of every ``graphs.adjacency_matrix`` call, through each
    module that binds the function."""
    calls = []
    original = graphs.adjacency_matrix

    def counting(values):
        calls.append(np.array(values))
        return original(values)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "adjacency_matrix", None)
        if name.partition(".")[0] == "clustersqueeze" and bound is original:
            monkeypatch.setattr(module, "adjacency_matrix", counting)
    return calls


class _Factorizations(dict):
    def total(self) -> int:
        return sum(map(len, self.values()))

    def of(self, name, matrix) -> int:
        """Calls of ``name`` whose argument equals ``matrix``."""
        return sum(1 for a in self[name] if np.array_equal(a, matrix))


def epr_adjacency():
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def reference_parse_graph(text: str) -> np.ndarray:
    """The per-line graph reader as it was before the bulk path, verbatim."""
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
            a = np.zeros((n, n))
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


def reference_format_graph(A) -> str:
    """The double-loop graph writer as it was before vectorization, verbatim."""
    a = adjacency_matrix(A)
    n = a.shape[0]
    lines = [str(n)]
    for i in range(n):
        for j in range(i, n):
            if a[i, j] != 0.0:
                lines.append(f"{i} {j} {float(a[i, j])!r}")
    return "\n".join(lines) + "\n"


def perfbench_graph_text(rng, n: int) -> str:
    """Dense graph file as the benchmark writes it: uniform[-1, 1] weights
    with self-loops, one ``i j repr(w)`` line per upper-triangle entry."""
    a = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    rows, cols = np.nonzero(a)
    lines = [str(n)] + [
        f"{i} {j} {float(a[i, j])!r}" for i, j in zip(rows.tolist(), cols.tolist())
    ]
    return "\n".join(lines) + "\n"
