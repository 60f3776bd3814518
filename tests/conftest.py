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
    BogoliubovPair,
    ClusterSqueezeError,
    CovarianceReport,
    DimensionMismatch,
    DuplicateEdge,
    IndexOutOfRange,
    NotSymmetric,
    ParseError,
    SingularPhasePoint,
    adjacency_matrix,
    analysis,
    graphs,
    oracle,
    phase_vector,
)
from clustersqueeze.matfun import (
    _real_product,
    _spectral,
    as_complex_matrix,
    max_abs,
    symmetry_defect,
    unitarity_defect,
)
from clustersqueeze.tolerances import REGULAR_MIN, RTOL, positive_scale

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


def reference_reality_check(cluster, p):
    """The gauge gate's residual and scale from the whole test matrix
    T = (A + i) e^{i Theta} P e^{-i Theta} (A - i), formed in four real
    products: max|Im T| / max|T| and max|T|."""
    a = cluster.A
    ph = np.exp(1j * cluster.theta)
    b = ph[:, None] * p * ph.conj()[None, :]
    # B (A - i) = (A B^T)^T - i B with the symmetric A
    right = _real_product(a, b.T).T - 1j * b
    test = _real_product(a, right) + 1j * right
    scale = max_abs(test)
    return (max_abs(test.imag) / scale if scale else 0.0), scale


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
    """The quadrature flow exp(z K) by scipy's scaling and squaring, as the
    oracle computed it before the ``eigh`` of K."""
    return scipy.linalg.expm(z * oracle.quadrature_generator(Z))


# Second routes to the library's results.  The library neither calls nor
# exports them; tests compare its derivations and results against them.

def squeezing_generator(Z, z):
    """Generator G = [[0, -i z Z], [i z conj(Z), 0]] of the mode-operator
    flow B = exp(G), the matrix the oracle's real generator K = T^-1 G T
    derives from (see :mod:`clustersqueeze.oracle`)."""
    zm = as_complex_matrix(Z)
    if not (np.isfinite(z) and z >= 0):
        raise ValueError("squeezing scale z must be non-negative and finite")
    n = zm.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[zero, -1j * z * zm], [1j * z * zm.conj(), zero]])


def quadrature_flow(zm, z=None):
    """Real symplectic 2N x 2N flow S = exp(z K) = V diag(e^{z w}) V^T from
    the oracle's one ``eigh`` of K at z = 1, at the record's z unless a
    z > 0 is given (one record's flow at several scales)."""
    w, v = oracle._generator_eigh(zm)
    z = zm.z if z is None else positive_scale(z)
    return _spectral(v, np.exp(z * w))


def bogoliubov_oracle(zm):
    """Bogoliubov blocks read off the real flow S = exp(K):
    X = ((S_xx + S_pp) + i (S_px - S_xp)) / 2 and
    Y = ((S_xx - S_pp) + i (S_px + S_xp)) / 2.

    The lower block row of B is the entrywise conjugate of the upper one,
    so (X, Y) carry the whole matrix.
    """
    s = quadrature_flow(zm)
    n = zm.n
    sxx, sxp = s[:n, :n], s[:n, n:]
    spx, spp = s[n:, :n], s[n:, n:]
    return BogoliubovPair(
        X=0.5 * ((sxx + spp) + 1j * (spx - sxp)),
        Y=0.5 * ((sxx - spp) + 1j * (spx + sxp)),
    )


def complex_route(zm):
    """Z, X, Y, C and E of a planned record by the complex route, which every
    gauge took before a P diagonal in the plan's frame read its blocks off
    the plan's real Q: Z = P U, X = Q_P cosh(zw) Q_P^dagger,
    Y = -i sinh(zP) U, and C = Re H H^dagger and E = H Q_P^dagger with
    H = (A + i) e^{i Theta} Q_P e^{-zw}, for P's eigenpairs (w, Q_P).  The
    products with P, X and sinh(zP) of the identity gauge are those of
    exact identity matrices."""
    cluster, w, q, z = zm.cluster, zm.strengths, zm.modes, zm.z
    x = _spectral(q, np.cosh(z * w))
    sinh = _spectral(q, np.sinh(z * w))
    y = (-1j * sinh) @ zm.U if np.iscomplexobj(sinh) else _real_product(sinh, -1j * zm.U)
    rotated = np.exp(1j * cluster.theta)[:, None] * q
    h = (_real_product(cluster.A, rotated) + 1j * rotated) * np.exp(-z * w)[None, :]
    real = h.view(float)
    return {"Z": zm.P @ zm.U, "X": x, "Y": y, "C": real @ real.T, "E": h @ q.conj().T}


def nullifier_map(cluster):
    """N x 2N coefficient matrix Q = [L, conj(L)], L = -(A + i 1) e^{i Theta},
    of the nullifiers of a ``ClusterPlan``, acting on the stacked
    mode-operator vector (b, b^dagger)."""
    a = cluster.A
    eye = np.eye(a.shape[0])
    phases = np.exp(1j * cluster.theta)
    left = -(a + 1j * eye) * phases[None, :]
    right = -(a - 1j * eye) * phases.conj()[None, :]
    return np.hstack([left, right])


def covariance_from_pair(cluster, pair):
    """Covariance C = M M^T, M = [Re L, -Im L] S, of the nullifiers under an
    explicit Bogoliubov pair, through its real quadrature flow S.

    The pair is taken as given, without validating the commutation
    conditions: a pair built from a gauge factor violating the reality
    condition makes ``imag_residual`` blow up.  Any pair of the
    [[X, Y], [Y*, X*]] form has a real quadrature flow, so nothing is lost by
    going through S.  The left block of Q B is
    M_x - i M_p, so E = (A + i 1) e^{i Theta} X + (A - i 1) e^{-i Theta}
    conj(Y) equals -M_x + i M_p and C = E E^dagger whenever (X, Y) obey the
    bosonic-commutation conditions; the report's E is that factor, and the
    imaginary part of E E^dagger, M_x M_p^T - M_p M_x^T, is its realness
    residual.
    """
    x, y = pair.X, pair.Y
    s = np.block(
        [[(x + y).real, (y - x).imag], [(x + y).imag, (x - y).real]]
    )
    n = cluster.A.shape[0]
    if s.shape != (2 * n, 2 * n):
        raise DimensionMismatch(
            f"Bogoliubov matrix shape {s.shape} does not match {n} modes"
        )
    left = nullifier_map(cluster)[:, :n]
    m = np.hstack([left.real, -left.imag]) @ s
    c = m @ m.T  # one same-buffer product (BLAS syrk): exactly symmetric
    mx, mp = m[:, :n], m[:, n:]
    # no record: this reference's E is never formed
    return CovarianceReport(C=c, H=-mx + 1j * mp, max_abs=max_abs(c), record=None)


class NotUnitary(ClusterSqueezeError):
    """A symmetric unitary reference below got a matrix that is not unitary."""


#: eigenvalue gap below which ``symmetric_unitary_angles`` treats Re(S) as
#: degenerate
DEGENERACY = 1e-8


def _symmetric_unitary(s) -> np.ndarray:
    """S as a complex matrix, checked unitary (``RTOL`` N) and symmetric
    (``RTOL`` max(1, max|S|))."""
    sm = as_complex_matrix(s)
    n = sm.shape[0]
    if unitarity_defect(sm) > RTOL * n:
        raise NotUnitary(
            f"unitarity defect {unitarity_defect(sm):.3e} exceeds tolerance"
        )
    if symmetry_defect(sm) > RTOL * max(1.0, max_abs(sm)):
        raise NotSymmetric(
            f"symmetry defect {symmetry_defect(sm):.3e} exceeds tolerance"
        )
    return sm


def half_phase(s) -> np.ndarray:
    """e^{i arg(s) / 2} with arg on (-pi, pi] and -pi mapped to +pi: the
    Autonne-Takagi factor of each 1 x 1 symmetric unitary s."""
    angles = np.angle(s)
    return np.exp(0.5j * np.where(angles < -np.pi + 1e-12, angles + 2.0 * np.pi, angles))


def takagi_symmetric_unitary(s) -> np.ndarray:
    """Autonne-Takagi factor R of a symmetric unitary: R unitary, R R^T = S.

    A 1 x 1 S gives R = half_phase(S), a larger one R = e^{i pi / 4} F
    diag(rotation) of the cluster S encodes at the equal phases, its columns
    in ascending |lam|.  R is not unique; callers check only R R^T - S.
    """
    sm = _symmetric_unitary(s)
    if sm.shape[0] == 1:
        return half_phase(sm)
    plan = analysis._recovered_plan(sm, analysis._equal_phases(sm))
    return np.exp(0.25j * np.pi) * plan.frame * plan.rotation[None, :]


def symmetric_unitary_angles(s) -> tuple[np.ndarray, np.ndarray]:
    """Joint real-orthogonal diagonalization of a symmetric unitary: the
    angle route to S = Q e^{i L} Q^T.

    For symmetric unitary S the real and imaginary parts commute, so a single
    real orthogonal Q gives S = Q e^{i L} Q^T with real angles L.  Re(S) is
    diagonalized first; inside each degenerate eigenspace (gap below the
    degeneracy tolerance) Im(S) is re-diagonalized, which fixes
    the exactly-degenerate cases produced by structured graphs.  Angles are
    on the principal branch (-pi, pi], with -pi mapped to +pi.
    """
    sm = _symmetric_unitary(s)
    n = sm.shape[0]
    re = (sm.real + sm.real.T) / 2.0
    im = (sm.imag + sm.imag.T) / 2.0
    w, q = np.linalg.eigh(re)
    for g in np.split(np.arange(n), np.flatnonzero(np.diff(w) > DEGENERACY) + 1):
        if len(g) > 1:
            block = q[:, g].T @ im @ q[:, g]
            _, v = np.linalg.eigh((block + block.T) / 2.0)
            q[:, g] = q[:, g] @ v
    angles = np.angle(np.einsum("ij,ij->j", q, sm @ q))
    return q, np.where(angles < -np.pi + 1e-12, angles + 2.0 * np.pi, angles)


def k_matrix_form(U, theta):
    """Real symmetric angle matrix K with e^{i K} = e^{i Theta} U e^{i Theta},
    eigen-angles on the principal branch (-pi, pi]."""
    u = as_complex_matrix(U)
    th = phase_vector(theta, u.shape[0])
    q, angles = symmetric_unitary_angles(analysis._rotated(u, th))
    return _spectral(q, angles)


def adjacency_from_k(K):
    """Adjacency matrix A = -cos(K) (1 + sin(K))^{-1} of an angle matrix: the
    angle-matrix route from U to A."""
    k = np.asarray(K, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("angle matrix must be square")
    if symmetry_defect(k) > RTOL * max(1.0, max_abs(k)):
        raise NotSymmetric("angle matrix must be real symmetric")
    w, q = np.linalg.eigh((k + k.T) / 2.0)
    denom = 1.0 + np.sin(w)
    if float(np.min(np.abs(denom))) < REGULAR_MIN:
        raise SingularPhasePoint(
            "an eigen-angle of K sits at -pi/2, where the inverse relation "
            "is singular"
        )
    return _spectral(q, -np.cos(w) / denom)


def unitary_from_interferometer(V):
    """Structure factor U = i V V^T of a general Gaussian transformation,
    invariant under V -> V O for real orthogonal O."""
    v = as_complex_matrix(V)
    u = 1j * v @ v.T
    return (u + u.T) / 2.0


def matrix_to_json(m) -> dict:
    """The matrix object of the JSON reports and bundles: ``rows``, ``cols``,
    the ``re`` block and, unless every entry is real, the ``im`` block, each
    a list of rows."""
    a = np.asarray(m)
    out = {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
           "re": np.real(a).astype(float).tolist()}
    if np.iscomplexobj(a) and a.imag.any():
        out["im"] = a.imag.astype(float).tolist()
    return out


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
