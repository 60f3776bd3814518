"""Shared generators for randomized tests.

All randomness flows through explicitly seeded generators so every test is
deterministic; tolerances in the assertions are the contract values, not
calibrated slack.
"""

from __future__ import annotations

import numpy as np

from clustersqueeze import gauge_faithful, gauge_identity


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


def random_gauge(rng, kind, A, theta, z):
    """Gauge factor of the requested kind for a theorem-consistent instance."""
    n = np.asarray(A).shape[0]
    if kind == "identity":
        return gauge_identity(n)
    if kind == "faithful":
        return gauge_faithful(A, theta, z)
    return random_compatible_gauge(rng, A, theta)


def epr_adjacency():
    return np.array([[0.0, 1.0], [1.0, 0.0]])
