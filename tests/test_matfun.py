"""Tests for the dense complex-matrix kernels."""

import numpy as np
import pytest

from clustersqueeze import (
    DomainError,
    NotHermitian,
    NotSymmetric,
    NotUnitary,
    SingularInput,
    hermitian_apply,
    is_hermitian,
    is_real,
    is_symmetric,
    is_unitary,
    polar_decompose_symmetric,
    takagi_symmetric_unitary,
)
from clustersqueeze.matfun import phase_fixed_columns, symmetric_unitary_angles

from conftest import random_symmetric_unitary, random_unitary


class TestPredicates:
    def test_symmetric_and_hermitian(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert is_symmetric(m) and is_hermitian(m)
        c = np.array([[1.0, 1j], [-1j, 2.0]])
        assert is_hermitian(c) and not is_symmetric(c)

    def test_unitary_and_real(self):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2 * np.eye(3))
        assert is_real(np.ones((2, 2)))
        assert not is_real(1j * np.ones((2, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_apply(np.array([[np.nan, 0], [0, 1.0]]), np.exp)


class TestHermitianApply:
    def test_zero_exp_is_identity(self):
        assert np.allclose(hermitian_apply(np.zeros((1, 1)), np.exp), np.eye(1))

    def test_log_of_scaled_identity(self):
        out = hermitian_apply(2.0 * np.eye(2), np.log)
        assert np.allclose(out, np.log(2.0) * np.eye(2), atol=1e-12)

    def test_cosh_of_swap(self):
        # eigenvalues are +-1 and cosh is even, so the result is cosh(1) I
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = hermitian_apply(m, np.cosh)
        assert np.allclose(out, np.cosh(1.0) * np.eye(2), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_apply(np.array([[0.0, 1.0], [0.0, 0.0]]), np.exp)

    def test_domain_error_on_log_of_nonpositive(self):
        with pytest.raises(DomainError):
            hermitian_apply(np.diag([1.0, -1.0]), np.log)

    def test_plain_scalar_callable(self):
        import math

        out = hermitian_apply(np.diag([1.0, 4.0]), math.sqrt)
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_exp_inverse_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = (m + m.conj().T) / 2.0
            prod = hermitian_apply(m, np.exp) @ hermitian_apply(-m, np.exp)
            assert np.max(np.abs(prod - np.eye(n))) <= 1e-9


class TestPolarDecomposition:
    def test_unit_modulus_diagonal(self):
        p, u = polar_decompose_symmetric(1j * np.eye(2))
        assert np.allclose(p, np.eye(2), atol=1e-12)
        assert np.allclose(u, 1j * np.eye(2), atol=1e-12)

    def test_diagonal_case(self):
        p, u = polar_decompose_symmetric(np.diag([2.0, 3.0j]))
        assert np.allclose(p, np.diag([2.0, 3.0]), atol=1e-12)
        assert np.allclose(u, np.diag([1.0, 1.0j]), atol=1e-12)

    def test_scaled_swap_against_svd(self):
        z = -2.0 * np.array([[0.0, 1.0], [1.0, 0.0]])
        p, u = polar_decompose_symmetric(z)
        # independent oracle: P and U from the SVD of Z
        w, s, vh = np.linalg.svd(z)
        p_svd = (w * s[None, :]) @ w.conj().T
        u_svd = w @ vh
        assert np.allclose(p, p_svd, atol=1e-12)
        assert np.allclose(u, u_svd, atol=1e-12)
        assert np.allclose(p, 2.0 * np.eye(2), atol=1e-12)
        assert np.allclose(u, z / 2.0, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            polar_decompose_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_singular(self):
        with pytest.raises(SingularInput):
            polar_decompose_symmetric(np.zeros((2, 2)))
        with pytest.raises(SingularInput):
            polar_decompose_symmetric(np.diag([1.0, 1e-12]))

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 40:
            n = int(rng.integers(1, 9))
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            z = (z + z.T) / 2.0
            if np.linalg.svd(z, compute_uv=False)[-1] < 1e-3:
                continue
            done += 1
            p, u = polar_decompose_symmetric(z)
            scale = max(1.0, np.max(np.abs(z)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-9
            assert np.max(np.abs(u - u.T)) <= 1e-9 * scale
            assert np.max(np.abs(p - p.conj().T)) <= 1e-9 * scale
            assert np.linalg.eigvalsh(p)[0] > 0
            assert np.max(np.abs(p @ u - z)) <= 1e-9 * scale
            # symmetry of Z forces the strength factor to commute across U
            assert np.max(np.abs(p @ u - u @ p.conj())) <= 1e-9 * scale

    def test_svd_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            z = z + z.T + np.eye(n)
            p, u = polar_decompose_symmetric(z)
            w, s, vh = np.linalg.svd(z)
            assert np.allclose(p, (w * s[None, :]) @ w.conj().T, atol=1e-9)
            assert np.allclose(u, w @ vh, atol=1e-8)


class TestTakagi:
    def test_identity(self):
        assert np.allclose(takagi_symmetric_unitary(np.eye(2)), np.eye(2))

    def test_scalar_quarter_turn(self):
        r = takagi_symmetric_unitary(1j * np.eye(1))
        assert np.allclose(r, np.exp(1j * np.pi / 4) * np.eye(1), atol=1e-12)

    def test_negative_swap(self):
        s = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        r = takagi_symmetric_unitary(s)
        assert np.max(np.abs(r @ r.T - s)) <= 1e-12
        assert np.max(np.abs(r @ r.conj().T - np.eye(2))) <= 1e-12

    def test_branch_at_pi(self):
        # eigen-angle exactly pi must use the +pi branch: R column i, not -i
        r = takagi_symmetric_unitary(-np.eye(1))
        assert np.allclose(r, 1j * np.eye(1), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            takagi_symmetric_unitary(2.0 * np.eye(2))

    def test_rejects_non_symmetric(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 3)
        if np.max(np.abs(u - u.T)) < 1e-3:
            pytest.skip("random unitary unexpectedly symmetric")
        with pytest.raises(NotSymmetric):
            takagi_symmetric_unitary(u)

    def test_reproduces_random_symmetric_unitaries(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            s = random_symmetric_unitary(rng, n)
            r = takagi_symmetric_unitary(s)
            assert np.max(np.abs(r @ r.T - s)) <= 1e-9
            assert np.max(np.abs(r @ r.conj().T - np.eye(n))) <= 1e-9

    def test_reproduces_orthogonal_angle_construction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lam = rng.uniform(-np.pi, np.pi, n)
            s = (q * np.exp(1j * lam)[None, :]) @ q.T
            r = takagi_symmetric_unitary(s)
            assert np.max(np.abs(r @ r.T - s)) <= 1e-9

    def test_degenerate_structured_cases(self):
        # exact degeneracies of Re(S): swap-like and scalar matrices
        for s in (
            1j * np.array([[0.0, 1.0], [1.0, 0.0]]),
            -1j * np.eye(4),
            np.diag([1j, 1j, 1.0]),
            np.exp(0.3j) * np.eye(5),
        ):
            s = np.asarray(s, dtype=complex)
            r = takagi_symmetric_unitary(s)
            assert np.max(np.abs(r @ r.T - s)) <= 1e-9

    def test_star_graph_structure_factor(self):
        # adjacency of a star graph has a degenerate spectrum; its structure
        # factor exercises the clustered joint diagonalization
        n = 5
        a = np.zeros((n, n))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        eye = np.eye(n)
        u = -1j * np.linalg.solve(a + 1j * eye, a - 1j * eye)
        r = takagi_symmetric_unitary(u)
        assert np.max(np.abs(r @ r.T - u)) <= 1e-9


class TestOrderedEigh:
    def test_ascending_and_deterministic_phase(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = (m + m.conj().T) / 2.0
        w, q = np.linalg.eigh(m)
        q = phase_fixed_columns(q)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs((q * w[None, :]) @ q.conj().T - m)) <= 1e-9
        for j in range(5):
            col = q[:, j]
            first = col[np.abs(col) > 1e-8][0]
            assert abs(first.imag) <= 1e-12 and first.real > 0

    def test_angle_reconstruction(self):
        rng = np.random.default_rng(9)
        s = random_symmetric_unitary(rng, 6)
        q, lam = symmetric_unitary_angles(s)
        assert np.max(np.abs(q @ q.T - np.eye(6))) <= 1e-12
        assert np.all((lam > -np.pi) & (lam <= np.pi + 1e-12))
        assert np.max(np.abs((q * np.exp(1j * lam)[None, :]) @ q.T - s)) <= 1e-9
