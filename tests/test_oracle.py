"""Tests for the brute-force verification path."""

import math

import numpy as np
import pytest

from clustersqueeze import (
    BogoliubovPair,
    DimensionMismatch,
    DomainError,
    InteractionMatrix,
    bogoliubov_from_interaction,
    bogoliubov_matrix,
    bogoliubov_oracle,
    convergence_sweep,
    covariance_closed_form,
    covariance_from_pair,
    covariance_oracle,
    gauge_identity,
    hermitian_apply,
    interaction_from_cluster,
    squeezing_generator,
    swap_form,
    unitary_from_adjacency,
    validate_gauge,
)
from clustersqueeze import oracle, synthesis
from clustersqueeze.oracle import quadrature_flow, quadrature_generator

from conftest import (
    epr_adjacency,
    random_adjacency,
    random_gauge,
    random_hermitian_pd,
    random_phases,
    random_symmetric_unitary,
)


class TestSwapForm:
    def test_structure(self):
        g = swap_form(3)
        assert np.array_equal(g, g.T)
        assert np.allclose(g @ g, np.eye(6))
        assert np.array_equal(g[:3, 3:], np.eye(3))
        assert np.array_equal(g[:3, :3], np.zeros((3, 3)))


class TestBogoliubovOracle:
    def test_scalar_generator_and_blocks(self):
        g = squeezing_generator(1j * np.eye(1), 1.0)
        assert np.allclose(g, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        zm = InteractionMatrix.from_matrix(1j * np.eye(1))
        b = bogoliubov_matrix(zm, 1.0)
        expected = np.array(
            [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
        )
        assert np.max(np.abs(b - expected)) <= 1e-12
        pair = bogoliubov_oracle(zm, 1.0)
        assert pair.X[0, 0] == pytest.approx(1.543081, abs=1e-6)
        assert pair.Y[0, 0] == pytest.approx(1.175201, abs=1e-6)

    def test_zero_scale_is_identity(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex))
        assert np.allclose(bogoliubov_matrix(zm, 0.0), np.eye(4), atol=1e-15)

    def test_epr_blocks_at_scale_two(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex))
        pair = bogoliubov_oracle(zm, 2.0)
        assert np.max(np.abs(pair.X - math.cosh(2.0) * np.eye(2))) <= 1e-10
        assert np.max(np.abs(pair.Y - 1j * math.sinh(2.0) * epr_adjacency())) <= 1e-10

    def test_conjugation_structure(self):
        rng = np.random.default_rng(70)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        zm = interaction_from_cluster(a, th, random_gauge(rng, "custom", a, th, 1.0))
        b = bogoliubov_matrix(zm, 1.0)
        assert np.max(np.abs(b[4:, :4] - b[:4, 4:].conj())) <= 1e-12
        assert np.max(np.abs(b[4:, 4:] - b[:4, :4].conj())) <= 1e-12

    def test_matches_eigendecomposition_path(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.2, 2.5))
            kind = ("identity", "faithful", "custom")[trial % 3]
            zm = interaction_from_cluster(a, th, random_gauge(rng, kind, a, th, z))
            direct = bogoliubov_from_interaction(zm, z)
            brute = bogoliubov_oracle(zm, z)
            assert np.max(np.abs(direct.X - brute.X)) <= 1e-8
            assert np.max(np.abs(direct.Y - brute.Y)) <= 1e-8
            d1, d2 = brute.defects()
            assert d1 <= 1e-9 and d2 <= 1e-9

    def test_one_parameter_group_property(self):
        rng = np.random.default_rng(72)
        a = random_adjacency(rng, 3)
        zm = interaction_from_cluster(a, np.zeros(3), gauge_identity(3))
        for z1, z2 in ((0.3, 0.9), (1.0, 1.0), (0.0, 1.7)):
            b_sum = bogoliubov_matrix(zm, z1 + z2)
            b_prod = bogoliubov_matrix(zm, z1) @ bogoliubov_matrix(zm, z2)
            assert np.max(np.abs(b_sum - b_prod)) <= 1e-9

    def test_overflow_cap(self):
        zm = InteractionMatrix.from_matrix(20.0j * np.eye(1))
        with pytest.raises(DomainError):
            bogoliubov_matrix(zm, 2.0)


class TestQuadratureFlow:
    def test_generator_is_mode_generator_in_quadrature_basis(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            zz = (m + m.T) / 2.0
            z = float(rng.uniform(0.0, 3.0))
            eye = np.eye(n)
            t = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2.0)
            k = t.conj().T @ squeezing_generator(zz, z) @ t
            real_k = quadrature_generator(zz, z)
            assert not np.iscomplexobj(real_k)
            assert np.max(np.abs(real_k - k)) <= 1e-12

    def test_flow_is_symplectic(self):
        rng = np.random.default_rng(91)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.2, 3.0))
            kind = ("identity", "faithful", "custom")[trial % 3]
            zm = interaction_from_cluster(a, th, random_gauge(rng, kind, a, th, z))
            s = quadrature_flow(zm, z)
            zero = np.zeros((n, n))
            omega = np.block([[zero, np.eye(n)], [-np.eye(n), zero]])
            residual = np.max(np.abs(s @ omega @ s.T - omega))
            assert residual <= 1e-12 * np.linalg.norm(s, 2) ** 2

    def test_oracle_does_not_use_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(93)
        a = random_adjacency(rng, 6)
        th = random_phases(rng, 6)
        zm = interaction_from_cluster(a, th, random_gauge(rng, "custom", a, th, 1.2))
        expected = covariance_oracle(a, th, zm, 1.2).C

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not call this")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(synthesis, "covariance_closed_form", forbidden)
        monkeypatch.setattr(oracle, "covariance_closed_form", forbidden)
        assert np.array_equal(covariance_oracle(a, th, zm, 1.2).C, expected)


class TestCovarianceOracle:
    def test_single_free_mode(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(1))
        rep = covariance_oracle(np.zeros((1, 1)), [0.0], zm, 1.0)
        assert rep.C[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_epr_self_inverse_value(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex))
        rep = covariance_oracle(epr_adjacency(), [0.0, 0.0], zm, 1.0)
        assert np.max(np.abs(rep.C - 2.0 * math.exp(-2.0) * np.eye(2))) <= 1e-10

    def test_mismatched_interaction_grows(self):
        # a squeezing interaction for the wrong graph does not squeeze the
        # nullifiers: the covariance grows with z
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex))
        a = np.zeros((2, 2))
        rep1 = covariance_oracle(a, [0.0, 0.0], zm, 1.0)
        rep2 = covariance_oracle(a, [0.0, 0.0], zm, 2.0)
        assert rep2.max_abs > rep1.max_abs

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(73)
        for trial in range(40):
            n = int(rng.integers(1, 7))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 3.0))
            kind = ("identity", "faithful", "custom")[trial % 3]
            p = random_gauge(rng, kind, a, th, z)
            zm = interaction_from_cluster(a, th, p)
            closed = covariance_closed_form(a, th, zm, z)
            brute = covariance_oracle(a, th, zm, z)
            assert np.max(np.abs(closed.C - brute.C)) <= 1e-8
            assert np.max(np.abs(brute.C - brute.E @ brute.E.conj().T)) <= 1e-8
            assert brute.imag_residual <= 1e-9
            assert brute.asym_residual <= 1e-9 * (1.0 + brute.max_abs)

    def test_dimension_mismatch(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2))
        with pytest.raises(DimensionMismatch):
            covariance_oracle(np.zeros((3, 3)), np.zeros(3), zm, 1.0)

    def test_necessity_direction(self):
        # structure factors not matching the cluster leave the covariance
        # bounded away from zero: no decrease between z = 3 and z = 4
        rng = np.random.default_rng(74)
        checked = 0
        while checked < 8:
            n = int(rng.integers(2, 6))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            u_bad = random_symmetric_unitary(rng, n)
            if np.max(np.abs(u_bad - unitary_from_adjacency(a, th))) < 1e-3:
                continue
            checked += 1
            zm = InteractionMatrix.from_matrix(u_bad)
            r3 = covariance_oracle(a, th, zm, 3.0)
            r4 = covariance_oracle(a, th, zm, 4.0)
            assert r4.max_abs > r3.max_abs


class TestForcedGaugeViolation:
    def test_incompatible_gauge_breaks_covariance_reality(self):
        # bypass validation: build the Bogoliubov pair from a gauge factor
        # violating the reality condition and push it through the oracle
        rng = np.random.default_rng(75)
        worst = 0.0
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            p_bad = random_hermitian_pd(rng, n)
            assert not validate_gauge(a, th, p_bad).ok
            u = unitary_from_adjacency(a, th)
            x = hermitian_apply(p_bad, lambda w: np.cosh(1.0 * w))
            y = -1j * hermitian_apply(p_bad, lambda w: np.sinh(1.0 * w)) @ u
            rep = covariance_from_pair(a, th, BogoliubovPair(X=x, Y=y))
            worst = max(worst, rep.imag_residual)
        assert worst > 1e-6

    def test_compatible_pairs_stay_real(self):
        rng = np.random.default_rng(76)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        zm = interaction_from_cluster(a, th, random_gauge(rng, "custom", a, th, 1.0))
        pair = bogoliubov_from_interaction(zm, 1.0)
        rep = covariance_from_pair(a, th, pair)
        assert rep.imag_residual <= 1e-9


class TestConvergenceSweep:
    def test_epr_identity_gauge_values(self):
        rows = convergence_sweep(
            epr_adjacency(), [0.0, 0.0], "identity", [1.0, 2.0, 3.0]
        )
        expected = [2.0 * math.exp(-2.0 * z) for z in (1.0, 2.0, 3.0)]
        for row, value in zip(rows, expected):
            assert row.max_abs == pytest.approx(value, abs=1e-12)
        assert [f"{row.max_abs:.6f}" for row in rows] == [
            "0.270671",
            "0.036631",
            "0.004958",
        ]

    def test_faithful_gauge_values(self):
        rng = np.random.default_rng(77)
        a = random_adjacency(rng, 4)
        rows = convergence_sweep(a, np.zeros(4), "faithful", [1.0, 2.0])
        assert rows[0].max_abs == pytest.approx(math.exp(-2.0), abs=1e-10)
        assert rows[1].max_abs == pytest.approx(math.exp(-4.0), abs=1e-10)

    def test_single_point_sweep(self):
        rows = convergence_sweep(epr_adjacency(), [0.0, 0.0], "identity", [1.5])
        assert len(rows) == 1
        assert rows[0].z == 1.5

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(78)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        rows = convergence_sweep(a, th, "identity", [0.5, 1.0, 1.5, 2.0, 3.0])
        norms = [row.max_abs for row in rows]
        assert all(x > y for x, y in zip(norms, norms[1:]))

    def test_rejects_unsorted_or_empty(self):
        with pytest.raises(ValueError):
            convergence_sweep(epr_adjacency(), [0.0, 0.0], "identity", [2.0, 1.0])
        with pytest.raises(ValueError):
            convergence_sweep(epr_adjacency(), [0.0, 0.0], "identity", [])
        with pytest.raises(ValueError):
            convergence_sweep(epr_adjacency(), [0.0, 0.0], "identity", [-1.0, 1.0])
