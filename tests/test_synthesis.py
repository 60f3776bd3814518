"""Tests for the forward synthesis path."""

import math

import numpy as np
import pytest

from clustersqueeze import (
    DomainError,
    GaugeIncompatible,
    InteractionMatrix,
    NotPositiveDefinite,
    NotSymmetric,
    bogoliubov_from_interaction,
    covariance_closed_form,
    gauge_faithful,
    gauge_identity,
    interaction_from_cluster,
    squeezer_spectrum,
    unitary_from_adjacency,
    validate_gauge,
)

from conftest import (
    epr_adjacency,
    random_adjacency,
    random_compatible_gauge,
    random_gauge,
    random_hermitian_pd,
    random_phases,
)


class TestUnitaryFromAdjacency:
    def test_single_free_mode(self):
        assert np.allclose(unitary_from_adjacency(np.zeros((1, 1)), [0.0]), 1j)

    def test_self_inverse_graph_gives_minus_adjacency(self):
        a = epr_adjacency()
        u = unitary_from_adjacency(a, [0.0, 0.0])
        assert np.allclose(u, -a, atol=1e-12)

    def test_unit_self_loop(self):
        u = unitary_from_adjacency(np.array([[1.0]]), [0.0])
        assert np.allclose(u, -1.0, atol=1e-12)

    def test_symmetric_unitary_random(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            u = unitary_from_adjacency(random_adjacency(rng, n), random_phases(rng, n))
            assert np.max(np.abs(u - u.T)) <= 1e-10
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-10


class TestGauges:
    def test_identity_gauge(self):
        assert np.allclose(gauge_identity(1), [[1.0]])
        assert np.allclose(gauge_identity(3), np.eye(3))

    def test_identity_gauge_always_compatible(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            check = validate_gauge(a, th, gauge_identity(n))
            assert check.ok and check.residual <= 1e-12

    def test_faithful_gauge_trivial_graph(self):
        p = gauge_faithful(np.zeros((3, 3)), [0.1, -0.2, 0.3], z=2.0)
        assert np.allclose(p, np.eye(3), atol=1e-12)

    def test_faithful_gauge_epr(self):
        p = gauge_faithful(epr_adjacency(), [0.0, 0.0], z=1.0)
        assert np.allclose(p, (1.0 + math.log(2.0) / 2.0) * np.eye(2), atol=1e-12)

    def test_faithful_gauge_self_loop(self):
        p = gauge_faithful(np.array([[1.0]]), [0.0], z=0.5)
        assert np.allclose(p, [[1.0 + math.log(2.0)]], atol=1e-12)

    def test_faithful_gauge_properties(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.5))
            p = gauge_faithful(a, th, z)
            eigs = np.linalg.eigvalsh(p)
            assert eigs[0] >= 1.0 - 1e-12
            check = validate_gauge(a, th, p)
            assert check.ok
            # e^{-2zP} collapses to e^{-2z} e^{-iT}(A^2+1)^{-1} e^{iT}
            w, q = np.linalg.eigh(p)
            decay = (q * np.exp(-2 * z * w)[None, :]) @ q.conj().T
            ph = np.exp(-1j * th)
            target = (
                math.exp(-2 * z)
                * (ph[:, None] * np.linalg.inv(a @ a + np.eye(n)) * ph.conj()[None, :])
            )
            assert np.max(np.abs(decay - target)) <= 1e-9


class TestValidateGauge:
    def test_diag_gauge_incompatible_on_epr(self):
        check = validate_gauge(epr_adjacency(), [0.0, 0.0], np.diag([1.0, 2.0]))
        assert not check.ok
        # test matrix is [[3, -i], [i, 3]]: residual 1/3
        assert check.residual == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            validate_gauge(epr_adjacency(), [0.0, 0.0], np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            validate_gauge(
                epr_adjacency(), [0.0, 0.0], np.array([[1.0, 1.0], [0.0, 1.0]])
            )

    def test_biconditional_with_product_symmetry(self):
        # compatible and incompatible random gauges against the direct
        # symmetry test of P U, both directions
        rng = np.random.default_rng(34)
        for trial in range(40):
            n = int(rng.integers(2, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            u = unitary_from_adjacency(a, th)
            if trial % 2 == 0:
                p = random_compatible_gauge(rng, a, th)
            else:
                p = random_hermitian_pd(rng, n)
            check = validate_gauge(a, th, p)
            prod = p @ u
            sym = np.max(np.abs(prod - prod.T)) <= 1e-9 * max(
                1.0, np.max(np.abs(prod))
            )
            assert check.ok == sym


class TestInteractionMatrix:
    def test_trivial_mode(self):
        zm = interaction_from_cluster(np.zeros((1, 1)), [0.0], gauge_identity(1))
        assert np.allclose(zm.Z, 1j)

    def test_epr_identity_gauge(self):
        zm = interaction_from_cluster(epr_adjacency(), [0.0, 0.0], gauge_identity(2))
        assert np.allclose(zm.Z, -epr_adjacency(), atol=1e-12)

    def test_epr_faithful_gauge(self):
        p = gauge_faithful(epr_adjacency(), [0.0, 0.0], z=1.0)
        zm = interaction_from_cluster(epr_adjacency(), [0.0, 0.0], p)
        expected = -(1.0 + math.log(2.0) / 2.0) * epr_adjacency()
        assert np.allclose(zm.Z, expected, atol=1e-12)

    def test_incompatible_gauge_raises(self):
        with pytest.raises(GaugeIncompatible):
            interaction_from_cluster(epr_adjacency(), [0.0, 0.0], np.diag([1.0, 2.0]))

    def test_from_matrix_round_trips_factors(self):
        rng = np.random.default_rng(35)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        p = random_compatible_gauge(rng, a, th)
        zm = interaction_from_cluster(a, th, p)
        back = InteractionMatrix.from_matrix(zm.Z)
        assert np.max(np.abs(back.P - zm.P)) <= 1e-8
        assert np.max(np.abs(back.U - zm.U)) <= 1e-8

    def test_from_factors_rejects_asymmetric_product(self):
        rng = np.random.default_rng(36)
        a = random_adjacency(rng, 3)
        u = unitary_from_adjacency(a, np.zeros(3))
        p = random_hermitian_pd(rng, 3)
        with pytest.raises(NotSymmetric):
            InteractionMatrix.from_factors(p, u)


class TestBogoliubov:
    def test_scalar_interaction(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(1))
        pair = bogoliubov_from_interaction(zm, 1.0)
        assert np.allclose(pair.X, [[math.cosh(1.0)]], atol=1e-12)
        assert np.allclose(pair.Y, [[math.sinh(1.0)]], atol=1e-12)

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(37)
        a = random_adjacency(rng, 3)
        zm = interaction_from_cluster(a, np.zeros(3), gauge_identity(3))
        pair = bogoliubov_from_interaction(zm, 0.0)
        assert np.allclose(pair.X, np.eye(3), atol=1e-12)
        assert np.allclose(pair.Y, np.zeros((3, 3)), atol=1e-12)

    def test_epr_blocks(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex))
        pair = bogoliubov_from_interaction(zm, 1.0)
        assert np.allclose(pair.X, math.cosh(1.0) * np.eye(2), atol=1e-12)
        assert np.allclose(
            pair.Y, 1j * math.sinh(1.0) * epr_adjacency(), atol=1e-12
        )

    def test_commutation_conditions_hold(self):
        rng = np.random.default_rng(38)
        for trial in range(30):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.2, 2.5))
            kind = ("identity", "faithful", "custom")[trial % 3]
            p = random_gauge(rng, kind, a, th, z)
            zm = interaction_from_cluster(a, th, p)
            pair = bogoliubov_from_interaction(zm, z)
            first, second = pair.defects()
            assert first <= 1e-9
            assert second <= 1e-9

    def test_overflow_cap(self):
        zm = InteractionMatrix.from_matrix(40.0j * np.eye(2))
        with pytest.raises(DomainError, match="cosh"):
            bogoliubov_from_interaction(zm, 1.0)


class TestCovarianceClosedForm:
    def test_epr_identity_gauge(self):
        zm = interaction_from_cluster(epr_adjacency(), [0.0, 0.0], gauge_identity(2))
        rep = covariance_closed_form(epr_adjacency(), [0.0, 0.0], zm, z=1.0)
        assert np.max(np.abs(rep.C - 2.0 * math.exp(-2.0) * np.eye(2))) <= 1e-10

    def test_faithful_gauge_scalar_value(self):
        rng = np.random.default_rng(39)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        p = gauge_faithful(a, th, z=1.0)
        rep = covariance_closed_form(a, th, interaction_from_cluster(a, th, p), z=1.0)
        assert np.max(np.abs(rep.C - math.exp(-2.0) * np.eye(5))) <= 1e-9

    def test_self_loop_identity_gauge(self):
        zm = interaction_from_cluster(np.array([[1.0]]), [0.0], gauge_identity(1))
        rep = covariance_closed_form(np.array([[1.0]]), [0.0], zm, z=1.0)
        assert np.allclose(rep.C, [[2.0 * math.exp(-2.0)]], atol=1e-12)

    def test_uniform_gauge_formula(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.0))
            zm = interaction_from_cluster(a, th, gauge_identity(n))
            rep = covariance_closed_form(a, th, zm, z)
            target = (a @ a + np.eye(n)) * math.exp(-2.0 * z)
            assert np.max(np.abs(rep.C - target)) <= 1e-9

    def test_report_invariants(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.0))
            p = random_gauge(rng, ("identity", "faithful", "custom")[trial % 3], a, th, z)
            rep = covariance_closed_form(a, th, interaction_from_cluster(a, th, p), z)
            scale = 1.0 + rep.max_abs
            assert rep.imag_residual <= 1e-9 * scale
            assert rep.asym_residual <= 1e-9 * scale
            assert np.max(np.abs(rep.C - rep.E @ rep.E.conj().T)) <= 1e-9 * scale
            assert np.linalg.eigvalsh(rep.C)[0] >= -1e-9 * scale

    def test_monotone_convergence(self):
        rng = np.random.default_rng(42)
        for gauge in ("identity", "faithful"):
            for _ in range(5):
                n = int(rng.integers(2, 8))
                a = random_adjacency(rng, n)
                th = random_phases(rng, n)
                norms = []
                for z in (0.5, 1.0, 2.0):
                    p = random_gauge(rng, gauge, a, th, z)
                    zm = interaction_from_cluster(a, th, p)
                    norms.append(covariance_closed_form(a, th, zm, z).max_abs)
                assert norms[0] > norms[1] > norms[2]

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            zm = interaction_from_cluster(epr_adjacency(), [0.0, 0.0], gauge_identity(2))
            covariance_closed_form(epr_adjacency(), [0.0, 0.0], zm, 0.0)

    def test_rejects_incompatible_gauge(self):
        # the closed form takes a plan; the plan builder rejects the gauge
        with pytest.raises(GaugeIncompatible):
            interaction_from_cluster(epr_adjacency(), [0.0, 0.0], np.diag([1.0, 2.0]))


class TestSqueezerSpectrum:
    def test_unit_strengths(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2))
        modes = squeezer_spectrum(zm, 1.0)
        for m in modes:
            assert m.strength == pytest.approx(1.0)
            assert m.cosh_factor == pytest.approx(math.cosh(1.0))
            assert m.sinh_factor == pytest.approx(math.sinh(1.0))
            assert m.decibels == pytest.approx(20.0 / math.log(10.0))

    def test_diagonal_strengths_in_decibels(self):
        zm = InteractionMatrix.from_matrix(np.diag([2.0, 3.0j]))
        modes = squeezer_spectrum(zm, 0.5)
        assert [m.strength for m in modes] == pytest.approx([2.0, 3.0])
        assert modes[0].decibels == pytest.approx(20.0 / math.log(10.0), rel=1e-12)
        assert modes[1].decibels == pytest.approx(30.0 / math.log(10.0), rel=1e-12)

    def test_identity_gauge_means_equal_squeezers(self):
        rng = np.random.default_rng(43)
        a = random_adjacency(rng, 4)
        zm = interaction_from_cluster(a, np.zeros(4), gauge_identity(4))
        modes = squeezer_spectrum(zm, 1.3)
        assert np.allclose([m.strength for m in modes], 1.0, atol=1e-12)
