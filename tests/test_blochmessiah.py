"""Tests for the interferometer reduction."""

import dataclasses
import math

import numpy as np
import pytest

from clustersqueeze import (
    ClusterPlan,
    InteractionMatrix,
    NotOrthogonal,
    NotUnitary,
    bloch_messiah,
    bogoliubov_from_interaction,
    canonical_cluster_interferometer,
    cluster_condition_residual,
    squeezer_spectrum,
    unitary_from_adjacency,
    unitary_from_interferometer,
)
from clustersqueeze.matfun import phase_fixed_columns, takagi_symmetric_unitary

from conftest import (
    epr_adjacency,
    random_adjacency,
    random_gauge,
    random_orthogonal,
    random_phases,
)


def _reconstruction_residuals(zm, z, factors):
    pair = bogoliubov_from_interaction(zm, z)
    x_rec, y_rec = factors.reconstruct()
    return (
        np.max(np.abs(x_rec - pair.X)),
        np.max(np.abs(y_rec - pair.Y)),
        np.max(np.abs(1j * factors.V @ factors.V.T - zm.U)),
    )


class TestBlochMessiah:
    def test_two_equal_squeezers(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2))
        factors = bloch_messiah(zm, 1.0)
        assert np.allclose(factors.D, np.ones(2), atol=1e-12)
        rx, ry, ru = _reconstruction_residuals(zm, 1.0, factors)
        assert max(rx, ry, ru) <= 1e-9

    def test_epr_degenerate_factors(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex))
        factors = bloch_messiah(zm, 1.0)
        assert np.allclose(factors.D, np.ones(2), atol=1e-12)
        rx, ry, ru = _reconstruction_residuals(zm, 1.0, factors)
        assert max(rx, ry, ru) <= 1e-9

    def test_diagonal_interaction(self):
        zm = InteractionMatrix.from_matrix(np.diag([2.0, 3.0j]))
        factors = bloch_messiah(zm, 0.7)
        assert np.allclose(factors.D, [2.0, 3.0], atol=1e-12)
        x_rec, _ = factors.reconstruct()
        assert np.allclose(
            x_rec, np.diag([math.cosh(1.4), math.cosh(2.1)]), atol=1e-9
        )

    def test_unitaries_and_balancing(self):
        rng = np.random.default_rng(60)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        zm = ClusterPlan.of(a, th).interaction(random_gauge(rng, "custom", a, th))[0]
        factors = bloch_messiah(zm, 1.0)
        eye = np.eye(4)
        assert np.max(np.abs(factors.V @ factors.V.conj().T - eye)) <= 1e-9
        assert np.max(np.abs(factors.W @ factors.W.conj().T - eye)) <= 1e-9
        assert np.max(np.abs(factors.R @ factors.R.conj().T - eye)) <= 1e-9
        balanced = -1j * factors.T @ zm.U @ factors.T.T
        assert np.max(np.abs(factors.R @ factors.R.T - balanced)) <= 1e-9

    def test_reconstruction_random(self):
        rng = np.random.default_rng(61)
        for trial in range(30):
            n = int(rng.integers(1, 9))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.0))
            kind = ("identity", "faithful", "custom")[trial % 3]
            zm = ClusterPlan.of(a, th).interaction(random_gauge(rng, kind, a, th), z)[0]
            factors = bloch_messiah(zm, z)
            rx, ry, ru = _reconstruction_residuals(zm, z, factors)
            assert rx <= 1e-8 and ry <= 1e-8
            assert ru <= 1e-9

    def test_strengths_match_squeezer_spectrum(self):
        rng = np.random.default_rng(62)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        z = 1.2
        zm = ClusterPlan.of(a, th).interaction(random_gauge(rng, "custom", a, th))[0]
        factors = bloch_messiah(zm, z)
        strengths = np.array([m.strength for m in squeezer_spectrum(zm, z)])
        assert np.max(np.abs(np.sort(factors.D) - np.sort(strengths))) <= 1e-9
        assert np.allclose(
            factors.decibels, 20.0 * z * factors.D / math.log(10.0), atol=1e-12
        )

    def test_degenerate_strengths_with_colliding_angles(self):
        # distinct squeezer strengths whose structure factor is scalar: the
        # blockwise balancing must not mix the strength eigenspaces
        p = np.diag([1.0, 2.0]).astype(complex)
        u = 1j * np.eye(2)
        zm = InteractionMatrix.from_factors(p, u)
        factors = bloch_messiah(zm, 1.0)
        rx, ry, ru = _reconstruction_residuals(zm, 1.0, factors)
        assert max(rx, ry, ru) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_single_groups_match_the_per_group_takagi(self, n):
        # every faithful strength group is 1 x 1; the one vectorized step must
        # give the balancing R that one Takagi call per group gives, bit for
        # bit, from the diagonal entries of -i T U T^T that bloch_messiah forms
        rng = np.random.default_rng(64)
        a = random_adjacency(rng, n)
        zm = ClusterPlan.of(a, random_phases(rng, n)).interaction("faithful", 0.7)[0]
        v = phase_fixed_columns(zm.modes)
        balanced = -1j * np.sum(v.conj() * (zm.U @ v.conj()), axis=0)
        reference = np.zeros((n, n), dtype=complex)
        for k in range(n):
            reference[k:k + 1, k:k + 1] = takagi_symmetric_unitary(balanced[k].reshape(1, 1))
        factors = bloch_messiah(zm, 0.7)
        assert np.array_equal(factors.R, reference)
        assert factors.spread == 0.0

    def test_non_unitary_single_group_is_rejected(self):
        zm = ClusterPlan.of(epr_adjacency(), np.zeros(2)).interaction("faithful", 1.0)[0]
        with pytest.raises(NotUnitary):
            bloch_messiah(dataclasses.replace(zm, U=1.1 * zm.U), 1.0)

    def test_cluster_condition_of_reduced_interferometer(self):
        rng = np.random.default_rng(63)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = 1.0
            kind = ("identity", "faithful")[trial % 2]
            cluster = ClusterPlan.of(a, th)
            zm, _ = cluster.interaction(random_gauge(rng, kind, a, th), z)
            factors = bloch_messiah(zm, z)
            assert cluster_condition_residual(factors.V, cluster) <= 1e-8


class TestCanonicalInterferometer:
    def test_trivial_graph(self):
        v = canonical_cluster_interferometer(ClusterPlan.of(np.zeros((2, 2)), np.zeros(2)), np.eye(2))
        assert np.allclose(v, np.eye(2), atol=1e-12)

    def test_epr_case(self):
        v = canonical_cluster_interferometer(ClusterPlan.of(epr_adjacency(), np.zeros(2)), np.eye(2))
        expected = (np.eye(2) + 1j * epr_adjacency()) / np.sqrt(2.0)
        assert np.allclose(v, expected, atol=1e-12)

    def test_scalar_with_phase_and_sign_seed(self):
        cluster = ClusterPlan.of(np.array([[1.0]]), [np.pi / 3])
        v = canonical_cluster_interferometer(cluster, np.array([[-1.0]]))
        expected = -np.exp(-1j * np.pi / 3) * (1.0 + 1j) / np.sqrt(2.0)
        assert np.allclose(v, [[expected]], atol=1e-12)
        assert abs(abs(v[0, 0]) - 1.0) <= 1e-12

    def test_rejects_non_orthogonal_seed(self):
        cluster = ClusterPlan.of(epr_adjacency(), np.zeros(2))
        with pytest.raises(NotOrthogonal):
            canonical_cluster_interferometer(cluster, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_appendix_conditions(self):
        rng = np.random.default_rng(64)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            o = random_orthogonal(rng, n)
            v = canonical_cluster_interferometer(ClusterPlan.of(a, th), o)
            eye = np.eye(n)
            assert np.max(np.abs(v @ v.conj().T - eye)) <= 1e-9
            rotated = np.exp(1j * th)[:, None] * v
            assert np.max(np.abs(rotated.imag - a @ rotated.real)) <= 1e-9
            gram = rotated.real @ rotated.real.T
            assert np.max(np.abs(gram - np.linalg.inv(eye + a @ a))) <= 1e-9


class TestClusterCondition:
    def test_canonical_interferometers_have_zero_residual(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            cluster = ClusterPlan.of(a, th)
            v = canonical_cluster_interferometer(cluster, random_orthogonal(rng, n))
            assert cluster_condition_residual(v, cluster) <= 1e-9

    def test_identity_is_not_an_epr_interferometer(self):
        # direct arithmetic: (A + i) + (A - i) = 2A, max entry 2
        residual = cluster_condition_residual(np.eye(2), ClusterPlan.of(epr_adjacency(), np.zeros(2)))
        assert residual > 0.5
        assert residual == pytest.approx(2.0, rel=1e-12)


class TestUnitaryFromInterferometer:
    def test_identity_interferometer(self):
        assert np.allclose(unitary_from_interferometer(np.eye(3)), 1j * np.eye(3))

    def test_epr_interferometer(self):
        v = (np.eye(2) + 1j * epr_adjacency()) / np.sqrt(2.0)
        u = unitary_from_interferometer(v)
        assert np.allclose(u, -epr_adjacency(), atol=1e-12)

    def test_self_loop_matches_forward(self):
        v = canonical_cluster_interferometer(ClusterPlan.of(np.array([[1.0]]), [0.0]), np.eye(1))
        u = unitary_from_interferometer(v)
        assert np.allclose(u, [[-1.0]], atol=1e-12)
        assert np.allclose(u, unitary_from_adjacency(np.array([[1.0]]), [0.0]), atol=1e-12)

    def test_seed_independence(self):
        rng = np.random.default_rng(66)
        for _ in range(5):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            cluster = ClusterPlan.of(a, th)
            for _ in range(20):
                o = random_orthogonal(rng, n)
                v = canonical_cluster_interferometer(cluster, o)
                assert np.max(np.abs(unitary_from_interferometer(v) - cluster.U)) <= 1e-9
