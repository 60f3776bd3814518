"""Tests for the forward synthesis path."""

import math

import numpy as np
import pytest

from clustersqueeze import (
    ClusterPlan,
    DomainError,
    GaugeIncompatible,
    InteractionMatrix,
    NotHermitian,
    NotPositiveDefinite,
    bloch_messiah,
    bogoliubov_from_interaction,
    covariance_closed_form,
    squeezer_spectrum,
    unitary_from_adjacency,
)
from clustersqueeze.tolerances import ErrorModel

from conftest import (
    epr_adjacency,
    hermitian_function,
    non_hermitian_compatible_gauge,
    random_adjacency,
    random_compatible_gauge,
    random_gauge,
    random_hermitian_pd,
    random_phases,
    reference_gauge_faithful,
    reference_unitary_from_adjacency,
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


def faithful(a, th, z):
    """The faithful gauge of the cluster plan."""
    return ClusterPlan.of(a, th).interaction("faithful", z)[0].P


class TestGauges:
    def test_identity_gauge(self):
        rng = np.random.default_rng(30)
        for n in (1, 3):
            zm = ClusterPlan.of(random_adjacency(rng, n), random_phases(rng, n)).interaction("identity")[0]
            # exactly real, so bundles carry no imaginary block for P or X
            assert not np.iscomplexobj(zm.P) and np.array_equal(zm.P, np.eye(n))
            assert np.array_equal(zm.strengths, np.ones(n)) and np.array_equal(zm.modes, np.eye(n))
            assert not np.iscomplexobj(bogoliubov_from_interaction(zm, 0.7).X)

    def test_identity_gauge_always_compatible(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            assert ClusterPlan.of(a, th).interaction(np.eye(n))[1].residual <= 1e-12

    def test_faithful_gauge_trivial_graph(self):
        p = faithful(np.zeros((3, 3)), [0.1, -0.2, 0.3], z=2.0)
        assert np.allclose(p, np.eye(3), atol=1e-12)

    def test_faithful_gauge_epr(self):
        p = faithful(epr_adjacency(), [0.0, 0.0], z=1.0)
        assert np.allclose(p, (1.0 + math.log(2.0) / 2.0) * np.eye(2), atol=1e-12)

    def test_faithful_gauge_self_loop(self):
        p = faithful(np.array([[1.0]]), [0.0], z=0.5)
        assert np.allclose(p, [[1.0 + math.log(2.0)]], atol=1e-12)

    def test_faithful_gauge_properties(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.5))
            p = faithful(a, th, z)
            eigs = np.linalg.eigvalsh(p)
            assert eigs[0] >= 1.0 - 1e-12
            ClusterPlan.of(a, th).interaction(p)  # raises if incompatible
            # e^{-2zP} collapses to e^{-2z} e^{-iT}(A^2+1)^{-1} e^{iT}
            w, q = np.linalg.eigh(p)
            decay = (q * np.exp(-2 * z * w)[None, :]) @ q.conj().T
            ph = np.exp(-1j * th)
            target = (
                math.exp(-2 * z)
                * (ph[:, None] * np.linalg.inv(a @ a + np.eye(n)) * ph.conj()[None, :])
            )
            assert np.max(np.abs(decay - target)) <= 1e-9


class TestClusterPlan:
    """The closed forms read off the one eigh(A), against the factorizations
    they replace (the reference implementations in conftest)."""

    @staticmethod
    def cases(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 24))
            a = random_adjacency(rng, n, weight=10.0 ** rng.uniform(-1.0, 3.0),
                                 density=rng.uniform(0.2, 1.0))
            yield a, random_phases(rng, n), float(10.0 ** rng.uniform(-1.0, 0.5))

    def test_agrees_with_the_reference_factorizations(self):
        for a, th, z in self.cases(44, 60):
            cluster = ClusterPlan.of(a, th)
            zm, check = cluster.interaction("faithful", z)
            model = ErrorModel.for_cluster(cluster, zm, z, check.scale)
            # U against the complex solve, as a stored U is judged
            residual = np.max(np.abs(cluster.U - reference_unitary_from_adjacency(a, th)))
            assert residual <= model.budget("bundle_U_matches")
            # P against ln(A^2 + 1) by eigh; P enters Z = P U through a
            # unitary, so it is judged as a stored Z is
            residual = np.max(np.abs(zm.P - reference_gauge_faithful(a, th, z)))
            assert residual <= model.budget("bundle_Z_matches")

    def test_faithful_strengths_and_modes(self):
        for a, th, z in self.cases(45, 20):
            zm, _ = ClusterPlan.of(a, th).interaction("faithful", z)
            assert np.all(np.diff(zm.strengths) >= 0.0)
            lam = np.sort(np.abs(np.linalg.eigvalsh(a)))
            assert np.allclose(zm.strengths, 1.0 + np.log1p(lam * lam) / (2.0 * z), rtol=1e-12)
            # modes are eigenvectors of P
            assert np.allclose(zm.P @ zm.modes, zm.modes * zm.strengths, atol=1e-12 * zm.strengths[-1])

    def test_faithful_balancing_matrix_is_diagonal(self):
        """In the frame F = e^{-i Theta} Q, -i T U T^T is diagonal up to the
        rounding of U, so Bloch-Messiah's balancing mixes no modes."""
        for a, th, z in self.cases(46, 20):
            cluster = ClusterPlan.of(a, th)
            zm, check = cluster.interaction("faithful", z)
            factors = bloch_messiah(zm, z)
            balanced = -1j * factors.T @ zm.U @ factors.T.T
            off = balanced - np.diag(np.diag(balanced))
            model = ErrorModel.for_cluster(cluster, zm, z, check.scale)
            assert np.max(np.abs(off)) <= model.budget("bundle_U_matches")


class TestValidateGauge:
    """The plan's gate, :meth:`ClusterPlan.interaction`, judges the reality
    condition and raises :class:`GaugeIncompatible`."""

    def test_diag_gauge_incompatible_on_epr(self):
        # test matrix is [[3, -i], [i, 3]]: residual 1/3
        with pytest.raises(GaugeIncompatible, match=r"^gauge_condition residual 3\.333e-01 exceeds its budget"):
            ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction(np.diag([1.0, 2.0]))

    def test_requires_positive_definite(self):
        # the reality condition alone is no gate: the plan rejects compatible
        # gauges that are not Hermitian positive definite
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        eye = np.eye(2)
        for p in (-eye, 0.0 * eye):
            with pytest.raises(NotPositiveDefinite, match="min eigenvalue"):
                cluster.interaction(p)
        p = non_hermitian_compatible_gauge(cluster.A)
        test = (cluster.A + 1j * eye) @ p @ (cluster.A - 1j * eye)  # compatible: a real test matrix
        assert np.max(np.abs(test.imag)) <= 1e-15 * np.max(np.abs(test))
        with pytest.raises(NotHermitian, match="not Hermitian"):
            cluster.interaction(p)
        # malformed and incompatible: P's own checks run before the reality check
        with pytest.raises(NotPositiveDefinite, match="min eigenvalue"):
            cluster.interaction(np.diag([1.0, -1.0]))
        with pytest.raises(NotHermitian, match="not Hermitian"):
            cluster.interaction(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_custom_gauge_is_planned_from_its_hermitian_part(self):
        # an anti-Hermitian part within rtol passes the Hermiticity check;
        # Z, P and the eigenpairs then all come from the one Hermitian P
        rng = np.random.default_rng(37)
        a, th = random_adjacency(rng, 5), random_phases(rng, 5)
        skew = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        p = random_compatible_gauge(rng, a, th) + 1e-15 * (skew - skew.conj().T)
        cluster = ClusterPlan.of(a, th)
        zm, _ = cluster.interaction(p)
        assert np.array_equal(zm.P, zm.P.conj().T)
        assert np.array_equal(zm.Z, zm.P @ zm.U)
        strengths, modes = cluster.eigenpairs(zm.P)
        assert np.array_equal(zm.strengths, strengths) and np.array_equal(zm.modes, modes)

    def test_biconditional_with_product_symmetry(self):
        # compatible and incompatible random gauges against the direct
        # symmetry test of P U, both directions
        rng = np.random.default_rng(34)
        for trial in range(40):
            n = int(rng.integers(2, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            cluster = ClusterPlan.of(a, th)
            if trial % 2 == 0:
                p = random_compatible_gauge(rng, a, th)
            else:
                p = random_hermitian_pd(rng, n)
            prod = p @ cluster.U
            sym = np.max(np.abs(prod - prod.T)) <= 1e-9 * max(
                1.0, np.max(np.abs(prod))
            )
            if sym:
                cluster.interaction(p)
            else:
                with pytest.raises(GaugeIncompatible):
                    cluster.interaction(p)


class TestInteractionMatrix:
    def test_trivial_mode(self):
        zm = ClusterPlan.of(np.zeros((1, 1)), [0.0]).interaction("identity")[0]
        assert np.allclose(zm.Z, 1j)

    def test_epr_identity_gauge(self):
        zm = ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction("identity")[0]
        assert np.allclose(zm.Z, -epr_adjacency(), atol=1e-12)

    def test_epr_faithful_gauge(self):
        zm = ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction("faithful", 1.0)[0]
        expected = -(1.0 + math.log(2.0) / 2.0) * epr_adjacency()
        assert np.allclose(zm.Z, expected, atol=1e-12)

    def test_incompatible_gauge_raises(self):
        with pytest.raises(GaugeIncompatible):
            ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction(np.diag([1.0, 2.0]))

    def test_from_matrix_round_trips_factors(self):
        rng = np.random.default_rng(35)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        p = random_compatible_gauge(rng, a, th)
        zm, _ = ClusterPlan.of(a, th).interaction(p)
        back = InteractionMatrix.from_matrix(zm.Z)
        assert np.max(np.abs(back.P - zm.P)) <= 1e-8
        assert np.max(np.abs(back.U - zm.U)) <= 1e-8


class TestBogoliubov:
    def test_scalar_interaction(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(1))
        pair = bogoliubov_from_interaction(zm, 1.0)
        assert np.allclose(pair.X, [[math.cosh(1.0)]], atol=1e-12)
        assert np.allclose(pair.Y, [[math.sinh(1.0)]], atol=1e-12)

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(37)
        a = random_adjacency(rng, 3)
        zm = ClusterPlan.of(a, np.zeros(3)).interaction("identity")[0]
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
            p = random_gauge(rng, kind, a, th)
            zm = ClusterPlan.of(a, th).interaction(p, z)[0]
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
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        zm, _ = cluster.interaction("identity")
        rep = covariance_closed_form(cluster, zm, z=1.0)
        assert np.max(np.abs(rep.C - 2.0 * math.exp(-2.0) * np.eye(2))) <= 1e-10

    def test_faithful_gauge_scalar_value(self):
        rng = np.random.default_rng(39)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        cluster = ClusterPlan.of(a, th)
        rep = covariance_closed_form(cluster, cluster.interaction("faithful", 1.0)[0], z=1.0)
        assert np.max(np.abs(rep.C - math.exp(-2.0) * np.eye(5))) <= 1e-9

    def test_self_loop_identity_gauge(self):
        cluster = ClusterPlan.of(np.array([[1.0]]), [0.0])
        zm, _ = cluster.interaction("identity")
        rep = covariance_closed_form(cluster, zm, z=1.0)
        assert np.allclose(rep.C, [[2.0 * math.exp(-2.0)]], atol=1e-12)

    def test_uniform_gauge_formula(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.0))
            cluster = ClusterPlan.of(a, th)
            zm, _ = cluster.interaction("identity")
            rep = covariance_closed_form(cluster, zm, z)
            target = (a @ a + np.eye(n)) * math.exp(-2.0 * z)
            assert np.max(np.abs(rep.C - target)) <= 1e-9

    def test_report_invariants(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.0))
            p = random_gauge(rng, ("identity", "faithful", "custom")[trial % 3], a, th)
            cluster = ClusterPlan.of(a, th)
            zm = cluster.interaction(p, z)[0]
            rep = covariance_closed_form(cluster, zm, z)
            scale = 1.0 + rep.max_abs
            assert rep.imag_residual <= 1e-9 * scale
            # E = (A + i) e^{i Theta} e^{-z P} from a dense e^{-z P}, and C = E E^dagger
            decay = hermitian_function(zm.P, lambda w: np.exp(-z * w))
            expected = (a + 1j * np.eye(n)) @ (np.exp(1j * th)[:, None] * decay)
            assert np.max(np.abs(rep.E - expected)) <= 1e-9 * (1.0 + np.max(np.abs(expected)))
            budget = ErrorModel.for_cluster(cluster, zm, z).budget("covariance_real")
            assert np.max(np.abs(rep.C - rep.E @ rep.E.conj().T)) <= budget
            assert np.linalg.eigvalsh(rep.C)[0] >= -1e-9 * scale

    def test_monotone_convergence(self):
        rng = np.random.default_rng(42)
        for gauge in ("identity", "faithful"):
            for _ in range(5):
                n = int(rng.integers(2, 8))
                a = random_adjacency(rng, n)
                th = random_phases(rng, n)
                cluster = ClusterPlan.of(a, th)
                norms = []
                for z in (0.5, 1.0, 2.0):
                    p = random_gauge(rng, gauge, a, th)
                    zm, _ = cluster.interaction(p, z)
                    norms.append(covariance_closed_form(cluster, zm, z).max_abs)
                assert norms[0] > norms[1] > norms[2]

    def test_rejects_zero_scale(self):
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        zm, _ = cluster.interaction("identity")
        with pytest.raises(ValueError):
            covariance_closed_form(cluster, zm, 0.0)

    def test_rejects_incompatible_gauge(self):
        # the closed form takes a plan; the plan builder rejects the gauge
        with pytest.raises(GaugeIncompatible):
            ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction(np.diag([1.0, 2.0]))


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
        zm = ClusterPlan.of(a, np.zeros(4)).interaction("identity")[0]
        modes = squeezer_spectrum(zm, 1.3)
        assert np.allclose([m.strength for m in modes], 1.0, atol=1e-12)
