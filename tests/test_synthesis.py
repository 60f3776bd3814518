"""Tests for the forward synthesis path."""

import dataclasses
import math

import numpy as np
import pytest

from clustersqueeze import (
    BogoliubovPair,
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
from clustersqueeze.synthesis import _reality_check
from clustersqueeze.tolerances import UNIT_ROUNDOFF, ErrorModel

from conftest import (
    complex_route,
    epr_adjacency,
    hermitian_function,
    non_hermitian_compatible_gauge,
    random_adjacency,
    random_compatible_gauge,
    random_gauge,
    random_hermitian_pd,
    random_phases,
    reference_gauge_faithful,
    reference_reality_check,
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
    return ClusterPlan.of(a, th).interaction("faithful", z).P


class TestGauges:
    def test_identity_gauge(self):
        rng = np.random.default_rng(30)
        for n in (1, 3):
            zm = ClusterPlan.of(random_adjacency(rng, n), random_phases(rng, n)).interaction("identity", 0.7)
            # exactly real, so bundles carry no imaginary block for P or X
            assert not np.iscomplexobj(zm.P) and np.array_equal(zm.P, np.eye(n))
            assert np.array_equal(zm.strengths, np.ones(n)) and np.array_equal(zm.modes, np.eye(n))
            assert not np.iscomplexobj(bogoliubov_from_interaction(zm).X)

    def test_identity_gauge_always_compatible(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            assert ClusterPlan.of(a, th).interaction(np.eye(n), 1.0).reality.residual <= 1e-12

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
            ClusterPlan.of(a, th).interaction(p, z)  # raises if incompatible
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
            zm = cluster.interaction("faithful", z)
            model = ErrorModel.of(zm)
            # U against the complex solve, as a stored U is judged
            residual = np.max(np.abs(cluster.U - reference_unitary_from_adjacency(a, th)))
            assert residual <= model.budget("bundle_U_matches")
            # P against ln(A^2 + 1) by eigh; P enters Z = P U through a
            # unitary, so it is judged as a stored Z is
            residual = np.max(np.abs(zm.P - reference_gauge_faithful(a, th, z)))
            assert residual <= model.budget("bundle_Z_matches")

    def test_one_factorization_held_once(self, factorizations):
        """U, the frame, the interferometer, ``by_magnitude`` and ``kappa``
        all read one eigh(A), and the plan holds one real N x N eigenvector
        array, in ascending |lam|."""
        rng = np.random.default_rng(47)
        n = 9
        cluster = ClusterPlan.of(random_adjacency(rng, n), random_phases(rng, n))
        for name in ("U", "frame", "interferometer", "by_magnitude", "kappa"):
            getattr(cluster, name)
        assert factorizations.total() == factorizations.of("eigh", cluster.A) == 1

        def arrays(values):
            for value in values:
                if isinstance(value, tuple):
                    yield from arrays(value)
                elif isinstance(value, np.ndarray):
                    yield value

        held = [m for m in arrays(vars(cluster).values())
                if m is not cluster.A and m.shape == (n, n) and not np.iscomplexobj(m)]
        lam, q = cluster.by_magnitude
        assert len(held) == 1 and held[0] is q
        assert np.array_equal(np.abs(lam), np.sort(np.abs(lam)))
        assert cluster.kappa == 1.0 + np.max(np.abs(lam))

    def test_faithful_strengths_and_modes(self):
        for a, th, z in self.cases(45, 20):
            zm = ClusterPlan.of(a, th).interaction("faithful", z)
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
            zm = cluster.interaction("faithful", z)
            factors = bloch_messiah(zm)
            balanced = -1j * factors.T @ zm.U @ factors.T.T
            off = balanced - np.diag(np.diag(balanced))
            model = ErrorModel.of(zm)
            assert np.max(np.abs(off)) <= model.budget("bundle_U_matches")


class TestValidateGauge:
    """The plan's gate, :meth:`ClusterPlan.interaction`, judges the reality
    condition and raises :class:`GaugeIncompatible`."""

    def test_diag_gauge_incompatible_on_epr(self):
        # test matrix is [[3, -i], [i, 3]]: residual 1/3
        with pytest.raises(GaugeIncompatible, match=r"^gauge_condition residual 3\.333e-01 exceeds its budget"):
            ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction(np.diag([1.0, 2.0]), 1.0)

    def test_requires_positive_definite(self):
        # the reality condition alone is no gate: the plan rejects compatible
        # gauges that are not Hermitian positive definite
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        eye = np.eye(2)
        for p in (-eye, 0.0 * eye):
            with pytest.raises(NotPositiveDefinite, match="min eigenvalue"):
                cluster.interaction(p, 1.0)
        p = non_hermitian_compatible_gauge(cluster.A)
        test = (cluster.A + 1j * eye) @ p @ (cluster.A - 1j * eye)  # compatible: a real test matrix
        assert np.max(np.abs(test.imag)) <= 1e-15 * np.max(np.abs(test))
        with pytest.raises(NotHermitian, match="not Hermitian"):
            cluster.interaction(p, 1.0)
        # malformed and incompatible: P's own checks run before the reality check
        with pytest.raises(NotPositiveDefinite, match="min eigenvalue"):
            cluster.interaction(np.diag([1.0, -1.0]), 1.0)
        with pytest.raises(NotHermitian, match="not Hermitian"):
            cluster.interaction(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)

    def test_custom_gauge_is_planned_from_its_hermitian_part(self):
        # an anti-Hermitian part within rtol passes the Hermiticity check;
        # Z, P and the eigenpairs then all come from the one Hermitian P
        rng = np.random.default_rng(37)
        a, th = random_adjacency(rng, 5), random_phases(rng, 5)
        skew = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        p = random_compatible_gauge(rng, a, th) + 1e-15 * (skew - skew.conj().T)
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction(p, 1.0)
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
            # the gate's budgets do not depend on z; at z = 0.1 every
            # strength here is within the squeeze budget, checked first
            if sym:
                cluster.interaction(p, 0.1)
            else:
                with pytest.raises(GaugeIncompatible):
                    cluster.interaction(p, 0.1)


class TestInteractionMatrix:
    def test_trivial_mode(self):
        zm = ClusterPlan.of(np.zeros((1, 1)), [0.0]).interaction("identity", 1.0)
        assert np.allclose(zm.Z, 1j)

    def test_epr_identity_gauge(self):
        zm = ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction("identity", 1.0)
        assert np.allclose(zm.Z, -epr_adjacency(), atol=1e-12)

    def test_epr_faithful_gauge(self):
        zm = ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction("faithful", 1.0)
        expected = -(1.0 + math.log(2.0) / 2.0) * epr_adjacency()
        assert np.allclose(zm.Z, expected, atol=1e-12)

    def test_incompatible_gauge_raises(self):
        with pytest.raises(GaugeIncompatible):
            ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction(np.diag([1.0, 2.0]), 1.0)

    def test_from_matrix_round_trips_factors(self):
        rng = np.random.default_rng(35)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        p = random_compatible_gauge(rng, a, th)
        zm = ClusterPlan.of(a, th).interaction(p, 1.0)
        back = InteractionMatrix.from_matrix(zm.Z, 1.0)
        assert np.max(np.abs(back.P - zm.P)) <= 1e-8
        assert np.max(np.abs(back.U - zm.U)) <= 1e-8


class TestBogoliubov:
    def test_scalar_interaction(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(1), 1.0)
        pair = bogoliubov_from_interaction(zm)
        assert np.allclose(pair.X, [[math.cosh(1.0)]], atol=1e-12)
        assert np.allclose(pair.Y, [[math.sinh(1.0)]], atol=1e-12)

    def test_zero_scale_is_rejected(self):
        # X = 1, Y = 0 at z = 0 squeezes nothing; the one scale rule takes
        # z > 0, so no record is planned at z = 0
        rng = np.random.default_rng(37)
        a = random_adjacency(rng, 3)
        with pytest.raises(ValueError, match="squeezing scale z must be positive and finite"):
            ClusterPlan.of(a, np.zeros(3)).interaction("identity", 0.0)

    def test_epr_blocks(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex), 1.0)
        pair = bogoliubov_from_interaction(zm)
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
            zm = ClusterPlan.of(a, th).interaction(p, z)
            pair = bogoliubov_from_interaction(zm)
            first, second = pair.defects()
            assert first <= 1e-9
            assert second <= 1e-9

    def test_overflow_cap(self):
        # the record is not made, so no cosh(z P) is formed past the budget
        with pytest.raises(DomainError, match="cosh"):
            InteractionMatrix.from_matrix(40.0j * np.eye(2), 1.0)


class TestCovarianceClosedForm:
    def test_epr_identity_gauge(self):
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        zm = cluster.interaction("identity", 1.0)
        rep = covariance_closed_form(cluster, zm)
        assert np.max(np.abs(rep.C - 2.0 * math.exp(-2.0) * np.eye(2))) <= 1e-10

    def test_faithful_gauge_scalar_value(self):
        rng = np.random.default_rng(39)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        cluster = ClusterPlan.of(a, th)
        rep = covariance_closed_form(cluster, cluster.interaction("faithful", 1.0))
        assert np.max(np.abs(rep.C - math.exp(-2.0) * np.eye(5))) <= 1e-9

    def test_self_loop_identity_gauge(self):
        cluster = ClusterPlan.of(np.array([[1.0]]), [0.0])
        zm = cluster.interaction("identity", 1.0)
        rep = covariance_closed_form(cluster, zm)
        assert np.allclose(rep.C, [[2.0 * math.exp(-2.0)]], atol=1e-12)

    def test_uniform_gauge_formula(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            n = int(rng.integers(1, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 2.0))
            cluster = ClusterPlan.of(a, th)
            zm = cluster.interaction("identity", z)
            rep = covariance_closed_form(cluster, zm)
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
            zm = cluster.interaction(p, z)
            rep = covariance_closed_form(cluster, zm)
            scale = 1.0 + rep.max_abs
            assert rep.imag_residual <= 1e-9 * scale
            # E = (A + i) e^{i Theta} e^{-z P} from a dense e^{-z P}, and C = E E^dagger
            decay = hermitian_function(zm.P, lambda w: np.exp(-z * w))
            expected = (a + 1j * np.eye(n)) @ (np.exp(1j * th)[:, None] * decay)
            assert np.max(np.abs(rep.E - expected)) <= 1e-9 * (1.0 + np.max(np.abs(expected)))
            budget = ErrorModel.of(zm).budget("covariance_real")
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
                    zm = cluster.interaction(p, z)
                    norms.append(covariance_closed_form(cluster, zm).max_abs)
                assert norms[0] > norms[1] > norms[2]

    def test_rejects_zero_scale(self):
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        with pytest.raises(ValueError):
            cluster.interaction("identity", 0.0)

    def test_rejects_incompatible_gauge(self):
        # the closed form takes a plan; the plan builder rejects the gauge
        with pytest.raises(GaugeIncompatible):
            ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction(np.diag([1.0, 2.0]), 1.0)


class TestSqueezerSpectrum:
    def test_unit_strengths(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2), 1.0)
        modes = squeezer_spectrum(zm)
        for m in modes:
            assert m.strength == pytest.approx(1.0)
            assert m.cosh_factor == pytest.approx(math.cosh(1.0))
            assert m.sinh_factor == pytest.approx(math.sinh(1.0))
            assert m.decibels == pytest.approx(20.0 / math.log(10.0))

    def test_diagonal_strengths_in_decibels(self):
        zm = InteractionMatrix.from_matrix(np.diag([2.0, 3.0j]), 0.5)
        modes = squeezer_spectrum(zm)
        assert [m.strength for m in modes] == pytest.approx([2.0, 3.0])
        assert modes[0].decibels == pytest.approx(20.0 / math.log(10.0), rel=1e-12)
        assert modes[1].decibels == pytest.approx(30.0 / math.log(10.0), rel=1e-12)

    def test_identity_gauge_means_equal_squeezers(self):
        rng = np.random.default_rng(43)
        a = random_adjacency(rng, 4)
        zm = ClusterPlan.of(a, np.zeros(4)).interaction("identity", 1.3)
        modes = squeezer_spectrum(zm)
        assert np.allclose([m.strength for m in modes], 1.0, atol=1e-12)


class TestRealRoute:
    """A P diagonal in the plan's frame F, the built-in gauges, takes Z, X,
    Y, C and E off the plan's real Q; the complex route that every gauge
    took before (``complex_route``) agrees within the budgets of the rows
    that compare a stored block with a fresh one, E within C's budget over
    e^{-z lambda_min}, the one factor of e^{-z w} that E has fewer."""

    @staticmethod
    def records():
        rng = np.random.default_rng(37)
        for n in (1, 2, 8, 64):
            a = random_adjacency(rng, n, weight=1.0)
            cluster = ClusterPlan.of(a, random_phases(rng, n))
            for gauge in ("identity", "faithful"):
                yield cluster.interaction(gauge, float(rng.uniform(0.2, 2.5)))

    def test_blocks_match_the_complex_route(self):
        for zm in self.records():
            model, reference = ErrorModel.of(zm), complex_route(zm)
            pair, closed = bogoliubov_from_interaction(zm), covariance_closed_form(zm.cluster, zm)
            fresh = {"Z": zm.Z, "X": pair.X, "Y": pair.Y, "C": closed.C}
            for key, block in fresh.items():
                assert np.max(np.abs(block - reference[key])) <= model.budget(f"bundle_{key}_matches"), (zm.gauge, key)
            decay = math.exp(-zm.z * float(zm.strengths[0]))
            assert np.max(np.abs(closed.E - reference["E"])) <= model.budget("bundle_C_matches") / decay
            assert closed.imag_residual <= model.budget("covariance_real")

    def test_z_is_p_u(self):
        """The route forms no P U, yet Z is P U within bundle_Z_matches."""
        for zm in self.records():
            assert np.max(np.abs(zm.Z - zm.P @ zm.U)) <= ErrorModel.of(zm).budget("bundle_Z_matches"), zm.gauge

    def test_identity_blocks_keep_their_bits(self):
        """Z = 1 U, X = cosh(z) 1, Y = -i sinh(z) U and E = (A + i) e^{i Theta}
        e^{-z} take no product, and the complex route's products with exact
        identity matrices were exact."""
        for zm in self.records():
            if zm.gauge != "identity":
                continue
            reference, pair = complex_route(zm), bogoliubov_from_interaction(zm)
            e = covariance_closed_form(zm.cluster, zm).E
            for key, block in (("Z", zm.Z), ("X", pair.X), ("Y", pair.Y), ("E", e)):
                assert block.dtype == reference[key].dtype, key
                assert block.tobytes() == reference[key].tobytes(), (zm.n, key)

    def test_route_follows_the_gauge(self):
        """``diagonal`` and ``scalar`` are read off the record's gauge and
        strengths: named custom, or without its plan, the same record takes
        the general route from its modes, and its blocks agree."""
        for zm in self.records():
            assert zm.diagonal and zm.scalar == (zm.gauge == "identity" or zm.n == 1)
            assert not dataclasses.replace(zm, cluster=None).diagonal
            general = dataclasses.replace(zm, gauge="custom")
            assert not general.diagonal and not general.scalar
            model, pair, closed = ErrorModel.of(zm), bogoliubov_from_interaction(zm), covariance_closed_form(zm.cluster, zm)
            moved, moved_closed = bogoliubov_from_interaction(general), covariance_closed_form(zm.cluster, general)
            assert np.max(np.abs(moved.X - pair.X)) <= model.budget("bundle_X_matches"), zm.gauge
            assert np.max(np.abs(moved.Y - pair.Y)) <= model.budget("bundle_Y_matches"), zm.gauge
            assert np.max(np.abs(moved_closed.C - closed.C)) <= model.budget("bundle_C_matches"), zm.gauge

    def test_departure_ties_p_to_z(self):
        """The route forms Z apart from P; the probe Z v - P (U v) is
        rounding, and a compatible P whose strengths are not Z's moves it."""
        for zm in self.records():
            budget = ErrorModel.of(zm).budget("interaction_product")
            assert zm.departure <= budget / 8.0, zm.gauge
            if zm.n > 1:
                off = zm.cluster._in_frame(zm.strengths * (1.0 + 1e-9 * np.arange(zm.n)))
                assert dataclasses.replace(zm, P=off).departure > 100.0 * budget, zm.gauge

    def test_scalar_covariance_keeps_the_zeros_of_a_squared_plus_one(self):
        """C = e^{-2z} (A A^T + 1) of the identity gauge, from the syrk of A:
        where A^2 + 1 has an exact zero, so has C, at any phases."""
        rng = np.random.default_rng(38)
        pairs = np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]]) * rng.uniform(0.5, 2.0, (6, 6))
        a = np.zeros((7, 7))
        a[:6, :6] = (pairs + pairs.T) / 2.0
        a[6, 6] = 0.7  # a self-loop on an isolated node
        zm = ClusterPlan.of(a, random_phases(rng, 7)).interaction("identity", 0.9)
        c = covariance_closed_form(zm.cluster, zm).C
        zeros = (a @ a + np.eye(7)) == 0.0
        assert zeros.sum() == 42 and np.all(c[zeros] == 0.0)  # A^2 is diagonal
        assert np.allclose(c, (a @ a + np.eye(7)) * math.exp(-1.8), rtol=1e-15, atol=0.0)


class TestRealityCheck:
    """The gate forms Im T in real products (one, or none for a diagonal P,
    when B = e^{i Theta} P e^{-i Theta} is real) and reads its scale off
    T's diagonal; the four-product form of the whole T is the reference."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(41)
        for n in (1, 2, 8, 64):
            a = random_adjacency(rng, n, weight=1.0)
            for th in (np.zeros(n), random_phases(rng, n)):
                cluster = ClusterPlan.of(a, th)
                compatible = random_compatible_gauge(rng, a, th)
                noise = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
                noise = (noise + noise.conj().T) / 2.0
                built_in = [cluster.interaction(g, 0.8).P for g in ("identity", "faithful")]
                diagonal = np.diag(rng.uniform(0.5, 2.0, n))
                for p in (compatible, compatible + 1e-6 * np.max(np.abs(compatible)) * noise, *built_in, diagonal):
                    yield cluster, p

    def test_agrees_with_the_four_product_gate(self):
        for cluster, p in self.cases():
            n, (residual, scale) = cluster.A.shape[0], reference_reality_check(cluster, p)
            check = _reality_check(cluster, p)
            strengths = np.linalg.eigvalsh(p)
            model = ErrorModel(n, 1.0, float(strengths[0]), float(strengths[-1]), cluster.kappa, test_scale=scale)
            assert abs(check.residual - residual) <= model.budget("gauge_condition"), (n, residual)
            rounding = 4.0 * UNIT_ROUNDOFF * n * cluster.kappa ** 2 * float(strengths[-1])
            assert abs(check.scale - scale) <= rounding, (n, check.scale, scale)


class TestZeroPhases:
    """A plan at Theta = 0 has F = Q: the faithful P, the modes, X and
    decompose's T are real arrays, equal in value to the phased route's."""

    @staticmethod
    def plans(n):
        rng = np.random.default_rng([42, n])
        a = random_adjacency(rng, n, weight=1.0)
        real, phased = ClusterPlan.of(a, np.zeros(n)), ClusterPlan.of(a, np.zeros(n))
        phased.__dict__["_real_frame"] = False  # the route of any other phases
        return real, phased

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    def test_real_blocks_equal_the_phased_route(self, n, gauge):
        real, phased = (plan.interaction(gauge, 0.9) for plan in self.plans(n))
        pairs = [bogoliubov_from_interaction(zm) for zm in (real, phased)]
        factors = [bloch_messiah(zm) for zm in (real, phased)]
        assert not any(np.iscomplexobj(m) for m in (real.P, real.modes, pairs[0].X, factors[0].T))
        assert np.iscomplexobj(factors[1].T)
        assert gauge == "identity" or np.iscomplexobj(phased.P)
        for key, (x, y) in {"P": (real.P, phased.P), "modes": (real.modes, phased.modes), "Z": (real.Z, phased.Z),
                            "U": (real.U, phased.U), "X": (pairs[0].X, pairs[1].X), "Y": (pairs[0].Y, pairs[1].Y),
                            "T": (factors[0].T, factors[1].T), "V": (factors[0].V, factors[1].V)}.items():
            assert np.array_equal(x, y), (n, gauge, key)
        assert real.reality == phased.reality


class TestScalarDefects:
    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_scalar_x_gives_the_product_form_bit_for_bit(self, n):
        rng = np.random.default_rng([43, n])
        a = random_adjacency(rng, n, weight=1.0)
        for th in (np.zeros(n), random_phases(rng, n)):
            zm = ClusterPlan.of(a, th).interaction("identity", 1.3)
            pair = bogoliubov_from_interaction(zm)
            assert pair.scalar == math.cosh(1.3)
            product = BogoliubovPair(X=pair.X, Y=pair.Y)
            assert product.scalar is None
            assert pair.defects() == product.defects()

    def test_a_new_x_is_judged_by_its_products(self):
        zm = ClusterPlan.of(epr_adjacency(), [0.0, 0.0]).interaction("identity", 1.0)
        pair = bogoliubov_from_interaction(zm)
        moved = dataclasses.replace(pair, X=pair.X + 1e-3)
        assert moved.scalar is None and moved.defects()[0] > 1e-3
