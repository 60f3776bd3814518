"""Tests for the interferometer reduction."""

import dataclasses
import math

import numpy as np
import pytest

from clustersqueeze import (
    ClusterPlan,
    InteractionMatrix,
    NonRealResult,
    NotOrthogonal,
    bloch_messiah,
    bogoliubov_from_interaction,
    battery,
    canonical_cluster_interferometer,
    cluster_condition_residual,
    squeezer_spectrum,
    unitary_from_adjacency,
)
from clustersqueeze import synthesis
from clustersqueeze.tolerances import ErrorModel

from conftest import (
    epr_adjacency,
    half_phase,
    random_adjacency,
    random_gauge,
    random_orthogonal,
    random_phases,
    random_unitary,
    unitary_from_interferometer,
)


def _reconstruction_residuals(zm, factors):
    pair = bogoliubov_from_interaction(zm)
    x_rec, y_rec = factors.reconstruct()
    return (
        np.max(np.abs(x_rec - pair.X)),
        np.max(np.abs(y_rec - pair.Y)),
        np.max(np.abs(1j * factors.V @ factors.V.T - zm.U)),
    )


class TestBlochMessiah:
    def test_two_equal_squeezers(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2), 1.0)
        factors = bloch_messiah(zm)
        assert np.allclose(factors.D, np.ones(2), atol=1e-12)
        rx, ry, ru = _reconstruction_residuals(zm, factors)
        assert max(rx, ry, ru) <= 1e-9

    def test_epr_degenerate_factors(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex), 1.0)
        factors = bloch_messiah(zm)
        assert np.allclose(factors.D, np.ones(2), atol=1e-12)
        rx, ry, ru = _reconstruction_residuals(zm, factors)
        assert max(rx, ry, ru) <= 1e-9

    def test_diagonal_interaction(self):
        zm = InteractionMatrix.from_matrix(np.diag([2.0, 3.0j]), 0.7)
        factors = bloch_messiah(zm)
        assert np.allclose(factors.D, [2.0, 3.0], atol=1e-12)
        x_rec, _ = factors.reconstruct()
        assert np.allclose(
            x_rec, np.diag([math.cosh(1.4), math.cosh(2.1)]), atol=1e-9
        )

    def test_unitaries_and_balancing(self):
        rng = np.random.default_rng(60)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction(random_gauge(rng, "custom", a, th), 1.0)
        factors = bloch_messiah(zm)
        eye = np.eye(4)
        assert np.max(np.abs(factors.V @ factors.V.conj().T - eye)) <= 1e-9
        # the second interferometer -i U T^T conj(R) is V itself
        second = -1j * zm.U @ factors.T.T @ factors.R.conj()
        assert np.max(np.abs(second - factors.V)) <= 1e-9
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
            cluster = ClusterPlan.of(a, th)
            zm = cluster.interaction(random_gauge(rng, kind, a, th), z)
            factors = bloch_messiah(zm)
            rx, ry, ru = _reconstruction_residuals(zm, factors)
            assert rx <= 1e-8 and ry <= 1e-8
            assert ru <= 1e-9

    def test_strengths_match_squeezer_spectrum(self):
        rng = np.random.default_rng(62)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        z = 1.2
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction(random_gauge(rng, "custom", a, th), z)
        factors = bloch_messiah(zm)
        strengths = np.array([m.strength for m in squeezer_spectrum(zm)])
        assert np.max(np.abs(np.sort(factors.D) - np.sort(strengths))) <= 1e-9
        assert np.allclose(
            factors.decibels, 20.0 * z * factors.D / math.log(10.0), atol=1e-12
        )

    def test_degenerate_strengths_with_colliding_angles(self):
        # distinct squeezer strengths whose structure factor is scalar (two
        # free modes, U = i 1): the factors must not mix the strength
        # eigenspaces
        cluster = ClusterPlan.of(np.zeros((2, 2)), [0.0, 0.0])
        zm = cluster.interaction(np.diag([1.0, 2.0]), 1.0)
        factors = bloch_messiah(zm)
        rx, ry, ru = _reconstruction_residuals(zm, factors)
        assert max(rx, ry, ru) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_single_groups_match_the_per_group_takagi(self, n):
        # every faithful strength group is 1 x 1, and -i T U T^T is diagonal
        # in the plan's frame: R = diag(rotation) is the Takagi factor of each
        # diagonal entry, e^{i arg / 2}, to rounding
        rng = np.random.default_rng(64)
        a = random_adjacency(rng, n)
        cluster = ClusterPlan.of(a, random_phases(rng, n))
        zm = cluster.interaction("faithful", 0.7)
        factors = bloch_messiah(zm)
        balanced = np.diag(-1j * factors.T @ zm.U @ factors.T.T)
        assert np.max(np.abs(factors.R - np.diag(half_phase(balanced)))) <= 1e-13

    def test_non_unitary_single_group_is_rejected(self):
        # from Z alone the factors come from the cluster recovered from U,
        # whose Cayley map rejects a U that is not unitary
        planned = ClusterPlan.of(epr_adjacency(), np.zeros(2)).interaction("faithful", 1.0)
        zm = InteractionMatrix.from_matrix(planned.Z, 1.0)
        with pytest.raises(NonRealResult):
            bloch_messiah(dataclasses.replace(zm, U=1.1 * zm.U))

    def test_cluster_condition_of_reduced_interferometer(self):
        rng = np.random.default_rng(63)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = 1.0
            kind = ("identity", "faithful", "custom")[trial % 3]
            cluster = ClusterPlan.of(a, th)
            zm = cluster.interaction(random_gauge(rng, kind, a, th), z)
            factors = bloch_messiah(zm)
            assert cluster_condition_residual(factors.V, cluster) <= 1e-8


class TestBudgetsDoNotDependOnTheModeBasis:
    """On the interaction route the identity gauge's strengths form one
    degenerate group, inside which the modes of P are any unitary basis.
    The factors come from the cluster recovered from U, and neither they
    nor the reduction budgets depend on that basis."""

    ROWS = ("blochmessiah_x", "blochmessiah_y", "interferometer_identity", "cluster_condition")

    def test_twelve_ring_in_six_bases(self):
        n, z = 12, 1.0
        a = np.roll(np.eye(n), 1, axis=0) + np.roll(np.eye(n), -1, axis=0)
        cluster = ClusterPlan.of(a, np.zeros(n))
        zm = InteractionMatrix.from_matrix(cluster.interaction("identity", z).Z, z)
        assert zm.strengths[-1] - zm.strengths[0] < 1e-12
        pair = bogoliubov_from_interaction(zm)
        rng = np.random.default_rng(2022)
        budgets, reference = [], bloch_messiah(zm)
        for modes in [zm.modes] + [zm.modes @ random_unitary(rng, n) for _ in range(5)]:
            factors, rows = battery._reduction(dataclasses.replace(zm, modes=modes), pair)
            assert np.array_equal(factors.V, reference.V)
            model = ErrorModel.of(zm)
            rows.append(("cluster_condition", cluster_condition_residual(factors.V, cluster)))
            records = model.checks(rows)
            assert [r["name"] for r in records] == list(self.ROWS)
            assert all(r["passed"] for r in records), records
            budgets.append([r["tolerance"] for r in records])
        assert all(b == budgets[0] for b in budgets), budgets


class TestFactorsOffThePlan:
    """With the cluster plan of a built-in gauge, T = F^dagger in the order
    of the strengths, R is diagonal and V is the canonical interferometer
    with O = Q in that order; with a custom gauge, V = W O for the O that
    diagonalizes S_W = W^dagger P W."""

    GRAPHS = {
        "random": None,
        "epr": epr_adjacency(),
        "empty": np.zeros((3, 3)),
        "ring": np.roll(np.eye(6), 1, axis=0) + np.roll(np.eye(6), -1, axis=0),
    }

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    def test_v_is_the_canonical_interferometer(self, gauge, graph):
        rng = np.random.default_rng(67)
        for _ in range(8):
            a = self.GRAPHS[graph]
            a = random_adjacency(rng, int(rng.integers(1, 9))) if a is None else a
            n = a.shape[0]
            cluster = ClusterPlan.of(a, random_phases(rng, n))
            z = float(rng.uniform(0.3, 2.0))
            zm = cluster.interaction(gauge, z)
            factors = bloch_messiah(zm)
            canonical = canonical_cluster_interferometer(cluster, cluster.by_magnitude[1])
            assert np.max(np.abs(factors.V - canonical)) <= 1e-13
            assert np.array_equal(factors.D, zm.strengths)
            assert np.array_equal(factors.R, np.diag(np.diag(factors.R)))
            assert np.max(np.abs(factors.T.conj().T @ factors.R - factors.V)) <= 1e-14
            balanced = -1j * factors.T @ zm.U @ factors.T.T
            assert np.max(np.abs(factors.R @ factors.R.T - balanced)) <= 1e-13
            rx, ry, ru = _reconstruction_residuals(zm, factors)
            assert max(rx, ry, ru) <= 1e-13 * math.cosh(z * zm.strengths[-1])
            assert cluster_condition_residual(factors.V, cluster) <= 1e-13

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_custom_gauge_v_is_w_times_a_real_orthogonal(self, graph):
        rng = np.random.default_rng(68)
        for _ in range(8):
            a = self.GRAPHS[graph]
            a = random_adjacency(rng, int(rng.integers(1, 9))) if a is None else a
            n = a.shape[0]
            cluster = ClusterPlan.of(a, random_phases(rng, n))
            z = float(rng.uniform(0.3, 2.0))
            zm = cluster.interaction(random_gauge(rng, "custom", a, cluster.theta), z)
            factors = bloch_messiah(zm)
            assert factors.V is zm.modes and np.array_equal(factors.D, zm.strengths)
            o = cluster.interferometer.conj().T @ factors.V
            assert np.max(np.abs(o.imag)) <= 1e-13
            assert np.max(np.abs(o.real @ o.real.T - np.eye(n))) <= 1e-13
            assert np.array_equal(factors.R, np.diag(cluster.rotation))
            assert np.max(np.abs(factors.T.conj().T @ factors.R - factors.V)) <= 1e-14
            scale = zm.strengths[-1]
            assert np.max(np.abs(factors.T.conj().T @ np.diag(factors.D) @ factors.T - zm.P)) <= 1e-13 * scale
            rx, ry, ru = _reconstruction_residuals(zm, factors)
            assert rx == 0.0 and max(ry, ru) <= 1e-13 * math.cosh(z * scale)
            assert cluster_condition_residual(factors.V, cluster) <= 1e-13


class TestLibraryRoute:
    """``bloch_messiah(zm)`` reads a planned record's factors off the
    plan that built it, with no ``numpy.linalg`` factorization: V is the
    plan's W for a built-in gauge and the modes W O of a custom P, bit for
    bit.  Z alone recovers its plan from U at the equal phases: the
    regularizing angle's ``eigvalsh``, the Cayley ``solve``, ``eigh`` of A'
    and the real ``eigh`` of Re S_W."""

    @staticmethod
    def _counted(zm, monkeypatch):
        """The factors of ``zm`` and the kernel calls that made them."""
        calls = {}
        with monkeypatch.context() as patch:
            for name in ("eigh", "eigvalsh", "svd", "solve", "inv"):
                def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _original(*args, **kwargs)
                patch.setattr(np.linalg, name, counting)
            factors = bloch_messiah(zm)
        return factors, calls

    @staticmethod
    def _planned(gauge):
        rng = np.random.default_rng(69)
        a = random_adjacency(rng, 24)
        cluster = ClusterPlan.of(a, random_phases(rng, 24))
        return cluster.interaction(random_gauge(rng, gauge, a, cluster.theta), 0.8)

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    def test_a_planned_record_makes_no_factorization(self, gauge, monkeypatch):
        zm = self._planned(gauge)
        factors, calls = self._counted(zm, monkeypatch)
        assert calls == {}
        assert factors.V is (zm.modes if gauge == "custom" else zm.cluster.interferometer)

    @pytest.mark.parametrize("gauge", ["identity", "faithful", "custom"])
    def test_a_bare_z_recovers_its_plan(self, gauge, monkeypatch):
        zm = InteractionMatrix.from_matrix(self._planned(gauge).Z, 0.8)
        assert zm.cluster is None and zm.gauge is None
        factors, calls = self._counted(zm, monkeypatch)
        assert calls == {"eigvalsh": 1, "solve": 1, "eigh": 2}
        rx, ry, ru = _reconstruction_residuals(zm, factors)
        model = ErrorModel.of(zm)
        assert rx <= model.budget("blochmessiah_x") and ry <= model.budget("blochmessiah_y")
        assert ru <= model.budget("interferometer_identity")

    def test_a_recovered_plan_forms_no_u(self, monkeypatch):
        """The plan Z alone recovers gives V, R and T, which never read its
        U, so its U is never formed: no product with Q is made."""
        zm = InteractionMatrix.from_matrix(self._planned("faithful").Z, 0.8)
        products = []

        def counting(*args, **kwargs):
            products.append(args)
            return spectral(*args, **kwargs)

        spectral = synthesis._spectral
        monkeypatch.setattr(synthesis, "_spectral", counting)
        bloch_messiah(zm)
        assert products == []


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
