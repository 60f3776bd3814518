"""Tests for the inverse (cluster recovery) path."""

import numpy as np
import pytest

from clustersqueeze import (
    ClusterPlan,
    InteractionMatrix,
    NonRealResult,
    SingularPhasePoint,
    adjacency_from_unitary,
    analyze_interaction,
    find_regular_phases,
    regularity_margin,
    unitary_from_adjacency,
)
from clustersqueeze.matfun import cayley_real, regularizing_angle

from conftest import (
    adjacency_from_k,
    epr_adjacency,
    k_matrix_form,
    random_adjacency,
    random_compatible_gauge,
    random_orthogonal,
    random_phases,
    random_symmetric_unitary,
    takagi_symmetric_unitary,
)

#: Eigen-angles at which W + i is singular for zero phases and for each
#: global phase pi k / 16, k = 1..16: L = -pi/2 - 2c.
GLOBAL_TEST_POINTS = -np.pi / 2 - np.pi * np.arange(16) / 8


class TestAdjacencyFromUnitary:
    def test_vanishing_numerator(self):
        a = adjacency_from_unitary(1j * np.eye(3), np.zeros(3))
        assert np.allclose(a, np.zeros((3, 3)), atol=1e-12)

    def test_epr_structure_factor(self):
        u = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        a = adjacency_from_unitary(u, [0.0, 0.0])
        assert np.allclose(a, epr_adjacency(), atol=1e-10)
        assert np.allclose(unitary_from_adjacency(a, [0.0, 0.0]), u, atol=1e-10)

    def test_scalar_rotated_case(self):
        a = adjacency_from_unitary(-1j * np.eye(1), [np.pi / 4])
        assert np.allclose(a, [[-1.0]], atol=1e-10)
        assert np.allclose(
            unitary_from_adjacency(a, [np.pi / 4]), -1j * np.eye(1), atol=1e-10
        )

    def test_singular_phase_point(self):
        with pytest.raises(SingularPhasePoint):
            adjacency_from_unitary(-1j * np.eye(1), [0.0])

    def test_non_real_result_for_invalid_input(self):
        rng = np.random.default_rng(50)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = (m + m.T) / 2.0  # symmetric but far from unitary
        with pytest.raises(NonRealResult):
            adjacency_from_unitary(m, np.zeros(3))

    def test_round_trip_random(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            u = unitary_from_adjacency(a, th)
            back = adjacency_from_unitary(u, th)
            assert np.max(np.abs(back - a)) <= 1e-8


class TestFindRegularPhases:
    def test_identity_multiple_takes_the_closed_form_angle(self):
        # Re(i 1) = 0: the angles +-pi/2 centre the widest gap on 0, so
        # alpha = pi, c = 3 pi / 4 and W = e^{2ic} i 1 = 1
        th, margin = find_regular_phases(1j * np.eye(2))
        assert np.allclose(th, np.full(2, 3 * np.pi / 4))
        assert margin == regularity_margin(1j * np.eye(2), th) == pytest.approx(np.sqrt(2.0))
        assert np.allclose(adjacency_from_unitary(1j * np.eye(2), th), -np.eye(2), atol=1e-12)

    def test_rejects_zero_when_singular(self):
        u = -1j * np.eye(1)
        assert regularity_margin(u, [0.0]) == pytest.approx(0.0, abs=1e-12)
        th, margin = find_regular_phases(u)
        assert margin == regularity_margin(u, th) >= 1e-6

    def test_epr_structure_factor_regular_at_zero(self):
        # zero phases regularize it, so analyze keeps them; the closed form
        # picks c = pi, where W = U and the recovered cluster is the same
        u = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        assert regularity_margin(u, np.zeros(2)) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        th, margin = find_regular_phases(u)
        assert np.allclose(th, np.full(2, np.pi))
        assert margin == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert np.allclose(adjacency_from_unitary(u, th), epr_adjacency(), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(52)
        u = random_symmetric_unitary(rng, 4)
        (th1, margin1), (th2, margin2) = (find_regular_phases(u) for _ in range(2))
        assert np.array_equal(th1, th2) and margin1 == margin2

    def test_not_symmetric_unitary_is_singular(self):
        # a real rotation: Re U misstates its angles +-pi/2 as 0 and pi, and
        # the angle that would clear those turns +-i onto -1
        with pytest.raises(SingularPhasePoint, match="not a valid symmetric unitary"):
            find_regular_phases(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("placed", [False, True], ids=["random-spectra", "on-global-test-points"])
    def test_closed_form_phases(self, placed):
        """Equal phases, sigma_min >= 2 sin(pi / 4N) and A = the K that the
        Takagi's Cayley map forms, on random spectra and on spectra holding
        every point singular for the zero and the 16 global phases."""
        rng = np.random.default_rng(60 + placed)
        for _ in range(60):
            n = int(rng.integers(16 if placed else 1, 65))
            angles = rng.uniform(-np.pi, np.pi, n)
            if placed:
                angles[:16] = GLOBAL_TEST_POINTS
            o = random_orthogonal(rng, n)
            u = (o * np.exp(1j * angles)[None, :]) @ o.T
            u = (u + u.T) / 2.0
            th, margin = find_regular_phases(u)
            assert np.all(th == th[0])
            assert margin == regularity_margin(u, th)
            assert margin >= 2.0 * np.sin(np.pi / (4 * n)) * (1.0 - 1e-9)
            k = cayley_real(1j * np.exp(1j * regularizing_angle(u)) * u)
            assert np.max(np.abs(adjacency_from_unitary(u, th) - k)) <= 1e-13 * n * max(1.0, np.max(np.abs(k)))

    def test_random_symmetric_unitaries_always_regularized(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            u = random_symmetric_unitary(rng, n)
            th, margin = find_regular_phases(u)
            assert margin == regularity_margin(u, th) >= 1e-6


class TestKMatrix:
    def test_quarter_angle(self):
        k = k_matrix_form(1j * np.eye(1), [0.0])
        assert np.allclose(k, [[np.pi / 2]], atol=1e-12)

    def test_zero_angles(self):
        k = k_matrix_form(np.eye(3, dtype=complex), np.zeros(3))
        assert np.allclose(k, np.zeros((3, 3)), atol=1e-12)

    def test_epr_angle_matrix(self):
        u = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        k = k_matrix_form(u, [0.0, 0.0])
        assert np.allclose(k, (np.pi / 2) * np.ones((2, 2)), atol=1e-10)

    def test_exponential_reconstruction(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            u = random_symmetric_unitary(rng, n)
            th = random_phases(rng, n)
            k = k_matrix_form(u, th)
            assert np.max(np.abs(k.imag)) == 0.0
            assert np.max(np.abs(k - k.T)) <= 1e-12
            w, q = np.linalg.eigh(k)
            rebuilt = (q * np.exp(1j * w)[None, :]) @ q.T
            ph = np.exp(1j * th)
            assert np.max(np.abs(rebuilt - ph[:, None] * u * ph[None, :])) <= 1e-9


class TestAdjacencyFromK:
    def test_zero_matrix_gives_self_loops(self):
        a = adjacency_from_k(np.zeros((2, 2)))
        assert np.allclose(a, -np.eye(2), atol=1e-12)

    def test_quarter_turn_gives_empty_graph(self):
        a = adjacency_from_k((np.pi / 2) * np.eye(3))
        assert np.allclose(a, np.zeros((3, 3)), atol=1e-12)

    def test_epr_angle_matrix(self):
        k = (np.pi / 2) * np.ones((2, 2))
        assert np.allclose(adjacency_from_k(k), epr_adjacency(), atol=1e-12)

    def test_singularity_at_negative_quarter_turn(self):
        with pytest.raises(SingularPhasePoint):
            adjacency_from_k(-(np.pi / 2) * np.eye(2))

    def test_k_path_matches_direct_inverse(self):
        rng = np.random.default_rng(55)
        done = 0
        while done < 25:
            n = int(rng.integers(1, 8))
            u = random_symmetric_unitary(rng, n)
            th = random_phases(rng, n)
            if regularity_margin(u, th) < 1e-6:
                continue
            done += 1
            direct = adjacency_from_unitary(u, th)
            via_k = adjacency_from_k(k_matrix_form(u, th))
            assert np.max(np.abs(direct - via_k)) <= 1e-8


class TestAnalyzeInteraction:
    def test_two_disconnected_modes(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2), 1.0)
        res = analyze_interaction(zm)
        assert np.allclose(res.theta, np.zeros(2))
        assert np.allclose(res.adjacency, np.zeros((2, 2)), atol=1e-10)

    def test_epr_interaction(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex), 1.0)
        res = analyze_interaction(zm)
        assert np.allclose(res.theta, np.zeros(2))
        assert np.allclose(res.adjacency, epr_adjacency(), atol=1e-10)
        assert res.phases_replaced is False

    def test_gauge_rescaling_leaves_cluster_unchanged(self):
        z0 = -1.346574 * epr_adjacency().astype(complex)
        res = analyze_interaction(InteractionMatrix.from_matrix(z0, 1.0))
        assert np.allclose(res.adjacency, epr_adjacency(), atol=1e-8)

    def test_covariance_decays_with_scale(self):
        epr = -epr_adjacency().astype(complex)
        norms = [analyze_interaction(InteractionMatrix.from_matrix(epr, z)).covariance.max_abs
                 for z in (1.0, 2.0, 3.0)]
        assert norms[0] > norms[1] > norms[2]

    def test_gauge_independence_of_recovered_adjacency(self):
        rng = np.random.default_rng(56)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        u = unitary_from_adjacency(a, th)
        recovered = []
        for _ in range(6):
            p = random_compatible_gauge(rng, a, th)
            zm = ClusterPlan.of(a, th).interaction(p, 1.0)
            res = analyze_interaction(zm, theta=th)
            recovered.append(res.adjacency)
        for r in recovered[1:]:
            assert np.max(np.abs(r - recovered[0])) <= 1e-8
        assert np.max(np.abs(recovered[0] - a)) <= 1e-8
        assert np.max(np.abs(u - unitary_from_adjacency(recovered[0], th))) <= 1e-8

    def test_phase_class_property(self):
        # every regular phase vector defines a cluster satisfying the
        # forward relation with its own phases
        rng = np.random.default_rng(57)
        u = random_symmetric_unitary(rng, 4)
        zm = InteractionMatrix.from_matrix(u, 1.0)
        for _ in range(5):
            th = random_phases(rng, 4)
            if regularity_margin(u, th) < 1e-6:
                continue
            res = analyze_interaction(zm, theta=th)
            rebuilt = unitary_from_adjacency(res.adjacency, res.theta)
            assert np.max(np.abs(rebuilt - u)) <= 1e-8

    def test_falls_back_to_search_for_singular_phases(self):
        zm = InteractionMatrix.from_matrix(-1j * np.eye(1), 1.0)
        res = analyze_interaction(zm, theta=[0.0])
        assert res.phases_replaced is True
        assert res.margin >= 1e-6
        assert not np.allclose(res.theta, [0.0])
        rebuilt = unitary_from_adjacency(res.adjacency, res.theta)
        assert np.max(np.abs(rebuilt - (-1j) * np.eye(1))) <= 1e-8


class TestRotatedRoundTrip:
    def test_global_rotation_forces_phase_search(self):
        # rotate a forward structure factor so the zero-phase point is
        # exactly singular, then recover a cluster of the phase class
        rng = np.random.default_rng(58)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_adjacency(rng, n)
            u = unitary_from_adjacency(a, np.zeros(n))
            eigs = np.linalg.eigvals(u)
            beta = float(np.angle(eigs[0]))
            shift = (beta + np.pi / 2) / 2.0
            u_rot = np.exp(-2j * shift) * u
            assert regularity_margin(u_rot, np.zeros(n)) < 1e-6
            th, _ = find_regular_phases(u_rot)
            back = adjacency_from_unitary(u_rot, th)
            rebuilt = unitary_from_adjacency(back, th)
            assert np.max(np.abs(rebuilt - u_rot)) <= 1e-8


def _takagi_inputs(kind):
    """The symmetric unitaries of order >= 2 that ``TestTakagi`` factors."""
    if kind == "random":
        rng = np.random.default_rng(12)
        return [random_symmetric_unitary(rng, int(rng.integers(2, 9))) for _ in range(30)]
    if kind == "angles":
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            cases.append((q * np.exp(1j * rng.uniform(-np.pi, np.pi, n))[None, :]) @ q.T)
        return cases
    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = 1.0
    return [np.asarray(s, dtype=complex) for s in (
        np.eye(2), [[0.0, -1.0], [-1.0, 0.0]], 1j * np.array([[0.0, 1.0], [1.0, 0.0]]),
        -1j * np.eye(4), np.diag([1j, 1j, 1.0]), np.exp(0.3j) * np.eye(5),
        -1j * np.linalg.solve(star + 1j * np.eye(5), star - 1j * np.eye(5)),
    )]


class TestTakagiReadsTheRecoveredCluster:
    @pytest.mark.parametrize("kind", ["random", "angles", "structured"])
    def test_factor_is_the_canonical_interferometer(self, kind):
        """R = e^{i pi/4} F diag(rotation) of the cluster recovered at the
        equal phases, bit for bit, with its columns in ascending |lam|."""
        for s in _takagi_inputs(kind):
            theta = find_regular_phases(s)[0]
            plan = ClusterPlan.of(adjacency_from_unitary(s, theta), theta)
            r = takagi_symmetric_unitary(s)
            assert np.array_equal(r, np.exp(0.25j * np.pi) * plan.frame * plan.rotation[None, :])
            # e^{-i pi/4} e^{i Theta} R = Q diag((1 + i lam) / sqrt(1 + lam^2)):
            # its real columns have norms 1 / sqrt(1 + lam^2), which fall as |lam| rises
            real_norms = np.linalg.norm((np.exp(1j * (theta - np.pi / 4))[:, None] * r).real, axis=0)
            assert np.all(np.diff(real_norms) <= 1e-12)
