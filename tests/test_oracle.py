"""Tests for the brute-force verification path."""

import dataclasses
import math
import types

import numpy as np
import pytest

from clustersqueeze import (
    BogoliubovPair,
    ClusterPlan,
    DimensionMismatch,
    GaugeIncompatible,
    DomainError,
    InteractionMatrix,
    bogoliubov_from_interaction,
    convergence_sweep,
    covariance_closed_form,
    covariance_oracle,
    unitary_from_adjacency,
)
from clustersqueeze import synthesis
from clustersqueeze.oracle import quadrature_generator
from clustersqueeze.tolerances import RTOL, ErrorModel

from conftest import (
    bogoliubov_oracle,
    covariance_from_pair,
    epr_adjacency,
    hermitian_function,
    random_adjacency,
    random_gauge,
    random_hermitian_pd,
    random_phases,
    random_symmetric_unitary,
    quadrature_flow,
    reference_quadrature_flow,
    squeezing_generator,
)


class TestBogoliubovOracle:
    def test_scalar_generator_and_blocks(self):
        g = squeezing_generator(1j * np.eye(1), 1.0)
        assert np.allclose(g, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        zm = InteractionMatrix.from_matrix(1j * np.eye(1), 1.0)
        pair = bogoliubov_oracle(zm)
        assert abs(pair.X[0, 0] - math.cosh(1.0)) <= 1e-12
        assert abs(pair.Y[0, 0] - math.sinh(1.0)) <= 1e-12
        assert pair.X[0, 0] == pytest.approx(1.543081, abs=1e-6)
        assert pair.Y[0, 0] == pytest.approx(1.175201, abs=1e-6)

    def test_zero_scale_is_rejected(self):
        # z = 0 squeezes nothing, so no cluster is approximated: the flow
        # takes z > 0 only, as every function that takes z does, and no
        # record the oracle reads is planned at z = 0
        cluster = ClusterPlan.of(epr_adjacency(), np.zeros(2))
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex), 1.0)
        calls = (lambda: quadrature_flow(zm, 0.0), lambda: InteractionMatrix.from_matrix(zm.Z, 0.0),
                 lambda: cluster.interaction("identity", 0.0))
        for call in calls:
            with pytest.raises(ValueError, match="squeezing scale z must be positive and finite"):
                call()

    def test_epr_blocks_at_scale_two(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex), 2.0)
        pair = bogoliubov_oracle(zm)
        assert np.max(np.abs(pair.X - math.cosh(2.0) * np.eye(2))) <= 1e-10
        assert np.max(np.abs(pair.Y - 1j * math.sinh(2.0) * epr_adjacency())) <= 1e-10

    def test_matches_eigendecomposition_path(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.2, 2.5))
            kind = ("identity", "faithful", "custom")[trial % 3]
            zm = ClusterPlan.of(a, th).interaction(random_gauge(rng, kind, a, th), z)
            direct = bogoliubov_from_interaction(zm)
            brute = bogoliubov_oracle(zm)
            assert np.max(np.abs(direct.X - brute.X)) <= 1e-8
            assert np.max(np.abs(direct.Y - brute.Y)) <= 1e-8
            d1, d2 = brute.defects()
            assert d1 <= 1e-9 and d2 <= 1e-9
        # the built-in gauges read X and Y off the plan's real Q; the flow
        # reads only Z, so it judges them at N = 64 too
        for kind in ("identity", "faithful"):
            a, th = random_adjacency(rng, 64, weight=1.0), random_phases(rng, 64)
            zm = ClusterPlan.of(a, th).interaction(kind, float(rng.uniform(0.2, 2.5)))
            direct, brute = bogoliubov_from_interaction(zm), bogoliubov_oracle(zm)
            assert np.max(np.abs(direct.X - brute.X)) <= 1e-8, kind
            assert np.max(np.abs(direct.Y - brute.Y)) <= 1e-8, kind

    def test_one_parameter_group_property(self):
        rng = np.random.default_rng(72)
        a = random_adjacency(rng, 3)
        zm = ClusterPlan.of(a, np.zeros(3)).interaction("identity", 1.0)
        for z1, z2 in ((0.3, 0.9), (1.0, 1.0), (1e-3, 1.7)):
            s_sum = quadrature_flow(zm, z1 + z2)
            s_prod = quadrature_flow(zm, z1) @ quadrature_flow(zm, z2)
            assert np.max(np.abs(s_sum - s_prod)) <= 1e-9

    def test_overflow_cap(self):
        # z lambda_max = 40: no record is planned, so no flow is formed
        with pytest.raises(DomainError):
            InteractionMatrix.from_matrix(20.0j * np.eye(1), 2.0)


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
            real_k = z * quadrature_generator(zz)
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
            zm = ClusterPlan.of(a, th).interaction(random_gauge(rng, kind, a, th), z)
            s = quadrature_flow(zm)
            zero = np.zeros((n, n))
            omega = np.block([[zero, np.eye(n)], [-np.eye(n), zero]])
            residual = np.max(np.abs(s @ omega @ s.T - omega))
            assert residual <= 1e-12 * np.linalg.norm(s, 2) ** 2

    @pytest.mark.parametrize("kind", ["identity", "faithful", "custom"])
    def test_oracle_reads_only_z(self, kind, monkeypatch, request):
        rng = np.random.default_rng(93)
        a = random_adjacency(rng, 6)
        th = random_phases(rng, 6)
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction(random_gauge(rng, kind, a, th), 1.2)
        expected = covariance_oracle(cluster, zm).C
        # only Z, n and z: reading P, strengths or modes raises
        # AttributeError (NaN stand-ins would slip through a comparison such
        # as the overlap's with its budget)
        blind = types.SimpleNamespace(Z=zm.Z, n=zm.n, z=zm.z)
        fresh = ClusterPlan.of(a, th)  # its eigh(A) has not run

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not call this")

        monkeypatch.setattr(synthesis, "covariance_closed_form", forbidden)
        monkeypatch.setattr(synthesis.ClusterPlan, "of", forbidden)
        monkeypatch.setattr(synthesis.ClusterPlan, "interaction", forbidden)
        # of the plan, only A and theta: its one factorization, which U, the
        # frame and kappa read, raises
        for name in ("_factorization", "frame", "U"):
            monkeypatch.setattr(synthesis.ClusterPlan, name, property(forbidden))
        calls = request.getfixturevalue("factorizations")
        assert np.array_equal(covariance_oracle(fresh, blind).C, expected)
        # one eigh, of the 12 x 12 generator, and nothing of order N
        assert [c.shape for c in calls["eigh"]] == [(12, 12)] and calls.total() == 1

    def test_oracle_forms_no_flow(self, monkeypatch):
        # the squeezed half comes from K's eigenpairs: neither S = exp(K) nor
        # any other function of K is rebuilt at order 2N.  The eigenvectors V
        # of K come back as a marked array, every array computed from them is
        # marked too and records its shape, and none of them is 2N x 2N.
        rng = np.random.default_rng(96)
        a = random_adjacency(rng, 5)
        cluster = ClusterPlan.of(a, random_phases(rng, 5))
        zm = cluster.interaction("faithful", 1.3)
        expected = covariance_oracle(cluster, zm).C
        shapes = []

        class FromEigenvectors(np.ndarray):
            def __array_finalize__(self, obj):
                shapes.append(self.shape)

        eigh = np.linalg.eigh

        def marking(k, *args, **kwargs):
            w, v = eigh(k, *args, **kwargs)
            marked = v.view(FromEigenvectors)
            shapes.clear()  # V itself is 2N x 2N
            return w, marked

        monkeypatch.setattr(np.linalg, "eigh", marking)
        rep = covariance_oracle(cluster, zm)
        assert np.array_equal(rep.C, expected) and rep.H.shape == (5, 5)
        assert (5, 10) in shapes  # G = [Re L, -Im L] V is derived from V
        assert (10, 10) not in shapes

    def test_flow_matches_scaling_and_squaring(self):
        # random symmetric Z, z * lambda_max up to 29; both routes resolve S
        # relative to its size e^{z lambda_max}
        rng = np.random.default_rng(94)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            zz = (m + m.T) / 2.0
            zl = float(rng.uniform(0.0, 29.0))
            z = zl / float(np.linalg.svd(zz, compute_uv=False)[0])
            s = quadrature_flow(InteractionMatrix.from_matrix(zz, z))
            reference = reference_quadrature_flow(zz, z)
            assert np.max(np.abs(s - reference)) <= RTOL * math.exp(zl)

    def test_flow_depends_only_on_the_symmetric_part(self):
        # entries on a dyadic grid keep Z = Z_s + D exact, so the symmetric
        # part the flow sees is Z_s bit for bit
        rng = np.random.default_rng(95)
        for n in (1, 2, 5, 8):
            grid = rng.integers(-16, 17, (2, n, n)) / 8.0
            zs = grid[0] + grid[0].T + 1j * (grid[1] + grid[1].T) + 4.0 * np.eye(n)
            d = rng.integers(-16, 17, (2, n, n)) / 8.0
            d = (d[0] - d[0].T) + 1j * (d[1] - d[1].T)
            zm = InteractionMatrix.from_matrix(zs, 0.3)
            s = quadrature_flow(zm)
            for z_full in (zs + d, (zs + d).T):
                assert np.array_equal(quadrature_flow(dataclasses.replace(zm, Z=z_full)), s)


class TestCovarianceOracle:
    def test_single_free_mode(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(1), 1.0)
        cluster = ClusterPlan.of(np.zeros((1, 1)), [0.0])
        rep = covariance_oracle(cluster, zm)
        assert rep.C[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_epr_self_inverse_value(self):
        zm = InteractionMatrix.from_matrix(-epr_adjacency().astype(complex), 1.0)
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        rep = covariance_oracle(cluster, zm)
        assert np.max(np.abs(rep.C - 2.0 * math.exp(-2.0) * np.eye(2))) <= 1e-10

    def test_mismatched_interaction_grows(self):
        # a squeezing interaction for the wrong graph does not squeeze the
        # nullifiers: the covariance grows with z
        z_matrix = -epr_adjacency().astype(complex)
        cluster = ClusterPlan.of(np.zeros((2, 2)), [0.0, 0.0])
        rep1 = covariance_oracle(cluster, InteractionMatrix.from_matrix(z_matrix, 1.0))
        rep2 = covariance_oracle(cluster, InteractionMatrix.from_matrix(z_matrix, 2.0))
        assert rep2.max_abs > rep1.max_abs

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(73)
        for trial in range(40):
            n = int(rng.integers(1, 7))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            z = float(rng.uniform(0.3, 3.0))
            kind = ("identity", "faithful", "custom")[trial % 3]
            p = random_gauge(rng, kind, a, th)
            cluster = ClusterPlan.of(a, th)
            zm = cluster.interaction(p, z)
            closed = covariance_closed_form(cluster, zm)
            brute = covariance_oracle(cluster, zm)
            assert brute.overlap <= ErrorModel.of(zm).budget("oracle_overlap")
            assert np.max(np.abs(closed.C - brute.C)) <= 1e-8
            # the anti-squeezed half is left out: H is the real N x N factor
            assert brute.H.shape == (n, n) and not np.iscomplexobj(brute.H)
            assert np.max(np.abs(brute.C - brute.H @ brute.H.T)) <= 1e-8

    def test_own_overlap_budget_covers_the_row(self):
        # the threshold the oracle derives from K's eigenvalues and ||A||_inf
        # is no tighter than the oracle_overlap budget the battery judges by
        rng = np.random.default_rng(76)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            a = epr_adjacency() if trial == 0 else random_adjacency(rng, n)
            th = random_phases(rng, a.shape[0])
            z = float(rng.uniform(0.3, 3.0))
            kind = ("identity", "faithful", "custom")[trial % 3]
            cluster = ClusterPlan.of(a, th)
            zm = cluster.interaction(random_gauge(rng, kind, a, th), z)
            w, _ = np.linalg.eigh(quadrature_generator((zm.Z + zm.Z.T) / 2.0))
            own = ErrorModel.for_generator(cluster.A, w).budget("oracle_overlap")
            row = ErrorModel.of(zm).budget("oracle_overlap")
            assert own >= row * (1.0 - 1e-9)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_covariance_is_exactly_symmetric(self, n):
        # C is one same-buffer product H H^T or M M^T, exactly symmetric
        # without a symmetrization, whether H keeps N columns or all 2N
        rng = np.random.default_rng(77)
        cluster = ClusterPlan.of(random_adjacency(rng, n), random_phases(rng, n))
        matched = cluster.interaction("faithful", 1.3)
        mismatched = InteractionMatrix.from_matrix(random_symmetric_unitary(rng, n), 1.3)
        for zm, columns in ((matched, n), (mismatched, 2 * n)):
            rep = covariance_oracle(cluster, zm)
            assert rep.H.shape == (n, columns)
            assert np.array_equal(rep.C, rep.C.T)
        rep = covariance_from_pair(cluster, bogoliubov_from_interaction(matched))
        assert np.array_equal(rep.C, rep.C.T)

    def test_dimension_mismatch(self):
        zm = InteractionMatrix.from_matrix(1j * np.eye(2), 1.0)
        with pytest.raises(DimensionMismatch):
            covariance_oracle(ClusterPlan.of(np.zeros((3, 3)), np.zeros(3)), zm)

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
            zm = InteractionMatrix.from_matrix(u_bad, 3.0)
            cluster = ClusterPlan.of(a, th)
            r3 = covariance_oracle(cluster, zm)
            r4 = covariance_oracle(cluster, InteractionMatrix.from_matrix(u_bad, 4.0))
            # the oracle's own threshold, from the generator's eigenvalues
            # +-sigma(Z) at z = 1, which kept the anti-squeezed half
            sigma = zm.strengths
            own = ErrorModel.for_generator(cluster.A, np.concatenate([-sigma[::-1], sigma]))
            assert r3.overlap > 1e3 * own.budget("oracle_overlap")
            assert r3.H.shape == (n, 2 * n)  # the anti-squeezed half is kept
            assert r4.max_abs > r3.max_abs


class TestOracleBudgetsAgainstMpmath:
    """The squeezed-half oracle against C = L e^{-2 z P} L^dagger evaluated
    in 40 digits from the same P: its error stays within the
    ``covariance_vs_oracle`` budget and its overlap within the
    ``oracle_overlap`` budget up to z * lambda_max = 29."""

    @staticmethod
    def exact_covariance(cluster, p, z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            n = cluster.A.shape[0]
            pm = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in p])
            w, q = mp.eighe((pm + pm.H) / 2)
            decay = q * mp.diag([mp.exp(-2 * z * x) for x in w]) * q.H
            left = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    phase = mp.expj(mp.mpf(float(cluster.theta[j])))
                    left[i, j] = (mp.mpf(float(cluster.A[i, j])) + (1j if i == j else 0)) * phase
            c = left * decay * left.H
            return np.array([[float(mp.re(c[i, j])) for j in range(n)] for i in range(n)])

    @pytest.mark.parametrize("a", [epr_adjacency(), np.array([[0.3, 1.0, 0.0], [1.0, 0.0, -0.5], [0.0, -0.5, 0.0]])],
                             ids=["epr", "path3"])
    @pytest.mark.parametrize("gauge", ["identity", "faithful"])
    @pytest.mark.parametrize("zl", [5.0, 25.0, 29.0])
    def test_within_budget(self, a, gauge, zl):
        n = a.shape[0]
        cluster = ClusterPlan.of(a, np.linspace(-1.0, 1.0, n))
        rho = float(np.max(np.abs(cluster.by_magnitude[0])))
        z = zl - (0.5 * math.log1p(rho * rho) if gauge == "faithful" else 0.0)
        zm = cluster.interaction(gauge, z)
        model = ErrorModel.of(zm)
        brute = covariance_oracle(cluster, zm)
        exact = self.exact_covariance(cluster, zm.P, z)
        assert brute.overlap <= model.budget("oracle_overlap")
        assert np.max(np.abs(brute.C - exact)) <= model.budget("covariance_vs_oracle")
        # the budget resolves C far below 1e-8 of its size
        assert model.budget("covariance_vs_oracle") <= 1e-10 * np.max(np.abs(exact))


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
            cluster = ClusterPlan.of(a, th)
            with pytest.raises(GaugeIncompatible):
                cluster.interaction(p_bad, 1.0)
            x = hermitian_function(p_bad, lambda w: np.cosh(1.0 * w))
            y = -1j * hermitian_function(p_bad, lambda w: np.sinh(1.0 * w)) @ cluster.U
            rep = covariance_from_pair(cluster, BogoliubovPair(X=x, Y=y))
            worst = max(worst, rep.imag_residual)
        assert worst > 1e-6

    def test_compatible_pairs_stay_real(self):
        rng = np.random.default_rng(76)
        a = random_adjacency(rng, 4)
        th = random_phases(rng, 4)
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction(random_gauge(rng, "custom", a, th), 1.0)
        pair = bogoliubov_from_interaction(zm)
        rep = covariance_from_pair(cluster, pair)
        assert rep.imag_residual <= 1e-9


class TestConvergenceSweep:
    def test_epr_identity_gauge_values(self):
        rows = convergence_sweep(ClusterPlan.of(epr_adjacency(), [0.0, 0.0]), "identity", [1.0, 2.0, 3.0])
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
        rows = convergence_sweep(ClusterPlan.of(a, np.zeros(4)), "faithful", [1.0, 2.0])
        assert rows[0].max_abs == pytest.approx(math.exp(-2.0), abs=1e-10)
        assert rows[1].max_abs == pytest.approx(math.exp(-4.0), abs=1e-10)

    def test_single_point_sweep(self):
        rows = convergence_sweep(ClusterPlan.of(epr_adjacency(), [0.0, 0.0]), "identity", [1.5])
        assert len(rows) == 1
        assert rows[0].z == 1.5

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(78)
        a = random_adjacency(rng, 5)
        th = random_phases(rng, 5)
        rows = convergence_sweep(ClusterPlan.of(a, th), "identity", [0.5, 1.0, 1.5, 2.0, 3.0])
        norms = [row.max_abs for row in rows]
        assert all(x > y for x, y in zip(norms, norms[1:]))

    @pytest.mark.parametrize("kind", ["identity", "faithful", "custom"])
    def test_every_row_is_the_closed_form(self, kind):
        """The rows between the checked ends share one frame and read their
        strengths off the cluster plan; each is the closed form of that
        row's own gauge plan."""
        rng = np.random.default_rng(97)
        n = 7
        a = random_adjacency(rng, n)
        th = random_phases(rng, n)
        gauge = random_gauge(rng, kind, a, th)
        zs = [0.2 + 0.075 * k for k in range(24)]
        rows = convergence_sweep(ClusterPlan.of(a, th), gauge, zs)
        assert [row.z for row in rows] == zs
        cluster = ClusterPlan.of(a, th)
        for row in rows:
            zm = cluster.interaction(gauge, row.z)
            closed = covariance_closed_form(cluster, zm)
            budget = ErrorModel.of(zm).budget("bundle_C_matches")
            assert abs(row.max_abs - closed.max_abs) <= budget
            # | ||C||_F - ||C'||_F | <= ||C - C'||_F <= n max|C - C'|
            assert abs(row.frobenius - np.linalg.norm(closed.C)) <= n * budget

    def test_rejects_unsorted_or_empty(self):
        cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
        for zs in ([2.0, 1.0], [], [-1.0, 1.0]):
            with pytest.raises(ValueError):
                convergence_sweep(cluster, "identity", zs)
