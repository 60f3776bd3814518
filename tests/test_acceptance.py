"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is a contract value; nothing is calibrated to
make the suite green.
"""

import math
import time

import numpy as np

from clustersqueeze import (
    ClusterPlan,
    GaugeIncompatible,
    InteractionMatrix,
    adjacency_from_unitary,
    bloch_messiah,
    bogoliubov_from_interaction,
    canonical_cluster_interferometer,
    convergence_sweep,
    covariance_closed_form,
    covariance_oracle,
    find_regular_phases,
    regularity_margin,
    unitary_from_adjacency,
)

from conftest import (
    bogoliubov_oracle,
    epr_adjacency,
    random_adjacency,
    random_compatible_gauge,
    random_gauge,
    random_hermitian_pd,
    random_orthogonal,
    random_phases,
    random_symmetric_unitary,
)

_SUITE_START = time.perf_counter()


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number:2d} ({name}): {status} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_faithful_gauge_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = random_adjacency(rng, n, weight=2.0)
        th = random_phases(rng, n)
        for z in (0.5, 1.0, 2.0):
            cluster = ClusterPlan.of(a, th)
            rep = covariance_closed_form(cluster, cluster.interaction("faithful", z))
            worst = max(
                worst, float(np.max(np.abs(rep.C - math.exp(-2.0 * z) * np.eye(n))))
            )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "faithful-gauge identity",
        worst <= 1e-9 and elapsed < 5.0,
        f"max residual {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_self_inverse_case():
    cluster = ClusterPlan.of(epr_adjacency(), [0.0, 0.0])
    zm = cluster.interaction("identity", 1.0)
    rep = covariance_closed_form(cluster, zm)
    residual = float(np.max(np.abs(rep.C - 2.0 * math.exp(-2.0) * np.eye(2))))
    _report(2, "self-inverse EPR value", residual <= 1e-10, f"residual {residual:.3e}")


def test_criterion_03_uniform_gauge_formula():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = random_adjacency(rng, n)
        th = random_phases(rng, n)
        z = float(rng.uniform(0.3, 2.5))
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction("identity", z)
        rep = covariance_closed_form(cluster, zm)
        target = (a @ a + np.eye(n)) * math.exp(-2.0 * z)
        worst = max(worst, float(np.max(np.abs(rep.C - target))))
    _report(3, "trivial-gauge formula", worst <= 1e-9, f"max residual {worst:.3e}")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
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
        worst = max(worst, float(np.max(np.abs(closed.C - brute.C))))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "closed form vs oracle",
        worst <= 1e-8 and elapsed < 30.0,
        f"max gap {worst:.3e} over 200 instances, {elapsed:.2f}s",
    )


def test_criterion_05_theorem_necessity():
    rng = np.random.default_rng(105)
    checked = 0
    ok = True
    detail = ""
    while checked < 20:
        n = int(rng.integers(2, 7))
        a = random_adjacency(rng, n)
        th = random_phases(rng, n)
        u_bad = random_symmetric_unitary(rng, n)
        if np.max(np.abs(u_bad - unitary_from_adjacency(a, th))) < 1e-3:
            continue
        checked += 1
        cluster = ClusterPlan.of(a, th)
        c3 = covariance_oracle(cluster, InteractionMatrix.from_matrix(u_bad, 3.0)).max_abs
        c4 = covariance_oracle(cluster, InteractionMatrix.from_matrix(u_bad, 4.0)).max_abs
        if not c4 > c3:
            ok = False
            detail = f"instance {checked}: {c4:.3e} <= {c3:.3e}"
            break
    _report(
        5,
        "necessity of the structure factor",
        ok,
        detail or "covariance grew from z=3 to z=4 on all 20 mismatches",
    )


def test_criterion_06_round_trip():
    rng = np.random.default_rng(106)
    worst_plain = 0.0
    for _ in range(180):
        n = int(rng.integers(1, 9))
        a = random_adjacency(rng, n)
        th = random_phases(rng, n)
        back = adjacency_from_unitary(unitary_from_adjacency(a, th), th)
        worst_plain = max(worst_plain, float(np.max(np.abs(back - a))))
    # rotated structure factors whose zero-phase point is exactly singular,
    # so the inverse must go through the phase search
    worst_rotated = 0.0
    searches = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = random_adjacency(rng, n)
        u = unitary_from_adjacency(a, np.zeros(n))
        beta = float(np.angle(np.linalg.eigvals(u)[0]))
        u_rot = np.exp(-2j * ((beta + np.pi / 2) / 2.0)) * u
        assert regularity_margin(u_rot, np.zeros(n)) < 1e-6
        th, _ = find_regular_phases(u_rot)
        searches += 1
        back = adjacency_from_unitary(u_rot, th)
        rebuilt = unitary_from_adjacency(back, th)
        worst_rotated = max(worst_rotated, float(np.max(np.abs(rebuilt - u_rot))))
    ok = worst_plain <= 1e-8 and worst_rotated <= 1e-8 and searches == 20
    _report(
        6,
        "adjacency round trip",
        ok,
        f"plain {worst_plain:.3e}, rotated-with-search {worst_rotated:.3e}",
    )


def test_criterion_07_bogoliubov_conditions():
    rng = np.random.default_rng(107)
    worst = 0.0
    for trial in range(60):
        n = int(rng.integers(1, 8))
        a = random_adjacency(rng, n)
        th = random_phases(rng, n)
        z = float(rng.uniform(0.0, 2.5))
        kind = ("identity", "faithful", "custom")[trial % 3]
        p = random_gauge(rng, kind, a, th)
        zm = ClusterPlan.of(a, th).interaction(p, z)
        for pair in (
            bogoliubov_from_interaction(zm),
            bogoliubov_oracle(zm),
        ):
            d1, d2 = pair.defects()
            worst = max(worst, d1, d2)
    _report(
        7,
        "commutation conditions",
        worst <= 1e-9,
        f"max defect {worst:.3e} over 120 pairs",
    )


def test_criterion_08_bloch_messiah():
    rng = np.random.default_rng(108)
    worst_rec = 0.0
    worst_uvv = 0.0
    worst_appendix = 0.0
    for trial in range(15):
        n = int(rng.integers(1, 8))
        a = random_adjacency(rng, n)
        th = random_phases(rng, n)
        z = float(rng.uniform(0.3, 2.0))
        kind = ("identity", "faithful", "custom")[trial % 3]
        cluster = ClusterPlan.of(a, th)
        zm = cluster.interaction(random_gauge(rng, kind, a, th), z)
        factors = bloch_messiah(zm)
        pair = bogoliubov_from_interaction(zm)
        x_rec, y_rec = factors.reconstruct()
        worst_rec = max(
            worst_rec,
            float(np.max(np.abs(x_rec - pair.X))),
            float(np.max(np.abs(y_rec - pair.Y))),
        )
        worst_uvv = max(
            worst_uvv, float(np.max(np.abs(1j * factors.V @ factors.V.T - zm.U)))
        )
        for _ in range(20):
            o = random_orthogonal(rng, n)
            v = canonical_cluster_interferometer(ClusterPlan.of(a, th), o)
            rotated = np.exp(1j * th)[:, None] * v
            worst_appendix = max(
                worst_appendix,
                float(np.max(np.abs(rotated.imag - a @ rotated.real))),
                float(
                    np.max(
                        np.abs(
                            rotated.real @ rotated.real.T
                            - np.linalg.inv(np.eye(n) + a @ a)
                        )
                    )
                ),
            )
    ok = worst_rec <= 1e-8 and worst_uvv <= 1e-9 and worst_appendix <= 1e-9
    _report(
        8,
        "interferometer reduction",
        ok,
        f"reconstruction {worst_rec:.3e}, structure identity {worst_uvv:.3e}, "
        f"canonical conditions {worst_appendix:.3e}",
    )


def test_criterion_09_gauge_condition_biconditional():
    rng = np.random.default_rng(109)
    disagreements = 0
    for compatible in (True, False):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            if compatible:
                p = random_compatible_gauge(rng, a, th)
            else:
                p = random_hermitian_pd(rng, n)
            cluster = ClusterPlan.of(a, th)
            prod = p @ cluster.U
            direct = float(np.max(np.abs(prod - prod.T))) <= 1e-9 * max(
                1.0, float(np.max(np.abs(prod)))
            )
            try:  # the gate's budgets are free of z; at 0.1 the squeeze budget holds
                cluster.interaction(p, 0.1)
            except GaugeIncompatible:
                disagreements += direct
            else:
                disagreements += not direct
    _report(
        9,
        "reality condition biconditional",
        disagreements == 0,
        f"{disagreements} disagreements over 200 gauges",
    )


def test_criterion_10_convergence_sweep():
    rows = convergence_sweep(ClusterPlan.of(epr_adjacency(), [0.0, 0.0]), "identity", [1.0, 2.0, 3.0])
    rendered = [f"{row.max_abs:.6f}" for row in rows]
    expected = ["0.270671", "0.036631", "0.004958"]
    rel = max(
        abs(row.max_abs - 2.0 * math.exp(-2.0 * row.z)) / (2.0 * math.exp(-2.0 * row.z))
        for row in rows
    )
    elapsed = time.perf_counter() - _SUITE_START
    ok = rendered == expected and rel < 5e-7 and elapsed < 120.0
    _report(
        10,
        "EPR convergence sweep",
        ok,
        f"values {rendered}, rel err {rel:.1e}, suite {elapsed:.1f}s",
    )
