"""Acceptance checks: every published figure this package reproduces,
one test per criterion, asserted at the stated tolerance.

Each test prints one line per sub-check and a final PASS/FAIL line, then
asserts, so a failing criterion still reports every value it computed.
Values that cannot be reproduced from the implemented machinery are
asserted at their stated tolerance anyway and left to fail visibly; see
the test output for which sub-checks miss.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from psthresh.codes import (
    CLASS_SIZES_713,
    combine_classes,
    coset_class_713,
    crash_poly_2317,
    crash_poly_713,
    degeneracy_correction,
    distance_classes_from_x,
    distance_table_713,
    postselect_classes,
)
from psthresh.noise import Forward, model_family
from psthresh.pauli import (
    channel_to_dist,
    commutation_signs,
    dist_to_channel,
    traceout_crosscheck,
)
from psthresh.postselect import (
    combined_noise,
    indep_fixed_point,
    model_fixed_point,
    model_teleport_output,
)
from psthresh.threshold import (
    McConfig,
    capacity_one_type,
    capacity_three_type,
    concat_threshold_mc,
    crash_difference_threshold,
    fixed_fidelity_point,
    hashing_threshold,
    mc_verdict,
    model_level0,
    one_type_dist,
    overhead_success,
    teleport_entropy,
)


def _near(label, got, want, tol):
    got = float(got)
    return (
        label,
        abs(got - want) <= tol,
        "got %.10g  want %.10g  tol %g" % (got, want, tol),
    )


def _report(name, checks):
    for label, ok, detail in checks:
        print("  %-52s %s  %s" % (label, "ok  " if ok else "MISS", detail))
    failed = [c for c in checks if not c[1]]
    print("%s: %s" % (name, "PASS" if not failed else "FAIL"))
    assert not failed, "%s: %d sub-check(s) out of tolerance: %s" % (
        name,
        len(failed),
        "; ".join("%s (%s)" % (c[0], c[2]) for c in failed),
    )


# ---------------------------------------------------------------------------


def test_criterion_01_hashing_thresholds():
    cases = (
        ("depolarizing", 8.27515, 7.13361, 4.78136),
        ("knill", 6.90240, 7.52699, 4.12990),
        ("forward", 4.81816, 9.79217, 1.21061),
    )
    checks = []
    for name, want_pp, want_px, want_py in cases:
        start = time.perf_counter()
        thr = hashing_threshold(name, tol=1e-9)
        elapsed = time.perf_counter() - start
        checks.append(_near("%s threshold (pp)" % name, 100 * thr, want_pp, 0.0005))
        checks.append(
            ("%s solve under 1s" % name, elapsed < 1.0, "%.3fs" % elapsed)
        )
        out = model_teleport_output(model_family(name)(thr))
        checks.append(_near("%s p_X (pp)" % name, 100 * out[1], want_px, 0.001))
        checks.append(_near("%s p_Z (pp)" % name, 100 * out[3], want_px, 0.001))
        checks.append(_near("%s p_Y (pp)" % name, 100 * out[2], want_py, 0.001))
    _report("criterion 1 (hashing thresholds)", checks)


def test_criterion_02_entropy_at_threshold():
    checks = []
    for name in ("depolarizing", "knill", "forward"):
        thr = hashing_threshold(name, tol=1e-9)
        h = teleport_entropy(model_family(name)(thr))
        checks.append(_near("%s entropy at threshold" % name, h, 1.0, 1e-6))
    _report("criterion 2 (one bit of entropy at threshold)", checks)


def test_criterion_03_forward_fixed_point_scalars():
    pf = hashing_threshold("forward", tol=1e-12)
    f = 1.0 - 2.0 * pf
    fp = indep_fixed_point(f, 1.0, 1.0)
    c = combined_noise(fp.x_g, f, 1.0)
    full = model_fixed_point(Forward(pf)).channel
    checks = [
        _near("x_g at the forward threshold", fp.x_g, 0.98482389, 1e-7),
        _near("x_b at the forward threshold", fp.x_b, 0.87641757, 1e-7),
        _near("combined diagonal c", c, 0.77994427, 1e-7),
        _near("full-route x agrees", full[0], fp.x_g, 1e-10),
        _near("full-route z agrees", full[2], fp.x_b, 1e-10),
    ]
    _report("criterion 3 (forward fixed-point scalars)", checks)


def test_criterion_04_capacities():
    checks = [
        _near("one-type capacity (pp)", 100 * capacity_one_type(), 11.0028, 0.0005),
        _near(
            "three-type capacity (pp)", 100 * capacity_three_type(), 6.3097, 0.0005
        ),
    ]
    _report("criterion 4 (hashing capacities)", checks)


@pytest.mark.slow
def test_criterion_05_monte_carlo_thresholds():
    config = McConfig()  # population 10_000, 12 levels, seed 1
    cases = (
        ("one-type", one_type_dist, 0.09, 0.13, 10.963),
        ("depolarizing", model_level0("depolarizing"), 0.06, 0.10, 8.23),
        ("knill", model_level0("knill"), 0.05, 0.09, 6.86),
        ("forward", model_level0("forward"), 0.03, 0.07, 4.80),
    )
    checks = []
    for name, dist_fn, lo, hi, want_pp in cases:
        start = time.perf_counter()
        thr = concat_threshold_mc(dist_fn, lo, hi, config, tol=2e-4)
        elapsed = time.perf_counter() - start
        checks.append(_near("%s MC threshold (pp)" % name, 100 * thr, want_pp, 0.05))
        checks.append(
            ("%s solve under 5 min" % name, elapsed < 300.0, "%.0fs" % elapsed)
        )
    _report("criterion 5 (Monte Carlo concatenation thresholds)", checks)


def test_criterion_06_crash_polynomials():
    f7 = crash_poly_713()
    f23 = crash_poly_2317()
    checks = [
        _near("f7(0.78795)", float(f7(0.78795)), 0.7147, 5e-4),
        _near("f7(0.780736)", float(f7(0.780736)), 0.7002, 5e-4),
    ]
    one = f23(Fraction(1))
    checks.append(
        ("f23(1) = 1 in exact arithmetic", one == 1, "got %s" % one)
    )
    for order in (1, 2, 3):
        d = f23.derivative_at_one(order)
        checks.append(
            (
                "f23 derivative %d vanishes at 1" % order,
                d == 0 and abs(float(d)) <= 1e-9,
                "got %s" % d,
            )
        )
    _report("criterion 6 (crash polynomials)", checks)


def test_criterion_07_degeneracy_corrections():
    checks = [
        _near(
            "713 level-1 c_e at p_g = 0.70% (pp)",
            100 * degeneracy_correction("713-L1", 0.0070),
            0.62,
            0.005,
        )
    ]
    pf = hashing_threshold("forward", tol=1e-12)
    fp = indep_fixed_point(1.0 - 2.0 * pf, 1.0, 1.0)
    p_g = (1.0 - fp.x_g) / 2.0
    checks.append(
        _near(
            "2317 c_e at the forward threshold",
            degeneracy_correction("2317", p_g),
            0.00035,
            2e-5,
        )
    )
    checks.append(
        _near(
            "713 level-2 c_e at p_g = 0.70%",
            degeneracy_correction("713-L2", 0.0070),
            6.5e-6,
            1e-6,
        )
    )
    _report("criterion 7 (degeneracy corrections)", checks)


def test_criterion_08_relaxed_crash_threshold():
    p_r = crash_difference_threshold(crash_poly_2317(), 0.00035, 0.04805, tol=1e-9)
    checks = [
        _near("p_r from baseline 4.805% (pp)", 100 * p_r, 4.801, 0.002),
        _near(
            "zero-margin solve returns the baseline (pp)",
            100 * crash_difference_threshold(crash_poly_2317(), 0.0, 0.04805),
            4.805,
            1e-4,
        ),
    ]
    _report("criterion 8 (relaxed crash-probability threshold)", checks)


def test_criterion_09_fixed_fidelity_points():
    cases = (
        ("713", "knill", 3.472, 0.90602),
        ("713", "depolarizing", 4.039, 0.91122),
        ("713", "forward", 2.9595, 0.87703),
        ("2317", "forward", 3.5471, 0.85108),
    )
    checks = []
    for code, family, want_pp, want_fid in cases:
        p, fid = fixed_fidelity_point(code, family)
        checks.append(
            _near("%s %s rate (pp)" % (code, family), 100 * p, want_pp, 0.005)
        )
        checks.append(
            _near("%s %s fidelity" % (code, family), fid, want_fid, 5e-4)
        )
    _report("criterion 9 (fixed-fidelity points)", checks)


def test_criterion_10_overhead():
    checks = [
        _near(
            "success of 14 steps at p = 15.3% (pp)",
            100 * overhead_success(0.153, 14),
            9.79,
            0.01,
        )
    ]
    _report("criterion 10 (post-selection overhead)", checks)


def test_criterion_11_internal_consistency():
    checks = []

    # dense-superoperator crosscheck on 1000 random draws
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        s = dist_to_channel(rng.dirichlet(np.ones(4)))
        d = dist_to_channel(rng.dirichlet(np.ones(4)))
        q = commutation_signs() @ rng.dirichlet(np.ones(16))
        worst = max(worst, traceout_crosscheck(s, d, q, m_noise=rng.uniform(0, 1)))
    checks.append(
        ("traceout crosscheck, 1000 draws", worst < 1e-12, "worst %.3g" % worst)
    )

    # distance table, exactly
    want_table = [
        [1, 0, 0, 0],
        [0, 7, 0, 0],
        [0, 0, 21, 0],
        [0, 28, 0, 7],
        [7, 0, 28, 0],
        [0, 21, 0, 0],
        [0, 0, 7, 0],
        [0, 0, 0, 1],
    ]
    checks.append(
        (
            "distance table matches enumeration",
            distance_table_713().tolist() == want_table,
            "8x4 integer table",
        )
    )

    # class operations against exact pair enumeration on a 5x5 grid
    cls = [coset_class_713(e) for e in range(128)]
    span = [s for s in range(128) if cls[s] == 0]
    t = np.zeros((4, 4, 4), dtype=np.int64)
    for e in range(128):
        for f in range(128):
            t[cls[e], cls[f], cls[e ^ f]] += 1
    grid = [distance_classes_from_x(Fraction(n, 10)) for n in (10, 9, 7, 4, 0)]
    exact = True
    for a in grid:
        for b in grid:
            want = [
                sum(
                    a[da] * b[db] * int(t[da, db, dc])
                    / (CLASS_SIZES_713[da] * CLASS_SIZES_713[db])
                    for da in range(4)
                    for db in range(4)
                )
                for dc in range(4)
            ]
            exact = exact and combine_classes(a, b) == want
            kept = [
                a[dd] * b[dd] * Fraction(8, CLASS_SIZES_713[dd]) for dd in range(4)
            ]
            total = sum(kept)
            if total > 0:
                p_keep, cond = postselect_classes(a, b)
                exact = exact and p_keep == total
                exact = exact and cond == [k / total for k in kept]
    checks.append(
        (
            "combine/post-select vs pair enumeration (5x5)",
            exact and len(span) == 8,
            "exact rational equality",
        )
    )

    # channel round trips
    ok = True
    for _ in range(200):
        dist = rng.dirichlet(np.ones(4))
        back = channel_to_dist(dist_to_channel(dist))
        ok = ok and np.abs(back - dist).max() < 1e-12
    checks.append(("dist/channel round trip, 200 draws", ok, "< 1e-12"))

    # Monte Carlo determinism under a fixed seed
    quick = McConfig(population=400, levels=8, seed=5)
    same_verdict = mc_verdict(one_type_dist(0.10), quick) == mc_verdict(
        one_type_dist(0.10), quick
    )
    thr_a = concat_threshold_mc(one_type_dist, 0.05, 0.18, quick, tol=5e-3)
    thr_b = concat_threshold_mc(one_type_dist, 0.05, 0.18, quick, tol=5e-3)
    checks.append(
        (
            "Monte Carlo verdict and bisection repeat bit-for-bit",
            same_verdict and thr_a == thr_b,
            "seed-keyed streams",
        )
    )

    _report("criterion 11 (internal consistency)", checks)
