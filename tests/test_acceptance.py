"""Acceptance checks: every published figure this package reproduces,
one test per criterion, asserted at the stated tolerance.

The published figures, their tolerances and the solves that reproduce
them are the rows of psthresh.cli.TARGETS; the checks here that are not
published figures (exact identities, route agreement, timing) are
written out in the tests.

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

from psthresh.cli import TARGETS
from psthresh.codes import (
    CLASS_SIZES_713,
    combine_classes,
    coset_class_713,
    crash_poly_2317,
    distance_classes_from_x,
    distance_table_713,
    postselect_classes,
)
from psthresh.noise import Forward, model_family
from psthresh.pauli import (
    channel_to_dist,
    commutation_signs,
    dist_to_channel,
)
from psthresh.postselect import indep_fixed_point, model_fixed_point
from psthresh.threshold import (
    McConfig,
    concat_threshold_mc,
    hashing_threshold,
    mc_verdict,
    one_type_dist,
    teleport_entropy,
)

from pauli_reference import traceout_crosscheck


def _near(label, got, want, tol):
    got = float(got)
    return (
        label,
        abs(got - want) <= tol,
        "got %.10g  want %.10g  tol %g" % (got, want, tol),
    )


def _published(criterion, timing=None):
    """One sub-check per computed TARGETS row of the criterion, in table
    order.  timing = (limit_s, label, fmt) adds after each threshold row
    a check that its solve took under limit_s seconds."""
    checks = []
    for row in TARGETS:
        if row.criterion != criterion or row.compute is None:
            continue
        start = time.perf_counter()
        got = row.compute()
        elapsed = time.perf_counter() - start
        checks.append(_near(row.label, got, row.want, row.tol))
        if timing is not None and row.label.endswith("threshold (pp)"):
            limit, label, fmt = timing
            name = row.label.split()[0]
            checks.append(("%s %s" % (name, label), elapsed < limit, fmt % elapsed))
    return checks


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
    checks = _published(1, timing=(1.0, "solve under 1s", "%.3fs"))
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
    fp = indep_fixed_point(1.0 - 2.0 * pf)
    full = model_fixed_point(Forward(pf)).channel
    checks = _published(3) + [
        _near("full-route x agrees", full[0], fp.x_g, 1e-10),
        _near("full-route z agrees", full[2], fp.x_b, 1e-10),
    ]
    _report("criterion 3 (forward fixed-point scalars)", checks)


def test_criterion_04_capacities():
    _report("criterion 4 (hashing capacities)", _published(4))


@pytest.mark.slow
def test_criterion_05_monte_carlo_thresholds():
    # McConfig(): population 10_000, 32 levels, seed 1
    checks = _published(5, timing=(300.0, "solve under 5 min", "%.0fs"))
    _report("criterion 5 (Monte Carlo concatenation thresholds)", checks)


def test_criterion_06_crash_polynomials():
    f23 = crash_poly_2317()
    checks = _published(6)
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
    _report("criterion 7 (degeneracy corrections)", _published(7))


def test_criterion_08_relaxed_crash_threshold():
    _report("criterion 8 (relaxed crash-probability threshold)", _published(8))


def test_criterion_09_fixed_fidelity_points():
    _report("criterion 9 (fixed-fidelity points)", _published(9))


def test_criterion_10_overhead():
    _report("criterion 10 (post-selection overhead)", _published(10))


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
