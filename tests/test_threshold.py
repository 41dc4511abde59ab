"""Tests for the threshold solvers.

Deterministic solvers are pinned against their expected values; the
Monte Carlo machinery is exercised at small populations where a verdict
takes a fraction of a second.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psthresh import threshold
from psthresh.codes import (
    PARITY_CHECK_713,
    _sector_recovered,
    _sector_weights,
    crash_poly_2317,
    crash_poly_713,
    recover_713,
)
from psthresh.noise import Depolarizing, Forward, RateError, model_family
from psthresh.postselect import NoConvergenceError, indep_fixed_point, model_teleport_output
from psthresh.threshold import (
    ABOVE_INFIDELITY,
    BELOW_INFIDELITY,
    BracketError,
    McConfig,
    bisect,
    capacity_one_type,
    capacity_three_type,
    concat_threshold_mc,
    crash_difference_threshold,
    fixed_fidelity_point,
    forward_combined_diagonal,
    hashing_threshold,
    mc_threshold_error_bar,
    mc_verdict,
    mc_verdict_at,
    model_level0,
    one_type_dist,
    overhead_success,
    shannon_entropy,
    sweep_r,
    teleport_entropy,
    three_type_dist,
    _flow_verdict,
    _level_draws,
    _level_ranges,
    _level_rows,
    _mc_first_level,
    _mc_flow,
    _mc_level,
)

from test_codes import _reference_decompose, _reference_drawn_rows


def test_shannon_entropy():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# bisection


def _reference_bisect(lower, lo, hi, tol):
    """The loop each solver wrote out inline before bisect existed."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lower(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign(below):
    """The gap of a verdict with no size: -inf below, +inf otherwise."""
    return -math.inf if below else math.inf


BISECT_PREDICATES = {
    "step at 0.3": lambda p: p < 0.3,
    "quadratic": lambda p: p * p < 0.0048,
    "entropy": lambda p: shannon_entropy([1 - p, p]) < 0.5,
    # NaN compares false, so the negated test moves lo up, as hashing does
    "nan below": lambda p: not (math.nan >= 1.0),
    "true everywhere": lambda p: True,
    "false everywhere": lambda p: False,
    # the first probe of [0, 1] is exactly 0.5: a tie on either side
    "tie moves hi": lambda p: p < 0.5,
    "tie moves lo": lambda p: p <= 0.5,
    # not monotone, like a Monte Carlo verdict near its threshold
    "coin seeded by p": lambda p: random.Random(p).random() < 0.5,
}
BISECT_BRACKETS = ((0.0, 1.0), (1e-3, 0.25), (0.09, 0.13), (0.3, 0.7))


@pytest.mark.parametrize("name", sorted(BISECT_PREDICATES))
def test_bisect_matches_reference_loop(name):
    pred = BISECT_PREDICATES[name]
    for lo, hi in BISECT_BRACKETS:
        for tol in (0.1, 2e-4, 1e-6, 1e-9, 1e-12):
            probes, ref_probes = [], []
            got = bisect(lambda p: probes.append(p) or _sign(pred(p)), lo, hi, tol)
            want = _reference_bisect(
                lambda p: ref_probes.append(p) or pred(p), lo, hi, tol
            )
            assert got == want, (lo, hi, tol)
            assert probes == ref_probes, (lo, hi, tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_bisect_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tolerance"):
        bisect(lambda p: p - 0.3, 0.0, 1.0, tol)


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.3, 0.3), (math.nan, 1.0), (0.0, math.nan)])
def test_bisect_rejects_empty_or_inverted_bracket(lo, hi):
    def gap(p):
        raise AssertionError("probed %r" % p)

    with pytest.raises(ValueError, match="lo < hi"):
        bisect(gap, lo, hi, 1e-6)


def _at_most(probes, pred):
    """pred, failing the test instead of hanging after `probes` calls."""
    calls = []

    def bounded(p):
        calls.append(p)
        assert len(calls) <= probes, "bisection did not stop"
        return pred(p)

    return bounded


def test_bisect_returns_below_float_spacing():
    # 1e-300 is far under the spacing of floats near the crossing, so
    # the interval stops shrinking once its midpoint rounds to an end;
    # halving 1.0 down to 1e-300 takes 997 probes
    got = bisect(_at_most(2000, lambda p: _sign(p < 0.3)), 0.0, 1.0, 1e-300)
    assert got == pytest.approx(0.3, abs=1e-16)
    got = bisect(_at_most(2000, lambda p: _sign(True)), 0.0, 1.0, 1e-300)
    assert got == pytest.approx(1.0, abs=1e-16)
    assert bisect(_at_most(2000, lambda p: _sign(False)), 0.0, 1.0, 1e-300) < 1e-300


def _counted_reference(lower, lo, hi, tol):
    """_reference_bisect and the number of probes it makes."""
    probes = []
    got = _reference_bisect(lambda p: probes.append(p) or lower(p), lo, hi, tol)
    return got, len(probes)


def _monotone_gap(kind, root, scale, breakdown):
    """A gap whose sign changes once, at root, from negative to not."""
    if kind == "linear":
        return lambda p: scale * (p - root)
    if kind == "cubic":  # a triple root: the slowest to interpolate
        return lambda p: scale * (p - root) ** 3
    if kind == "expm1":
        return lambda p: math.expm1(min(scale * (p - root), 700.0))
    if kind == "atan":  # saturates far from the root
        return lambda p: math.atan(scale * (p - root))
    if kind == "breakdown":  # +inf past the breakdown point, as an entropy
        return lambda p: math.inf if p >= breakdown else scale * (p - root)
    raise ValueError(kind)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["linear", "cubic", "expm1", "atan", "breakdown"]),
    ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda e: e[0] != e[1]),
    where=st.floats(-0.2, 1.2),
    log_scale=st.floats(-3.0, 3.0),
    past=st.floats(0.0, 0.5),
    log_tol=st.floats(-15.0, -1.0),
)
# steep exponentials, where regula falsi alone creeps in from one side
@example(kind="expm1", ends=(-0.19, 0.7), where=0.43, log_scale=2.8, past=0.0, log_tol=-2.77)
@example(kind="expm1", ends=(-0.37, 0.32), where=0.4, log_scale=2.74, past=0.0, log_tol=-4.0)
def test_bisect_gap_matches_reference_loop(kind, ends, where, log_scale, past, log_tol):
    lo, hi = sorted(ends)
    root = lo + where * (hi - lo)
    gap = _monotone_gap(kind, root, 10.0**log_scale, root + past)
    tol = 10.0**log_tol
    want, plain_probes = _counted_reference(lambda p: gap(p) < 0, lo, hi, tol)
    assert bisect(_at_most(3 * plain_probes, gap), lo, hi, tol) == want


def test_bisect_gap_takes_few_probes_on_smooth_crossings():
    cases = (
        (lambda p: shannon_entropy([1 - p, p]) - 0.5, 0.0, 0.5),
        (lambda p: shannon_entropy([1 - 3 * p, p, p, p]) - 1.0, 0.0, 1.0 / 3.0),
        # the crossing at the upper end, as in a zero-margin crash solve
        (lambda p: p - 0.25, 0.0, 0.25),
        # steep, where regula falsi without the Illinois step creeps in
        (lambda p: math.expm1(30.0 * (p - 0.3)), 0.0, 1.0),
    )
    guided = plain = 0
    for gap, lo, hi in cases:
        for tol in (1e-6, 1e-9, 1e-12):
            probes = []
            got = bisect(lambda p: probes.append(p) or gap(p), lo, hi, tol)
            want, plain_probes = _counted_reference(lambda p: gap(p) < 0, lo, hi, tol)
            assert got == want
            assert len(probes) <= plain_probes * 3 // 4, (lo, hi, tol, len(probes))
            guided += len(probes)
            plain += plain_probes
    # 112 of 276 probes when this test was written
    assert guided <= 0.42 * plain


SOLVER_PROBES = {
    # gap calls of each bisect a solver makes, bracket checks excluded
    "hashing knill 1e-9": (lambda: hashing_threshold("knill", tol=1e-9), [7]),
    "hashing depolarizing 1e-9": (lambda: hashing_threshold("depolarizing", tol=1e-9), [7]),
    "hashing forward 1e-9": (lambda: hashing_threshold("forward", tol=1e-9), [9]),
    "hashing forward 1e-12": (lambda: hashing_threshold("forward", tol=1e-12), [9]),
    "hashing knill 1e-6": (lambda: hashing_threshold("knill", tol=1e-6), [7]),
    "fixed-fidelity 713 knill": (lambda: fixed_fidelity_point("713", "knill"), [9]),
    "fixed-fidelity 713 depolarizing": (lambda: fixed_fidelity_point("713", "depolarizing"), [9]),
    "fixed-fidelity 713 forward": (lambda: fixed_fidelity_point("713", "forward"), [7]),
    "fixed-fidelity 2317 forward": (lambda: fixed_fidelity_point("2317", "forward"), [11, 10]),
    "crash 0.00035": (lambda: crash_difference_threshold(crash_poly_2317(), 0.00035, 0.04805), [8]),
    "crash 0": (lambda: crash_difference_threshold(crash_poly_2317(), 0.0, 0.04805), [3]),
    "capacity one-type": (capacity_one_type, [9]),
    "capacity three-type": (capacity_three_type, [9]),
    "sweep_r": (sweep_r, [7] * 11),
}


@pytest.mark.parametrize("name", sorted(SOLVER_PROBES))
def test_solver_probe_counts(name, monkeypatch):
    solve, want = SOLVER_PROBES[name]
    counts = []

    def counted(gap, lo, hi, tol):
        counts.append(0)

        def probe(p):
            counts[-1] += 1
            return gap(p)

        return bisect(probe, lo, hi, tol)

    monkeypatch.setattr(threshold, "bisect", counted)
    solve()
    assert counts == want


# ---------------------------------------------------------------------------
# hashing thresholds


def test_hashing_threshold_values():
    assert hashing_threshold("depolarizing", tol=1e-8) == pytest.approx(
        0.0827515, abs=2e-6
    )
    assert hashing_threshold("knill", tol=1e-8) == pytest.approx(0.0690240, abs=2e-6)
    assert hashing_threshold("forward", tol=1e-8) == pytest.approx(
        0.0481816, abs=2e-6
    )


# (1e-3, 0) is the default lo with hi = 0; the tol cases have the
# default bracket
@pytest.mark.parametrize(
    "lo, hi, tol, message",
    [
        pytest.param(lo, hi, 1e-6, "lo < hi", id="%r-%r" % (lo, hi))
        for lo, hi in [(0.2, 0.1), (0.07, 0.07), (0.3, 0.25), (1e-3, 0)]
    ]
    + [pytest.param(1e-3, 0.25, tol, "tolerance", id="tol=%r" % tol) for tol in (0.0, -1.0, math.nan)],
)
def test_hashing_threshold_rejects_bracket_not_ascending(lo, hi, tol, message):
    # a reversed bracket was widened and bisected as if ascending, and a
    # bad tol raised only once the bracket was widened; both fail before
    # any probe
    def fail(p):
        raise AssertionError("probed")

    with pytest.raises(ValueError, match=message):
        hashing_threshold(fail, lo=lo, hi=hi, tol=tol)


def test_entropy_is_one_at_threshold():
    p = hashing_threshold("depolarizing", tol=1e-9)
    assert teleport_entropy(Depolarizing(p)) == pytest.approx(1.0, abs=1e-6)


def test_entropy_is_infinite_on_breakdown():
    assert teleport_entropy(Forward(1.0)) == math.inf


def test_teleported_components_at_threshold():
    p = hashing_threshold("depolarizing", tol=1e-9)
    out = model_teleport_output(Depolarizing(p))
    assert out[1] == pytest.approx(out[3], abs=1e-12)
    assert out[1] == pytest.approx(0.0713361, abs=1e-5)
    assert out[2] == pytest.approx(0.0478136, abs=1e-5)


def test_hashing_threshold_accepts_callable():
    fam = model_family("depolarizing", r=1.0)
    assert hashing_threshold(fam, tol=1e-7) == pytest.approx(
        hashing_threshold("knill", tol=1e-7), abs=1e-6
    )


def test_hashing_threshold_bracket_errors():
    with pytest.raises(BracketError):
        hashing_threshold("depolarizing", lo=0.2, extend=False)
    with pytest.raises(BracketError):
        hashing_threshold("depolarizing", hi=0.01, extend=False)


def test_hashing_threshold_widens_a_tiny_bracket():
    # hi grows by 1.5x from 1e-13 for more than 60 steps before it passes
    # the crossing; the widened bracket holds the same one
    tol = 1e-9
    got = hashing_threshold("knill", lo=1e-15, hi=1e-13, tol=tol)
    assert got == pytest.approx(hashing_threshold("knill", tol=tol), abs=tol)


def test_hashing_threshold_widening_stops_at_its_caps():
    # a constant family has no crossing: lo halves until it passes 1e-12,
    # hi grows until it reaches 0.4999, and a hi at or below 0, which
    # growth would never move, stops at once
    with pytest.raises(BracketError, match="already exceeds one bit at lo"):
        hashing_threshold(lambda p: Depolarizing(0.3))
    with pytest.raises(BracketError, match="stays below one bit up to hi"):
        hashing_threshold(lambda p: Depolarizing(0.0))
    with pytest.raises(BracketError, match="stays below one bit up to hi=0$"):
        hashing_threshold(lambda p: Depolarizing(0.0), lo=-1.0, hi=0.0)


def test_sweep_r_decreases():
    rows = sweep_r(points=3, tol=1e-7)
    assert [r for r, _ in rows] == [0.0, 0.5, 1.0]
    thr = [t for _, t in rows]
    assert thr[0] == pytest.approx(0.0827515, abs=1e-5)
    assert thr[2] == pytest.approx(0.0690240, abs=1e-5)
    assert thr[0] > thr[1] > thr[2]


def test_sweep_r_nan_only_for_rejected_rates():
    # the model's own rejection of r (RateError) is a failed row
    rows = sweep_r(r_values=[1.5, 0.0], tol=1e-6)
    assert rows[0][0] == 1.5 and math.isnan(rows[0][1])
    assert rows[1][1] == pytest.approx(0.0827515, abs=1e-5)
    # a bad tolerance is the caller's error, not a failed row
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            sweep_r(r_values=[0.0], tol=tol)


@pytest.mark.parametrize("points", [1, 0, -2, 2.5, 3.0, True])
def test_sweep_r_rejects_too_few_points(points):
    with pytest.raises(ValueError, match="points must be an integer >= 2, got %r" % (points,)):
        sweep_r(points=points)


def test_capacities():
    assert capacity_one_type() == pytest.approx(0.1100279, abs=1e-6)
    assert capacity_three_type() == pytest.approx(0.0630965, abs=1e-6)


# ---------------------------------------------------------------------------
# Monte Carlo population dynamics


QUICK = McConfig(population=400, levels=8, seed=5)


def test_mc_config_rejects_empty_population():
    for population in (0, -1):
        with pytest.raises(ValueError, match="population"):
            McConfig(population=population)


@pytest.mark.parametrize(
    "field, value",
    [
        ("population", 2.5),
        ("population", "100"),
        ("population", True),
        ("levels", 0),
        ("levels", -3),
        ("levels", 2.0),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", None),
    ],
)
def test_mc_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        McConfig(**{field: value})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: McConfig(0), "population must be an integer >= 1, got 0"),
        (lambda: McConfig(400, 2.0), "levels must be an integer >= 1, got 2.0"),
        (lambda: McConfig(seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: QUICK._replace(levels=0), "levels must be an integer >= 1, got 0"),
        (lambda: McConfig()._replace(seed=True), "seed must be an integer >= 0, got True"),
        (lambda: McConfig._make([400, 8, 1.5]), "seed must be an integer >= 0, got 1.5"),
        (lambda: pickle.loads(pickle.dumps(tuple.__new__(McConfig, (400, 8, -2)))), "seed must be an integer >= 0"),
        (lambda: copy.copy(tuple.__new__(McConfig, (400, 8, -2))), "seed must be an integer >= 0"),
    ],
    ids=["positional", "positional-float", "keyword", "replace", "replace-bool", "make", "pickle", "copy"],
)
def test_mc_config_every_construction_validates(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_mc_config_repr_hash_and_round_trip():
    assert repr(McConfig()) == "McConfig(population=10000, levels=32, seed=1)"
    assert repr(QUICK) == "McConfig(population=400, levels=8, seed=5)"
    assert QUICK._replace(seed=6) == McConfig(population=400, levels=8, seed=6)
    clone = pickle.loads(pickle.dumps(QUICK))
    assert clone == QUICK and type(clone) is McConfig and hash(clone) == hash(QUICK)
    assert len({McConfig(), McConfig(10_000, 32, 1), QUICK}) == 2
    assert not hasattr(McConfig(), "__dict__")
    assert copy.copy(QUICK) == QUICK and type(copy.copy(QUICK)) is McConfig


@pytest.mark.parametrize("p", [2.0, -0.1, math.nan])
def test_one_type_dist_rejects_bad_rate(p):
    with pytest.raises(RateError, match="p must be in"):
        one_type_dist(p)


def test_three_type_dist():
    assert three_type_dist(0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert three_type_dist(0.0627).tolist() == [1.0 - 3.0 * 0.0627, 0.0627, 0.0627, 0.0627]
    assert three_type_dist(1.0 / 3.0)[0] == 0.0
    for p in (0.34, -0.1, math.nan):
        with pytest.raises(RateError, match=r"p must be in \[0, 1/3\]"):
            three_type_dist(p)


def test_mc_config_accepts_integers():
    config = McConfig(population=np.int64(3), levels=1, seed=0)
    assert mc_verdict(one_type_dist(0.05), config)[1] == 1


def test_mc_verdict_deterministic():
    dist = one_type_dist(0.10)
    assert mc_verdict(dist, QUICK) == mc_verdict(dist, QUICK)


def test_mc_verdict_below_and_above():
    verdict, level = mc_verdict(one_type_dist(0.05), QUICK)
    assert verdict == "below"
    assert level <= 4
    verdict, _ = mc_verdict(one_type_dist(0.22), QUICK)
    assert verdict == "above"


def test_flow_verdict_rule():
    # a flow that meets a stopping bound stops there, and later levels
    # are not read
    def settled(infidelity):
        yield 0.1
        yield infidelity
        raise AssertionError("read a level past the verdict")

    assert _flow_verdict(settled(0.5 * BELOW_INFIDELITY)) == ("below", 2)
    assert _flow_verdict(settled(0.5 + 0.5 * ABOVE_INFIDELITY)) == ("above", 2)
    # one that runs out of levels is inconclusive at its last level,
    # whether that level lowered, raised or kept the mean infidelity
    assert _flow_verdict([0.15, 0.16, 0.2, 0.19]) == ("inconclusive", 4)
    assert _flow_verdict([0.2, 0.16, 0.15, 0.151]) == ("inconclusive", 4)
    assert _flow_verdict([0.15, 0.15]) == ("inconclusive", 2)
    assert _flow_verdict([0.15]) == ("inconclusive", 1)


def test_mc_verdict_unsettled_flow_is_inconclusive():
    # two one-type flows near threshold that meet neither bound in five
    # levels: at 0.11 the mean infidelity falls at level 5 (0.1609 to
    # 0.1571), at 0.111 it rises (0.1847 to 0.2002); neither is a verdict
    config = McConfig(population=400, levels=5, seed=5)
    flows = {p: [infidelity for _, infidelity in _mc_flow(one_type_dist(p), config)] for p in (0.11, 0.111)}
    assert flows[0.11][-1] < flows[0.11][-2] and flows[0.111][-1] > flows[0.111][-2]
    for flow in flows.values():
        assert BELOW_INFIDELITY < min(flow) and max(flow) < ABOVE_INFIDELITY
    assert mc_verdict(one_type_dist(0.11), config) == ("inconclusive", 5)
    assert mc_verdict(one_type_dist(0.111), config) == ("inconclusive", 5)


def test_mc_verdict_settles_next_to_the_one_type_threshold():
    # the last two probes of the seed-1 criterion-5 one-type solve, one
    # grid step apart on either side of its estimate, each meet a
    # stopping bound within the default levels
    assert mc_verdict(one_type_dist(0.10921875)) == ("below", 16)
    assert mc_verdict(one_type_dist(0.109375)) == ("above", 14)


@pytest.mark.slow
def test_mc_verdict_settles_next_to_the_knill_threshold():
    # the same for the knill solve, on the two-sector kernel
    dist_fn = model_level0("knill")
    assert mc_verdict(dist_fn(0.06859375)) == ("below", 14)
    assert mc_verdict(dist_fn(0.06875)) == ("above", 14)


@pytest.mark.slow
def test_mc_verdict_near_threshold_converges():
    # The mean infidelity climbs above its level-0 value for seven levels
    # (peaking near 0.155) before the flow falls to the perfect-fidelity
    # attractor; a rise above the starting value is not an above verdict.
    verdict, _ = mc_verdict(one_type_dist(0.1092), McConfig())
    assert verdict != "above"
    assert 0.16 < ABOVE_INFIDELITY < 0.5


def _reference_level(popn, config, level):
    """One population level by the drawn-syndrome method written plainly:
    the whole population at once, without blocks or reused buffers, then
    recovery of the drawn rows."""
    idx, u = _level_draws(popn.shape[0], config.seed, level)
    _, rows = _reference_drawn_rows(popn[idx], u)
    _, cond = recover_713(rows[:, None, :])
    return cond[:, 0]


def _full_recovery_level(popn, config, level):
    """One population level by the full decomposition: recovery on all
    64 syndromes of every row, then the syndrome draw from the recovered
    weights."""
    pop = popn.shape[0]
    idx, u = _level_draws(pop, config.seed, level)
    weights, cond = recover_713(_reference_decompose(popn[idx]))
    pick = np.minimum((np.cumsum(weights, axis=1) < u[:, None]).sum(axis=1), 63)
    return cond[np.arange(pop), pick]


# 515 = 4 * 128 + 3 leaves a 3-row block after four full ones; 3 parts
# split 2000 (16 blocks) over three worker processes
@pytest.mark.parametrize(
    "population, parts",
    [
        pytest.param(2000, 1, id="2000"),
        pytest.param(4 * 128 + 3, 1, id="515"),
        pytest.param(2000, 3, id="2000-3 workers"),
    ],
)
def test_mc_level_matches_full_recovery(population, parts, worker_pool):
    # the drawn rows have the full decomposition's bits, so the level
    # keeps its populations (and the solves their probes)
    config = McConfig(population=population, seed=3)
    popn = ref = full = np.tile(model_level0("knill")(0.065), (config.population, 1))
    for level in range(1, 9):
        popn = _mc_level(popn, config, level, worker_pool, parts)
        ref = _reference_level(ref, config, level)
        full = _full_recovery_level(full, config, level)
        np.testing.assert_array_equal(popn, ref)
        np.testing.assert_array_equal(popn, full)


# 3 fits in one small block, 261 = 2 * 128 + 5 leaves a 5-row block and
# 4 * 128 + 3 a 3-row one
@pytest.mark.parametrize("population", [3, 261, 4 * 128 + 3, 2000])
@pytest.mark.parametrize("dist", ["knill", "one-type"])
def test_first_level_matches_tiled_level(population, dist):
    dist0 = model_level0("knill")(0.0688) if dist == "knill" else one_type_dist(0.1092)
    config = McConfig(population=population, seed=7)
    tiled = np.tile(dist0, (population, 1))
    got = _mc_first_level(dist0, config)
    np.testing.assert_array_equal(got, _mc_level(tiled, config, 1))
    np.testing.assert_array_equal(got, _reference_level(tiled, config, 1))


#: (start, stop) ranges of a 10^4 level: the whole level, whose last block
#: has 16 rows at 128 a block; the ranges of 2 workers, each ending in an
#: 8-row block, and of 3; and ranges ending 1-5 rows into a block of 128
#: or of 256
LEVEL_RANGES = (
    [(0, 10_000)]
    + _level_ranges(10_000, 2)
    + _level_ranges(10_000, 3)
    + [(0, 129), (3, 133), (5000, 5131), (9000, 9260), (9995, 10_000), (7, 264), (1, 4)]
)


@pytest.fixture(scope="module")
def level2_populations():
    """(popn, reference level 3) of three two-sector flows at level 2, near
    their thresholds; the reference is the drawn-syndrome method written
    plainly, with np.cumsum running sums of the syndrome weights."""
    config = McConfig()
    out = {}
    for family, p in (("knill", 0.0688), ("depolarizing", 0.0823), ("forward", 0.048)):
        popn = _reference_level(np.tile(model_level0(family)(p), (config.population, 1)), config, 1)
        popn = _reference_level(popn, config, 2)
        out[family] = popn, _reference_level(popn, config, 3)
    return out


@pytest.mark.parametrize("block", [128, 256])
def test_level_rows_match_reference(block, level2_populations, monkeypatch):
    # the running sums from one matmul against the cumulative transform
    # draw the syndromes of np.cumsum's, and no range or block size moves
    # a bit
    monkeypatch.setattr(threshold, "_BLOCK_ROWS", block)
    for family, (popn, want) in level2_populations.items():
        for start, stop in LEVEL_RANGES:
            got = _level_rows(popn, 1, 3, start, stop)
            np.testing.assert_array_equal(got, want[start:stop], err_msg="%s %d:%d" % (family, start, stop))


# ---------------------------------------------------------------------------
# the one-sector kernel


def _enumerated_sector(q):
    """P(s, l) [8][2] as exact Fractions for seven independent flips with
    probabilities q, by enumeration of the 2^7 patterns: bit k of s is
    the parity of the pattern on check row k, and l is its parity."""
    joint = [[Fraction(0), Fraction(0)] for _ in range(8)]
    for e in range(128):
        bits = [(e >> i) & 1 for i in range(7)]
        prob = math.prod(Fraction(qi) if b else 1 - Fraction(qi) for qi, b in zip(q, bits))
        s = sum((sum(b & r for b, r in zip(bits, row)) % 2) << k for k, row in enumerate(PARITY_CHECK_713))
        joint[s][sum(bits) % 2] += prob
    return joint


def _enumerated_recovery(q):
    """Syndrome weights [8] and each syndrome's post-recovery flip
    probability [8] (0 for a syndrome with no weight) from
    _enumerated_sector, as floats."""
    joint = _enumerated_sector(q)
    weights = [p0 + p1 for p0, p1 in joint]
    recovered = [min(p0, p1) / w if w else Fraction(0) for (p0, p1), w in zip(joint, weights)]
    return np.array(weights, dtype=float), np.array(recovered, dtype=float)


SECTOR_RATES = [0.0, 0.01, 0.1, 0.3, 0.5]


@pytest.mark.parametrize(
    "q", [[q] * 7 for q in SECTOR_RATES] + [[0.02, 0.05, 0.11, 0.17, 0.23, 0.31, 0.44]],
    ids=[str(q) for q in SECTOR_RATES] + ["seven rates"],
)
def test_sector_kernel_matches_enumeration(q):
    want_weights, want_recovered = _enumerated_recovery(q)
    weights, splits = _sector_weights(1.0 - 2.0 * np.array(q)[:, None])
    np.testing.assert_allclose(weights[:, 0], want_weights, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_sector_recovered(weights[:, 0], splits[:, 0]), want_recovered, rtol=0, atol=1e-15)


@pytest.mark.parametrize("q", SECTOR_RATES)
def test_first_sector_level_matches_enumeration(q):
    # seven children at q each: an individual's flip probability is the
    # recovered one of the syndrome that its uniform draws from the
    # enumerated weights
    config = McConfig(population=2000, seed=7)
    weights, recovered = _enumerated_recovery([q] * 7)
    _, u = _level_draws(config.population, config.seed, 1)
    drawn = np.minimum((np.cumsum(weights) < u[:, None]).sum(axis=1), 7)
    got = _mc_level(np.full(config.population, q), config, 1)
    np.testing.assert_allclose(got, recovered[drawn], rtol=0, atol=1e-15)


def test_deep_sector_flow_has_no_negative_flip_probability():
    # levels 10-12 of this flow are deep below threshold, where a rare
    # syndrome's lighter half rounded below 0 before it was clamped
    flow = _mc_flow(one_type_dist(0.10963), McConfig(population=2048, levels=12, seed=1))
    for level, (popn, _) in enumerate(flow, 1):
        assert popn.min() >= 0.0, level


def _two_sector_verdict(dist0, config):
    """mc_verdict's rule (_flow_verdict) on the two-sector kernel:
    _mc_first_level, then _mc_level."""

    def infidelities():
        popn = _mc_first_level(dist0, config)
        yield 1.0 - popn[:, 0].mean()
        for level in range(2, config.levels + 1):
            popn = _mc_level(popn, config, level)
            yield 1.0 - popn[:, 0].mean()

    return _flow_verdict(infidelities())


def _solve_probes(monkeypatch, lo, hi, config, tol):
    """(p, verdict) of every probe, bracket checks first, of the one-type
    solve of [lo, hi]."""
    probes = []
    verdict_at = threshold.mc_verdict_at

    def recorded(dist_fn, p, probe_config):
        verdict = verdict_at(dist_fn, p, probe_config)
        probes.append((p, verdict))
        return verdict

    monkeypatch.setattr(threshold, "mc_verdict_at", recorded)
    concat_threshold_mc(one_type_dist, lo, hi, config, tol)
    return probes


# the criterion-5 one-type solve at population 2048 (in-process), and
# test_mc_threshold_small_population's
@pytest.mark.parametrize(
    "config, lo, hi, tol",
    [(McConfig(population=2048, seed=s), 0.09, 0.13, 2e-4) for s in (1, 2, 3)] + [(QUICK, 0.05, 0.18, 5e-3)],
    ids=["2048 seed 1", "2048 seed 2", "2048 seed 3", "quick"],
)
def test_sector_solve_probes_match_two_sector(monkeypatch, config, lo, hi, tol):
    probes = _solve_probes(monkeypatch, lo, hi, config, tol)
    assert len(probes) >= 6
    for p, verdict in probes:
        assert verdict == _two_sector_verdict(one_type_dist(p), config), p


def _spy(calls, name, fn):
    """fn, appending name to calls at each call."""

    def spied(*args):
        calls.append(name)
        return fn(*args)

    return spied


def test_mc_verdict_picks_kernel_by_dist0(monkeypatch):
    calls = []
    for name in ("_sector_rows", "_level_rows", "_mc_first_level"):
        monkeypatch.setattr(threshold, name, _spy(calls, name, getattr(threshold, name)))
    assert mc_verdict(one_type_dist(0.1), QUICK)[1] > 2
    assert set(calls) == {"_sector_rows"}
    # an X or a Y weight of 1e-12 takes the two-sector rows
    for dist0 in ([0.9 - 1e-12, 1e-12, 0.0, 0.1], [0.9 - 1e-12, 0.0, 1e-12, 0.1]):
        calls.clear()
        assert mc_verdict(dist0, QUICK)[1] > 2
        assert set(calls) == {"_mc_first_level", "_level_rows"}


@pytest.mark.parametrize(
    "dist0",
    [
        [math.nan, 0.0, 0.0, 0.0],
        [1.2, -0.2, 0.0, 0.0],
        [0.5, 0.1, 0.0, 0.0],
        [[1.0, 0.0, 0.0, 0.0]],
        [1.0, 0.0, 0.0],
    ],
    ids=["nan", "negative", "sum below 1", "shape 1x4", "length 3"],
)
def test_mc_verdict_rejects_bad_distributions(dist0):
    with pytest.raises(ValueError, match="dist0"):
        mc_verdict(dist0, QUICK)


def test_mc_verdict_accepts_rounded_distributions():
    # a sum off by rounding is within 1e-9, and the input is not normalised
    dist = model_level0("knill")(0.0688)
    assert abs(dist.sum() - 1.0) <= 1e-9
    assert mc_verdict(dist, QUICK) == mc_verdict(list(dist), QUICK)
    assert mc_verdict([1 - 1e-10, 0.0, 0.0, 0.0], QUICK) == ("below", 1)


def test_mc_threshold_small_population():
    thr = concat_threshold_mc(one_type_dist, 0.05, 0.18, QUICK, tol=5e-3)
    assert 0.08 < thr < 0.14


def test_mc_solve_replays_plain_bisection(monkeypatch):
    # 2 bracket checks and 8 probes, in-process at this population
    calls = []
    verdict_at = threshold.mc_verdict_at

    def recorded(dist_fn, p, config):
        verdict = verdict_at(dist_fn, p, config)
        calls.append((p, verdict[0]))
        return verdict

    monkeypatch.setattr(threshold, "mc_verdict_at", recorded)
    got = concat_threshold_mc(one_type_dist, 0.09, 0.13, McConfig(population=400, levels=6))
    verdicts = dict(calls)
    probes = []
    want = _reference_bisect(
        lambda p: probes.append(p) or verdicts[p] == "below", 0.09, 0.13, 2e-4
    )
    assert [p for p, _ in calls] == [0.09, 0.13] + probes
    assert len(probes) == 8
    assert got == want


def test_mc_bracket_check():
    with pytest.raises(BracketError):
        concat_threshold_mc(one_type_dist, 0.22, 0.3, QUICK, tol=5e-3)
    with pytest.raises(BracketError):
        concat_threshold_mc(one_type_dist, 0.01, 0.05, QUICK, tol=5e-3)


@pytest.mark.parametrize(
    "lo, hi, tol, message",
    [
        pytest.param(lo, hi, 2e-4, "lo < hi", id="%r-%r" % (lo, hi))
        for lo, hi in [(0.09, 0.05), (0.07, 0.07), (math.nan, 0.09)]
    ]
    + [pytest.param(0.09, 0.13, tol, "tolerance", id="tol=%r" % tol) for tol in (0.0, -1.0, math.nan)],
)
def test_mc_bracket_needs_lo_below_hi(monkeypatch, lo, hi, tol, message):
    # a bad bracket or tol is rejected before any worker starts, any
    # verdict runs or dist_fn is called, and not as a bracket that does
    # not converge; a tol of 0 used to run both bracket flows first
    from psthresh import _workers

    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr(threshold, "_worker_count", lambda pop: 2)
    monkeypatch.setattr(_workers, "start", fail)
    monkeypatch.setattr(threshold, "mc_verdict_at", fail)
    with pytest.raises(ValueError, match=message):
        concat_threshold_mc(fail, lo, hi, QUICK, tol)
    with pytest.raises(ValueError, match=message):
        mc_threshold_error_bar(fail, lo, hi, QUICK, n_seeds=2, tol=tol)


def test_mc_error_bar():
    mean, err, ests = mc_threshold_error_bar(
        one_type_dist, 0.05, 0.18, QUICK, n_seeds=3, tol=5e-3
    )
    assert len(ests) == 3
    assert mean == pytest.approx(np.mean(ests))
    assert err == pytest.approx(np.std(ests, ddof=1))
    # unset, tol is each solve's own default
    _, _, ests = mc_threshold_error_bar(one_type_dist, 0.05, 0.18, QUICK, n_seeds=2)
    assert ests == [
        concat_threshold_mc(one_type_dist, 0.05, 0.18, QUICK._replace(seed=QUICK.seed + i)) for i in range(2)
    ]
    # a float count failed inside range with a TypeError
    for n_seeds in (1, 2.5, 2.0):
        with pytest.raises(ValueError, match="n_seeds must be an integer >= 2"):
            mc_threshold_error_bar(one_type_dist, 0.05, 0.18, QUICK, n_seeds=n_seeds)
    # every seed checks its bracket, as one concat_threshold_mc does
    with pytest.raises(BracketError, match="does not converge at lo"):
        mc_threshold_error_bar(one_type_dist, 0.22, 0.3, QUICK, n_seeds=2, tol=5e-3)


def test_level0_breakdown_is_above():
    dist_fn = model_level0("forward")
    with pytest.raises(NoConvergenceError):
        dist_fn(1.0)
    assert mc_verdict_at(dist_fn, 1.0, QUICK) == ("above", 0)
    assert mc_verdict_at(one_type_dist, 0.05, QUICK) == mc_verdict(
        one_type_dist(0.05), QUICK
    )
    # a bisection whose upper probes break down treats them as above
    thr = concat_threshold_mc(dist_fn, 0.01, 1.0, QUICK, tol=0.05)
    assert 0.01 < thr < 0.1


def test_model_level0():
    np.testing.assert_allclose(
        model_level0("forward")(0.03), model_teleport_output(Forward(0.03))
    )


# ---------------------------------------------------------------------------
# crash probabilities


def test_forward_combined_diagonal_near_breakdown():
    assert forward_combined_diagonal(0.0481816) == pytest.approx(0.779944, abs=1e-5)


@pytest.mark.parametrize("pf", [-0.1, 1.5, math.nan, math.inf])
def test_forward_combined_diagonal_rejects_bad_rate(pf):
    # -0.1 gave a diagonal of 1.348
    with pytest.raises(ValueError, match="pf must be in"):
        forward_combined_diagonal(pf)


def test_crash_difference_threshold():
    p_r = crash_difference_threshold(crash_poly_2317(), 0.00035, 0.04805)
    assert p_r == pytest.approx(0.0480107, abs=2e-6)
    # zero margin returns the baseline itself
    assert crash_difference_threshold(
        crash_poly_2317(), 0.0, 0.04805
    ) == pytest.approx(0.04805, abs=1e-8)
    with pytest.raises(BracketError):
        crash_difference_threshold(crash_poly_2317(), 0.5, 0.04805)


@pytest.mark.parametrize("delta", [math.nan, -1.0, -1e-12, -math.inf])
def test_crash_difference_threshold_rejects_negative_or_nan_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        crash_difference_threshold(crash_poly_2317(), delta, 0.04805)


@pytest.mark.parametrize("p_baseline", [2.0, 1e-4, 5e-5, 0.0, -0.1, math.nan])
def test_crash_difference_threshold_rejects_bad_baseline(p_baseline):
    # 2.0 gave 0.0823; 1e-4 and below failed inside the bisection
    with pytest.raises(ValueError, match="p_baseline"):
        crash_difference_threshold(crash_poly_2317(), 0.0, p_baseline)


@pytest.mark.parametrize(
    "call",
    [
        lambda: forward_combined_diagonal(1.0),
        lambda: crash_difference_threshold(crash_poly_2317(), 0.0, 1.0),
        lambda: indep_fixed_point(-1.0),
    ],
    ids=["forward_combined_diagonal", "crash_difference_threshold", "indep_fixed_point"],
)
def test_pf_one_is_no_convergence(call):
    # pf = 1 (f = -1) ended in ZeroDivisionError on the recursion's first step
    with pytest.raises(NoConvergenceError, match="division by zero"):
        call()


# ---------------------------------------------------------------------------
# fixed-fidelity points (regression pins for the computed values)


def test_fixed_fidelity_713_knill():
    p, fid = fixed_fidelity_point("713", "knill")
    assert p == pytest.approx(0.0348541, abs=1e-5)
    assert fid == pytest.approx(0.905647, abs=1e-4)


def test_fixed_fidelity_713_depolarizing():
    p, fid = fixed_fidelity_point("713", "depolarizing")
    assert p == pytest.approx(0.0405568, abs=1e-5)
    assert fid == pytest.approx(0.910837, abs=1e-4)


def test_fixed_fidelity_713_forward():
    pf, fid = fixed_fidelity_point("713", "forward")
    assert pf == pytest.approx(0.0295961, abs=1e-5)
    assert fid == pytest.approx(0.877025, abs=1e-4)


def test_fixed_fidelity_2317_forward():
    pf, fid = fixed_fidelity_point("2317", "forward")
    assert pf == pytest.approx(0.0354781, abs=1e-5)
    assert fid == pytest.approx(0.851051, abs=1e-4)
    # the crossing diagonal is the nontrivial fixed point of f23
    poly = crash_poly_2317()
    c = forward_combined_diagonal(pf)
    assert float(poly(c)) == pytest.approx(c, abs=1e-6)


def test_fixed_fidelity_rejects_unknown():
    with pytest.raises(ValueError):
        fixed_fidelity_point("2317", "knill")


# ---------------------------------------------------------------------------
# overhead


def test_overhead():
    assert overhead_success(0.153, 14) == pytest.approx(0.0978065, abs=1e-6)
    assert overhead_success(0.0, 0) == 1.0
    assert overhead_success(1.0, 3) == 0.0


@pytest.mark.parametrize(
    "p, n, match",
    [
        (1.5, 3, "p must be in"),
        (-0.1, 3, "p must be in"),
        (math.nan, 3, "p must be in"),
        (0.1, -2, "n must be"),
        (0.1, 2.5, "n must be"),
        (0.1, math.nan, "n must be"),
        (0.1, True, "n must be"),
    ],
)
def test_overhead_rejects_bad_input(p, n, match):
    # 1.5 gave a success probability of -0.125, n = -2 one of 1.23 and
    # n = 2.5 one of 0.768
    with pytest.raises(ValueError, match=match):
        overhead_success(p, n)
