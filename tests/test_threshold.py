"""Tests for the threshold solvers.

Deterministic solvers are pinned against their expected values; the
Monte Carlo machinery is exercised at small populations where a verdict
takes a fraction of a second.
"""

import math

import numpy as np
import pytest

from psthresh.codes import crash_poly_2317, crash_poly_713, recover_713
from psthresh.noise import Depolarizing, Forward, model_family
from psthresh.postselect import NoConvergenceError, model_teleport_output
from psthresh.threshold import (
    ABOVE_INFIDELITY,
    BracketError,
    McConfig,
    bisect,
    capacity_one_type,
    capacity_three_type,
    concat_threshold_mc,
    crash_difference_threshold,
    entropy_match_threshold,
    fixed_fidelity_point,
    forward_combined_diagonal,
    golay_pair_entropy,
    hashing_threshold,
    mc_threshold_error_bar,
    mc_verdict,
    mc_verdict_at,
    model_level0,
    model_pair_entropy,
    one_type_dist,
    overhead_success,
    shannon_entropy,
    sweep_r,
    teleport_entropy,
    _mc_first_level,
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
}
BISECT_BRACKETS = ((0.0, 1.0), (1e-3, 0.25), (0.09, 0.13), (0.3, 0.7))


@pytest.mark.parametrize("name", sorted(BISECT_PREDICATES))
def test_bisect_matches_reference_loop(name):
    pred = BISECT_PREDICATES[name]
    for lo, hi in BISECT_BRACKETS:
        for tol in (0.1, 2e-4, 1e-6, 1e-9, 1e-12):
            probes, ref_probes = [], []
            got = bisect(lambda p: probes.append(p) or pred(p), lo, hi, tol)
            want = _reference_bisect(
                lambda p: ref_probes.append(p) or pred(p), lo, hi, tol
            )
            assert got == want, (lo, hi, tol)
            assert probes == ref_probes, (lo, hi, tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_bisect_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tolerance"):
        bisect(lambda p: p < 0.3, 0.0, 1.0, tol)


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
    got = bisect(_at_most(2000, lambda p: p < 0.3), 0.0, 1.0, 1e-300)
    assert got == pytest.approx(0.3, abs=1e-16)
    got = bisect(_at_most(2000, lambda p: True), 0.0, 1.0, 1e-300)
    assert got == pytest.approx(1.0, abs=1e-16)
    assert bisect(_at_most(2000, lambda p: False), 0.0, 1.0, 1e-300) < 1e-300


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


def test_entropy_is_one_at_threshold():
    p = hashing_threshold("depolarizing", tol=1e-9)
    assert teleport_entropy(Depolarizing(p)) == pytest.approx(1.0, abs=1e-6)


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
    pop = popn.shape[0]
    rng = np.random.default_rng((config.seed, level))
    idx = rng.integers(0, pop, size=(pop, 7))
    _, rows = _reference_drawn_rows(popn[idx], rng.random(pop))
    _, cond = recover_713(rows[:, None, :])
    return cond[:, 0]


def _full_recovery_level(popn, config, level):
    """One population level by the full decomposition: recovery on all
    64 syndromes of every row, then the syndrome draw from the recovered
    weights."""
    pop = popn.shape[0]
    rng = np.random.default_rng((config.seed, level))
    idx = rng.integers(0, pop, size=(pop, 7))
    weights, cond = recover_713(_reference_decompose(popn[idx]))
    pick = np.minimum((np.cumsum(weights, axis=1) < rng.random(pop)[:, None]).sum(axis=1), 63)
    return cond[np.arange(pop), pick]


# 2 * 256 + 3 leaves a 3-row block after two full ones; 3 parts split
# 2000 (8 blocks) over three worker processes
@pytest.mark.parametrize(
    "population, parts",
    [
        pytest.param(2000, 1, id="2000"),
        pytest.param(2 * 256 + 3, 1, id="515"),
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


# 3 fits in one small block, 261 leaves a 5-row block and 2 * 256 + 3 a
# 3-row one
@pytest.mark.parametrize("population", [3, 261, 2 * 256 + 3, 2000])
@pytest.mark.parametrize("dist", ["knill", "one-type"])
def test_first_level_matches_tiled_level(population, dist):
    dist0 = model_level0("knill")(0.0688) if dist == "knill" else one_type_dist(0.1092)
    config = McConfig(population=population, seed=7)
    tiled = np.tile(dist0, (population, 1))
    got = _mc_first_level(dist0, config)
    np.testing.assert_array_equal(got, _mc_level(tiled, config, 1))
    np.testing.assert_array_equal(got, _reference_level(tiled, config, 1))


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


def test_mc_bracket_check():
    with pytest.raises(BracketError):
        concat_threshold_mc(one_type_dist, 0.22, 0.3, QUICK, tol=5e-3)
    with pytest.raises(BracketError):
        concat_threshold_mc(one_type_dist, 0.01, 0.05, QUICK, tol=5e-3)


def test_mc_error_bar():
    mean, err, ests = mc_threshold_error_bar(
        one_type_dist, 0.05, 0.18, QUICK, n_seeds=3, tol=5e-3
    )
    assert len(ests) == 3
    assert mean == pytest.approx(np.mean(ests))
    assert err == pytest.approx(np.std(ests, ddof=1))
    with pytest.raises(ValueError):
        mc_threshold_error_bar(one_type_dist, 0.05, 0.18, QUICK, n_seeds=1)
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
# [[23,1,7]] entropy matching and crash probabilities


def test_golay_pair_entropy_symmetric_in_sectors():
    assert golay_pair_entropy([0.7, 0.2, 0.0, 0.1]) == pytest.approx(
        golay_pair_entropy([0.7, 0.1, 0.0, 0.2]), abs=1e-12
    )


def test_entropy_match_self_consistent():
    target = 1.00162555
    pf = entropy_match_threshold("forward", target, 0.045, 0.05, tol=1e-9)
    assert model_pair_entropy(Forward(pf)) == pytest.approx(target, abs=1e-7)
    with pytest.raises(BracketError):
        entropy_match_threshold("forward", target, 0.001, 0.002)


def test_forward_combined_diagonal_near_breakdown():
    assert forward_combined_diagonal(0.0481816) == pytest.approx(0.779944, abs=1e-5)


def test_crash_difference_threshold():
    p_r = crash_difference_threshold(crash_poly_2317(), 0.00035, 0.04805)
    assert p_r == pytest.approx(0.0480107, abs=2e-6)
    # zero margin returns the baseline itself
    assert crash_difference_threshold(
        crash_poly_2317(), 0.0, 0.04805
    ) == pytest.approx(0.04805, abs=1e-8)
    with pytest.raises(BracketError):
        crash_difference_threshold(crash_poly_2317(), 0.5, 0.04805)


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
