"""Threshold solvers: hashing-bound brackets, Monte Carlo population
dynamics for the concatenated [[7,1,3]] code, entropy matching and
crash-probability estimates for the [[23,1,7]] code, and the success
probability of a post-selected cascade.

Every solver locates its crossing with `bisect`, the one bracket-halving
loop; each caller checks its own bracket first.  The Monte Carlo verdict
uses counter-based random streams keyed by (seed, level), so results are
reproducible and any range of a level can be drawn on its own: a solve
splits each level into ranges of whole blocks across worker processes
(_workers), one per usable CPU, with results identical to one process.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .codes import (
    CrashPolynomial,
    _cumulative_syndrome_weights,
    _drawn_class_rows,
    _drawn_syndromes,
    _syndrome_buffers,
    combine_classes,
    crash_poly_2317,
    distance_classes_from_x,
    first_level_fidelity,
    golay_sector_entropy,
    postselect_classes,
    recover_713,
)
from .noise import Depolarizing, Forward, RateError, model_family
from .postselect import (
    NoConvergenceError,
    indep_fixed_point,
    model_teleport_output,
)


class BracketError(RuntimeError):
    """A bisection could not bracket the requested crossing."""


def shannon_entropy(dist) -> float:
    """Entropy in bits of a probability vector."""
    dist = np.asarray(dist, dtype=float)
    nz = dist[dist > 0]
    return float(-(nz * np.log2(nz)).sum())


def teleport_entropy(model) -> float:
    """Entropy of the teleported error distribution at the model's
    post-selection fixed point; infinite when the iteration breaks
    down (far above threshold)."""
    try:
        return shannon_entropy(model_teleport_output(model))
    except NoConvergenceError:
        return float("inf")


def bisect(lower, lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] once bisection has narrowed it to width tol.

    Each probe is mid = (lo + hi) / 2: lower(mid) true moves lo up to
    mid, false brings hi down to it.  The caller checks the bracket.
    Raises ValueError unless tol > 0 (NaN included).  The loop also
    stops once mid is no longer strictly inside (lo, hi), which only a
    tolerance under the float spacing at the crossing can reach.
    """
    if not tol > 0:
        raise ValueError("bisection tolerance must be positive, got %r" % tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if lower(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _resolve_family(family):
    if isinstance(family, str):
        return model_family(family)
    return family


def hashing_threshold(
    family,
    lo: float = 1e-3,
    hi: float = 0.25,
    tol: float = 1e-6,
    extend: bool = True,
) -> float:
    """Error rate at which the teleported distribution's entropy reaches
    one bit, i.e. where the hashing rate 1 - H crosses zero.

    family is a model-family name or a callable p -> model.  The initial
    bracket [lo, hi] is widened automatically unless extend is False;
    BracketError is raised if no bracket exists below 0.5.
    """
    fam = _resolve_family(family)

    def above(p):
        return teleport_entropy(fam(p)) >= 1.0

    for _ in range(60):
        if above(lo):
            if not extend or lo < 1e-12:
                raise BracketError("entropy already exceeds one bit at lo=%g" % lo)
            lo /= 2.0
        else:
            break
    else:
        raise BracketError("no below-threshold point found")
    for _ in range(60):
        if not above(hi):
            if not extend or hi >= 0.4999:
                raise BracketError("entropy stays below one bit up to hi=%g" % hi)
            hi = min(1.5 * hi, 0.4999)
        else:
            break
    else:
        raise BracketError("no above-threshold point found")
    return bisect(lambda p: not above(p), lo, hi, tol)


def sweep_r(r_values=None, points: int = 11, tol: float = 1e-6):
    """Depolarizing hashing threshold, solved to tol, as a function of
    the measurement error fraction r; returns a list of (r, threshold)
    pairs, with NaN thresholds where the bracket fails or the model
    rejects r.  Other errors, such as a bad tolerance, are raised."""
    if r_values is None:
        r_values = [i / (points - 1) for i in range(points)]
    out = []
    for r in r_values:
        rr = float(r)
        try:
            thr = hashing_threshold(lambda p: Depolarizing(p, r=rr), tol=tol)
        except (BracketError, RateError):
            thr = float("nan")
        out.append((rr, thr))
    return out


# ---------------------------------------------------------------------------
# hashing capacities of fixed one-parameter channels


def capacity_one_type() -> float:
    """Flip rate p of a single-type channel (0, 0, p) at which its
    sector entropy h(p) reaches half a bit."""
    return bisect(lambda p: shannon_entropy([1 - p, p]) < 0.5, 0.0, 0.5, 1e-9)


def capacity_three_type() -> float:
    """Error rate p of the symmetric channel (p, p, p) at which the full
    distribution's entropy reaches one bit."""
    return bisect(
        lambda p: shannon_entropy([1 - 3 * p, p, p, p]) < 1.0, 0.0, 1.0 / 3.0, 1e-9
    )


# ---------------------------------------------------------------------------
# Monte Carlo population dynamics on the concatenated [[7,1,3]] code


#: Mean infidelity under which the concatenation flow has reached the
#: perfect attractor and so is below threshold.
BELOW_INFIDELITY = 1e-6

#: Mean infidelity past which the concatenation flow is on its way to an
#: upper attractor (0.5 with one sector randomised, 0.75 with both) and so
#: is above threshold.  Flows that converge peak near 0.16 close to the
#: threshold, well under this bound.
ABOVE_INFIDELITY = 0.45


@dataclass(frozen=True)
class McConfig:
    """Settings for the population-dynamics verdict.

    population is the number of tracked conditional distributions; a
    level resamples each individual from seven parents.  Randomness is
    drawn from counter-based streams keyed by (seed, level).  The flow
    runs for at most `levels` levels; it stops as below threshold once
    the mean infidelity falls under BELOW_INFIDELITY, and as above once
    it passes ABOVE_INFIDELITY.

    A level runs in row blocks of 256 individuals.  Each block's
    character product ([256, 256]), syndrome weights and their cumulative
    sums ([256, 64] each) stay in cache from the product through the
    syndrome draw to the drawn syndrome's class row, and the buffers are
    reused from block to block.  That row has the bits of the same row of
    the full decomposition (decompose_713).  Recovery is then applied to
    the chosen rows of the whole level at once.  Level 1, where every
    individual is dist0, builds one row's product and the class rows of
    all 64 syndromes.  Results do not depend on the block size.

    From level 2 on, a level of at least 2 * _WORKER_BLOCKS blocks runs
    on worker processes, one per usable CPU (os.sched_getaffinity), each
    given a contiguous range of whole blocks and each at least
    _WORKER_BLOCKS of them; the parent waits for their rows.  Each worker
    draws the level's (seed, level) stream itself and computes its blocks
    exactly as one process would, so results are bit-identical however
    the level is split.  The first concat_threshold_mc of a process
    starts the workers (0.2-0.45 s, about 40 MB each) and they serve
    every verdict after it; a lone mc_verdict starts none.
    """

    population: int = 10_000
    levels: int = 12
    seed: int = 1

    def __post_init__(self):
        for name, least in (("population", 1), ("levels", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(
                    "%s must be an integer >= %d, got %r" % (name, least, value)
                )


#: individuals per block of a population level: the character product
#: and one qubit's character sums ([block, 256] doubles each, 1 MiB) fit in
#: a core's L2
_BLOCK_ROWS = 256

#: fewest blocks of a level worth handing to a worker process: on 2 cores,
#: two workers took a 4096-row level in about the time of one process,
#: and a 6144-row level in 25-35% less
_WORKER_BLOCKS = 12


def _worker_count(pop: int) -> int:
    """Worker processes for a level of pop individuals: one per usable
    CPU, each given at least _WORKER_BLOCKS blocks, and none (the level
    runs in-process) when that leaves fewer than two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, -(-pop // _BLOCK_ROWS) // _WORKER_BLOCKS)
    return workers if workers >= 2 else 0


def _running_workers():
    """The worker pool a solve started in this process, or None.  Only
    a solve imports _workers, so a lone verdict starts no process."""
    workers = sys.modules.get(__package__ + "._workers")
    return workers.running() if workers is not None else None


def _level_draws(pop: int, seed: int, level: int):
    """Parent indices [pop, 7] and syndrome uniforms [pop] of a level,
    drawn in that order from the (seed, level) stream."""
    rng = np.random.default_rng((seed, level))
    idx = rng.integers(0, pop, size=(pop, 7))
    return idx, rng.random(pop)


def _level_rows(popn: np.ndarray, seed: int, level: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of a level of the population dynamics: each
    individual is rebuilt from seven parents drawn from popn.  Per block,
    its syndrome is drawn from the block's syndrome weights and only that
    syndrome's class row is built; recovery is applied to those rows for
    the whole range at once.  start is a multiple of _BLOCK_ROWS, so the
    blocks, and with them the rows' bits, are those of the whole level."""
    pop = popn.shape[0]
    idx, u = _level_draws(pop, seed, level)
    chosen = np.empty((stop - start, popn.shape[1]))
    buffers = _syndrome_buffers(min(pop, _BLOCK_ROWS))
    for lo in range(start, stop, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, stop)
        # np.take gathers the parents several times faster than popn[idx]
        children = np.take(popn, idx[lo:hi], axis=0)
        qh, cum = _cumulative_syndrome_weights(children, buffers)
        chosen[lo - start : hi - start] = _drawn_class_rows(
            qh, _drawn_syndromes(cum, u[lo:hi]), buffers
        )
    _, cond = recover_713(chosen[:, None, :])
    return cond[:, 0]


def _level_ranges(pop: int, parts: int):
    """parts contiguous (start, stop) ranges of whole blocks covering a
    population of pop, as even in blocks as they can be."""
    blocks = -(-pop // _BLOCK_ROWS)
    edges = [min(pop, _BLOCK_ROWS * (blocks * i // parts)) for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _mc_level(popn: np.ndarray, config: McConfig, level: int, pool=None, parts: int = 1) -> np.ndarray:
    """One level of the population dynamics (_level_rows of the whole
    population).  Given a worker pool and parts > 1, the level is split
    into `parts` ranges of whole blocks, one per worker, and the parent
    waits for their rows."""
    pop = popn.shape[0]
    if pool is None or parts < 2:
        return _level_rows(popn, config.seed, level, 0, pop)
    calls = [(popn, config.seed, level, a, b) for a, b in _level_ranges(pop, parts)]
    return np.concatenate(pool.map(_level_rows, calls))


def _mc_first_level(dist0: np.ndarray, config: McConfig) -> np.ndarray:
    """_mc_level at level 1 from a population that is dist0 throughout.

    Every block of seven parents is then the same, so the character
    product and syndrome weights are computed for one row, the class rows
    of all 64 syndromes are built from it and recovered once, and each
    individual takes the conditional row of its drawn syndrome.  The
    parent indices are still drawn, so the uniforms come from the same
    place in the stream.
    """
    _, u = _level_draws(config.population, config.seed, 1)
    buffers = _syndrome_buffers(64)
    qh, cum = _cumulative_syndrome_weights(np.tile(dist0, (1, 7, 1)), buffers)
    syndromes = _drawn_syndromes(cum, u)
    rows = _drawn_class_rows(qh, np.arange(64), buffers)
    _, cond = recover_713(rows[None])
    return cond[0, syndromes]


def mc_verdict(dist0, config: McConfig = McConfig()):
    """Verdict ('below', 'above' or 'inconclusive', level) for the
    concatenation flow started from error distribution dist0.

    The verdict names the attractor the flow reaches.  Below threshold:
    the population-mean infidelity drops under BELOW_INFIDELITY within
    the level budget.  Above: the mean infidelity passes
    ABOVE_INFIDELITY, on the way to a randomised sector.  A flow that
    does neither within config.levels levels is inconclusive.

    dist0 must be a length-4 vector of finite, non-negative entries that
    sum to 1 within 1e-9, or ValueError is raised.  The levels run on
    the worker processes of a solve (concat_threshold_mc) when one has
    started them in this process, and in-process otherwise.
    """
    dist0 = np.asarray(dist0, dtype=float)
    if not (
        dist0.shape == (4,)
        and np.isfinite(dist0).all()
        and (dist0 >= 0).all()
        and abs(dist0.sum() - 1.0) <= 1e-9
    ):
        raise ValueError(
            "dist0 must be 4 finite non-negative probabilities summing to 1, got %r" % (dist0,)
        )
    pool = _running_workers()
    parts = min(_worker_count(config.population), pool.size) if pool is not None else 1
    for level in range(1, config.levels + 1):
        if level == 1:
            popn = _mc_first_level(dist0, config)
        else:
            popn = _mc_level(popn, config, level, pool, parts)
        infidelity = 1.0 - popn[:, 0].mean()
        if infidelity < BELOW_INFIDELITY:
            return "below", level
        if infidelity > ABOVE_INFIDELITY:
            return "above", level
    return "inconclusive", config.levels


def mc_verdict_at(dist_fn, p: float, config: McConfig = McConfig()):
    """mc_verdict of the flow from the level-0 distribution dist_fn(p).

    Where that distribution breaks down (its post-selection fixed point
    keeps nothing, far above threshold), the verdict is ('above', 0),
    just as teleport_entropy makes the entropy infinite there.
    """
    try:
        dist0 = dist_fn(p)
    except NoConvergenceError:
        return "above", 0
    return mc_verdict(dist0, config)


def concat_threshold_mc(
    dist_fn,
    lo: float,
    hi: float,
    config: McConfig = McConfig(),
    tol: float = 2e-4,
) -> float:
    """Bisect the population-dynamics verdict between lo (below) and hi
    (above).  dist_fn maps the error rate to the level-0 distribution.
    Inconclusive verdicts count as above, so the estimate errs low.

    The first solve in a process whose population is large enough to
    share starts the worker processes (see McConfig) that run the levels
    of every verdict after it; they are closed at interpreter exit.
    """
    workers = _worker_count(config.population)
    if workers:
        from . import _workers

        _workers.start(workers)

    def is_below(p):
        return mc_verdict_at(dist_fn, p, config)[0] == "below"

    if not is_below(lo):
        raise BracketError("population does not converge at lo=%g" % lo)
    if is_below(hi):
        raise BracketError("population still converges at hi=%g" % hi)
    return bisect(is_below, lo, hi, tol)


def mc_threshold_error_bar(
    dist_fn,
    lo: float,
    hi: float,
    config: McConfig = McConfig(),
    n_seeds: int = 10,
    tol: float = 2e-4,
):
    """Mean and sample standard deviation of the Monte Carlo threshold
    over n_seeds independent seeds (at least 10 for a meaningful bar),
    plus the individual estimates.  Each seed is a concat_threshold_mc
    solve, so a bracket that fails for any seed raises BracketError."""
    if n_seeds < 2:
        raise ValueError("need at least two seeds for an error bar")
    estimates = [
        concat_threshold_mc(dist_fn, lo, hi, replace(config, seed=config.seed + i), tol)
        for i in range(n_seeds)
    ]
    arr = np.asarray(estimates)
    return float(arr.mean()), float(arr.std(ddof=1)), estimates


def one_type_dist(p: float) -> np.ndarray:
    """Level-0 distribution of the single-type channel (0, 0, p)."""
    return np.array([1.0 - p, 0.0, 0.0, p])


def model_level0(family):
    """Level-0 distribution family: the teleported error distribution at
    the model's post-selection fixed point, as a function of rate."""
    fam = _resolve_family(family)

    def dist_fn(p):
        return model_teleport_output(fam(p))

    return dist_fn


# ---------------------------------------------------------------------------
# [[23,1,7]] entropy matching


def golay_pair_entropy(dist) -> float:
    """Sum of the two sector entropies of the [[23,1,7]] syndrome
    decoder for a teleported error distribution: bit flips occur at
    rate p_X + p_Y, phase flips at p_Z + p_Y."""
    dist = np.asarray(dist, dtype=float)
    return golay_sector_entropy(dist[1] + dist[2]) + golay_sector_entropy(
        dist[3] + dist[2]
    )


def model_pair_entropy(model) -> float:
    """golay_pair_entropy at the model's fixed point."""
    return golay_pair_entropy(model_teleport_output(model))


def entropy_match_threshold(
    family,
    target_entropy: float,
    lo: float,
    hi: float,
    tol: float = 1e-7,
) -> float:
    """Error rate at which the model family's sector-summed [[23,1,7]]
    entropy equals target_entropy (bisection; the entropy increases
    with the rate)."""
    fam = _resolve_family(family)

    def value(p):
        return model_pair_entropy(fam(p))

    if value(lo) > target_entropy or value(hi) < target_entropy:
        raise BracketError("entropy target not bracketed by [%g, %g]" % (lo, hi))
    return bisect(lambda p: value(p) < target_entropy, lo, hi, tol)


# ---------------------------------------------------------------------------
# crash probabilities


def forward_combined_diagonal(pf: float) -> float:
    """Sector diagonal of the teleported error for forward noise at rate
    pf, from the decoupled fixed point: x_g**3 f**2."""
    f = 1.0 - 2.0 * pf
    return indep_fixed_point(f).x_g**3 * f * f


def crash_difference_threshold(
    poly: CrashPolynomial,
    delta: float,
    p_baseline: float,
    tol: float = 1e-9,
) -> float:
    """Forward rate p at which the code's crash probability sits delta
    below its value at p_baseline, i.e. the rate whose crash margin
    equals the degeneracy correction delta, bisected on
    [1e-4, p_baseline]."""
    base = poly(forward_combined_diagonal(p_baseline))

    def margin(p):
        return (poly(forward_combined_diagonal(p)) - base) / 2.0

    lo = 1e-4
    if margin(lo) < delta:
        raise BracketError("crash margin never reaches delta above lo=%g" % lo)
    return bisect(lambda p: margin(p) > delta, lo, p_baseline, tol)


# ---------------------------------------------------------------------------
# fixed-fidelity points (where one level of encoding stops helping)


def _forward_class_state(pf: float):
    """Fixed point of the class-level recursion for forward noise:
    good and bad ancilla class distributions and the gate class
    distribution."""
    gate = distance_classes_from_x(1.0 - 2.0 * pf)
    good = [1.0, 0.0, 0.0, 0.0]
    for _ in range(100_000):
        bad = combine_classes(combine_classes(good, good), gate)
        _, good2 = postselect_classes(bad, combine_classes(bad, gate))
        delta = max(abs(a - b) for a, b in zip(good, good2))
        good = good2
        if delta < 1e-15:
            break
    bad = combine_classes(combine_classes(good, good), gate)
    return good, bad, gate


def _forward_class_level1(pf: float) -> float:
    """Probability that the teleported pattern lies in a correctable
    class (0 or 1) for the class-level forward recursion."""
    good, bad, gate = _forward_class_state(pf)
    teleported = combine_classes(good, combine_classes(bad, gate))
    return teleported[0] + teleported[1]


def fixed_fidelity_point(code: str, family: str):
    """Error rate and fidelity at which one level of encoding leaves the
    fidelity unchanged, i.e. where first-level and unencoded fidelities
    cross.

    Supported: ('713', 'knill' | 'depolarizing' | 'forward') and
    ('2317', 'forward').  Returns (rate, fidelity).
    """
    tol = 1e-9
    if code == "713" and family in ("knill", "depolarizing"):
        fam = model_family(family)

        def gap(p):
            dist = model_teleport_output(fam(p))
            return first_level_fidelity(dist) - float(dist[0])

        lo, hi = 0.02, 0.065
        if gap(lo) <= 0 or gap(hi) >= 0:
            raise BracketError("no fixed-fidelity crossing in [%g, %g]" % (lo, hi))
        p = bisect(lambda p: gap(p) > 0, lo, hi, tol)
        return p, float(model_teleport_output(fam(p))[0])

    if code == "713" and family == "forward":
        # per-sector class recursion; both sectors are identical, so the
        # joint fidelity is the square of the sector fidelity
        def gap(pf):
            return _forward_class_level1(pf) - (1.0 + forward_combined_diagonal(pf)) / 2.0

        lo, hi = 0.02, 0.04
        if gap(lo) <= 0 or gap(hi) >= 0:
            raise BracketError("no fixed-fidelity crossing in [%g, %g]" % (lo, hi))
        pf = bisect(lambda p: gap(p) > 0, lo, hi, tol)
        return pf, ((1.0 + forward_combined_diagonal(pf)) / 2.0) ** 2

    if code == "2317" and family == "forward":
        poly = crash_poly_2317()
        # the sector diagonal is unchanged by one level exactly when
        # f23(c) = c; find that c, then the rate that produces it
        lo_c, hi_c = 0.5, 0.999999
        if poly(lo_c) >= lo_c or poly(hi_c) <= hi_c:
            raise BracketError("no nontrivial f23 fixed point bracketed")
        c_star = bisect(lambda c: poly(c) < c, lo_c, hi_c, tol)
        pf = bisect(lambda p: forward_combined_diagonal(p) > c_star, 1e-4, 0.2, tol)
        return pf, ((1.0 + c_star) / 2.0) ** 2

    raise ValueError("unsupported fixed-fidelity pair (%r, %r)" % (code, family))


# ---------------------------------------------------------------------------
# overhead estimate


def overhead_success(p: float, n: int) -> float:
    """Probability (1 - p)**n that n independently post-selected steps
    all succeed."""
    return (1.0 - p) ** n
