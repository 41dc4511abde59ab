"""Threshold solvers: hashing-bound brackets, Monte Carlo population
dynamics for the concatenated [[7,1,3]] code, crash-probability
estimates for the [[23,1,7]] code, and the success probability of a
post-selected cascade.

Every solver locates its crossing with `bisect`, the one bracket-halving
loop; each caller makes sure of its own bracket first and hands it a
signed gap, negative below the crossing.  From a finite gap it
settles most midpoints by regula falsi instead of evaluating them: the
result is bit for bit that of plain bisection as long as the gap's sign
changes once over the bracket, in at most three times (and on the smooth
gaps here about a quarter of) its probes.  The Monte Carlo solve's gap
is its verdict's sign scaled by how slowly the flow left the threshold's
unstable fixed point (_escape_gap), read from the levels the verdict
ran; the solve hands bisect the gaps of its bracket checks too.  That
verdict uses counter-based random streams keyed by (seed, level), so
results are reproducible and any range of a level can be drawn on its
own: a solve splits each level into even ranges of rows across worker
processes (_workers), one per usable CPU, with results identical to one
process.

A Monte Carlo flow runs on one of two kernels, by its level-0
distribution.  With phase flips only (no X or Y weight), an individual
is one flip probability and a level forms 8 characters per individual
(_sector_rows); otherwise an individual is a class row over
(I, X, Y, Z) and a level forms 256 (_level_rows).  The two-sector kernel
on a one-type flow is the tests' reference for the one-sector one.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import (
    CrashPolynomial,
    _check_distribution,
    _cumulative_syndrome_weights,
    _drawn_class_rows,
    _drawn_syndromes,
    _sector_recovered,
    _sector_weights,
    _syndrome_buffers,
    combine_classes,
    crash_poly_2317,
    distance_classes_from_x,
    first_level_fidelity,
    postselect_classes,
    recover_713,
)
from .noise import RateError, _check_count, _check_prob, _Checked, model_family
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


def _check_bracket(lo: float, hi: float, tol: float) -> None:
    if not lo < hi:
        raise ValueError("the bracket needs lo < hi, got lo=%r, hi=%r" % (lo, hi))
    if not tol > 0:
        raise ValueError("bisection tolerance must be positive, got %r" % tol)


def bisect(gap, lo: float, hi: float, tol: float, end_gaps=None) -> float:
    """Midpoint of [lo, hi] once bisection of gap(p) < 0 has narrowed it
    to width tol.

    gap(p) is a signed gap, negative below the crossing.  Each step takes
    mid = (lo + hi) / 2: mid below the crossing moves lo up to mid,
    otherwise hi comes down to it.  The caller makes sure of the gap's
    sign at the ends.  Raises ValueError unless lo < hi and tol > 0 (NaN
    included).  The loop also stops once mid is no longer strictly
    inside (lo, hi), which only a tolerance under the float spacing at
    the crossing can reach.

    The gap is called only where the tightest evaluated bracket [a, b]
    (gap(a) < 0, gap(b) not) leaves a midpoint open: a midpoint at or
    below a is below, one at or above b is not.  An open midpoint is
    settled by a probe next to an estimate of the crossing, the Illinois
    (regula falsi) point of [a, b] or, while one side is unprobed, the
    secant through the last two probes: of the points plain bisection
    would reach were every open midpoint on the estimate's side, the
    probe is the nearest one past the estimate, seen from the last probe.
    A good estimate so settles every remaining midpoint in two probes.
    The midpoint itself is probed when there is no usable estimate (a
    single probe so far, or a gap that is not finite, such as an end of
    [a, b] probed at +inf) and after two guided probes left it open.  A
    gap of only -inf and +inf, a verdict with no size, is so probed at
    every midpoint, as plain bisection.

    end_gaps, if given, is (gap(lo), gap(hi)), which a caller evaluated to
    check its bracket: they seed [a, b] before any probe, as the bracket
    of the Illinois method starts, so that the first midpoint is settled
    from an estimate too, and its first probe is the point below the
    estimate.  The ends themselves are never probed.

    Provided the sign of the gap changes once over [lo, hi], from
    negative to not, every midpoint is decided as plain bisection of
    gap(p) < 0 decides it, so the result is the same to the bit.  A
    midpoint costs at most three probes, so a solve never takes more
    than three times the plain probes; the smooth gaps of the solvers
    here take about a quarter of them, and the Monte Carlo gap about
    three fifths.
    """
    _check_bracket(lo, hi, tol)
    # the tightest probes with gap < 0 and with gap not < 0, and their
    # gaps, the kept end's halved Illinois-style; the last two probes
    a, ga, b, gb = -math.inf, -math.inf, math.inf, math.inf
    last = before = None
    if end_gaps is not None:
        (a, ga), (b, gb) = (lo, end_gaps[0]), (hi, end_gaps[1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        tries = 0
        while a < mid < b:
            if tries == 2:
                guess = None
            elif abs(ga) + gb < math.inf:
                guess = a + (b - a) * (ga / (ga - gb))
            elif math.inf in (-a, b) and before is not None and math.isfinite(before[1] + last[1]):
                (x1, g1), (x2, g2) = before, last
                guess = x2 - g2 * (x2 - x1) / (g2 - g1) if g2 != g1 else math.nan
                if not max(a, lo) < guess < min(b, hi):
                    guess = hi if b == math.inf else lo
            else:
                guess = None
            x = mid
            if guess is not None:
                # plain bisection run toward the guess ends on a bracket
                # around it: probe its end on the far side from the last
                # probe, or its other end when that is not open
                left, right = lo, hi
                while right - left > tol:
                    m = 0.5 * (left + right)
                    if not left < m < right:
                        break
                    left, right = (m, right) if m < guess else (left, m)
                ends = (right, left) if last is not None and last[1] < 0 else (left, right)
                x = next((e for e in ends if max(a, lo) < e < min(b, hi)), mid)
            value = gap(x)
            below = value < 0
            if last is not None and (last[1] < 0) == below:
                # the same end moves twice in a row: halve the kept end's gap
                if below:
                    gb *= 0.5
                else:
                    ga *= 0.5
            if below:
                a, ga = x, value
            else:
                b, gb = x, value
            before, last = last, (x, value)
            tries += 1
        if mid <= a:
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
    BracketError is raised if no bracket exists below 0.5.  Raises
    ValueError unless lo < hi and tol > 0, before any probe.
    """
    _check_bracket(lo, hi, tol)
    fam = _resolve_family(family)

    # shannon_entropy drops NaN entries and a breakdown gives +inf, so H
    # is never NaN and H - 1 >= 0 exactly where H >= 1
    def gap(p):
        return teleport_entropy(fam(p)) - 1.0

    # lo halves until it passes 1e-12, and a positive hi grows up to
    # 0.4999 (one at or below 0 never would): both loops end
    while gap(lo) >= 0:
        if not extend or lo < 1e-12:
            raise BracketError("entropy already exceeds one bit at lo=%g" % lo)
        lo /= 2.0
    while gap(hi) < 0:
        if not extend or not 0 < hi < 0.4999:
            raise BracketError("entropy stays below one bit up to hi=%g" % hi)
        hi = min(1.5 * hi, 0.4999)
    return bisect(gap, lo, hi, tol)


def sweep_r(r_values=None, points: int = 11, tol: float = 1e-6):
    """Depolarizing hashing threshold, solved to tol, as a function of
    the measurement error fraction r; returns a list of (r, threshold)
    pairs, with NaN thresholds where the bracket fails or the model
    rejects r.  Without r_values, r runs over `points` even steps of
    [0, 1], and ValueError is raised unless points is an integer >= 2.
    Other errors, such as a bad tolerance, are raised."""
    if r_values is None:
        _check_count("points", points, 2)
        r_values = [i / (points - 1) for i in range(points)]
    out = []
    for r in r_values:
        rr = float(r)
        try:
            thr = hashing_threshold(model_family("depolarizing", r=rr), tol=tol)
        except (BracketError, RateError):
            thr = float("nan")
        out.append((rr, thr))
    return out


# ---------------------------------------------------------------------------
# hashing capacities of fixed one-parameter channels


def capacity_one_type() -> float:
    """Flip rate p of a single-type channel (0, 0, p) at which its
    sector entropy h(p) reaches half a bit."""
    return bisect(lambda p: shannon_entropy([1 - p, p]) - 0.5, 0.0, 0.5, 1e-9)


def capacity_three_type() -> float:
    """Error rate p of the symmetric channel (p, p, p) at which the full
    distribution's entropy reaches one bit."""
    return bisect(lambda p: shannon_entropy(three_type_dist(p)) - 1.0, 0.0, 1.0 / 3.0, 1e-9)


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

#: A flow has escaped the threshold's unstable fixed point at the level
#: where its mean infidelity first strays from its level-1 value by this
#: factor, up or down.  Near the fixed point the escape level E grows like
#: log(1 / |p - p*|), so the Monte Carlo gap -+_ESCAPE_GROWTH ** -E is
#: roughly linear in p - p*.  On the five Monte Carlo rows of
#: psthresh.cli.TARGETS (default McConfig, tol 2e-4, seeds 1-10), plain
#: bisection ran 4346 levels; band 1.5 and growth 2 ran 2760, no solve
#: more than plain, and kept every estimate's bits (also on seeds 11-20).
#: Band 1.25 ran 3020 and band 2 2899; growth 1.5 ran 3355 and growth 3
#: 3828, one solve 1.58x plain; band 2 and growth 1.5 each moved the
#: depolarizing seed-6 estimate, where the verdict is not monotone in p.
_ESCAPE_BAND = 1.5
_ESCAPE_GROWTH = 2.0


class _McConfigFields(NamedTuple):
    population: int = 10_000
    levels: int = 32
    seed: int = 1


class McConfig(_Checked, _McConfigFields):
    """Settings for the population-dynamics verdict.

    population is the number of tracked individuals; a level resamples
    each individual from seven parents, systematically: every individual
    is a parent exactly seven times, and the syndrome uniforms are
    stratified.  Randomness is drawn from counter-based streams keyed by
    (seed, level).  The flow runs for at most `levels` levels; it stops
    as below threshold once the mean infidelity falls under
    BELOW_INFIDELITY, and as above once it passes ABOVE_INFIDELITY; a
    flow that does neither is inconclusive.  At the defaults every probe
    of the criterion-5 solves, seeds 1-10, stops within 23 levels.

    Two kernels run the levels: dist0 picks the population's layout once
    per flow, and _mc_level runs the kernel of that layout.  Both draw
    the parents and the syndrome uniforms from the same streams
    (_level_draws), and pick the syndrome by counting the cumulative
    syndrome weights under the uniform.

    The one-sector kernel (_sector_rows) runs a dist0 with no X or Y
    weight, such as one_type_dist's: each individual is then one
    post-recovery flip probability q, and the mean infidelity is the
    mean of q.  Per individual it forms 8 character products of 1 - 2q
    over the words of the check-row span and 8 over those words shifted
    by the logical word, transforms each set to the 8 syndrome weights
    and parity splits, and keeps the lighter parity of the drawn
    syndrome.  It is elementwise throughout, and level 1 runs as every
    other level does.

    The two-sector kernel (_level_rows) runs every other dist0, with a
    class row over (I, X, Y, Z) per individual, in row blocks of 128
    individuals.  Each block's character product ([128, 256]) and its
    cumulative syndrome weights ([128, 64], one matmul against the
    cumulative transform, whose entries are exact) stay in cache from
    the product through the syndrome draw to the drawn syndrome's class
    row, and the buffers are reused from block to block.  That row has
    the bits of the same row of the full decomposition (decompose_713 in
    tests/test_codes.py).  Recovery is then applied to the chosen rows
    of the whole level at once.  Level 1, where every individual is
    dist0, builds one row's product and the class rows of all 64
    syndromes in-process (_mc_first_level).  Results do not depend on
    the block size; the BLAS layouts that keep them so are listed in
    codes.py's drawn-syndrome section.

    A level of at least 2 * _WORKER_ROWS rows, from level 2 on for
    the two-sector kernel and at every level for the one-sector one,
    runs on worker processes, one per usable CPU (os.sched_getaffinity),
    each given an even share of rows in one range; the parent waits for
    their rows.  The flow (_mc_flow) picks that split once, from the
    running pool.  Each worker draws the level's (seed, level) stream
    itself and computes its rows exactly as one process would, so
    results are bit-identical however the level is split.  The first
    concat_threshold_mc of a process starts the workers (0.2-0.45 s,
    about 46.5 MB each) and they serve every verdict after it; a lone
    mc_verdict starts none.

    Raises ValueError unless population and levels are integers >= 1 and
    seed one >= 0.
    """

    __slots__ = ()

    def _check(self):
        _check_count("population", self.population, 1)
        _check_count("levels", self.levels, 1)
        _check_count("seed", self.seed, 0)


#: individuals per block of a population level: the character product
#: and one qubit's character sums ([block, 256] doubles, 256 KiB each) stay
#: in a core's L2.  On a 2-core Xeon with 2 MiB of L2 a core, a 5000-row
#: knill level on one BLAS thread took 7.7 ms in blocks of 128 rows, and
#: 8.3, 8.7 and 12.5 ms in blocks of 192, 256 and 512
_BLOCK_ROWS = 128

#: fewest rows of a level worth handing to a worker process: on 2 cores,
#: two workers took a 4096-row level in about the time of one process,
#: and a 6144-row level in 25-35% less
_WORKER_ROWS = 12 * 256


def _worker_count(pop: int) -> int:
    """Worker processes for a level of pop individuals: one per usable
    CPU, as long as the level has _WORKER_ROWS rows for each, and none
    (the level runs in-process) when that leaves fewer than two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, pop // _WORKER_ROWS)
    return workers if workers >= 2 else 0


def _running_workers():
    """The worker pool a solve started in this process, or None.  Only
    a solve imports _workers, so a lone verdict starts no process."""
    workers = sys.modules.get(__package__ + "._workers")
    return workers.running() if workers is not None else None


@lru_cache(maxsize=McConfig().levels)
def _level_draws(pop: int, seed: int, level: int):
    """Parent indices [pop, 7] and syndrome uniforms [pop] of a level,
    drawn in that order from the (seed, level) stream; read-only and
    cached, as every probe draws the same (0.64 MB a level at 10^4).
    The cache holds every level of a flow at the default McConfig.levels,
    so that a probe past half of them does not evict the draws the next
    probe reads first.

    The resampling is systematic rather than multinomial: column j of
    the parents is a permutation of the population, so each individual
    is a parent exactly 7 times, and the uniforms are stratified, one in
    each [k/pop, (k+1)/pop), in permuted order.  The columns are filled
    one permutation at a time, so the seven are never held at once."""
    rng = np.random.default_rng((seed, level))
    idx = np.empty((pop, 7), np.int64)
    for j in range(7):
        idx[:, j] = rng.permutation(pop)
    u = (rng.permutation(pop) + rng.random()) / pop
    idx.flags.writeable = u.flags.writeable = False
    return idx, u


def _level_rows(popn: np.ndarray, seed: int, level: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of a level of the population dynamics: each
    individual is rebuilt from seven parents drawn from popn.  Per block,
    its syndrome is drawn from the block's cumulative syndrome weights
    and only that syndrome's class row is built; recovery is applied to
    those rows for the whole range at once.  A row's bits do not depend
    on the block around it, so the range may start anywhere."""
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
    return recover_713(chosen)


def _sector_rows(popn: np.ndarray, seed: int, level: int, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of a level of the one-sector population dynamics,
    where popn [pop] holds each individual's post-recovery flip
    probability: each individual is rebuilt from seven parents drawn from
    popn, its syndrome is drawn by the uniform from the running sums of
    their syndrome weights (_drawn_syndromes, as _level_rows draws), and
    its flip probability is that syndrome's _sector_recovered.  Every
    step is elementwise, so a row's bits do not depend on the range."""
    idx, u = _level_draws(popn.shape[0], seed, level)
    # [7, rows]: the children's 1 - 2q, one row per qubit
    weights, splits = _sector_weights(1.0 - 2.0 * np.take(popn, idx[start:stop].T))
    # np.cumsum's sums, a row at a time: faster than np.cumsum on axis 0
    cum = weights.copy()
    for k in range(1, 8):
        cum[k] += cum[k - 1]
    syndromes = _drawn_syndromes(cum.T, u[start:stop])
    cols = np.arange(stop - start)
    return _sector_recovered(weights[syndromes, cols], splits[syndromes, cols])


def _level_ranges(pop: int, parts: int):
    """parts contiguous (start, stop) ranges covering a population of
    pop, as even in rows as they can be."""
    edges = [pop * i // parts for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _mc_level(popn: np.ndarray, config: McConfig, level: int, pool=None, parts: int = 1) -> np.ndarray:
    """One level of the population dynamics on the kernel that popn's
    layout names: _sector_rows on a 1-D population of flip probabilities,
    _level_rows on a [pop, 4] one of class rows.  Given a worker pool and
    parts > 1, the level is split into `parts` even ranges of rows, one
    per worker, and the parent waits for their rows."""
    rows = _sector_rows if popn.ndim == 1 else _level_rows
    pop = popn.shape[0]
    if pool is None or parts < 2:
        return rows(popn, config.seed, level, 0, pop)
    calls = [(popn, config.seed, level, a, b) for a, b in _level_ranges(pop, parts)]
    return np.concatenate(pool.map(rows, calls))


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
    return recover_713(_drawn_class_rows(qh, np.arange(64), buffers))[syndromes]


def _mc_flow(dist0: np.ndarray, config: McConfig):
    """The population and its mean infidelity after each level of the
    flow from dist0, for config.levels levels.  With no X or Y weight in
    dist0 (dist0[1] == dist0[2] == 0.0), the population is one
    post-recovery flip probability per individual, started at dist0[3];
    otherwise it is one class row per individual, and level 1 is
    _mc_first_level.  _mc_level runs every other level on the kernel of
    that layout, split over the running worker pool in as many ranges as
    _worker_count gives the population and the pool has workers."""
    pool = _running_workers()
    parts = min(_worker_count(config.population), pool.size) if pool is not None else 1
    # None until the two-sector level 1 builds the class rows
    popn = np.full(config.population, dist0[3]) if dist0[1] == dist0[2] == 0.0 else None
    for level in range(1, config.levels + 1):
        if popn is None:
            popn = _mc_first_level(dist0, config)
        else:
            popn = _mc_level(popn, config, level, pool, parts)
        yield popn, popn.mean() if popn.ndim == 1 else 1.0 - popn[:, 0].mean()


def _flow_verdict(infidelities):
    """(verdict, level) of a flow from its mean infidelity after each
    level, read lazily: 'below' at the first level under
    BELOW_INFIDELITY, 'above' at the first past ABOVE_INFIDELITY, and
    'inconclusive' at the last level when it reaches neither."""
    level = 0
    for level, infidelity in enumerate(infidelities, 1):
        if infidelity < BELOW_INFIDELITY:
            return "below", level
        if infidelity > ABOVE_INFIDELITY:
            return "above", level
    return "inconclusive", level


def _escape_gap(verdict: str, infidelities) -> float:
    """Signed gap of a flow for bisect, from its verdict and its mean
    infidelity I_j after each level it ran: -2^-E below and +2^-E above
    (base _ESCAPE_GROWTH), where E is the escape level, the fractional
    level at which x_j = |ln(I_j / I_1)| first passes ln(_ESCAPE_BAND),
    interpolated linearly in x between the levels on either side; a flow
    that settles before it strays that far escapes at its last level.  An
    inconclusive flow, or one with no level (a dist_fn breakdown), has the
    gap +inf, a side and no size."""
    if verdict == "inconclusive" or not infidelities:
        return math.inf
    band = math.log(_ESCAPE_BAND)
    escape, x_prev = len(infidelities), 0.0
    for level, infidelity in enumerate(infidelities[1:], 2):
        ratio = infidelity / infidelities[0]
        # a settled last level can read 0 or round below it
        x = abs(math.log(ratio)) if ratio > 0 else math.inf
        if x > band:
            escape = level - 1 + (band - x_prev) / (x - x_prev)
            break
        x_prev = x
    return (-1.0 if verdict == "below" else 1.0) * _ESCAPE_GROWTH**-escape


def mc_verdict(dist0, config: McConfig = McConfig(), trajectory: list = None):
    """Verdict ('below', 'above' or 'inconclusive', level) for the
    concatenation flow started from error distribution dist0.

    The verdict names the attractor the flow reaches.  Below threshold:
    the population-mean infidelity drops under BELOW_INFIDELITY within
    the level budget.  Above: the mean infidelity passes ABOVE_INFIDELITY,
    on the way to a randomised sector.  A flow that does neither within
    config.levels levels is inconclusive.  _mc_flow runs the flow:
    dist0's layout picks the kernel (see McConfig), and the levels
    split over the worker processes of a solve (concat_threshold_mc) when
    one has started them in this process.  Given a list as trajectory,
    the mean infidelity after each level run is appended to it.

    dist0 must be a length-4 vector of finite, non-negative entries that
    sum to 1 within pauli.SUM_TOL, or ValueError is raised.
    """
    read = [] if trajectory is None else trajectory
    flow = _mc_flow(_check_distribution("dist0", dist0), config)
    # list.append returns None, so each infidelity passes on as it is read
    return _flow_verdict(read.append(infidelity) or infidelity for _, infidelity in flow)


def _mc_probe(dist_fn, p: float, config: McConfig):
    """(verdict, level, gap) of the flow from dist_fn(p): mc_verdict's
    pair and the flow's _escape_gap.  Where that distribution breaks down
    (its post-selection fixed point keeps nothing, far above threshold),
    it is ('above', 0, +inf)."""
    try:
        dist0 = dist_fn(p)
    except NoConvergenceError:
        return "above", 0, math.inf
    trajectory = []
    verdict, level = mc_verdict(dist0, config, trajectory)
    return verdict, level, _escape_gap(verdict, trajectory)


def mc_verdict_at(dist_fn, p: float, config: McConfig = McConfig()):
    """mc_verdict of the flow from the level-0 distribution dist_fn(p).

    Where that distribution breaks down (its post-selection fixed point
    keeps nothing, far above threshold), the verdict is ('above', 0),
    just as teleport_entropy makes the entropy infinite there.
    """
    verdict, level, _ = _mc_probe(dist_fn, p, config)
    return verdict, level


def concat_threshold_mc(
    dist_fn,
    lo: float,
    hi: float,
    config: McConfig = McConfig(),
    tol: float = 2e-4,
) -> float:
    """Bisect the population-dynamics verdict between lo (below) and hi
    (above).  dist_fn maps the error rate to the level-0 distribution.
    An inconclusive verdict, a flow that settles at neither bound, counts
    as above.  Raises ValueError unless lo < hi and tol > 0, before any
    worker starts or any verdict runs.

    Each probe's gap is its verdict's side scaled by the flow's escape
    level (_escape_gap), and bisect gets the gaps of the two bracket
    checks as well, so it settles most midpoints from a regula falsi
    estimate.  While the verdict is monotone in p, every midpoint is
    decided as plain bisection of the verdict decides it, so the estimate
    has the same bits; at the default McConfig the solves of
    psthresh.cli.TARGETS run over a third fewer levels.

    The first solve in a process whose population is large enough to
    share starts the worker processes (see McConfig) that run the levels
    of every verdict after it, as many as its population shares; they are
    closed at interpreter exit.
    """
    _check_bracket(lo, hi, tol)
    workers = _worker_count(config.population)
    if workers:
        from . import _workers

        _workers.start(workers)

    def gap(p):
        return _mc_probe(dist_fn, p, config)[2]

    end_gaps = gap(lo), gap(hi)
    if end_gaps[0] > 0:
        raise BracketError("population does not converge at lo=%g" % lo)
    if end_gaps[1] < 0:
        raise BracketError("population still converges at hi=%g" % hi)
    return bisect(gap, lo, hi, tol, end_gaps)


def mc_threshold_error_bar(
    dist_fn,
    lo: float,
    hi: float,
    config: McConfig = McConfig(),
    n_seeds: int = 10,
    tol: float = None,
):
    """Mean and sample standard deviation of the Monte Carlo threshold
    over n_seeds independent seeds (at least 10 for a meaningful bar),
    plus the individual estimates.  Each seed is a concat_threshold_mc
    solve, to tol if given, else to that solve's default tolerance, so a
    bracket that fails for any seed raises BracketError.  Raises
    ValueError, before any verdict, unless n_seeds is an integer >= 2,
    lo < hi and tol, if given, > 0."""
    _check_count("n_seeds", n_seeds, 2)
    solve = {} if tol is None else {"tol": tol}
    estimates = [
        concat_threshold_mc(dist_fn, lo, hi, config._replace(seed=config.seed + i), **solve)
        for i in range(n_seeds)
    ]
    arr = np.asarray(estimates)
    return float(arr.mean()), float(arr.std(ddof=1)), estimates


def one_type_dist(p: float) -> np.ndarray:
    """Level-0 distribution of the single-type channel (0, 0, p).
    Raises RateError unless 0 <= p <= 1."""
    _check_prob("p", p)
    return np.array([1.0 - p, 0.0, 0.0, p])


def three_type_dist(p: float) -> np.ndarray:
    """Level-0 distribution of the symmetric three-type channel (p, p, p):
    X, Y and Z each at rate p.  Raises RateError unless 0 <= p <= 1/3."""
    p = float(p)
    if not 0.0 <= p <= 1.0 / 3.0:
        raise RateError("p must be in [0, 1/3], got %g" % p)
    return np.array([1.0 - 3.0 * p, p, p, p])


def model_level0(family):
    """Level-0 distribution family: the teleported error distribution at
    the model's post-selection fixed point, as a function of rate."""
    fam = _resolve_family(family)

    def dist_fn(p):
        return model_teleport_output(fam(p))

    return dist_fn


# ---------------------------------------------------------------------------
# crash probabilities


def forward_combined_diagonal(pf: float) -> float:
    """Sector diagonal of the teleported error for forward noise at rate
    pf, from the decoupled fixed point: x_g**3 f**2.  Raises RateError
    unless 0 <= pf <= 1, and NoConvergenceError at pf = 1 (division by zero)."""
    _check_prob("pf", pf)
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
    [1e-4, p_baseline].  Raises ValueError unless delta >= 0 and
    1e-4 < p_baseline <= 1 (NaN included); NoConvergenceError at p_baseline = 1."""
    if not delta >= 0:
        raise ValueError("the crash margin delta must be non-negative, got %r" % delta)
    lo = 1e-4
    if not lo < p_baseline <= 1.0:
        raise ValueError("p_baseline must be in (%g, 1], got %r" % (lo, p_baseline))
    base = poly(forward_combined_diagonal(p_baseline))

    def margin(p):
        return (poly(forward_combined_diagonal(p)) - base) / 2.0

    if margin(lo) < delta:
        raise BracketError("crash margin never reaches delta above lo=%g" % lo)
    return bisect(lambda p: delta - margin(p), lo, p_baseline, tol)


# ---------------------------------------------------------------------------
# fixed-fidelity points (where one level of encoding stops helping)


#: step budget of the forward class recursion (174 suffice on pf = k / 1000, k <= 500)
_FORWARD_CLASS_STEPS = 100_000


def _forward_class_state(pf: float):
    """Fixed point of the class-level recursion for forward noise:
    good and bad ancilla class distributions and the gate class
    distribution.  Raises NoConvergenceError after _FORWARD_CLASS_STEPS steps."""
    gate = distance_classes_from_x(1.0 - 2.0 * pf)
    good = [1.0, 0.0, 0.0, 0.0]
    for _ in range(_FORWARD_CLASS_STEPS):
        bad = combine_classes(combine_classes(good, good), gate)
        _, good2 = postselect_classes(bad, combine_classes(bad, gate))
        delta = max(abs(a - b) for a, b in zip(good, good2))
        good = good2
        if delta < 1e-15:
            return good, combine_classes(combine_classes(good, good), gate), gate
    raise NoConvergenceError("class recursion: no fixed point within %d steps" % _FORWARD_CLASS_STEPS)


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
    ('2317', 'forward').  Returns (rate, fidelity).  The brackets are
    constants over which each gap is known to change sign, so they are
    not checked.
    """
    tol = 1e-9
    if code == "713" and family in ("knill", "depolarizing"):
        fam = model_family(family)

        def gap(p):
            dist = model_teleport_output(fam(p))
            return float(dist[0]) - first_level_fidelity(dist)

        p = bisect(gap, 0.02, 0.065, tol)
        return p, float(model_teleport_output(fam(p))[0])

    if code == "713" and family == "forward":
        # per-sector class recursion; both sectors are identical, so the
        # joint fidelity is the square of the sector fidelity
        def gap(pf):
            return (1.0 + forward_combined_diagonal(pf)) / 2.0 - _forward_class_level1(pf)

        pf = bisect(gap, 0.02, 0.04, tol)
        return pf, ((1.0 + forward_combined_diagonal(pf)) / 2.0) ** 2

    if code == "2317" and family == "forward":
        poly = crash_poly_2317()
        # the sector diagonal is unchanged by one level exactly when
        # f23(c) = c; find that c, then the rate that produces it
        c_star = bisect(lambda c: poly(c) - c, 0.5, 0.999999, tol)
        pf = bisect(lambda p: c_star - forward_combined_diagonal(p), 1e-4, 0.2, tol)
        return pf, ((1.0 + c_star) / 2.0) ** 2

    raise ValueError("unsupported fixed-fidelity pair (%r, %r)" % (code, family))


# ---------------------------------------------------------------------------
# overhead estimate


def overhead_success(p: float, n: int) -> float:
    """Probability (1 - p)**n that n independently post-selected steps
    all succeed.  Raises ValueError unless 0 <= p <= 1 and n is an
    integer >= 0."""
    _check_prob("p", p)
    _check_count("n", n, 0)
    return (1.0 - p) ** n
