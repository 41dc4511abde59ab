"""Tests for the purification step and its fixed point."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psthresh import postselect
from psthresh.noise import (
    Depolarizing,
    Forward,
    diagonal_q,
    knill,
    measurement_m,
)
from psthresh.pauli import (
    _H4,
    LABEL_INDEX,
    VALIDITY_TOL,
    commutation_signs,
    dist_to_channel,
)
from psthresh.postselect import (
    FixedPointResult,
    NoConvergenceError,
    _accept_q,
    _iterate,
    fixed_point,
    indep_fixed_point,
    model_fixed_point,
    model_teleport_output,
    teleport_output,
)
from psthresh.threshold import hashing_threshold

from pauli_reference import measure_traceout, total_cnot_noise


def _step(c, q, m):
    """One purification step from the channel c = (x, y, z), taken by
    the solver's own loop: tol = inf, above every finite residual,
    stops it after the first step."""
    res = _iterate(_accept_q(q), float(m), *c, math.inf, 1)
    assert res.iterations == 1
    return tuple(res.channel.tolist())


def test_post_step_noiseless_is_identity_on_perfect_channel():
    assert _step((1.0, 1.0, 1.0), np.ones(16), 1.0) == (1.0, 1.0, 1.0)


def test_fixed_point_is_stationary():
    model = Depolarizing(0.05)
    q = diagonal_q(model)
    res = model_fixed_point(model)
    assert res.residual < 1e-13
    step = _step(res.channel.tolist(), q, measurement_m(model))
    np.testing.assert_allclose(step, res.channel, atol=1e-12)


def test_fixed_point_forward_reference_region():
    # near the breakdown of hashing for forward noise the pair settles
    # with a strongly protected x component and a weaker z component
    res = model_fixed_point(Forward(0.0481816))
    x, y, z = res.channel
    assert x == pytest.approx(0.9848239, abs=2e-5)
    assert z == pytest.approx(0.8764176, abs=2e-5)
    assert y == pytest.approx(x * z, abs=1e-12)


def test_indep_route_matches_full_iteration():
    pf = 0.03
    full = fixed_point(diagonal_q(Forward(pf)))
    ind = indep_fixed_point(1 - 2 * pf)
    assert ind.x_g == pytest.approx(full.channel[0], abs=1e-12)
    assert ind.x_b == pytest.approx(full.channel[2], abs=1e-12)


def test_indep_fixed_point_self_consistent():
    f = 0.92
    ind = indep_fixed_point(f)
    assert ind.x_g == pytest.approx(
        (ind.x_b + ind.x_b * f) / (1 + ind.x_b**2 * f), abs=1e-12
    )
    assert ind.x_b == pytest.approx(ind.x_g**2 * f, abs=1e-12)


@pytest.mark.parametrize("f", [-1.5, 1.5, math.nan])
def test_indep_fixed_point_rejects_f_outside_unit_range(f):
    with pytest.raises(ValueError, match=r"f must be in \[-1, 1\]"):
        indep_fixed_point(f)


def test_teleport_output_noiseless():
    np.testing.assert_allclose(
        teleport_output(np.ones(3), np.ones(16)), [1.0, 0.0, 0.0, 0.0], atol=1e-15
    )


@given(st.floats(min_value=0.0, max_value=0.06))
def test_teleport_output_is_distribution(p):
    model = Depolarizing(p)
    out = model_teleport_output(model)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    # depolarizing noise cannot tell X from Z on the teleported qubit
    assert out[1] == pytest.approx(out[3], abs=1e-12)


def test_model_teleport_output_matches_manual():
    model = knill(0.05)
    res = model_fixed_point(model)
    manual = teleport_output(res.channel, diagonal_q(model), m=measurement_m(model))
    np.testing.assert_allclose(model_teleport_output(model), manual, atol=1e-14)


def test_fixed_point_iteration_budget(monkeypatch):
    monkeypatch.setattr(postselect, "_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError, match="no fixed point within 1 iterations"):
        fixed_point(diagonal_q(Depolarizing(0.05)))


def test_fixed_point_breakdown():
    # hostile diagonal: acceptance probability collapses immediately
    q = np.full(16, -1.0)
    q[0] = 1.0
    with pytest.raises(NoConvergenceError):
        fixed_point(q)
    assert _assert_same_as_reference(q) == (
        NoConvergenceError,
        "post-selection broke down after 0 iterations: degenerate acceptance weight 0",
    )


def _reference_fixed_point(q, tol=1e-14, max_iter=10**6, m=1.0):
    """fixed_point as the numpy loop over the full 16-entry composition
    measure_traceout(total_cnot_noise(q, c, c))."""
    c = np.ones(3)
    for i in range(1, max_iter + 1):
        try:
            accept, _ = measure_traceout(total_cnot_noise(q, c, c), m_noise=m)
        except ValueError as exc:
            raise NoConvergenceError(
                "post-selection broke down after %d iterations: %s" % (i - 1, exc)
            ) from exc
        x, y, z = accept.channel
        nxt = np.array([z, y, x])
        residual = float(np.max(np.abs(nxt - c)))
        c = nxt
        if residual < tol:
            return FixedPointResult(channel=c, iterations=i, residual=residual)
        if not np.all(np.isfinite(c)):
            raise NoConvergenceError("post-selection diverged after %d iterations" % i)
    raise NoConvergenceError(
        "no fixed point within %d iterations (residual %.3g)" % (max_iter, residual)
    )


def _outcome(solve, q, **kwargs):
    """(channel bytes, iterations, residual) of a solve, or the type and
    message of what it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = solve(q, **kwargs)
    except (NoConvergenceError, ValueError) as exc:
        return type(exc), str(exc)
    assert out.channel.dtype == np.float64 and out.channel.shape == (3,)
    return out.channel.tobytes(), out.iterations, out.residual


def _assert_same_as_reference(q, m=1.0):
    """fixed_point against the reference at postselect's tolerance and
    iteration budget, which a test may monkeypatch."""
    got = _outcome(fixed_point, q, m=m)
    assert got == _outcome(_reference_fixed_point, q, tol=postselect._TOL, max_iter=postselect._MAX_ITER, m=m)
    return got


# hashing thresholds: depolarizing r = 0, 0.5, 1 (knill) and forward
_THRESHOLDS = (
    ("r=0", lambda p: Depolarizing(p, 0.0), 0.0827511),
    ("r=0.5", lambda p: Depolarizing(p, 0.5), 0.0752823),
    ("r=1", knill, 0.0690240),
    ("forward", Forward, 0.0481819),
)


@pytest.mark.parametrize("scale", [0.01, 0.1, 0.5, 0.99, 1.01, 1.5, 3.0, 8.0])
@pytest.mark.parametrize(
    "family,threshold", [t[1:] for t in _THRESHOLDS], ids=[t[0] for t in _THRESHOLDS]
)
def test_fixed_point_matches_reference(monkeypatch, family, threshold, scale):
    model = family(min(scale * threshold, 1.0))
    q, m = diagonal_q(model), measurement_m(model)
    # the default tolerance last, which the budget check below runs at
    for tol in (1e-9, 1e-14):
        monkeypatch.setattr(postselect, "_TOL", tol)
        _assert_same_as_reference(q, m)
    # the iteration budget runs out on the same residual
    monkeypatch.setattr(postselect, "_MAX_ITER", 3)
    got = _assert_same_as_reference(q, m)
    assert got[0] is NoConvergenceError and "within 3 iterations" in got[1]


def test_fixed_point_matches_reference_on_random_q(monkeypatch):
    # unphysical diagonals break the iteration down at varied depths
    monkeypatch.setattr(postselect, "_TOL", 1e-12)
    monkeypatch.setattr(postselect, "_MAX_ITER", 500)
    rng = np.random.default_rng(11)
    raised = 0
    for k in range(300):
        q = rng.uniform(-1.0, 1.0, 16)
        q[0] = 1.0
        if k % 3 == 0:
            q = np.sign(q) * np.abs(q) ** 0.05
        m = rng.uniform(-1.0, 1.0) if k % 2 else 1.0
        got = _assert_same_as_reference(q, m)
        raised += got[0] is NoConvergenceError
    assert 50 < raised < 250


def _random_channel(rng):
    return dist_to_channel(rng.dirichlet(np.full(4, 0.3)))


def _random_q_m(rng, k):
    """Gate noise Q and measurement scalar m of a random model, or of a
    random two-qubit Pauli distribution with a random m."""
    p = rng.uniform(0.0, 0.3)
    if k % 3 == 0:
        model = Depolarizing(p, rng.uniform(0.0, 1.0))
    elif k % 3 == 1:
        model = Forward(p)
    else:
        return commutation_signs() @ rng.dirichlet(np.ones(16)), rng.uniform(0.0, 1.0)
    return diagonal_q(model), measurement_m(model)


def test_post_step_matches_traceout_composition():
    rng = np.random.default_rng(5)
    for k in range(300):
        c = _random_channel(rng)
        q, m = _random_q_m(rng, k)
        accept, _ = measure_traceout(total_cnot_noise(q, c, c), m_noise=m)
        x, y, z = accept.channel
        assert _step(c.tolist(), q, m) == (z, y, x)


def _crafted_q(**entries):
    q = np.ones(16)
    for lab, value in entries.items():
        q[LABEL_INDEX[lab]] = value
    return q


def test_fixed_point_raises_on_negative_rejection():
    # acceptance 0.5 (1 + 1.5) > 0 but rejection 0.5 (1 - 1.5) < 0
    q = _crafted_q(IZ=1.5)
    assert 0.5 * (1.0 - 1.5) < -VALIDITY_TOL
    got = _assert_same_as_reference(q)
    assert got == (
        NoConvergenceError,
        "post-selection broke down after 0 iterations: negative rejection weight -0.25",
    )


def test_fixed_point_raises_on_non_finite_iterate():
    # finite entries whose sum overflows: the first iterate is infinite
    q = _crafted_q(XI=1e308, XZ=1e308)
    got = _assert_same_as_reference(q)
    assert got == (NoConvergenceError, "post-selection diverged after 1 iterations")


@pytest.mark.parametrize(
    "family",
    ["knill", "forward", lambda p: Depolarizing(p, 0.5)],
    ids=["knill", "forward", "r=0.5"],
)
def test_hashing_threshold_matches_reference_solver(monkeypatch, family):
    # model_teleport_output reaches fixed_point by its module-global name
    def counted(solve):
        calls = []

        def wrapper(q, **kwargs):
            calls.append(q)
            return solve(q, **kwargs)

        monkeypatch.setattr(postselect, "fixed_point", wrapper)
        return hashing_threshold(family, tol=1e-9), len(calls)

    fast, fast_calls = counted(postselect.fixed_point)
    want, reference_calls = counted(_reference_fixed_point)
    assert fast == want
    # the same bits give the same probes; the bracket checks and the
    # guided bisection make at least eight
    assert fast_calls == reference_calls >= 8


def _reference_teleport_output(channel, q, m=1.0):
    """teleport_output as the numpy composition 0.25 * H4 @ coeffs over
    numpy scalars."""
    x, y, z = np.asarray(channel, dtype=float)
    coeffs = np.array(
        [
            1.0,
            m * x * z * q[LABEL_INDEX["XI"]],
            m * m * y * y * q[LABEL_INDEX["XZ"]],
            m * x * z * q[LABEL_INDEX["IZ"]],
        ]
    )
    p = 0.25 * _H4 @ coeffs
    if np.any(p < -1e-12):
        raise ValueError("teleported distribution has negative weight: %r" % (p,))
    return np.clip(p, 0.0, None)


def _teleport_outcome(solve, c, q, m):
    try:
        out = solve(c, q, m=m)
    except ValueError as exc:
        return str(exc)
    assert out.dtype == np.float64 and out.shape == (4,)
    return out.tobytes()


def test_teleport_output_matches_reference():
    rng = np.random.default_rng(17)
    for k in range(300):
        c = _random_channel(rng)
        q, m = _random_q_m(rng, k)
        if k % 4 == 0:
            m = np.float64(m)
        got = _teleport_outcome(teleport_output, c, q, m)
        assert got == _teleport_outcome(_reference_teleport_output, c, q, m)
    # fixed points of the models themselves, and a negative weight
    cases = [(fixed_point(q, m=m).channel, q, m) for q, m in (
        (diagonal_q(model), measurement_m(model))
        for model in (knill(0.05), Forward(0.04), Depolarizing(0.07, 0.3))
    )]
    cases.append((np.ones(3), _crafted_q(XI=2.0, IZ=-1.0), 1.0))
    for c, q, m in cases:
        got = _teleport_outcome(teleport_output, c, q, m)
        assert got == _teleport_outcome(_reference_teleport_output, c, q, m)
    assert got.startswith("teleported distribution has negative weight")


def test_teleport_output_keeps_numpy_nan_semantics():
    # a NaN entry stays NaN, and a negative entry is caught wherever a
    # NaN sits before it: q_XI = inf and q_IZ = -inf give
    # p = [nan, inf, nan, -inf]
    for c, q in (
        ([math.nan, 1.0, 1.0], np.ones(16)),
        ([1.0, 1.0, 1.0], _crafted_q(XI=math.inf, IZ=-math.inf)),
    ):
        with np.errstate(invalid="ignore"):
            want = _teleport_outcome(_reference_teleport_output, c, q, 1.0)
        assert _teleport_outcome(teleport_output, c, q, 1.0) == want
    assert want.startswith("teleported distribution has negative weight") and "-inf" in want
    assert np.isnan(teleport_output([math.nan, 1.0, 1.0], np.ones(16))).all()
