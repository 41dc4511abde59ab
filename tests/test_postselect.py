"""Tests for the purification step and its fixed point."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psthresh.noise import (
    Depolarizing,
    Forward,
    diagonal_q,
    knill,
    measurement_m,
)
from psthresh.pauli import (
    LABEL_INDEX,
    VALIDITY_TOL,
    commutation_signs,
    dist_to_channel,
    measure_traceout,
    total_cnot_noise,
)
from psthresh.postselect import (
    FixedPointResult,
    NoConvergenceError,
    _accept_q,
    _step,
    fixed_point,
    indep_fixed_point,
    model_fixed_point,
    model_teleport_output,
    teleport_output,
)


def test_post_step_noiseless_is_identity_on_perfect_channel():
    assert _step(1.0, 1.0, 1.0, _accept_q(np.ones(16)), 1.0) == (1.0, 1.0, 1.0)


def test_fixed_point_is_stationary():
    model = Depolarizing(0.05)
    q = diagonal_q(model)
    res = model_fixed_point(model)
    assert res.residual < 1e-13
    step = _step(*res.channel.tolist(), _accept_q(q), measurement_m(model))
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


def test_fixed_point_iteration_budget():
    with pytest.raises(NoConvergenceError):
        fixed_point(diagonal_q(Depolarizing(0.05)), max_iter=1)


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


def _assert_same_as_reference(q, **kwargs):
    got = _outcome(fixed_point, q, **kwargs)
    assert got == _outcome(_reference_fixed_point, q, **kwargs)
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
def test_fixed_point_matches_reference(family, threshold, scale):
    model = family(min(scale * threshold, 1.0))
    q, m = diagonal_q(model), measurement_m(model)
    for tol in (1e-14, 1e-9):
        _assert_same_as_reference(q, tol=tol, m=m)
    # the iteration budget runs out on the same residual
    got = _assert_same_as_reference(q, max_iter=3, m=m)
    assert got[0] is NoConvergenceError and "within 3 iterations" in got[1]


def test_fixed_point_matches_reference_on_random_q():
    # unphysical diagonals break the iteration down at varied depths
    rng = np.random.default_rng(11)
    raised = 0
    for k in range(300):
        q = rng.uniform(-1.0, 1.0, 16)
        q[0] = 1.0
        if k % 3 == 0:
            q = np.sign(q) * np.abs(q) ** 0.05
        m = rng.uniform(-1.0, 1.0) if k % 2 else 1.0
        got = _assert_same_as_reference(q, tol=1e-12, max_iter=500, m=m)
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
        assert _step(*c.tolist(), _accept_q(q), float(m)) == (z, y, x)


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
