"""Tests for the Pauli channel algebra.

The conjugation table and the measured trace-out are checked against a
dense 16x16 superoperator oracle built from the actual CNOT unitary, so
the hand-coded component pairs are never the only source of truth.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psthresh.pauli import (
    TWO_QUBIT_LABELS,
    build_cnot_superoperator,
    channel_to_dist,
    cnot_conjugate,
    commutation_signs,
    dist_to_channel,
    measure_traceout,
    pauli_commutes,
    total_cnot_noise,
    traceout_crosscheck,
)

dists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
).filter(lambda v: sum(v) > 1e-9).map(lambda v: np.array(v) / sum(v))


def random_positive_channels(rng, n):
    """Channels of genuine Pauli distributions (so all branch weights
    behave)."""
    for _ in range(n):
        yield dist_to_channel(rng.dirichlet(np.ones(4)))


def test_commutation_signs_match_symplectic():
    signs = commutation_signs()
    for i, a in enumerate(TWO_QUBIT_LABELS):
        for j, b in enumerate(TWO_QUBIT_LABELS):
            assert signs[i, j] == (1.0 if pauli_commutes(a, b) else -1.0)
    assert (signs == signs.T).all()
    assert (signs[0] == 1.0).all()


def test_pauli_commutes_basics():
    assert pauli_commutes("X", "X")
    assert not pauli_commutes("X", "Z")
    assert pauli_commutes("XX", "ZZ")
    assert not pauli_commutes("XI", "ZI")
    assert pauli_commutes("XXXXXXX", "IIIXXXX")
    with pytest.raises(ValueError):
        pauli_commutes("XX", "X")


@given(dists)
def test_dist_channel_round_trip(d):
    np.testing.assert_allclose(channel_to_dist(dist_to_channel(d)), d, atol=1e-12)


def test_dist_to_channel_rejects_junk():
    with pytest.raises(ValueError):
        dist_to_channel([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        dist_to_channel([0.3, 0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        channel_to_dist([1.0, 1.0, -1.0])


def test_cnot_conjugate_matches_superoperator():
    rng = np.random.default_rng(11)
    op = build_cnot_superoperator()
    for s, d in zip(random_positive_channels(rng, 25), random_positive_channels(rng, 25)):
        full_s = np.concatenate([[1.0], s])
        full_d = np.concatenate([[1.0], d])
        n = np.array(
            [
                full_s["IXYZ".index(lab[0])] * full_d["IXYZ".index(lab[1])]
                for lab in TWO_QUBIT_LABELS
            ]
        )
        # oracle: the diagonal of O diag(S x D) O with O the dense CNOT
        # conjugation superoperator
        want = np.diag(op @ np.diag(n) @ op)
        got = cnot_conjugate(s, d)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_cnot_conjugate_component_example():
    got = cnot_conjugate((0.9, 0.8, 0.7), (0.6, 0.5, 0.4))
    # IY picks up the source z and destination y components
    assert got[2] == pytest.approx(0.7 * 0.5)
    # XI maps to the product of source and destination x components
    assert got[4] == pytest.approx(0.9 * 0.6)
    assert got[0] == 1.0


def test_total_cnot_noise_scales_q():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.9, 1.0, size=16)
    q[0] = 1.0
    s = dist_to_channel([0.92, 0.03, 0.02, 0.03])
    d = dist_to_channel([0.9, 0.04, 0.03, 0.03])
    np.testing.assert_allclose(total_cnot_noise(q, s, d), q * cnot_conjugate(s, d))


def test_measure_traceout_noiseless():
    n = np.ones(16)
    accept, reject = measure_traceout(n)
    assert accept.weight == pytest.approx(1.0)
    np.testing.assert_allclose(accept.channel, [1.0, 1.0, 1.0])
    assert reject.weight == pytest.approx(0.0)


def test_measure_traceout_weights_and_crosscheck():
    rng = np.random.default_rng(7)
    for s, d in zip(random_positive_channels(rng, 10), random_positive_channels(rng, 10)):
        q = rng.uniform(0.85, 1.0, size=16)
        q[0] = 1.0
        n = total_cnot_noise(q, s, d)
        accept, reject = measure_traceout(n, m_noise=0.97)
        assert accept.weight + reject.weight == pytest.approx(1.0)
        assert 0 <= accept.weight <= 1
        assert np.abs(accept.channel).max() <= 1 + 1e-9


def test_traceout_crosscheck_small():
    rng = np.random.default_rng(13)
    worst = 0.0
    for s, d in zip(random_positive_channels(rng, 50), random_positive_channels(rng, 50)):
        q = rng.uniform(0.8, 1.0, size=16)
        q[0] = 1.0
        m = rng.uniform(0.9, 1.0)
        worst = max(worst, traceout_crosscheck(s, d, q, m_noise=m))
    assert worst < 1e-12
