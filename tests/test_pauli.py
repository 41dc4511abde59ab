"""Tests for the Pauli channel algebra, and for the reference chain of
the purification step and its dense oracle (tests/pauli_reference.py)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psthresh.pauli import (
    LABEL_INDEX,
    TWO_QUBIT_LABELS,
    channel_to_dist,
    commutation_signs,
    dist_to_channel,
)

from pauli_reference import (
    build_cnot_superoperator,
    cnot_conjugate,
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
    assert not signs.flags.writeable


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
    # a NaN gave the channel [-1, -1, 1] and four NaN probabilities
    with pytest.raises(ValueError):
        dist_to_channel([math.nan, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        channel_to_dist([math.nan, 1.0, 1.0])
    with pytest.raises(ValueError, match="expected a length-4 Pauli distribution"):
        dist_to_channel([1, 0, 0])


def test_cnot_superoperator_is_a_signed_permutation():
    op = build_cnot_superoperator()
    assert op.shape == (16, 16) and op.dtype == np.float64 and not op.flags.writeable
    # every entry exactly -1, 0 or +1, and no zero carries a sign bit
    assert set(op.ravel().tolist()) <= {-1.0, 0.0, 1.0}
    assert not np.signbit(op[op == 0.0]).any()
    assert ((op != 0).sum(axis=0) == 1).all() and ((op != 0).sum(axis=1) == 1).all()
    assert (op @ op == np.eye(16)).all()


def test_cnot_superoperator_fixed_and_swapped_labels():
    op = build_cnot_superoperator()
    for lab in ("II", "IX", "ZI", "ZX"):
        assert op[LABEL_INDEX[lab], LABEL_INDEX[lab]] == 1.0
    for a, b in (("XI", "XX"), ("IZ", "ZZ")):
        i, j = LABEL_INDEX[a], LABEL_INDEX[b]
        assert op[i, j] == op[j, i] == 1.0 and op[i, i] == op[j, j] == 0.0


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["s", "d", "q", "m_noise"])
def test_traceout_crosscheck_rejects_non_finite(arg, bad):
    # a NaN in s gave a deviation of 0.0, which reads as agreement
    args = {"s": [0.9, 0.9, 0.9], "d": [1.0, 1.0, 1.0], "q": np.ones(16), "m_noise": 1.0}
    if arg == "m_noise":
        args[arg] = bad
    else:
        args[arg] = np.array(args[arg], dtype=float)
        args[arg][1] = bad
    with pytest.raises(ValueError, match="finite"):
        traceout_crosscheck(**args)
