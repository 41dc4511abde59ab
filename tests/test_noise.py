"""Tests for the CNOT noise models.

The diagonal Q entries are always produced by the signed sum over the
explicit 16-outcome distribution; the closed forms checked here are the
independent route.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psthresh.noise import (
    Depolarizing,
    Forward,
    RateError,
    diagonal_q,
    knill,
    measurement_m,
    model_family,
    two_qubit_dist,
)
from psthresh.pauli import LABEL_INDEX, TWO_QUBIT_LABELS

from pauli_reference import pauli_commutes

probs = st.floats(min_value=0.0, max_value=1.0)


@given(probs.filter(lambda p: p <= 0.5))
def test_distributions_normalized(pf):
    for model in (Depolarizing(pf), Forward(pf)):
        d = two_qubit_dist(model)
        assert d.min() >= 0
        assert d.sum() == pytest.approx(1.0)


def test_depolarizing_q_closed_form():
    q = diagonal_q(Depolarizing(0.05))
    assert q[0] == pytest.approx(1.0)
    np.testing.assert_allclose(q[1:], 1 - 16 * 0.05 / 15)


def test_forward_q_closed_form():
    pf = 0.037
    f = 1 - 2 * pf
    q = diagonal_q(Forward(pf))
    want = {"XI": f, "IZ": f, "YI": f, "ZZ": f, "XZ": f * f, "YZ": f * f, "ZI": 1.0}
    for lab, value in want.items():
        assert q[LABEL_INDEX[lab]] == pytest.approx(value, abs=1e-14), lab


def test_forward_is_independent_limit():
    # forward noise is two independent error bits at rate pf, a source
    # phase flip and a destination bit flip, with no backward errors
    pf = 0.042
    x_bits = {"I": 0, "X": 1, "Y": 1, "Z": 0}
    z_bits = {"I": 0, "X": 0, "Y": 1, "Z": 1}

    def bit(hit, p):
        return p if hit else 1.0 - p

    want = [
        bit(x_bits[s], 0.0) * bit(z_bits[s], pf) * bit(x_bits[d], pf) * bit(z_bits[d], 0.0)
        for s, d in TWO_QUBIT_LABELS
    ]
    np.testing.assert_allclose(two_qubit_dist(Forward(pf)), want, atol=1e-15)


@given(probs.filter(lambda p: p <= 0.3))
def test_q_is_signed_sum(p):
    # independent route: Q_s = sum_t p_t (+-1 by commutation with s)
    model = Depolarizing(p, r=0.5)
    d = two_qubit_dist(model)
    q = diagonal_q(model)
    for i, s in enumerate(TWO_QUBIT_LABELS):
        direct = sum(
            (1.0 if pauli_commutes(t, s) else -1.0) * d[j]
            for j, t in enumerate(TWO_QUBIT_LABELS)
        )
        assert q[i] == pytest.approx(direct, abs=1e-12)


def test_knill_is_depolarizing_with_full_measurement():
    assert knill(0.069024) == Depolarizing(0.069024, r=1.0)
    assert measurement_m(knill(0.069024)) == pytest.approx(1 - 8 / 15 * 0.069024)
    assert measurement_m(Depolarizing(0.08)) == 1.0
    assert measurement_m(Forward(0.3)) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        Depolarizing(-0.1)
    with pytest.raises(RateError, match="r must be in"):
        Depolarizing(0.05, r=1.5)
    with pytest.raises(ValueError):
        Forward(1.2)
    with pytest.raises(TypeError):
        two_qubit_dist("depolarizing")
    for call, arg in ((two_qubit_dist, object()), (measurement_m, "x")):
        with pytest.raises(TypeError, match="unknown noise model"):
            call(arg)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Depolarizing(-0.1), "p must be in \\[0, 1\\], got -0.1"),
        (lambda: Depolarizing(p=0.05, r=1.5), "r must be in \\[0, 1\\], got 1.5"),
        (lambda: Depolarizing(0.05)._replace(p=2.0), "p must be in \\[0, 1\\], got 2"),
        (lambda: knill(0.05)._replace(r=float("nan")), "r must be in \\[0, 1\\], got nan"),
        (lambda: Depolarizing._make([0.05, -1.0]), "r must be in \\[0, 1\\], got -1"),
        (lambda: pickle.loads(pickle.dumps(tuple.__new__(Depolarizing, (0.05, 3.0)))), "r must be in"),
        (lambda: copy.copy(tuple.__new__(Depolarizing, (0.05, 3.0))), "r must be in"),
        (lambda: Forward(1.2), "pf must be in \\[0, 1\\], got 1.2"),
        (lambda: Forward(pf=-0.5), "pf must be in \\[0, 1\\], got -0.5"),
        (lambda: Forward(0.1)._replace(pf=1.5), "pf must be in \\[0, 1\\], got 1.5"),
        (lambda: pickle.loads(pickle.dumps(tuple.__new__(Forward, (7.0,)))), "pf must be in"),
        (lambda: copy.copy(tuple.__new__(Forward, (7.0,))), "pf must be in"),
    ],
    ids=[
        "depolarizing-positional", "depolarizing-keyword", "depolarizing-replace-p",
        "knill-replace-r", "depolarizing-make", "depolarizing-pickle", "depolarizing-copy",
        "forward-positional", "forward-keyword", "forward-replace", "forward-pickle",
        "forward-copy",
    ],
)
def test_every_construction_validates(make, message):
    # _replace, copying and unpickling build the record through the same
    # check as the constructor; a copy or pickle of a record that skipped
    # it fails
    with pytest.raises(RateError, match=message):
        make()


def test_records_repr_hash_and_round_trip():
    assert repr(knill(0.05)) == "Depolarizing(p=0.05, r=1.0)"
    assert repr(Depolarizing(0.1)) == "Depolarizing(p=0.1, r=0.0)"
    assert repr(Forward(0.02)) == "Forward(pf=0.02)"
    for model in (knill(0.05), Depolarizing(0.1, 0.5), Forward(0.02)):
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model and type(clone) is type(model)
        assert hash(clone) == hash(model) == hash(tuple(model))
    assert knill(0.05)._replace(r=0.0) == Depolarizing(0.05)
    assert knill(0.05) != Depolarizing(0.05)
    assert len({knill(0.05), Depolarizing(0.05, r=1.0), Depolarizing(0.05)}) == 2
    with pytest.raises(AttributeError):
        knill(0.05).p = 0.1
    for model in (Depolarizing(0.05), Forward(0.1)):
        assert not hasattr(model, "__dict__")
        assert copy.copy(model) == model and type(copy.copy(model)) is type(model)


def test_model_family():
    assert model_family("knill")(0.05) == Depolarizing(0.05, 1.0)
    assert model_family("depolarizing", r=0.25)(0.06) == Depolarizing(0.06, 0.25)
    assert model_family("forward")(0.04) == Forward(0.04)
    with pytest.raises(ValueError):
        model_family("independent")
