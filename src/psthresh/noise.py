"""CNOT noise models: two-qubit Pauli error distributions, diagonal Q
entries, and the measurement-noise scalar m.

Three families are supported:

* ``Depolarizing(p, r)``: probability p/15 of each non-identity two-qubit
  Pauli error, plus measurement error probability (4/15) r p.
* ``knill(p)``: alias for Depolarizing(p, r=1).
* ``Forward(pf)``: independent probability pf of a phase flip on the
  source qubit and of a bit flip on the destination qubit; no backward
  errors and no measurement errors.
"""

from __future__ import annotations

from numbers import Integral
from typing import NamedTuple

import numpy as np

from .pauli import LABEL_INDEX, commutation_signs


class RateError(ValueError):
    """A model parameter (rate or fraction) lies outside [0, 1]."""


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise RateError("%s must be in [0, 1], got %g" % (name, value))
    return value


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))


class _Checked:
    """Base of a checked record R(_Checked, _RFields) over a NamedTuple
    _RFields: every construction of R, _make, _replace, copying and
    unpickling included, runs R._check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _DepolarizingFields(NamedTuple):
    p: float
    r: float = 0.0


class Depolarizing(_Checked, _DepolarizingFields):
    """Depolarizing CNOT noise with measurement-error fraction r; raises
    RateError unless p and r lie in [0, 1]."""

    __slots__ = ()

    def _check(self):
        _check_prob("p", self.p)
        _check_prob("r", self.r)


def knill(p: float) -> Depolarizing:
    """Depolarizing noise with the full measurement error p_m = (4/15) p."""
    return Depolarizing(p, r=1.0)


class _ForwardFields(NamedTuple):
    pf: float


class Forward(_Checked, _ForwardFields):
    """Forward-only CNOT noise at rate pf; no measurement errors.  Raises
    RateError unless pf lies in [0, 1]."""

    __slots__ = ()

    def _check(self):
        _check_prob("pf", self.pf)


def two_qubit_dist(model) -> np.ndarray:
    """Probability of each of the 16 two-qubit Pauli errors, in
    source-major label order."""
    if isinstance(model, Depolarizing):
        out = np.full(16, model.p / 15.0)
        out[0] = 1.0 - model.p
        return out
    if isinstance(model, Forward):
        pf = model.pf
        q = 1.0 - pf
        out = np.zeros(16)
        out[LABEL_INDEX["II"]] = q * q
        out[LABEL_INDEX["IX"]] = q * pf
        out[LABEL_INDEX["ZI"]] = pf * q
        out[LABEL_INDEX["ZX"]] = pf * pf
        return out
    raise TypeError("unknown noise model %r" % (model,))


def diagonal_q(model) -> np.ndarray:
    """Diagonal entries Q of the gate noise: the signed sum of the error
    distribution, Q_s = sum_t p_t sign(t, s) over commutation signs."""
    return commutation_signs() @ two_qubit_dist(model)


def measurement_m(model) -> float:
    """Measurement noise scalar m = 1 - 2 p_m for the model."""
    if isinstance(model, Depolarizing):
        return 1.0 - (8.0 / 15.0) * model.r * model.p
    if isinstance(model, Forward):
        return 1.0
    raise TypeError("unknown noise model %r" % (model,))


#: the model families the threshold solvers and the CLI take by name
SOLVER_FAMILIES = ("depolarizing", "knill", "forward")


def model_family(name: str, r: float = None):
    """Single-parameter constructor for a named model family, used by the
    threshold solvers: returns a callable p -> model."""
    name = name.lower()
    if name == "depolarizing":
        rr = 0.0 if r is None else float(r)
        return lambda p: Depolarizing(p, r=rr)
    if name == "knill":
        return knill
    if name == "forward":
        return Forward
    raise ValueError(
        "unknown model family %r (expected one of %s)"
        % (name, ", ".join(SOLVER_FAMILIES))
    )
