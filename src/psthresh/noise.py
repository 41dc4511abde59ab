"""CNOT noise models: two-qubit Pauli error distributions, diagonal Q
entries, and the measurement-noise scalar m.

Four families are supported:

* ``Depolarizing(p, r)``: probability p/15 of each non-identity two-qubit
  Pauli error, plus measurement error probability (4/15) r p.
* ``knill(p)``: alias for Depolarizing(p, r=1).
* ``Forward(pf)``: independent probability pf of a phase flip on the
  source qubit and of a bit flip on the destination qubit; no backward
  errors and no measurement errors.
* ``Independent(pf, pb, pm)``: four independent error bits, forward ones
  (source phase flip, destination bit flip) at rate pf, backward ones
  (source bit flip, destination phase flip) at rate pb, plus measurement
  error probability pm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import _XZ_BITS, LABEL_INDEX, TWO_QUBIT_LABELS, commutation_signs


class RateError(ValueError):
    """A model parameter (rate or fraction) lies outside [0, 1]."""


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise RateError("%s must be in [0, 1], got %g" % (name, value))
    return value


@dataclass(frozen=True)
class Depolarizing:
    """Depolarizing CNOT noise with measurement-error fraction r."""

    p: float
    r: float = 0.0

    def __post_init__(self):
        _check_prob("p", self.p)
        if not 0.0 <= self.r <= 1.0:
            raise RateError("r must be in [0, 1], got %g" % self.r)


def knill(p: float) -> Depolarizing:
    """Depolarizing noise with the full measurement error p_m = (4/15) p."""
    return Depolarizing(p, r=1.0)


@dataclass(frozen=True)
class Forward:
    """Forward-only CNOT noise at rate pf; no measurement errors."""

    pf: float

    def __post_init__(self):
        _check_prob("pf", self.pf)


@dataclass(frozen=True)
class Independent:
    """Independent forward (pf) and backward (pb) error bits plus
    measurement error probability pm."""

    pf: float
    pb: float
    pm: float

    def __post_init__(self):
        _check_prob("pf", self.pf)
        _check_prob("pb", self.pb)
        _check_prob("pm", self.pm)


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
    if isinstance(model, Independent):
        # source phase flip and destination bit flip at rate pf; source
        # bit flip and destination phase flip at rate pb
        def bit(p, hit):
            return p if hit else 1.0 - p

        out = np.empty(16)
        for i, lab in enumerate(TWO_QUBIT_LABELS):
            xs, zs = _XZ_BITS[lab[0]]
            xd, zd = _XZ_BITS[lab[1]]
            out[i] = (
                bit(model.pb, xs)
                * bit(model.pf, zs)
                * bit(model.pf, xd)
                * bit(model.pb, zd)
            )
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
    if isinstance(model, Independent):
        return 1.0 - 2.0 * model.pm
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


def parse_model(text: str):
    """Parse a CLI model string like ``depolarizing:p=0.08,r=1``,
    ``knill:p=0.069``, ``forward:pf=0.048`` or
    ``independent:pf=0.01,pb=0.02,pm=0.003``."""
    name, _, arg_text = text.partition(":")
    name = name.strip().lower()
    if name not in SOLVER_FAMILIES + ("independent",):
        raise ValueError("unknown noise model %r" % name)
    args = {}
    if arg_text.strip():
        for item in arg_text.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ValueError("malformed model parameter %r" % item)
            args[key.strip()] = float(value)
    allowed = {
        "depolarizing": {"p", "r"},
        "knill": {"p"},
        "forward": {"pf"},
        "independent": {"pf", "pb", "pm"},
    }[name]
    unknown = set(args) - allowed
    if unknown:
        raise ValueError("unknown parameter(s) %s for %s" % (sorted(unknown), name))
    if name == "depolarizing":
        return Depolarizing(args.get("p", 0.0), r=args.get("r", 0.0))
    if name == "knill":
        return knill(args.get("p", 0.0))
    if name == "forward":
        return Forward(args.get("pf", 0.0))
    return Independent(args.get("pf", 0.0), args.get("pb", 0.0), args.get("pm", 0.0))
