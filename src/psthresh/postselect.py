"""Single-pair post-selection: the purification step, its fixed point,
and the teleported error distribution at the fixed point.

One purification step takes two copies of the current ancilla channel
c = (x, y, z), applies a noisy CNOT between them, measures the
destination qubit in the Z basis, keeps the +1 outcome, and traces the
destination out.  The surviving source qubit is then Hadamard-rotated,
which swaps its x and z components.  Iterating this step from the
noiseless channel (1, 1, 1) drives the pair toward a fixed point; the
fixed point exists only below the threshold of the gate noise.

The iteration, ``_iterate``, is one loop over Python floats that holds
the step in closed form: the accept branch reads only 8 of the 16
gate-noise entries Q (II, IZ, XI, XZ, YI, YZ, ZI, ZZ), in the operation
order of the reference chain ``total_cnot_noise`` followed by
``measure_traceout`` (both in tests/pauli_reference.py), so it gives the same
bits as that composition.  ``fixed_point`` runs it from the noiseless
channel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .noise import diagonal_q, measurement_m
from .pauli import LABEL_INDEX, VALIDITY_TOL

#: indices of the Q entries the accept branch of a purification step reads
_ACCEPT_INDEX = np.array(
    [LABEL_INDEX[lab] for lab in ("II", "IZ", "XI", "XZ", "YI", "YZ", "ZI", "ZZ")]
)

#: indices of the Q entries the teleported distribution reads: IZ, XI, XZ
_TELEPORT_INDEX = tuple(LABEL_INDEX[lab] for lab in ("IZ", "XI", "XZ"))

#: a fixed-point iteration stops once successive iterates agree within
#: _TOL (sup norm), and fails after _MAX_ITER steps
_TOL = 1e-14
_MAX_ITER = 10**6


class NoConvergenceError(RuntimeError):
    """The post-selection iteration failed to reach a fixed point."""


class FixedPointResult(NamedTuple):
    channel: np.ndarray
    iterations: int
    residual: float


class IndepFixedPoint(NamedTuple):
    x_g: float
    x_b: float


def _accept_q(q) -> list:
    """The 8 entries of q that a purification step reads, as Python
    floats."""
    return np.asarray(q, dtype=float)[_ACCEPT_INDEX].tolist()


def _iterate(
    qa, m: float, x: float, y: float, z: float, tol: float, max_iter: int
) -> FixedPointResult:
    """Purification steps from the channel (x, y, z) under gate noise q,
    with qa = _accept_q(q), and measurement scalar m, until successive
    iterates agree within tol (sup norm).

    One step: both CNOT inputs carry (x, y, z), so the conjugated
    entries read are R_IZ = z z, R_XI = x x, R_XZ = y y, R_YI = y x,
    R_YZ = x y and R_ZI = R_ZZ = z; the accept branch is (1/2)(A + mB)
    over the sigma-I column A and sigma-Z column B of N = Q R, and the
    Hadamard swaps the new x and z.  Raises NoConvergenceError as
    fixed_point does.
    """
    q0, q3, q4, q7, q8, q11, q12, q15 = qa
    neg_tol, neg_validity_tol = -tol, -VALIDITY_TOL
    for i in range(1, max_iter + 1):
        b0 = m * (q3 * (z * z))
        acc0 = 0.5 * (q0 + b0)
        if acc0 <= 0:
            raise NoConvergenceError(
                "post-selection broke down after %d iterations: "
                "degenerate acceptance weight %g" % (i - 1, acc0)
            )
        if 0.5 * (q0 - b0) < neg_validity_tol:
            raise NoConvergenceError(
                "post-selection broke down after %d iterations: "
                "negative rejection weight %g" % (i - 1, 0.5 * (q0 - b0))
            )
        # the accept branch's (x, y, z) over its weight, x and z swapped
        nz = 0.5 * (q4 * (x * x) + m * (q7 * (y * y))) / acc0
        ny = 0.5 * (q8 * (y * x) + m * (q11 * (x * y))) / acc0
        nx = 0.5 * (q12 * z + m * (q15 * z)) / acc0
        dx, dy, dz = nx - x, ny - y, nz - z
        x, y, z = nx, ny, nz
        # finite differences from a finite iterate: the new one is finite
        if neg_tol < dx < tol and neg_tol < dy < tol and neg_tol < dz < tol:
            return FixedPointResult(
                channel=np.array([x, y, z]),
                iterations=i,
                residual=max(abs(dx), abs(dy), abs(dz)),
            )
        # x * 0.0 is 0 for finite x and NaN for an infinite or NaN x
        if x * 0.0 + y * 0.0 + z * 0.0 != 0.0:
            raise NoConvergenceError("post-selection diverged after %d iterations" % i)
    raise NoConvergenceError(
        "no fixed point within %d iterations (residual %.3g)"
        % (max_iter, max(abs(dx), abs(dy), abs(dz)))
    )


def fixed_point(q, m: float = 1.0) -> FixedPointResult:
    """Iterate the purification step from the noiseless channel until
    successive iterates agree within _TOL (sup norm).

    Raises NoConvergenceError if the iteration runs out of steps or the
    acceptance probability breaks down, which is how an above-threshold
    gate noise manifests.
    """
    return _iterate(_accept_q(q), float(m), 1.0, 1.0, 1.0, _TOL, _MAX_ITER)


def indep_fixed_point(f: float) -> IndepFixedPoint:
    """Fixed point of the decoupled bit/phase recursion for forward
    noise with diagonal factor f: x_g is the good (post-selected)
    component and x_b the bad one.  Raises ValueError unless
    -1 <= f <= 1 (a NaN f included), and NoConvergenceError if the
    recursion diverges, stalls or divides by zero (at f = -1).
    """
    if not -1.0 <= f <= 1.0:
        raise ValueError("f must be in [-1, 1], got %r" % (f,))
    x_g = 1.0
    x_b = 1.0
    try:
        for _ in range(_MAX_ITER):
            x_g2 = (x_b + x_b * f) / (1.0 + x_b * x_b * f)
            x_b2 = x_g2 * x_g2 * f
            if abs(x_g2 - x_g) < _TOL and abs(x_b2 - x_b) < _TOL:
                return IndepFixedPoint(x_g=x_g2, x_b=x_b2)
            if not (math.isfinite(x_g2) and math.isfinite(x_b2)):
                raise NoConvergenceError("independent recursion diverged")
            x_g, x_b = x_g2, x_b2
    except ZeroDivisionError:
        raise NoConvergenceError("independent recursion broke down: division by zero") from None
    raise NoConvergenceError("independent recursion did not converge")


def teleport_output(channel, q, m: float = 1.0) -> np.ndarray:
    """Error distribution (p_I, p_X, p_Y, p_Z) on the data qubit after
    teleporting through an ancilla pair in state channel = (x, y, z),
    with gate noise q and measurement scalar m.

    The distribution is (1/4) H [1, m x z q_XI, m^2 y^2 q_XZ, m x z q_IZ]
    over the +-1 Hadamard pattern H of pauli.  Each row adds its four
    quarter-weighted terms t0..t3 as (t0 + t2) + (t1 + t3), the order of
    numpy's 4x4 matvec (OpenBLAS 0.3.31), so the result has that
    product's bits.
    """
    x, y, z = np.asarray(channel, dtype=float).tolist()
    m = float(m)
    q_iz, q_xi, q_xz = [float(q[i]) for i in _TELEPORT_INDEX]
    a = 0.25 * (m * x * z * q_xi)
    b = 0.25 * (m * m * y * y * q_xz)
    c = 0.25 * (m * x * z * q_iz)
    p = [(0.25 + b) + (a + c), (0.25 - b) + (a - c), (0.25 + b) - (a + c), (0.25 - b) - (a - c)]
    if any(v < -VALIDITY_TOL for v in p):
        raise ValueError("teleported distribution has negative weight: %r" % (np.array(p),))
    # as np.maximum(p, 0.0): -0.0 becomes 0.0 and NaN stays
    return np.array([0.0 if v <= 0.0 else v for v in p])


def model_fixed_point(model) -> FixedPointResult:
    """fixed_point driven directly by a noise model, with the model's
    own measurement scalar."""
    return fixed_point(diagonal_q(model), m=measurement_m(model))


def model_teleport_output(model) -> np.ndarray:
    """Teleported error distribution at the model's fixed point."""
    q, m = diagonal_q(model), measurement_m(model)
    return teleport_output(fixed_point(q, m=m).channel, q, m=m)
