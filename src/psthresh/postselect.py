"""Single-pair post-selection: the purification step, its fixed point,
and the teleported error distribution at the fixed point.

One purification step takes two copies of the current ancilla channel
c = (x, y, z), applies a noisy CNOT between them, measures the
destination qubit in the Z basis, keeps the +1 outcome, and traces the
destination out.  The surviving source qubit is then Hadamard-rotated,
which swaps its x and z components.  Iterating this step from the
noiseless channel (1, 1, 1) drives the pair toward a fixed point; the
fixed point exists only below the threshold of the gate noise.

The step, ``_step``, runs in closed form on Python floats: the accept
branch reads only 8 of the 16 gate-noise entries Q (II, IZ, XI, XZ, YI,
YZ, ZI, ZZ), in the operation order of ``pauli.total_cnot_noise``
followed by ``pauli.measure_traceout``, so it gives the same bits as
that composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import diagonal_q, measurement_m
from .pauli import _H4, LABEL_INDEX, VALIDITY_TOL

#: the Q entries the accept branch of a purification step reads
_ACCEPT_LABELS = ("II", "IZ", "XI", "XZ", "YI", "YZ", "ZI", "ZZ")


class NoConvergenceError(RuntimeError):
    """The post-selection iteration failed to reach a fixed point."""


@dataclass(frozen=True)
class FixedPointResult:
    channel: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class IndepFixedPoint:
    x_g: float
    x_b: float


def _accept_q(q) -> tuple:
    """The 8 entries of q that _step reads, as Python floats."""
    q = np.asarray(q, dtype=float)
    return tuple(float(q[LABEL_INDEX[lab]]) for lab in _ACCEPT_LABELS)


def _step(x: float, y: float, z: float, qa: tuple, m: float) -> tuple:
    """One purification step of the channel (x, y, z) under gate noise
    q, with qa = _accept_q(q), and measurement scalar m; returns the new
    (x, y, z), with x and z already swapped by the Hadamard.

    Both CNOT inputs carry (x, y, z), so the conjugated entries read are
    R_IZ = z z, R_XI = x x, R_XZ = y y, R_YI = y x, R_YZ = x y and
    R_ZI = R_ZZ = z; the accept branch is (1/2)(A + mB) over the
    sigma-I column A and sigma-Z column B of N = Q R.
    """
    q0, q3, q4, q7, q8, q11, q12, q15 = qa
    b0 = m * (q3 * (z * z))
    acc0 = 0.5 * (q0 + b0)
    if acc0 <= 0:
        raise ValueError("degenerate acceptance weight %g" % acc0)
    rej0 = 0.5 * (q0 - b0)
    if rej0 < -VALIDITY_TOL:
        raise ValueError("negative rejection weight %g" % rej0)
    ax = 0.5 * (q4 * (x * x) + m * (q7 * (y * y)))
    ay = 0.5 * (q8 * (y * x) + m * (q11 * (x * y)))
    az = 0.5 * (q12 * z + m * (q15 * z))
    return az / acc0, ay / acc0, ax / acc0


def fixed_point(q, tol: float = 1e-14, max_iter: int = 10**6, m: float = 1.0) -> FixedPointResult:
    """Iterate _step from the noiseless channel until successive
    iterates agree within tol (sup norm).

    Raises NoConvergenceError if the iteration runs out of steps or the
    acceptance probability breaks down, which is how an above-threshold
    gate noise manifests.
    """
    qa = _accept_q(q)
    m = float(m)
    x = y = z = 1.0
    for i in range(1, max_iter + 1):
        try:
            nx, ny, nz = _step(x, y, z, qa, m)
        except ValueError as exc:
            raise NoConvergenceError(
                "post-selection broke down after %d iterations: %s" % (i - 1, exc)
            ) from exc
        if not (math.isfinite(nx) and math.isfinite(ny) and math.isfinite(nz)):
            raise NoConvergenceError(
                "post-selection diverged after %d iterations" % i
            )
        residual = max(abs(nx - x), abs(ny - y), abs(nz - z))
        x, y, z = nx, ny, nz
        if residual < tol:
            return FixedPointResult(
                channel=np.array([x, y, z]), iterations=i, residual=residual
            )
    raise NoConvergenceError(
        "no fixed point within %d iterations (residual %.3g)" % (max_iter, residual)
    )


def indep_fixed_point(f: float) -> IndepFixedPoint:
    """Fixed point of the decoupled bit/phase recursion for forward
    noise with diagonal factor f: x_g is the good (post-selected)
    component and x_b the bad one.
    """
    x_g = 1.0
    x_b = 1.0
    for _ in range(10**6):
        x_g2 = (x_b + x_b * f) / (1.0 + x_b * x_b * f)
        x_b2 = x_g2 * x_g2 * f
        if abs(x_g2 - x_g) < 1e-14 and abs(x_b2 - x_b) < 1e-14:
            return IndepFixedPoint(x_g=x_g2, x_b=x_b2)
        if not (math.isfinite(x_g2) and math.isfinite(x_b2)):
            raise NoConvergenceError("independent recursion diverged")
        x_g, x_b = x_g2, x_b2
    raise NoConvergenceError("independent recursion did not converge")


def teleport_output(channel, q, m: float = 1.0) -> np.ndarray:
    """Error distribution (p_I, p_X, p_Y, p_Z) on the data qubit after
    teleporting through an ancilla pair in state channel = (x, y, z),
    with gate noise q and measurement scalar m."""
    x, y, z = np.asarray(channel, dtype=float)

    def g(lbl):
        return q[LABEL_INDEX[lbl]]

    coeffs = np.array(
        [
            1.0,
            m * x * z * g("XI"),
            m * m * y * y * g("XZ"),
            m * x * z * g("IZ"),
        ]
    )
    p = 0.25 * _H4 @ coeffs
    if np.any(p < -1e-12):
        raise ValueError("teleported distribution has negative weight: %r" % (p,))
    return np.clip(p, 0.0, None)


def model_fixed_point(model) -> FixedPointResult:
    """fixed_point driven directly by a noise model, with the model's
    own measurement scalar."""
    return fixed_point(diagonal_q(model), m=measurement_m(model))


def model_teleport_output(model) -> np.ndarray:
    """Teleported error distribution at the model's fixed point."""
    q, m = diagonal_q(model), measurement_m(model)
    return teleport_output(fixed_point(q, m=m).channel, q, m=m)
