"""Algebra of diagonal Pauli channels around a noisy CNOT.

Conventions used throughout the package:

* A single-qubit diagonal channel is the length-3 vector ``[x, y, z]`` of
  superoperator diagonal entries (N_XX, N_YY, N_ZZ); the leading N_II = 1
  is implicit.
* A single-qubit Pauli error distribution is the length-4 probability
  vector ``(p_I, p_X, p_Y, p_Z)``.
* Two-qubit diagonal objects, such as the CNOT gate noise Q, are
  length-16 vectors in source-major label order II, IX, IY, IZ, XI, ...,
  ZZ; see ``TWO_QUBIT_LABELS``.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PAULIS = "IXYZ"
TWO_QUBIT_LABELS = tuple(s + d for s in PAULIS for d in PAULIS)
LABEL_INDEX = {lab: i for i, lab in enumerate(TWO_QUBIT_LABELS)}

#: numeric tolerance for validity checks (double precision)
VALIDITY_TOL = 1e-12
#: how far the sum of a valid probability distribution may be from 1
SUM_TOL = 1e-9

# symplectic (x, z) bit pair of each single-qubit Pauli label
_XZ_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

_H4 = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)


@lru_cache(maxsize=1)
def commutation_signs() -> np.ndarray:
    """16x16 matrix of +-1: entry [i, j] is +1 iff labels i and j commute,
    i.e. iff the symplectic form x_i . z_j + z_i . x_j of their (x, z)
    bits is even.

    This is the single source of truth for commutation signs; the noise
    module builds diagonal Q entries from it.
    """
    x, z = np.array([[_XZ_BITS[c] for c in lab] for lab in TWO_QUBIT_LABELS]).transpose(2, 0, 1)
    signs = 1.0 - 2.0 * ((x @ z.T + z @ x.T) % 2)
    signs.setflags(write=False)
    return signs


def dist_to_channel(d) -> np.ndarray:
    """Diagonal channel [x, y, z] of a Pauli error distribution.

    x = 1 - 2(p_Y + p_Z), y = 1 - 2(p_X + p_Z), z = 1 - 2(p_X + p_Y).
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (4,):
        raise ValueError("expected a length-4 Pauli distribution")
    if not (d.min() >= -VALIDITY_TOL and abs(d.sum() - 1.0) <= SUM_TOL):  # a NaN fails it
        raise ValueError("not a valid Pauli distribution: %r" % (d.tolist(),))
    p_i, p_x, p_y, p_z = d
    return np.array([1 - 2 * (p_y + p_z), 1 - 2 * (p_x + p_z), 1 - 2 * (p_x + p_y)])


def channel_to_dist(c) -> np.ndarray:
    """Pauli error distribution of a diagonal channel (inverse of
    ``dist_to_channel``): p = (1/4) H [1, x, y, z] with the +-1 Hadamard
    pattern H."""
    x, y, z = np.asarray(c, dtype=float)
    p = 0.25 * (_H4 @ np.array([1.0, x, y, z]))
    if not p.min() >= -VALIDITY_TOL:  # a NaN fails it too
        raise ValueError("channel %r induces a negative or NaN probability" % ([x, y, z],))
    return np.clip(p, 0.0, 1.0)
