"""Algebra of diagonal Pauli channels around a noisy CNOT.

Conventions used throughout the package:

* A single-qubit diagonal channel is the length-3 vector ``[x, y, z]`` of
  superoperator diagonal entries (N_XX, N_YY, N_ZZ); the leading N_II = 1
  is implicit.
* A single-qubit Pauli error distribution is the length-4 probability
  vector ``(p_I, p_X, p_Y, p_Z)``.
* Two-qubit diagonal objects (CNOT gate noise Q, conjugated noise R, total
  noise N) are length-16 vectors in source-major label order
  II, IX, IY, IZ, XI, ..., ZZ; see ``TWO_QUBIT_LABELS``.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAULIS = "IXYZ"
TWO_QUBIT_LABELS = tuple(s + d for s in PAULIS for d in PAULIS)
LABEL_INDEX = {lab: i for i, lab in enumerate(TWO_QUBIT_LABELS)}

#: numeric tolerance for validity checks (double precision)
VALIDITY_TOL = 1e-12

# symplectic (x, z) bit pair of each single-qubit Pauli label
_XZ_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

_H4 = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)


def pauli_commutes(a: str, b: str) -> bool:
    """Whether two Pauli strings commute (symplectic inner product is 0)."""
    if len(a) != len(b):
        raise ValueError("Pauli strings must have equal length")
    acc = 0
    for ca, cb in zip(a, b):
        xa, za = _XZ_BITS[ca]
        xb, zb = _XZ_BITS[cb]
        acc ^= (xa & zb) ^ (za & xb)
    return acc == 0


@lru_cache(maxsize=1)
def commutation_signs() -> np.ndarray:
    """16x16 matrix of +-1: entry [i, j] is +1 iff labels i and j commute.

    This is the single source of truth for commutation signs; the noise
    module builds diagonal Q entries from it.
    """
    n = len(TWO_QUBIT_LABELS)
    signs = np.empty((n, n))
    for i, a in enumerate(TWO_QUBIT_LABELS):
        for j, b in enumerate(TWO_QUBIT_LABELS):
            signs[i, j] = 1.0 if pauli_commutes(a, b) else -1.0
    signs.setflags(write=False)
    return signs


def dist_to_channel(d) -> np.ndarray:
    """Diagonal channel [x, y, z] of a Pauli error distribution.

    x = 1 - 2(p_Y + p_Z), y = 1 - 2(p_X + p_Z), z = 1 - 2(p_X + p_Y).
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (4,):
        raise ValueError("expected a length-4 Pauli distribution")
    if d.min() < -VALIDITY_TOL or abs(d.sum() - 1.0) > 1e-9:
        raise ValueError("not a valid Pauli distribution: %r" % (d.tolist(),))
    p_i, p_x, p_y, p_z = d
    return np.array([1 - 2 * (p_y + p_z), 1 - 2 * (p_x + p_z), 1 - 2 * (p_x + p_y)])


def channel_to_dist(c) -> np.ndarray:
    """Pauli error distribution of a diagonal channel (inverse of
    ``dist_to_channel``): p = (1/4) H [1, x, y, z] with the +-1 Hadamard
    pattern H."""
    x, y, z = np.asarray(c, dtype=float)
    p = 0.25 * (_H4 @ np.array([1.0, x, y, z]))
    if p.min() < -VALIDITY_TOL:
        raise ValueError("channel %r induces a negative probability" % ([x, y, z],))
    return np.clip(p, 0.0, 1.0)


# Conjugation of S (x) D by CNOT, expressed per two-qubit label as the pair
# (source component, destination component) to read the entry from.  This is
# the printed conjugation table; tests check it against the dense
# superoperator oracle.
_R_TABLE = (
    ("I", "I"), ("I", "X"), ("Z", "Y"), ("Z", "Z"),
    ("X", "X"), ("X", "I"), ("Y", "Z"), ("Y", "Y"),
    ("Y", "X"), ("Y", "I"), ("X", "Z"), ("X", "Y"),
    ("Z", "I"), ("Z", "X"), ("I", "Y"), ("I", "Z"),
)


def cnot_conjugate(s, d) -> np.ndarray:
    """Diagonal entries R of (S (x) D) conjugated with CNOT.

    The 16-vector R in source-major label order, e.g. R_IY = S_Z D_Y,
    R_XI = S_X D_X, R_ZI = S_Z.
    """
    s4 = np.concatenate(([1.0], np.asarray(s, dtype=float)))
    d4 = np.concatenate(([1.0], np.asarray(d, dtype=float)))
    comp = {"I": 0, "X": 1, "Y": 2, "Z": 3}
    return np.array([s4[comp[a]] * d4[comp[b]] for a, b in _R_TABLE])


def total_cnot_noise(q, s, d) -> np.ndarray:
    """Total diagonal noise N of a noisy CNOT: N_ss' = Q_ss' R_ss'."""
    return np.asarray(q, dtype=float) * cnot_conjugate(s, d)


@dataclass(frozen=True)
class TraceoutBranch:
    """One measurement outcome branch: acceptance weight plus the
    normalized diagonal channel left on the unmeasured qubit."""

    weight: float
    channel: np.ndarray


_COL_I = [LABEL_INDEX[s + "I"] for s in PAULIS]
_COL_Z = [LABEL_INDEX[s + "Z"] for s in PAULIS]


def measure_traceout(n, m_noise: float = 1.0):
    """Trace out a Z measurement of the destination qubit of noise N.

    Splits the total 16-entry diagonal noise into the accept branch
    (1/2)(A + mB) and reject branch (1/2)(A - mB), where A and B are the
    sigma-I and sigma-Z columns of N and m = 1 - 2 p_m encodes the
    measurement error.  Returns ``(accept, reject)`` as TraceoutBranch
    values; branch weights sum to 1.
    """
    n = np.asarray(n, dtype=float)
    a = n[_COL_I]
    b = n[_COL_Z]
    acc = 0.5 * (a + m_noise * b)
    rej = 0.5 * (a - m_noise * b)
    if acc[0] <= 0:
        raise ValueError("degenerate acceptance weight %g" % acc[0])
    accept = TraceoutBranch(float(acc[0]), acc[1:] / acc[0])
    if rej[0] < -VALIDITY_TOL:
        raise ValueError("negative rejection weight %g" % rej[0])
    if rej[0] <= 0:
        # nothing is ever rejected (noiseless inputs); the conditional
        # channel on that branch is immaterial
        reject = TraceoutBranch(0.0, np.ones(3))
    else:
        reject = TraceoutBranch(float(rej[0]), rej[1:] / rej[0])
    return accept, reject


_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_CNOT_U = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@lru_cache(maxsize=1)
def _cnot_pauli_map():
    """Label -> (conjugated label index, sign) under conjugation by CNOT
    (source qubit is the control), computed from the 4x4 matrices."""
    mats = {
        lab: np.kron(_PAULI_MATS[lab[0]], _PAULI_MATS[lab[1]])
        for lab in TWO_QUBIT_LABELS
    }
    out = {}
    for lab, mat in mats.items():
        conj = _CNOT_U @ mat @ _CNOT_U
        for lab2, mat2 in mats.items():
            if np.allclose(conj, mat2):
                out[lab] = (LABEL_INDEX[lab2], 1.0)
                break
            if np.allclose(conj, -mat2):
                out[lab] = (LABEL_INDEX[lab2], -1.0)
                break
        else:
            raise AssertionError("conjugation left the Pauli group: " + lab)
    return out


@lru_cache(maxsize=1)
def build_cnot_superoperator() -> np.ndarray:
    """16x16 signed permutation matrix of CNOT conjugation in the Pauli
    basis.  Involutive; fixes II, IX, ZI, ZX; swaps XI <-> XX, IZ <-> ZZ."""
    mapping = _cnot_pauli_map()
    o = np.zeros((16, 16))
    for lab, (target, sign) in mapping.items():
        o[target, LABEL_INDEX[lab]] = sign
    o.setflags(write=False)
    return o


def _pauli_superoperator(label: str) -> np.ndarray:
    """Diagonal superoperator of applying the Pauli ``label`` (signs from
    commutation)."""
    return np.diag(
        [1.0 if pauli_commutes(label, lab) else -1.0 for lab in TWO_QUBIT_LABELS]
    )


# encoders of the two 2-qubit codes used by the trace-out cross-check, as
# 16x4 matrices over the Pauli coefficient bases (columns are the encoded
# I, X, Y, Z).  The first code stabilizes ZZ, the second IZ; a CNOT maps
# one onto the other.
def _encoder(columns) -> np.ndarray:
    e = np.zeros((16, 4))
    for k, labels in enumerate(columns):
        for lab in labels:
            e[LABEL_INDEX[lab], k] = 1.0
    return e


_E_BITFLIP = _encoder([("II", "ZZ"), ("XX", "YY"), ("XY", "YX"), ("ZI", "IZ")])
_E_DETECT = _encoder([("II", "IZ"), ("XI", "XZ"), ("YI", "YZ"), ("ZI", "ZZ")])


def traceout_crosscheck(s, d, q, m_noise: float = 1.0) -> float:
    """Maximum deviation between ``measure_traceout`` and the dense
    code-channel derivation of the same branches.

    Builds the full 16x16 superoperator of the noisy CNOT plus measurement
    noise, pushes it through the two-qubit detection code's encoder as
    G_R = (1/2) E^t O(R) N E for recoveries R in {II, IX}, and compares
    the resulting logical maps against the accept/reject branches.  The
    same comparison is repeated in the frame of the bit-flip code (with
    the CNOT applied at the end).  Returns the largest absolute
    difference over both recoveries and both frames.
    """
    s4 = np.concatenate(([1.0], np.asarray(s, dtype=float)))
    d4 = np.concatenate(([1.0], np.asarray(d, dtype=float)))
    sd = np.diag(np.kron(s4, d4))
    o_cnot = build_cnot_superoperator()
    qd = np.diag(np.asarray(q, dtype=float))
    # measurement error = X error on the destination right before its Z
    # measurement, i.e. the channel [1, 1, m, m] on the destination
    meas = np.diag(np.kron(np.ones(4), np.array([1.0, 1.0, m_noise, m_noise])))

    n_detect = meas @ qd @ o_cnot @ sd @ o_cnot
    n_bitflip = o_cnot @ meas @ qd @ o_cnot @ sd

    accept, reject = measure_traceout(
        total_cnot_noise(q, s, d), m_noise=m_noise
    )
    expected = {
        "II": np.concatenate(([accept.weight], accept.weight * accept.channel)),
        "IX": np.concatenate(([reject.weight], reject.weight * reject.channel)),
    }

    dev = 0.0
    for recovery in ("II", "IX"):
        o_r = _pauli_superoperator(recovery)
        for enc, noise in ((_E_DETECT, n_detect), (_E_BITFLIP, n_bitflip)):
            g = 0.5 * enc.T @ o_r @ noise @ enc
            dev = max(dev, float(np.abs(np.diag(g) - expected[recovery]).max()))
            off = g - np.diag(np.diag(g))
            dev = max(dev, float(np.abs(off).max()))
    return dev
