"""The reference chain of the purification step that the package's
closed form is checked against, and its dense oracle, in plain numpy so
that tools/outputs.py runs without the test dependencies.

The reference chain spells the step out over all 16 noise entries: the
printed CNOT conjugation table (``cnot_conjugate``), the total noise
(``total_cnot_noise``) and the measured trace-out of the destination
(``measure_traceout``).  No solve runs it; ``postselect._iterate`` holds
the same step in closed form, and ``tests/test_postselect.py`` checks it
against ``measure_traceout(total_cnot_noise(q, c, c))`` bit for bit.  The
chain itself is checked against a dense 16x16 superoperator oracle built
from the actual CNOT unitary (``traceout_crosscheck``, acceptance
criterion 11), so the hand-coded component pairs are never the only
source of truth.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from psthresh.pauli import (
    _XZ_BITS,
    LABEL_INDEX,
    PAULIS,
    TWO_QUBIT_LABELS,
    VALIDITY_TOL,
    commutation_signs,
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


# Conjugation of S (x) D by CNOT, expressed per two-qubit label as the pair
# (source component, destination component) to read the entry from.  This is
# the printed conjugation table; tests/test_pauli.py checks it against the
# dense superoperator oracle.
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


class TraceoutBranch(NamedTuple):
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
def build_cnot_superoperator() -> np.ndarray:
    """16x16 Pauli transfer matrix O[i, j] = tr(P_i U P_j U) / 4 of
    conjugation by the CNOT unitary U (source qubit is the control): a
    signed permutation, involutive; fixes II, IX, ZI, ZX; swaps
    XI <-> XX, IZ <-> ZZ."""
    mats = np.array([np.kron(_PAULI_MATS[a], _PAULI_MATS[b]) for a, b in TWO_QUBIT_LABELS])
    o = np.einsum("iab,bc,jcd,da->ij", mats, _CNOT_U, mats, _CNOT_U).real / 4
    o.setflags(write=False)
    return o


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
    difference over both recoveries and both frames.  Raises ValueError
    unless s, d, q and m_noise are all finite.
    """
    s, d, q = (np.asarray(v, dtype=float) for v in (s, d, q))
    if not all(np.isfinite(v).all() for v in (s, d, q, m_noise)):
        raise ValueError("traceout_crosscheck needs finite s, d, q and m_noise")
    s4 = np.concatenate(([1.0], s))
    d4 = np.concatenate(([1.0], d))
    sd = np.diag(np.kron(s4, d4))
    o_cnot = build_cnot_superoperator()
    qd = np.diag(q)
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
        o_r = np.diag(commutation_signs()[LABEL_INDEX[recovery]])
        for enc, noise in ((_E_DETECT, n_detect), (_E_BITFLIP, n_bitflip)):
            g = 0.5 * enc.T @ o_r @ noise @ enc
            dev = max(dev, float(np.abs(np.diag(g) - expected[recovery]).max()))
            off = g - np.diag(np.diag(g))
            dev = max(dev, float(np.abs(off).max()))
    return dev
