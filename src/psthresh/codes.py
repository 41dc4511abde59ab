"""Distance-class machinery for the [[7,1,3]] and [[23,1,7]] CSS codes.

For a self-dual CSS code each error sector (bit flips, phase flips) lives
in F_2^n.  The stabilizer group S partitions patterns into cosets; cosets
are graded by their minimum weight, and cosets of equal minimum weight
are equivalent under the code's automorphisms.  Working with the
resulting distance classes instead of raw patterns keeps the recursions
exact and cheap.

Three layers are provided here:

* the [[7,1,3]] class distributions and their combine / post-selection
  semiring, in plain Python arithmetic so exact ``fractions.Fraction``
  inputs stay exact;
* the full 64-syndrome decomposition of a 7-qubit product of single
  qubit error distributions (a Walsh-Hadamard transform over the
  character group), with syndrome-wise recovery, used by the Monte Carlo
  population dynamics;
* the binary Golay [23,12] coset weight enumerators behind the
  [[23,1,7]] entropy and crash-probability estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, log2

import numpy as np

# ---------------------------------------------------------------------------
# [[7,1,3]] structure

#: parity check of the underlying [7,4] Hamming code, one row per syndrome bit
PARITY_CHECK_713 = (
    (0, 0, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 1),
)

#: coset sizes of the four distance classes (minimum weight 0, 1, 2, 3)
CLASS_SIZES_713 = (8, 56, 56, 8)


def _row_int(row) -> int:
    out = 0
    for i, b in enumerate(row):
        if b:
            out |= 1 << i
    return out


@lru_cache(maxsize=1)
def _span_713() -> frozenset:
    """The 8-element group generated by the parity-check rows (weights
    0 and 4)."""
    span = {0}
    for row in PARITY_CHECK_713:
        g = _row_int(row)
        span |= {s ^ g for s in span}
    return frozenset(span)


def coset_class_713(pattern: int) -> int:
    """Distance class of a 7-bit error pattern: the minimum weight over
    its stabilizer coset, always in 0..3."""
    if not 0 <= pattern < 128:
        raise ValueError("pattern must be a 7-bit integer")
    return min(bin(pattern ^ s).count("1") for s in _span_713())


def distance_table_713() -> np.ndarray:
    """8x4 table: entry [w, d] counts weight-w patterns in distance
    class d, by enumeration of all 128 patterns."""
    table = np.zeros((8, 4), dtype=np.int64)
    for e in range(128):
        table[bin(e).count("1"), coset_class_713(e)] += 1
    return table


# ---------------------------------------------------------------------------
# [[7,1,3]] distance-class distributions (exact-arithmetic friendly)
#
# These run on plain Python numbers so Fraction inputs produce Fraction
# outputs; the threshold solvers feed them floats.


def distance_classes_from_x(x):
    """Class distribution of seven independent single-sector errors with
    diagonal x (flip probability (1-x)/2)."""
    x3 = x * x * x
    x4 = x3 * x
    x7 = x3 * x4
    return [
        (1 + 7 * x3 + 7 * x4 + x7) / 16,
        (7 + 7 * x3 - 7 * x4 - 7 * x7) / 16,
        (7 - 7 * x3 - 7 * x4 + 7 * x7) / 16,
        (1 - 7 * x3 + 7 * x4 - x7) / 16,
    ]


def combine_classes(a, b):
    """Class distribution of the XOR of two independent patterns with
    class distributions a and b."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return [
        a0 * b0 + a1 * b1 / 7 + a2 * b2 / 7 + a3 * b3,
        a0 * b1 + a1 * (b0 + 6 * b2 / 7) + a2 * (b3 + 6 * b1 / 7) + a3 * b2,
        a0 * b2 + a1 * (b3 + 6 * b1 / 7) + a2 * (b0 + 6 * b2 / 7) + a3 * b1,
        a0 * b3 + a1 * b2 / 7 + a2 * b1 / 7 + a3 * b0,
    ]


def postselect_classes(a, b):
    """Keep probability and conditional class distribution when two
    independent patterns are accepted only if they fall in the same
    stabilizer coset.

    The surviving pattern keeps its class; acceptance within class d
    happens with probability b_d / (cosets in class d).
    """
    kept = [a[0] * b[0], a[1] * b[1] / 7, a[2] * b[2] / 7, a[3] * b[3]]
    p_keep = kept[0] + kept[1] + kept[2] + kept[3]
    if p_keep <= 0:
        raise ValueError("post-selection keeps nothing")
    return p_keep, [k / p_keep for k in kept]


# ---------------------------------------------------------------------------
# crash polynomials

def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fraction; matrix and rhs entries may be
    ints or Fractions."""
    n = len(rhs)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


@dataclass(frozen=True)
class CrashPolynomial:
    """Odd polynomial f(x) = sum_w c_w x^w with exact rational
    coefficients, normalized so f(1) = 1 with maximally flat behaviour
    at x = 1."""

    terms: tuple  # ((weight, Fraction), ...)

    def __call__(self, x):
        return sum(c * x**w for w, c in self.terms)

    def derivative_at_one(self, order: int):
        """Exact value of the order-th derivative at x = 1."""
        total = Fraction(0)
        for w, c in self.terms:
            fall = 1
            for i in range(order):
                fall *= w - i
            total += c * fall
        return total


def crash_polynomial(weights) -> CrashPolynomial:
    """CrashPolynomial on the given exponents, fixed by f(1) = 1 and
    vanishing derivatives at 1 up to order len(weights) - 1."""
    weights = tuple(sorted(weights))
    n = len(weights)
    rows = []
    rhs = []
    rows.append([1] * n)
    rhs.append(1)
    for order in range(1, n):
        row = []
        for w in weights:
            fall = 1
            for i in range(order):
                fall *= w - i
            row.append(fall)
        rows.append(row)
        rhs.append(0)
    coeffs = _solve_exact(rows, rhs)
    return CrashPolynomial(terms=tuple(zip(weights, coeffs)))


@lru_cache(maxsize=1)
def crash_poly_713() -> CrashPolynomial:
    """Logical diagonal after recovery for the [[7,1,3]] code: exponents
    3 and 7 (the odd-coset weights)."""
    return crash_polynomial((3, 7))


@lru_cache(maxsize=1)
def crash_poly_2317() -> CrashPolynomial:
    """Logical diagonal after recovery for the [[23,1,7]] code:
    exponents 7, 11, 15, 23 (the odd Golay weights)."""
    return crash_polynomial((7, 11, 15, 23))


# ---------------------------------------------------------------------------
# degeneracy corrections

#: leading-order multiplicity and power of the gate error probability for
#: the equivalent-error correction of each scheme
_DEGENERACY = {
    "713-L1": (126, 2),
    "713-L2": (3 * 7**5 * comb(12, 6), 6),
    "2317": (3 * comb(8, 4) * 506, 4),
}


def degeneracy_correction(scheme: str, p_g: float) -> float:
    """Leading-order probability that independently drawn gate errors
    multiply to a stabilizer, so that the pattern is degenerate."""
    try:
        coeff, power = _DEGENERACY[scheme]
    except KeyError:
        raise ValueError(
            "unknown scheme %r (expected one of %s)"
            % (scheme, ", ".join(sorted(_DEGENERACY)))
        ) from None
    return coeff * p_g**power


# ---------------------------------------------------------------------------
# full 64-syndrome decomposition of a 7-qubit error product
#
# Characters of (F_2^8): a state is labelled by u with bits 0..2 the bit
# syndrome, bit 3 the bit-flip parity, bits 4..6 the phase syndrome and
# bit 7 the phase parity.  A qubit-i X error flips the parity-check
# column plus the parity bit; a Z error does the same in the upper half.
# Products of per-qubit character sums turn the 4^7 convolution into a
# 256-point Walsh-Hadamard transform.  The product is accumulated one
# qubit at a time in place, in two [batch, 256] buffers (the running
# product and the current qubit's character sums) that the transform
# then reuses for its output, so a call allocates nothing per qubit.  The
# map from character label u to the (syndrome, class) output position is
# folded into the columns of the transform matrix.
#
# The Monte Carlo level calls this on row blocks of 256 individuals, so
# that both buffers (1 MiB) stay in a core's L2 through the product, the
# transform and the syndrome draw.  A row's bits do not depend on the
# batch around it from 5 rows up; for 1-4 rows OpenBLAS (0.3.31) takes
# another kernel, whose bits differ, so the level folds a tail of 1-4
# rows into the block before it.

#: parity-check column of each qubit, row k at index k
_H_COLS = tuple(zip(*PARITY_CHECK_713))

#: Klein four-group multiplication table on class indices (I, X, Y, Z)
_KLEIN = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=np.int64
)


def _popcount_signs(masks: np.ndarray) -> np.ndarray:
    """(-1)^popcount(c & mask) for c in 0..255, one row per mask."""
    c = np.arange(256)
    v = c[None, :] & np.asarray(masks)[:, None]
    pc = np.zeros_like(v)
    for b in range(8):
        pc += (v >> b) & 1
    return np.where(pc % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=1)
def _decomposition_tables():
    """Per-qubit character signs sig[7, 4, 256], and the 256x256
    transform whose column at the (syndrome, class) position of character
    u holds the character-u row of the Walsh-Hadamard matrix over 256."""
    cols = [c[0] | (c[1] << 1) | (c[2] << 2) for c in _H_COLS]
    s_x = _popcount_signs([c | (1 << 3) for c in cols])  # [7, 256]
    s_z = _popcount_signs([(c << 4) | (1 << 7) for c in cols])
    sig = np.stack([np.ones_like(s_x), s_x, s_x * s_z, s_z], axis=1)

    # character label u -> (syndrome, class) position; the logical bit of
    # a sector is its parity, flipped when its syndrome is nontrivial
    u = np.arange(256)
    sa, sb = u & 7, (u >> 4) & 7
    lx = ((u >> 3) & 1) ^ (sa != 0)
    lz = ((u >> 7) & 1) ^ (sb != 0)
    cls = np.array([[0, 3], [1, 2]])[lx, lz]
    # Fortran order: OpenBLAS (0.3.31) picks its kernel for batches under 5
    # rows by layout, and this one gives the same bits as the transposed,
    # unpermuted transform (see _reference_decompose in tests/test_codes.py)
    transform = np.empty((256, 256), order="F")
    transform[:, 4 * (sa | (sb << 3)) + cls] = _popcount_signs(u) / 256.0

    for arr in (sig, transform):
        arr.setflags(write=False)
    return sig, transform


def decompose_713(children: np.ndarray) -> np.ndarray:
    """Joint (syndrome, class) probabilities of a block of seven qubits
    with independent error distributions.

    children has shape [7, 4] or [batch, 7, 4] (I, X, Y, Z order); the
    result has shape [batch, 64, 4] with axis 1 the syndrome pair
    (bit | phase << 3), each half packed with parity-check row k at bit
    k, and axis 2 the logical class.
    """
    sig, transform = _decomposition_tables()
    children = np.asarray(children, dtype=float)
    if children.ndim == 2:
        children = children[None]
    if children.shape[1:] != (7, 4):
        raise ValueError("expected children of shape [batch, 7, 4]")
    qh = np.empty((children.shape[0], 256))
    term = np.empty_like(qh)
    np.matmul(children[:, 0], sig[0], qh)
    for i in range(1, 7):
        qh *= np.matmul(children[:, i], sig[i], term)
    return np.matmul(qh, transform, term).reshape(-1, 64, 4)


def recover_713(joint: np.ndarray):
    """Syndrome weights and post-recovery conditional class
    distributions for the output of decompose_713.

    Recovery applies, per syndrome, the logical class with the largest
    probability (first of I, X, Y, Z on ties), relabelling the classes
    by the Klein group so that index 0 is the post-recovery identity.
    Zero-weight syndromes get the trivial conditional distribution.
    """
    joint = np.asarray(joint, dtype=float)
    best = joint.argmax(axis=2)
    weights = joint.sum(axis=2)
    idx = _KLEIN[best]
    relabelled = np.take_along_axis(joint, idx, axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = relabelled / weights[..., None]
    cond[weights <= 0] = np.array([1.0, 0.0, 0.0, 0.0])
    return weights, cond


def first_level_fidelity(dist) -> float:
    """Probability of no logical error after one level of encoding and
    syndrome-wise recovery, for seven qubits drawn independently from
    the same error distribution."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (4,):
        raise ValueError("expected a length-4 Pauli distribution")
    joint = decompose_713(np.tile(dist, (7, 1)))
    weights, cond = recover_713(joint)
    return float((weights[0] * cond[0, :, 0]).sum())


# ---------------------------------------------------------------------------
# binary Golay [23,12] cosets

#: generator polynomial x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1
GOLAY_GENERATOR = 0b110001110101
GOLAY_N = 23

#: coset leaders of the [23,12] code by weight, and how many cosets of
#: each weight there are
GOLAY_COSET_LEADERS = (0, 0b1, 0b11, 0b111)
GOLAY_COSET_COUNTS = (1, 23, 253, 1771)


def _poly_mul_mod2(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


@lru_cache(maxsize=1)
def golay_codewords() -> np.ndarray:
    """All 4096 codewords of the [23,12] Golay code as 23-bit ints."""
    words = np.array(
        [_poly_mul_mod2(GOLAY_GENERATOR, m) for m in range(4096)], dtype=np.int64
    )
    words.setflags(write=False)
    return words


@lru_cache(maxsize=1)
def golay_coset_enumerators():
    """Per coset-weight class j: weight enumerators (even[24], odd[24])
    of the even-weight and odd-weight halves of the coset."""
    words = golay_codewords()
    weights = np.array([bin(int(c)).count("1") for c in words])
    even = words[weights % 2 == 0]
    odd = words[weights % 2 == 1]
    out = []
    for leader in GOLAY_COSET_LEADERS:
        a = np.zeros(GOLAY_N + 1, dtype=np.int64)
        b = np.zeros(GOLAY_N + 1, dtype=np.int64)
        for c in even:
            a[bin(int(c) ^ leader).count("1")] += 1
        for c in odd:
            b[bin(int(c) ^ leader).count("1")] += 1
        a.setflags(write=False)
        b.setflags(write=False)
        out.append((a, b))
    return tuple(out)


def golay_syndrome_weights(p: float):
    """Probabilities (kept[4], flipped[4]) that an i.i.d. flip pattern at
    rate p lands in the even or odd half of a class-j coset, per coset."""
    pw = np.array([p**w * (1 - p) ** (GOLAY_N - w) for w in range(GOLAY_N + 1)])
    enums = golay_coset_enumerators()
    kept = np.array([float(a @ pw) for a, _ in enums])
    flipped = np.array([float(b @ pw) for _, b in enums])
    return kept, flipped


def golay_logical_diagonal(p: float) -> float:
    """Post-recovery sector diagonal sum_j n_j (W_j - V_j) at flip rate
    p; agrees with crash_poly_2317 evaluated at 1 - 2p."""
    kept, flipped = golay_syndrome_weights(p)
    n_j = np.array(GOLAY_COSET_COUNTS, dtype=float)
    return float(n_j @ (kept - flipped))


def golay_sector_entropy(p: float) -> float:
    """Conditional entropy of one sector's logical bit given the Golay
    syndrome, at flip rate p."""
    kept, flipped = golay_syndrome_weights(p)
    total = kept + flipped
    out = 0.0
    for n, t, v in zip(GOLAY_COSET_COUNTS, total, flipped):
        if t <= 0:
            continue
        q = v / t
        if 0.0 < q < 1.0:
            out += n * t * (-q * log2(q) - (1 - q) * log2(1 - q))
    return out
