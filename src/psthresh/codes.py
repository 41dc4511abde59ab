"""Distance-class machinery for the [[7,1,3]] and [[23,1,7]] CSS codes.

For a self-dual CSS code each error sector (bit flips, phase flips) lives
in F_2^n.  The stabilizer group S partitions patterns into cosets; cosets
are graded by their minimum weight, and cosets of equal minimum weight
are equivalent under the code's automorphisms.  Working with the
resulting distance classes instead of raw patterns keeps the recursions
exact and cheap.

Four layers are provided here:

* the [[7,1,3]] class distributions and their combine / post-selection
  semiring, in plain Python arithmetic: int and ``fractions.Fraction``
  inputs give exact Fractions, computed on integer numerators;
* crash polynomials (the logical diagonal after recovery, with exact
  coefficients from their Lagrange closed form) and the degeneracy
  corrections of gate error patterns that multiply to a stabilizer;
* the 64-syndrome decomposition of a 7-qubit product of single qubit
  error distributions (a Walsh-Hadamard transform over the character
  group) and syndrome-wise recovery: a one-row path for seven qubits
  that share a distribution, behind the first-level fidelity, and, for
  the Monte Carlo population dynamics, the syndrome weights of such a
  product and the class row of one drawn syndrome, each with the full
  decomposition's bits;
* the binary Golay [23,12] coset weight enumerators behind the
  [[23,1,7]] entropy and crash-probability estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, fsum, lcm, log2, prod
from operator import truediv

import numpy as np

from .noise import _check_prob
from .pauli import SUM_TOL

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


#: number of set bits of each byte value
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.intp)


def _popcount(v) -> np.ndarray:
    """Number of set bits of each entry of the non-negative int array v,
    a byte at a time by table lookup (np.bitwise_count needs numpy 2)."""
    v = np.asarray(v, dtype=np.int64)
    if (v < 0).any():
        raise ValueError("popcount of a negative int")
    out = _BYTE_POPCOUNT[v & 0xFF]
    v = v >> 8
    while v.any():
        out += _BYTE_POPCOUNT[v & 0xFF]
        v >>= 8
    return out


def _span(generators) -> np.ndarray:
    """All XOR combinations of the int bit masks `generators`, read-only
    int64: word m is the XOR of generator j for each set bit j of m."""
    words = np.zeros(1, dtype=np.int64)
    for g in generators:
        words = np.concatenate([words, words ^ g])
    words.setflags(write=False)
    return words


@lru_cache(maxsize=1)
def _span_713() -> np.ndarray:
    """The 8-element group generated by the parity-check rows (weights
    0 and 4), as 7-bit masks with qubit i at bit i."""
    return _span([sum(b << i for i, b in enumerate(row)) for row in PARITY_CHECK_713])


def coset_class_713(pattern: int) -> int:
    """Distance class of a 7-bit error pattern: the minimum weight over
    its stabilizer coset, always in 0..3."""
    if not 0 <= pattern < 128:
        raise ValueError("pattern must be a 7-bit integer")
    return int(_popcount(pattern ^ _span_713()).min())


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
# Each function has two routes.  When every input entry is an int or a
# Fraction, it puts each input vector over the least common denominator of
# its entries, does the arithmetic on the integer numerators and builds
# each output Fraction once, so each output is normalised by one gcd
# instead of one per Fraction operation.  Any other input, such as the
# floats that the threshold solvers feed, keeps the plain expressions
# below, operation for operation, so float results keep their bits; an
# input whose first entry is a float takes that route after one type test.

_EXACT = (int, Fraction)


def _all_exact(*vectors) -> bool:
    """Whether every entry of the vectors is an int or a Fraction."""
    return all(isinstance(v, _EXACT) for vec in vectors for v in vec)


def _numerators(vec):
    """Integer numerators of the entries of vec (ints or Fractions) over
    the least common denominator of its entries, and that denominator."""
    dens = [v.denominator for v in vec]
    den = lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(vec, dens)], den


def distance_classes_from_x(x):
    """Class distribution of seven independent single-sector errors with
    diagonal x (flip probability (1-x)/2).

    An int or Fraction x gives Fractions.  Raises ValueError unless
    -1 <= x <= 1."""
    if type(x) is not float and isinstance(x, _EXACT):
        n, d, build = x.numerator, x.denominator, Fraction
    else:  # a float is its own numerator over 1
        n, d, build = x, 1, truediv
    if not -d <= n <= d:
        raise ValueError("x must lie in [-1, 1], got %r" % (x,))
    # 16 d^7 times the four entries below, at x = n / d
    d3, n3 = d * d * d, n * n * n
    n4 = n3 * n
    n7 = n3 * n4
    d7, n3d4, n4d3 = d3 * d3 * d, n3 * d3 * d, n4 * d3
    den = 16 * d7
    return [
        build(d7 + 7 * n3d4 + 7 * n4d3 + n7, den),
        build(7 * d7 + 7 * n3d4 - 7 * n4d3 - 7 * n7, den),
        build(7 * d7 - 7 * n3d4 - 7 * n4d3 + 7 * n7, den),
        build(d7 - 7 * n3d4 + 7 * n4d3 - n7, den),
    ]


def combine_classes(a, b):
    """Class distribution of the XOR of two independent patterns with
    class distributions a and b.

    Entries that are all ints or Fractions give Fractions."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if type(a0) is not float and _all_exact(a, b):
        (a0, a1, a2, a3), da = _numerators(a)
        (b0, b1, b2, b3), db = _numerators(b)
        # 7 da db times the four entries below
        den = 7 * da * db
        return [
            Fraction(7 * (a0 * b0 + a3 * b3) + a1 * b1 + a2 * b2, den),
            Fraction(7 * (a0 * b1 + a1 * b0 + a2 * b3 + a3 * b2) + 6 * (a1 * b2 + a2 * b1), den),
            Fraction(7 * (a0 * b2 + a1 * b3 + a2 * b0 + a3 * b1) + 6 * (a1 * b1 + a2 * b2), den),
            Fraction(7 * (a0 * b3 + a3 * b0) + a1 * b2 + a2 * b1, den),
        ]
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
    happens with probability b_d / (cosets in class d).  Entries that
    are all ints or Fractions give Fractions.  Raises ValueError unless
    the keep probability is positive (a NaN one included).
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if type(a0) is not float and _all_exact(a, b):
        (a0, a1, a2, a3), da = _numerators(a)
        (b0, b1, b2, b3), db = _numerators(b)
        # 7 da db times the kept probabilities below
        kept = [7 * a0 * b0, a1 * b1, a2 * b2, 7 * a3 * b3]
        total = kept[0] + kept[1] + kept[2] + kept[3]
        if total <= 0:
            raise ValueError("post-selection keeps nothing")
        return Fraction(total, 7 * da * db), [Fraction(k, total) for k in kept]
    kept = [a0 * b0, a1 * b1 / 7, a2 * b2 / 7, a3 * b3]
    p_keep = kept[0] + kept[1] + kept[2] + kept[3]
    if not p_keep > 0:
        raise ValueError("post-selection keeps nothing")
    return p_keep, [k / p_keep for k in kept]


# ---------------------------------------------------------------------------
# crash polynomials

@dataclass(frozen=True)
class CrashPolynomial:
    """Polynomial f(x) = sum_w c_w x^w with exact rational coefficients,
    fixed by f(1) = 1 and vanishing derivatives at 1 up to order n - 1
    for its n exponents.  Those conditions say sum_w c_w P(w) = P(0) for
    every polynomial P of degree below n, so c_w is the Lagrange basis
    polynomial of w taken at 0: c_w = prod_{v != w} v / (v - w)."""

    terms: tuple  # ((weight, Fraction), ...)

    def __call__(self, x):
        return sum(c * x**w for w, c in self.terms)

    def derivative_at_one(self, order: int):
        """Exact value of the order-th derivative at x = 1."""
        return sum(c * prod(w - i for i in range(order)) for w, c in self.terms)


def crash_polynomial(weights) -> CrashPolynomial:
    """CrashPolynomial on the given exponents, fixed by f(1) = 1 and
    vanishing derivatives at 1 up to order len(weights) - 1.

    Raises ValueError unless the exponents are distinct and there is at
    least one."""
    weights = tuple(sorted(weights))
    if not weights or len(set(weights)) != len(weights):
        raise ValueError("crash_polynomial needs distinct exponents, at least one, got %r" % (weights,))
    coeffs = [
        prod((Fraction(v) / (Fraction(v) - Fraction(w)) for v in weights if v != w), start=Fraction(1))
        for w in weights
    ]
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
    _check_prob("p_g", p_g)
    return coeff * p_g**power


# ---------------------------------------------------------------------------
# 64-syndrome decomposition of a 7-qubit error product
#
# Characters of (F_2^8): a state is labelled by u with bits 0..2 the bit
# syndrome, bit 3 the bit-flip parity, bits 4..6 the phase syndrome and
# bit 7 the phase parity.  A qubit-i X error flips the parity-check
# column plus the parity bit; a Z error does the same in the upper half.
# Products of per-qubit character sums turn the 4^7 convolution into a
# 256-point Walsh-Hadamard transform.  _character_product accumulates the
# product one qubit at a time in place, in two [batch, 256] buffers (the
# running product and the current qubit's character sums).  The map from
# character label u to the (syndrome, class) output position is folded
# into the columns of the transform matrix.
#
# The full decomposition, that product times the transform, is the
# reference whose bits every path here keeps (decompose_713 in
# tests/test_codes.py).  From 5 rows up it sums each output over the
# characters in ascending order; for 1-4 rows OpenBLAS (0.3.31) takes
# another kernel for the 256x256 transform, whose bits differ.
#
# first_level_fidelity needs the product of one row only, seven qubits
# that share a distribution (d0, d1, d2, d3).  A qubit's character sum is
# then one of four values, ((d0 ± d1) ± d2) ± d3 by the signs of its X
# and Z characters: the sums that the K=4 gemm of _character_product
# forms, in the same order, so _shared_product gathers them by sign kind
# and multiplies the seven rows in qubit order, with the gemm route's
# bits.  first_level_fidelity applies the transform to that one row, as
# the reference does, since that kernel fixes the joint's bits, and
# recovers it in closed form with the operations of recover_713.  The
# Monte Carlo level keeps one drawn syndrome per individual and builds
# only that syndrome's class row, with the reference's bits (see the
# drawn-syndrome section below).

#: parity-check column of each qubit, row k at index k
_H_COLS = tuple(zip(*PARITY_CHECK_713))

#: Klein four-group multiplication table on class indices (I, X, Y, Z)
_KLEIN = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=np.int64
)


def _popcount_signs(masks: np.ndarray) -> np.ndarray:
    """(-1)^popcount(c & mask) for c in 0..255, one row per mask."""
    v = np.arange(256)[None, :] & np.asarray(masks)[:, None]
    return np.where(_popcount(v) % 2 == 0, 1.0, -1.0)


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


@lru_cache(maxsize=1)
def _sign_kinds():
    """Sign kind [7, 256] of each qubit's character: (s_x < 0) + 2 (s_z < 0),
    with s_x and s_z its X and Z character signs."""
    sig = _decomposition_tables()[0]
    kinds = (sig[:, 1] < 0) + 2 * (sig[:, 3] < 0)
    kinds.setflags(write=False)
    return kinds


def _character_sums(dist: np.ndarray) -> np.ndarray:
    """The four character sums [4] of a qubit with distribution dist [4],
    by sign kind (see _sign_kinds), added in the order of the gemm."""
    d0, d1, d2, d3 = dist.tolist()
    plus, minus = d0 + d1, d0 - d1
    return np.array([(plus + d2) + d3, (minus - d2) + d3, (plus - d2) - d3, (minus + d2) - d3])


def _shared_product(dist: np.ndarray) -> np.ndarray:
    """Character product [1, 256] of seven qubits that all have the
    distribution dist [4], with _character_product's bits."""
    return np.multiply.reduce(_character_sums(dist)[_sign_kinds()], axis=0, keepdims=True)


def _character_product(children: np.ndarray, qh: np.ndarray, term: np.ndarray) -> None:
    """Product over the seven qubits of their character sums, for
    children [batch, 7, 4], into qh [batch, 256]; term is a work buffer of the
    same shape."""
    sig = _decomposition_tables()[0]
    np.matmul(children[:, 0], sig[0], qh)
    for i in range(1, 7):
        qh *= np.matmul(children[:, i], sig[i], term)


def recover_713(joint: np.ndarray):
    """Syndrome weights [...] and post-recovery conditional class
    distributions [..., 4] for unrecovered class rows joint [..., 4],
    such as the [batch, 64, 4] output of the full decomposition.

    Recovery applies, per syndrome, the logical class with the largest
    probability (first of I, X, Y, Z on ties), relabelling the classes
    by the Klein group so that index 0 is the post-recovery identity.
    Zero-weight syndromes get the trivial conditional distribution.
    """
    joint = np.asarray(joint, dtype=float)
    flat = joint.reshape(-1, 4)
    # the classes added in order, the bits of flat.sum(axis=1)
    weights = ((flat[:, 0] + flat[:, 1]) + flat[:, 2]) + flat[:, 3]
    # class k of row r after relabelling is flat entry 4 r + _KLEIN[best_r, k]
    cond = flat.take(_KLEIN[flat.argmax(axis=1)] + np.arange(0, flat.size, 4)[:, None])
    with np.errstate(invalid="ignore", divide="ignore"):
        cond /= weights[:, None]
    cond[weights <= 0] = (1.0, 0.0, 0.0, 0.0)
    return weights.reshape(joint.shape[:-1]), cond.reshape(joint.shape)


def _check_distribution(name: str, dist) -> np.ndarray:
    """dist as a float array; ValueError naming it unless it is a
    length-4 vector of finite, non-negative entries that sum to 1 within
    SUM_TOL."""
    dist = np.asarray(dist, dtype=float)
    # a NaN fails v >= 0 and an inf makes the sum inf; on four values,
    # Python is a few us faster than numpy
    if not (
        dist.shape == (4,)
        and all(v >= 0.0 for v in dist.tolist())
        and abs(fsum(dist.tolist()) - 1.0) <= SUM_TOL
    ):
        raise ValueError(
            "%s must be 4 finite non-negative probabilities summing to 1, got %r" % (name, dist)
        )
    return dist


def first_level_fidelity(dist) -> float:
    """Probability of no logical error after one level of encoding and
    syndrome-wise recovery, for seven qubits drawn independently from
    the same error distribution.

    dist must be a Pauli distribution as mc_verdict's dist0 is, or
    ValueError is raised."""
    dist = _check_distribution("dist", dist)
    transform = _decomposition_tables()[1]
    joint = np.matmul(_shared_product(dist), transform).reshape(64, 4)
    # recover_713's weights * (relabelled / weights) at class 0, whose
    # relabelled entry is the largest class value; a syndrome without
    # weight keeps the trivial row, 1 at class 0
    weights = joint.sum(axis=1)
    cond0 = np.divide(joint.max(axis=1), weights, out=np.ones(64), where=weights > 0)
    return float((weights * cond0).sum())


# ---------------------------------------------------------------------------
# drawn-syndrome class rows of 7-qubit error products
#
# The Monte Carlo level keeps, for each individual, the class row of one
# syndrome drawn from the syndrome weights.  The weight of syndrome s sums
# the joint over its four classes, which keeps only the 64 characters
# whose parity bits are zero: it is their 64-point Walsh-Hadamard
# transform, over 64.  A column of the decomposition transform is a sign
# per character that depends on the syndrome alone (its syndrome
# character, and the parity flips by which a nontrivial syndrome
# relabels the classes) times the column of the same class at syndrome
# 0.  So the drawn syndrome's class row is the character product times
# that syndrome's signs (exact), times the class columns of syndrome 0,
# in a gemm that adds the characters in ascending order, as the full
# decomposition does from 5 rows up: the row has the reference's bits.
#
# OpenBLAS (0.3.31) gives a row the same bits in any batch only in some
# layouts: one row goes through gemv, which adds in another order, so it
# runs as a 2-row gemm; the class columns are padded to 8, since with 4
# a block adds in another order; and the weights' matmul takes the
# (symmetric) weight transform transposed.  The test_drawn_rows_* tests
# in tests/test_codes.py check each of these.


@lru_cache(maxsize=1)
def _syndrome_tables():
    """The syndrome weight transform [64, 64] (applied to the parity-free
    characters, syndrome character c = a | b << 3), the per-syndrome
    character signs [64, 256], and the class columns of syndrome 0,
    padded with zero columns to [256, 8]."""
    _, transform = _decomposition_tables()
    signs = np.ascontiguousarray(transform[:, 0::4].T) * 256.0
    classes = np.zeros((256, 8))
    classes[:, :4] = transform[:, :4]
    # parity-free characters u = a | b << 4, in the order c = a | b << 3
    parity_free = (np.arange(64) & 7) | ((np.arange(64) >> 3) << 4)
    weight_transform = signs[:, parity_free] / 64.0
    tables = (weight_transform, signs, classes)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _syndrome_buffers(rows: int):
    """Work buffers for blocks of up to `rows` rows (at least 2): the
    character product and one qubit's character sums ([rows, 256] each),
    the parity-free characters, the syndrome weights and their cumulative
    sums ([rows, 64] each), and the class rows [rows, 8]."""
    rows = max(rows, 2)
    return (
        np.empty((rows, 256)),
        np.zeros((rows, 256)),
        np.zeros((rows, 64)),
        np.empty((rows, 64)),
        np.empty((rows, 64)),
        np.empty((rows, 8)),
    )


def _cumulative_syndrome_weights(children: np.ndarray, buffers):
    """Character product [batch, 256] of children [batch, 7, 4], and the
    cumulative sums [batch, 64] of its syndrome weights, in syndrome
    order, in the leading rows of buffers."""
    weight_transform = _syndrome_tables()[0]
    n = children.shape[0]
    m = max(n, 2)  # one row would go through gemv
    qh, term = buffers[0][:n], buffers[1][:n]
    parity_free, weights, cum = buffers[2][:m], buffers[3][:m], buffers[4][:n]
    _character_product(children, qh, term)
    np.copyto(parity_free[:n].reshape(n, 8, 8), qh.reshape(n, 2, 8, 2, 8)[:, 0, :, 0, :])
    np.matmul(parity_free, weight_transform.T, weights)
    return qh, np.cumsum(weights[:n], axis=1, out=cum)


def _drawn_syndromes(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Syndrome drawn by each uniform in u: the number of cumulative
    weights under it, capped at 63.  cum holds one row per uniform, or
    one row shared by all."""
    return np.minimum(np.add.reduce(cum < u[:, None], axis=1, dtype=np.intp), 63)


def _drawn_class_rows(qh: np.ndarray, syndromes: np.ndarray, buffers) -> np.ndarray:
    """Unrecovered class row [batch, 4] (the full decomposition's row) of
    each syndrome, for the character products qh [batch, 256] or one row
    shared by all, in the leading rows of buffers."""
    _, signs, classes = _syndrome_tables()
    n = syndromes.shape[0]
    m = max(n, 2)  # one row would go through gemv
    term, rows = buffers[1][:m], buffers[5][:m]
    # mode="raise" would copy through a buffer; syndromes are in 0..63
    np.take(signs, syndromes, axis=0, out=term[:n], mode="clip")
    term[:n] *= qh
    np.matmul(term, classes, rows)
    return rows[:n, :4]


# ---------------------------------------------------------------------------
# binary Golay [23,12] cosets

#: generator polynomial x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1
GOLAY_GENERATOR = 0b110001110101
GOLAY_N = 23

#: coset leaders of the [23,12] code by weight, and how many cosets of
#: each weight there are
GOLAY_COSET_LEADERS = (0, 0b1, 0b11, 0b111)
GOLAY_COSET_COUNTS = (1, 23, 253, 1771)


@lru_cache(maxsize=1)
def golay_codewords() -> np.ndarray:
    """All 4096 codewords of the [23,12] Golay code as 23-bit ints: word
    m is m(x) g(x) over GF(2), the XOR of g shifted by each set bit of m."""
    return _span([GOLAY_GENERATOR << j for j in range(12)])


@lru_cache(maxsize=1)
def golay_coset_enumerators():
    """Per coset-weight class j: weight enumerators (even[24], odd[24])
    of the even-weight and odd-weight halves of the coset."""
    # weights[j]: codeword weights in the coset of leader j; row 0 gives parity
    weights = _popcount(golay_codewords() ^ np.array(GOLAY_COSET_LEADERS)[:, None])
    odd = weights[0] & 1 == 1
    enums = tuple(
        tuple(np.bincount(w[half], minlength=GOLAY_N + 1).astype(np.int64, copy=False) for half in (~odd, odd))
        for w in weights
    )
    for pair in enums:
        for arr in pair:
            arr.setflags(write=False)
    return enums


def golay_syndrome_weights(p: float):
    """Probabilities (kept[4], flipped[4]) that an i.i.d. flip pattern at
    rate p lands in the even or odd half of a class-j coset, per coset.
    Raises ValueError unless 0 <= p <= 1."""
    _check_prob("p", p)
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
