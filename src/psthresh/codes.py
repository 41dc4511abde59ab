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
  decomposition's bits, and, for a flow with phase flips only, the eight
  one-sector syndrome weights and parity splits;
* the binary Golay [23,12] coset weight enumerators behind the
  [[23,1,7]] syndrome weights and sector entropy; the [[23,1,7]]
  diagonal and crash probabilities come from crash_poly_2317.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, fsum, lcm, log2, prod
from numbers import Integral
from operator import truediv
from typing import NamedTuple

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


def _span(generators) -> np.ndarray:
    """All XOR combinations of the int bit masks `generators`, read-only
    int64: word m is the XOR of generator j for each set bit j of m."""
    words = np.zeros(1, dtype=np.int64)
    for g in generators:
        words = np.concatenate([words, words ^ g])
    words.setflags(write=False)
    return words


def coset_class_713(pattern: int) -> int:
    """Distance class of a 7-bit error pattern: the minimum weight over
    its stabilizer coset, always in 0..3.  Raises ValueError unless
    pattern is an integer (not a bool) in 0..127."""
    if isinstance(pattern, bool) or not isinstance(pattern, Integral) or not 0 <= pattern < 128:
        raise ValueError("pattern must be a 7-bit integer, got %r" % (pattern,))
    return int(np.bitwise_count(pattern ^ _tables_713().span).min())


def distance_table_713() -> np.ndarray:
    """8x4 table: entry [w, d] counts weight-w patterns in distance
    class d, by enumeration of all 128 patterns."""
    e = np.arange(128)
    classes = np.bitwise_count(e[:, None] ^ _tables_713().span).min(axis=1)
    return np.bincount(4 * np.bitwise_count(e) + classes, minlength=32).reshape(8, 4)


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

class CrashPolynomial(NamedTuple):
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

#: Klein four-group multiplication table on class indices (I, X, Y, Z):
#: the product of two Paulis up to phase is the XOR of their indices
_KLEIN = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def _popcount_signs(masks: np.ndarray) -> np.ndarray:
    """(-1)^popcount(c & mask) for c in 0..255, one row per mask."""
    v = np.arange(256)[None, :] & np.asarray(masks)[:, None]
    return np.where(np.bitwise_count(v) & 1 == 0, 1.0, -1.0)


class _Tables713(NamedTuple):
    """The read-only [[7,1,3]] tables, built by _tables_713."""

    span: np.ndarray  # [8] parity-check row span (weights 0, 4), qubit i at bit i
    sig: np.ndarray  # [7, 4, 256] per-qubit character signs
    kinds: np.ndarray  # [7, 256] sign kind of each qubit's character, (s_x < 0) + 2 (s_z < 0)
    transform: np.ndarray  # [256, 256] u's Walsh-Hadamard row in u's (syndrome, class) column
    cumulative_transform: np.ndarray  # [64, 64] [c, s]: the weight transform summed over syndromes 0..s
    signs: np.ndarray  # [64, 256] per-syndrome character signs
    classes: np.ndarray  # [256, 8] class columns of syndrome 0, zero-padded
    sector_words: np.ndarray  # [16, 7] one-sector character supports, V0 then V1


@lru_cache(maxsize=1)
def _tables_713() -> _Tables713:
    """Every [[7,1,3]] table, from PARITY_CHECK_713."""
    span = _span([sum(b << i for i, b in enumerate(row)) for row in PARITY_CHECK_713])
    # parity-check column of each qubit, row k at bit k
    cols = [c[0] | (c[1] << 1) | (c[2] << 2) for c in zip(*PARITY_CHECK_713)]
    s_x = _popcount_signs([c | (1 << 3) for c in cols])  # [7, 256]
    s_z = _popcount_signs([(c << 4) | (1 << 7) for c in cols])
    sig = np.stack([np.ones_like(s_x), s_x, s_x * s_z, s_z], axis=1)
    kinds = (sig[:, 1] < 0) + 2 * (sig[:, 3] < 0)

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

    # the drawn-syndrome section's tables
    signs = np.ascontiguousarray(transform[:, 0::4].T) * 256.0
    classes = np.zeros((256, 8))
    classes[:, :4] = transform[:, :4]
    # the syndrome weights' transform [c, s] (symmetric) on parity-free
    # characters u = a | b << 4, in the order c = a | b << 3, summed along
    # the syndromes: integers over 64, so exact
    parity_free = (np.arange(64) & 7) | ((np.arange(64) >> 3) << 4)
    cumulative_transform = np.cumsum(np.ascontiguousarray(signs[:, parity_free]) / 64.0, axis=1)

    # the one-sector section's supports: the span's words (V0) and the same
    # words shifted by the logical word 1111111 (V1), qubit i in column i
    words = np.concatenate([span, span ^ 0b1111111])
    sector_words = (words[:, None] >> np.arange(7)) & 1 == 1

    tables = _Tables713(span, sig, kinds, transform, cumulative_transform, signs, classes, sector_words)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _character_sums(dist: np.ndarray) -> np.ndarray:
    """The four character sums [4] of a qubit with distribution dist [4],
    by sign kind (see _Tables713.kinds), added in the order of the gemm."""
    d0, d1, d2, d3 = dist.tolist()
    plus, minus = d0 + d1, d0 - d1
    return np.array([(plus + d2) + d3, (minus - d2) + d3, (plus - d2) - d3, (minus + d2) - d3])


def _shared_product(dist: np.ndarray) -> np.ndarray:
    """Character product [1, 256] of seven qubits that all have the
    distribution dist [4], with _character_product's bits."""
    return np.multiply.reduce(_character_sums(dist)[_tables_713().kinds], axis=0, keepdims=True)


def _character_product(children: np.ndarray, qh: np.ndarray, term: np.ndarray) -> None:
    """Product over the seven qubits of their character sums, for
    children [batch, 7, 4], into qh [batch, 256]; term is a work buffer of the
    same shape."""
    sig = _tables_713().sig
    np.matmul(children[:, 0], sig[0], qh)
    for i in range(1, 7):
        qh *= np.matmul(children[:, i], sig[i], term)


def recover_713(rows: np.ndarray) -> np.ndarray:
    """Post-recovery conditional class distributions [n, 4] of the
    unrecovered class rows [n, 4] of n syndromes, such as the drawn rows
    of a population level.

    Recovery applies, per row, the logical class with the largest
    probability (first of I, X, Y, Z on ties), relabelling the classes
    by the Klein group so that index 0 is the post-recovery identity; a
    row of weight <= 0 gets the trivial conditional distribution.
    """
    rows = np.asarray(rows, dtype=float)
    # the classes added in order, the bits of rows.sum(axis=1)
    weights = ((rows[:, 0] + rows[:, 1]) + rows[:, 2]) + rows[:, 3]
    # class k of row r after relabelling is flat entry 4 r + _KLEIN[best_r, k]
    cond = rows.take(_KLEIN[rows.argmax(axis=1)] + np.arange(0, rows.size, 4)[:, None])
    with np.errstate(invalid="ignore", divide="ignore"):
        cond /= weights[:, None]
    cond[weights <= 0] = (1.0, 0.0, 0.0, 0.0)
    return cond


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
    transform = _tables_713().transform
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
# transform, over 64.  The draw counts the running sums of the weights,
# in syndrome order, under its uniform, so the transform is summed along
# the syndromes first (integers over 64, exact) and one matmul gives the
# running sums.  They can differ from running sums of the weights in the
# last bit or so, which moves a draw only for a uniform that close to a
# sum.  A column of the decomposition transform is a sign per character
# that depends on the syndrome alone (its syndrome character, and the
# parity flips by which a nontrivial syndrome relabels the classes)
# times the column of the same class at syndrome 0.  So the drawn
# syndrome's class row is the character product times that syndrome's
# signs (exact), times the class columns of syndrome 0, in a gemm that
# adds the characters in ascending order, as the full decomposition does
# from 5 rows up: the row has the reference's bits.
#
# OpenBLAS (0.3.31) gives a row the same bits in any batch only in some
# layouts: one row goes through gemv, which adds in another order, so it
# runs as a 2-row gemm; the class columns are padded to 8, since with 4
# a block adds in another order; and the cumulative transform is C-ordered
# [character, syndrome].  The test_drawn_rows_* tests in
# tests/test_codes.py check each of these, and
# test_level_rows_match_reference in tests/test_threshold.py a whole
# level in blocks of 128 rows and of other sizes.


def _syndrome_buffers(rows: int):
    """Work buffers for blocks of up to `rows` rows (at least 2): the
    character product and one qubit's character sums ([rows, 256] each),
    the parity-free characters and the cumulative syndrome weights
    ([rows, 64] each), and the class rows [rows, 8]."""
    rows = max(rows, 2)
    return (
        np.empty((rows, 256)),
        np.zeros((rows, 256)),
        np.zeros((rows, 64)),
        np.empty((rows, 64)),
        np.empty((rows, 8)),
    )


def _cumulative_syndrome_weights(children: np.ndarray, buffers):
    """Character product [batch, 256] of children [batch, 7, 4], and the
    cumulative sums [batch, 64] of its syndrome weights, in syndrome
    order, in the leading rows of buffers."""
    cumulative_transform = _tables_713().cumulative_transform
    n = children.shape[0]
    m = max(n, 2)  # one row would go through gemv
    qh, term, parity_free, cum = buffers[0][:n], buffers[1][:n], buffers[2][:m], buffers[3][:m]
    _character_product(children, qh, term)
    np.copyto(parity_free[:n].reshape(n, 8, 8), qh.reshape(n, 2, 8, 2, 8)[:, 0, :, 0, :])
    np.matmul(parity_free, cumulative_transform, cum)
    return qh, cum[:n]


def _drawn_syndromes(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Syndrome drawn by each uniform in u: the number of cumulative
    weights under it, capped at the last column.  cum [.., syndromes]
    holds one row per uniform, or one row shared by all."""
    return np.minimum(np.add.reduce(cum < u[:, None], axis=1, dtype=np.intp), cum.shape[1] - 1)


def _drawn_class_rows(qh: np.ndarray, syndromes: np.ndarray, buffers) -> np.ndarray:
    """Unrecovered class row [batch, 4] (the full decomposition's row) of
    each syndrome, for the character products qh [batch, 256] or one row
    shared by all, in the leading rows of buffers."""
    tables = _tables_713()
    n = syndromes.shape[0]
    m = max(n, 2)  # one row would go through gemv
    term, rows = buffers[1][:m], buffers[4][:m]
    # mode="raise" would copy through a buffer; syndromes are in 0..63
    np.take(tables.signs, syndromes, axis=0, out=term[:n], mode="clip")
    term[:n] *= qh
    np.matmul(term, tables.classes, rows)
    return rows[:n, :4]


# ---------------------------------------------------------------------------
# one-sector syndrome weights of 7-qubit flip products
#
# With errors of one type only, qubit i flipped with probability q_i, the
# expectation of (-1)^(e.w) for a word w is the product of 1 - 2 q_i over
# the qubits of w.  Over the 8 words a of the check-row span (V0, word a
# the XOR of the check rows k of the set bits k of a), the 8-point
# Walsh-Hadamard transform of these products, over 8, gives the syndrome
# weights P(s), bit k of s from check row k; over the same words shifted
# by the logical word 1111111 (V1), it gives P(s, 0) - P(s, 1), the split
# of P(s) by the parity of e.  So 8 characters carry what the two-sector
# decomposition carries in 256 for a flow with no X or Y weight.  Every
# step is elementwise in a fixed order, with no BLAS call, so a column's
# bits do not depend on the columns beside it.


def _sector_weights(f: np.ndarray):
    """Syndrome weights P(s) and parity splits P(s, 0) - P(s, 1), [8, n]
    each, of seven independent flips whose 1 - 2 q are the rows of
    f [7, n]."""
    out = np.ones((16, f.shape[1]))
    for row, word in zip(out, _tables_713().sector_words):
        for i in np.flatnonzero(word):  # qubits in ascending order
            row *= f[i]
    # three butterfly stages within each half; a group of 2 h rows never
    # straddles the halves
    for h in (4, 2, 1):
        pairs = out.reshape(-1, 2, h, out.shape[1])
        top, bottom = pairs[:, 0], pairs[:, 1]
        total = top + bottom
        np.subtract(top, bottom, out=bottom)
        top[...] = total
    out *= 0.125
    return out[:8], out[8:]


def _sector_recovered(weight: np.ndarray, split: np.ndarray) -> np.ndarray:
    """Post-recovery flip probability min(P(s, 0), P(s, 1)) / P(s) from
    the syndrome weight P(s) and parity split P(s, 0) - P(s, 1),
    elementwise; 0 where P(s) <= 0, as recover_713's trivial row.  The
    lighter half is a difference of products near 1 for a rare syndrome
    and can round below 0, so it is clamped at 0."""
    lighter = np.minimum(weight + split, weight - split)
    np.maximum(lighter, 0.0, out=lighter)
    return np.divide(lighter, 2.0 * weight, out=np.zeros(weight.shape), where=weight > 0)


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
def golay_coset_enumerators() -> np.ndarray:
    """Read-only int64 [4, 2, 24]: per coset-weight class j, the weight
    enumerators of the even-weight (row 0) and odd-weight (row 1) halves
    of the coset."""
    # weights[j]: codeword weights in the coset of leader j; row 0 gives parity
    weights = np.bitwise_count(golay_codewords() ^ np.array(GOLAY_COSET_LEADERS)[:, None])
    odd = weights[0] & 1 == 1
    enums = np.array(
        [[np.bincount(w[half], minlength=GOLAY_N + 1) for half in (~odd, odd)] for w in weights], dtype=np.int64
    )
    enums.setflags(write=False)
    return enums


def golay_syndrome_weights(p: float):
    """Probabilities (kept[4], flipped[4]) that an i.i.d. flip pattern at
    rate p lands in the even or odd half of a class-j coset, per coset.
    Raises ValueError unless 0 <= p <= 1."""
    _check_prob("p", p)
    pw = np.array([p**w * (1 - p) ** (GOLAY_N - w) for w in range(GOLAY_N + 1)])
    # one dot product per enumerator row, with the bits of row @ pw
    kept, flipped = np.vecdot(golay_coset_enumerators(), pw).T
    return kept, flipped


def golay_logical_diagonal(p: float) -> float:
    """Post-recovery sector diagonal sum_j n_j (W_j - V_j) at flip rate
    p, in its closed form: crash_poly_2317 at 1 - 2p."""
    return crash_poly_2317()(1 - 2 * _check_prob("p", p))


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
