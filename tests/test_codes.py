"""Tests for the distance-class machinery.

The combine / post-selection semiring and the syndrome decomposition
both have brute-force oracles here: exact Fraction enumeration over all
pattern pairs for the class operations, and the full 4^7 product
distribution for the Walsh-Hadamard decomposition.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psthresh
from psthresh import codes, threshold
from psthresh.codes import (
    CLASS_SIZES_713,
    GOLAY_GENERATOR,
    GOLAY_COSET_COUNTS,
    GOLAY_COSET_LEADERS,
    PARITY_CHECK_713,
    combine_classes,
    coset_class_713,
    crash_poly_2317,
    crash_poly_713,
    crash_polynomial,
    degeneracy_correction,
    distance_classes_from_x,
    distance_table_713,
    first_level_fidelity,
    golay_codewords,
    golay_coset_enumerators,
    golay_logical_diagonal,
    golay_sector_entropy,
    golay_syndrome_weights,
    postselect_classes,
    recover_713,
    _KLEIN,
    _character_product,
    _character_sums,
    _check_distribution,
    _cumulative_syndrome_weights,
    _drawn_class_rows,
    _drawn_syndromes,
    _popcount_signs,
    _shared_product,
    _syndrome_buffers,
    _tables_713,
)
from psthresh.threshold import McConfig, _mc_level, model_level0

from pauli_reference import pauli_commutes

# ---------------------------------------------------------------------------
# [[7,1,3]] structure


def test_distance_table():
    # worked out by hand from the simplex-code coset structure
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 7, 0, 0],
            [0, 0, 21, 0],
            [0, 28, 0, 7],
            [7, 0, 28, 0],
            [0, 21, 0, 0],
            [0, 0, 7, 0],
            [0, 0, 0, 1],
        ]
    )
    table = distance_table_713()
    assert table.tolist() == want.tolist()
    assert tuple(table.sum(axis=0)) == CLASS_SIZES_713
    np.testing.assert_array_equal(table.sum(axis=1), [comb(7, w) for w in range(8)])


@pytest.mark.parametrize("pattern", [-1, 128, 1.5, True, "3"])
def test_coset_class_rejects_bad_patterns(pattern):
    with pytest.raises(ValueError, match="pattern must be a 7-bit integer"):
        coset_class_713(pattern)


def test_coset_class_takes_numpy_ints():
    assert coset_class_713(np.int64(127)) == coset_class_713(np.uint8(127)) == coset_class_713(127) == 3


def test_stabilizers_commute():
    # the parity-check rows as X-type strings, then as Z-type strings
    gens = [
        "".join(letter if b else "I" for b in row)
        for letter in "XZ"
        for row in PARITY_CHECK_713
    ]
    assert len(gens) == 6
    logical_x, logical_z = "X" * 7, "Z" * 7
    for a, b in itertools.combinations(gens, 2):
        assert pauli_commutes(a, b)
    for g in gens:
        assert pauli_commutes(g, logical_x)
        assert pauli_commutes(g, logical_z)
    assert not pauli_commutes(logical_x, logical_z)


def test_classes_from_x_match_table():
    table = distance_table_713()
    for x in (Fraction(1), Fraction(9, 10), Fraction(1, 3), Fraction(0)):
        flip = (1 - x) / 2
        keep = (1 + x) / 2
        want = [
            sum(int(table[w, d]) * flip**w * keep ** (7 - w) for w in range(8))
            for d in range(4)
        ]
        assert distance_classes_from_x(x) == want


# exact pair-count tensors: T[da, db, dc] counts pattern pairs with the
# given classes whose XOR falls in class dc, K[da] counts pairs in the
# same stabilizer coset (which forces db == da)


def _pair_tensors():
    cls = [coset_class_713(e) for e in range(128)]
    span = {s for s in range(128) if cls[s] == 0 and bin(s).count("1") in (0, 4)}
    t = np.zeros((4, 4, 4), dtype=np.int64)
    k = np.zeros(4, dtype=np.int64)
    for e in range(128):
        for f in range(128):
            t[cls[e], cls[f], cls[e ^ f]] += 1
            if e ^ f in span:
                assert cls[e] == cls[f]
                k[cls[e]] += 1
    return t, k


def test_combine_and_postselect_against_enumeration():
    t, k = _pair_tensors()
    sizes = CLASS_SIZES_713
    grid = [
        distance_classes_from_x(Fraction(n, 10)) for n in (10, 9, 7, 4, 0)
    ]
    for a in grid:
        for b in grid:
            want = [
                sum(
                    a[da] * b[db] * int(t[da, db, dc])
                    / (sizes[da] * sizes[db])
                    for da in range(4)
                    for db in range(4)
                )
                for dc in range(4)
            ]
            assert combine_classes(a, b) == want

            kept_want = [
                a[d] * b[d] * int(k[d]) / (sizes[d] * sizes[d]) for d in range(4)
            ]
            total = sum(kept_want)
            if total > 0:
                p_keep, cond = postselect_classes(a, b)
                assert p_keep == total
                assert cond == [v / total for v in kept_want]


def test_postselect_rejects_empty():
    with pytest.raises(ValueError, match="keeps nothing"):
        postselect_classes([0, 1, 0, 0], [0, 0, 1, 0])
    with pytest.raises(ValueError, match="keeps nothing"):
        postselect_classes([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("a, b", [
    ([nan] * 4, [0.25] * 4),
    ([0.5, nan, 0.5, 0.0], [0.25] * 4),
])
def test_postselect_rejects_nan(a, b):
    with pytest.raises(ValueError, match="keeps nothing"):
        postselect_classes(a, b)


@pytest.mark.parametrize("x", [1.5, -1.0000001, nan, inf, -inf, 2, -2, Fraction(3, 2), Fraction(-11, 10)])
def test_classes_from_x_rejects_out_of_range(x):
    with pytest.raises(ValueError, match="x must lie in"):
        distance_classes_from_x(x)


def test_exact_inputs_give_fractions():
    # a plain 0 used to turn the products into floats
    got = combine_classes([Fraction(1), 0, 0, 0], [Fraction(1), 0, 0, 0])
    assert got == [1, 0, 0, 0] and all(type(v) is Fraction for v in got)
    p_keep, cond = postselect_classes([1, 0, 0, 0], [Fraction(1, 2), 0, 0, Fraction(1, 2)])
    assert (p_keep, cond) == (Fraction(1, 2), [1, 0, 0, 0])
    for x in (0, 1, -1, True, Fraction(1, 3)):
        assert all(type(v) is Fraction for v in distance_classes_from_x(x))
    assert distance_classes_from_x(1) == [1, 0, 0, 0]
    # one float sends the call down the float route
    assert all(type(v) is float for v in combine_classes([Fraction(1), 0, 0, 0.0], [1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# exact and float routes of the class functions against their first bodies


def _reference_distance_classes_from_x(x):
    """distance_classes_from_x as first written, with no range check."""
    x3 = x * x * x
    x4 = x3 * x
    x7 = x3 * x4
    return [
        (1 + 7 * x3 + 7 * x4 + x7) / 16,
        (7 + 7 * x3 - 7 * x4 - 7 * x7) / 16,
        (7 - 7 * x3 - 7 * x4 + 7 * x7) / 16,
        (1 - 7 * x3 + 7 * x4 - x7) / 16,
    ]


def _reference_combine_classes(a, b):
    """combine_classes as first written: one expression on any numbers."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return [
        a0 * b0 + a1 * b1 / 7 + a2 * b2 / 7 + a3 * b3,
        a0 * b1 + a1 * (b0 + 6 * b2 / 7) + a2 * (b3 + 6 * b1 / 7) + a3 * b2,
        a0 * b2 + a1 * (b3 + 6 * b1 / 7) + a2 * (b0 + 6 * b2 / 7) + a3 * b1,
        a0 * b3 + a1 * b2 / 7 + a2 * b1 / 7 + a3 * b0,
    ]


def _reference_postselect_classes(a, b):
    """postselect_classes as first written, which let a NaN through."""
    kept = [a[0] * b[0], a[1] * b[1] / 7, a[2] * b[2] / 7, a[3] * b[3]]
    p_keep = kept[0] + kept[1] + kept[2] + kept[3]
    if p_keep <= 0:
        raise ValueError("post-selection keeps nothing")
    return p_keep, [k / p_keep for k in kept]


def _rational(rng, bound):
    """A seeded rational in [-bound, bound]: 0 or +-1 as an int or a
    Fraction, a small int, or n/d with a random sign and size."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice((0, 1, -1))
    if kind == 1:
        return Fraction(rng.choice((0, 1, -1)))
    if kind == 2:
        return rng.randint(-bound, bound)
    d = rng.randint(1, 10 ** rng.randint(1, 12))
    return Fraction(rng.randint(-bound * d, bound * d), d)


def _exact_cases(count=500):
    """Seeded (x, a, b) for the exact route; half the vectors have no
    negative entry, so that post-selection keeps something."""
    rng = random.Random(5)
    for i in range(count):
        x = _rational(rng, 1)
        a, b = ([_rational(rng, 3) for _ in range(4)] for _ in range(2))
        if i % 2:
            a, b = [abs(v) for v in a], [abs(v) for v in b]
        yield x, a, b


def _fractions(values):
    return [Fraction(v) for v in values]


def test_exact_route_matches_reference():
    raised = kept = 0
    for x, a, b in _exact_cases():
        got = distance_classes_from_x(x)
        assert got == _reference_distance_classes_from_x(Fraction(x))
        assert all(type(v) is Fraction for v in got)
        a_f, b_f = _fractions(a), _fractions(b)
        got = combine_classes(a, b)
        assert got == _reference_combine_classes(a_f, b_f)
        assert all(type(v) is Fraction for v in got)
        try:
            want = _reference_postselect_classes(a_f, b_f)
        except ValueError:
            with pytest.raises(ValueError, match="keeps nothing"):
                postselect_classes(a, b)
            raised += 1
            continue
        p_keep, cond = postselect_classes(a, b)
        assert (p_keep, cond) == want
        assert all(type(v) is Fraction for v in [p_keep, *cond])
        kept += 1
    assert raised > 50 and kept > 50


def _same_float(got, want):
    assert type(got) is type(want) is float and got.hex() == want.hex()


def _float_value(rng):
    """A seeded float: 0.0, -0.0, +-1.0, or uniform on [-1, 1] or [0, 1]."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((0.0, -0.0, 1.0, -1.0))
    return rng.uniform(-1.0, 1.0) if kind == 1 else rng.random()


def test_float_route_keeps_bits():
    # the last 100 cases mix Fractions and ints into float vectors
    rng = random.Random(8)
    raised = 0
    for i in range(500):
        x = _float_value(rng)
        for g, w in zip(distance_classes_from_x(x), _reference_distance_classes_from_x(x)):
            _same_float(g, w)
        a, b = ([_float_value(rng) for _ in range(4)] for _ in range(2))
        if i >= 400:
            a[rng.randrange(4)] = Fraction(rng.randint(0, 9), 9)
            b[rng.randrange(4)] = rng.randint(0, 1)
        for g, w in zip(combine_classes(a, b), _reference_combine_classes(a, b)):
            _same_float(g, w)
        try:
            want = _reference_postselect_classes(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="keeps nothing"):
                postselect_classes(a, b)
            raised += 1
            continue
        p_keep, cond = postselect_classes(a, b)
        for g, w in zip([p_keep, *cond], [want[0], *want[1]]):
            _same_float(g, w)
    assert 0 < raised < 400


def test_forward_class_recursion_keeps_bits(monkeypatch):
    grid = [0.0, 0.001, 0.01, 0.02, 0.03, 0.0315, 0.04, 0.1, 0.3, 0.5]
    got = [threshold._forward_class_state(pf) for pf in grid]
    got_point = threshold.fixed_fidelity_point("713", "forward")
    monkeypatch.setattr(threshold, "distance_classes_from_x", _reference_distance_classes_from_x)
    monkeypatch.setattr(threshold, "combine_classes", _reference_combine_classes)
    monkeypatch.setattr(threshold, "postselect_classes", _reference_postselect_classes)
    want = [threshold._forward_class_state(pf) for pf in grid]
    for g, w in zip(got, want):
        for gv, wv in zip(g, w):
            for a, b in zip(gv, wv):
                _same_float(a, b)
    for a, b in zip(got_point, threshold.fixed_fidelity_point("713", "forward")):
        _same_float(a, b)


# ---------------------------------------------------------------------------
# crash polynomials


def test_crash_poly_713_coefficients():
    f7 = crash_poly_713()
    assert dict(f7.terms) == {3: Fraction(7, 4), 7: Fraction(-3, 4)}
    assert f7(Fraction(1)) == 1
    assert f7.derivative_at_one(1) == 0


def test_crash_poly_2317_coefficients():
    f23 = crash_poly_2317()
    assert dict(f23.terms) == {
        7: Fraction(3795, 512),
        11: Fraction(-805, 64),
        15: Fraction(1771, 256),
        23: Fraction(-385, 512),
    }
    assert f23(Fraction(1)) == 1
    for order in (1, 2, 3):
        assert f23.derivative_at_one(order) == 0


def test_crash_poly_713_matches_class_recovery():
    # recovery picks the smaller-distance class per syndrome, leaving
    # sector diagonal (a0 - a3) + (a1 - a2)
    f7 = crash_poly_713()
    for x in (Fraction(1), Fraction(4, 5), Fraction(1, 2)):
        a = distance_classes_from_x(x)
        assert f7(x) == (a[0] - a[3]) + (a[1] - a[2])


def test_crash_polynomial_general():
    poly = crash_polynomial((1, 3))
    # f(x) = (3x - x^3)/2 is the unique choice with f(1)=1, f'(1)=0
    assert dict(poly.terms) == {1: Fraction(3, 2), 3: Fraction(-1, 2)}
    # the exponents stay as given, sorted; only the arithmetic is exact
    poly = crash_polynomial((7.0, 3.0))
    assert poly.terms == ((3.0, Fraction(7, 4)), (7.0, Fraction(-3, 4)))
    assert [type(w) for w, _ in poly.terms] == [float, float]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 59), min_size=1, max_size=7))
def test_crash_polynomial_is_flat_at_one(weights):
    poly = crash_polynomial(weights)
    n = len(weights)
    assert [w for w, _ in poly.terms] == sorted(weights)
    assert all(type(c) is Fraction for _, c in poly.terms)
    assert poly(Fraction(1)) == 1
    assert [poly.derivative_at_one(k) for k in range(1, n)] == [0] * (n - 1)


@pytest.mark.parametrize("weights", [(), (3, 3), (1, 3, 3), [7, 3, 7]])
def test_crash_polynomial_rejects_repeated_or_no_exponents(weights):
    with pytest.raises(ValueError, match="distinct exponents"):
        crash_polynomial(weights)


def test_degeneracy_correction():
    assert degeneracy_correction("713-L1", 0.007) == pytest.approx(126 * 0.007**2)
    assert degeneracy_correction("713-L2", 0.01) == pytest.approx(
        3 * 7**5 * comb(12, 6) * 1e-12
    )
    assert degeneracy_correction("2317", 0.01) == pytest.approx(
        3 * comb(8, 4) * 506 * 1e-8
    )
    with pytest.raises(ValueError):
        degeneracy_correction("317", 0.01)


@pytest.mark.parametrize("p_g", [-1, -0.1, 1.5, nan])
def test_degeneracy_correction_rejects_bad_rate(p_g):
    with pytest.raises(ValueError, match="p_g"):
        degeneracy_correction("713-L1", p_g)


# ---------------------------------------------------------------------------
# syndrome decomposition


def _brute_force_decompose(children):
    rows = [_setup_row(r) for r in PARITY_CHECK_713]
    acc = np.zeros((64, 4))
    cls_of = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
    for pattern in itertools.product(range(4), repeat=7):
        prob = 1.0
        bx = bz = 0
        for i, v in enumerate(pattern):
            prob *= children[i][v]
            if v in (1, 2):
                bx |= 1 << i
            if v in (2, 3):
                bz |= 1 << i
        sa = sum(
            (bin(bx & rows[kk]).count("1") & 1) << kk for kk in range(3)
        )
        sb = sum(
            (bin(bz & rows[kk]).count("1") & 1) << kk for kk in range(3)
        )
        lx = (bin(bx).count("1") & 1) ^ (1 if sa else 0)
        lz = (bin(bz).count("1") & 1) ^ (1 if sb else 0)
        acc[sa | (sb << 3), cls_of[(lx, lz)]] += prob
    return acc


def _setup_row(row):
    out = 0
    for i, b in enumerate(row):
        if b:
            out |= 1 << i
    return out


def decompose_713(children):
    """Joint (syndrome, class) probabilities [batch, 64, 4] of a block of
    seven qubits with independent error distributions, children [7, 4]
    or [batch, 7, 4] (I, X, Y, Z order): the character product times the
    library's decomposition transform.  Axis 1 is the syndrome pair
    (bit | phase << 3), each half packed with parity-check row k at bit
    k, and axis 2 the logical class.  The library's Monte Carlo rows and
    first-level fidelity keep this full decomposition's bits."""
    transform = _tables_713().transform
    children = np.asarray(children, dtype=float)
    if children.ndim == 2:
        children = children[None]
    if children.shape[1:] != (7, 4):
        raise ValueError("expected children of shape [batch, 7, 4]")
    qh = np.empty((children.shape[0], 256))
    term = np.empty_like(qh)
    _character_product(children, qh, term)
    return np.matmul(qh, transform, term).reshape(-1, 64, 4)


def test_decompose_matches_brute_force():
    rng = np.random.default_rng(7)
    raw = rng.random((7, 4))
    children = raw / raw.sum(axis=1, keepdims=True)
    got = decompose_713(children)[0]
    want = _brute_force_decompose(children)
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_decompose_single_sector_matches_classes():
    x = 0.83
    children = np.tile([(1 + x) / 2, (1 - x) / 2, 0.0, 0.0], (7, 1))
    joint = decompose_713(children)[0]
    a = distance_classes_from_x(x)
    # phase syndrome stays trivial; bit syndrome 0 holds classes 0 and 3,
    # each nontrivial syndrome an equal share of classes 1 and 2
    assert joint[:, 2:].max() == pytest.approx(0.0, abs=1e-14)
    assert abs(joint[8:]).max() == pytest.approx(0.0, abs=1e-14)
    assert joint[0, 0] == pytest.approx(a[0], abs=1e-14)
    assert joint[0, 1] == pytest.approx(a[3], abs=1e-14)
    for s in range(1, 8):
        assert joint[s, 0] == pytest.approx(a[1] / 7, abs=1e-14)
        assert joint[s, 1] == pytest.approx(a[2] / 7, abs=1e-14)


def test_decompose_batched():
    rng = np.random.default_rng(11)
    raw = rng.random((3, 7, 4))
    children = raw / raw.sum(axis=2, keepdims=True)
    batched = decompose_713(children)
    assert batched.shape == (3, 64, 4)
    for b in range(3):
        np.testing.assert_allclose(
            batched[b], decompose_713(children[b])[0], atol=1e-15
        )


def _reference_popcount_signs(masks):
    """_popcount_signs as first written: popcount by an 8-pass bit loop."""
    c = np.arange(256)
    v = c[None, :] & np.asarray(masks)[:, None]
    pc = np.zeros_like(v)
    for b in range(8):
        pc += (v >> b) & 1
    return np.where(pc % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=1)
def _reference_tables():
    cols = [sum(row[i] << k for k, row in enumerate(PARITY_CHECK_713)) for i in range(7)]
    u = np.arange(256)
    signs = _reference_popcount_signs
    s_x = signs([c | (1 << 3) for c in cols])
    s_z = signs([(c << 4) | (1 << 7) for c in cols])
    sig = np.stack([np.ones_like(s_x), s_x, s_x * s_z, s_z], axis=1)
    cls_of = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
    perm = np.zeros(256, dtype=np.int64)
    for uu in range(256):
        sa, pa, sb, pb = uu & 7, (uu >> 3) & 1, (uu >> 4) & 7, uu >> 7
        lx = pa ^ (1 if sa else 0)
        lz = pb ^ (1 if sb else 0)
        perm[uu] = 4 * (sa | (sb << 3)) + cls_of[(lx, lz)]
    return sig, signs(u), perm


def _reference_decompose(children):
    """decompose_713 as first written: all seven per-qubit character sums
    at once, their product, the Walsh-Hadamard transform, then a scatter
    from character label to (syndrome, class) position."""
    sig, wht, perm = _reference_tables()
    children = np.asarray(children, dtype=float)
    if children.ndim == 2:
        children = children[None]
    w = np.einsum("bia,iac->bic", children, sig)
    q = w.prod(axis=1) @ wht.T / 256.0
    out = np.zeros_like(q)
    out[:, perm] = q
    return out.reshape(-1, 64, 4)


@pytest.fixture(scope="module")
def knill_population():
    """A knill population near threshold after four levels."""
    config = McConfig()
    popn = np.tile(model_level0("knill")(0.0688), (config.population, 1))
    for level in range(1, 5):
        popn = _mc_level(popn, config, level)
    return popn


# batch 16 is the last block of a 10^4 population and 256 a full block of
# a population level; 1808 was the last 8192-row chunk of a 10^4
# population before levels ran in 256-row blocks
@pytest.mark.parametrize("batch", [1, 2, 16, 256, 512, 1808, 8192])
def test_decompose_matches_reference(batch, knill_population):
    rng = np.random.default_rng(batch)
    raw = rng.random((batch, 7, 4))
    drawn = rng.integers(0, knill_population.shape[0], size=(batch, 7))
    for children in (raw / raw.sum(axis=2, keepdims=True), knill_population[drawn]):
        np.testing.assert_array_equal(
            decompose_713(children), _reference_decompose(children)
        )


def test_decompose_rows_match_any_batch(knill_population):
    # a population level relies on this: from 5 rows up, a row's bits do
    # not depend on the batch around it (OpenBLAS takes another kernel,
    # with other bits, for 1-4 rows)
    children = knill_population[np.random.default_rng(0).integers(0, 10_000, (8192, 7))]
    full = decompose_713(children)
    for start, stop in ((0, 5), (0, 16), (100, 356), (7932, 8192), (8187, 8192)):
        np.testing.assert_array_equal(decompose_713(children[start:stop]), full[start:stop])


def test_decompose_rejects_bad_shape():
    with pytest.raises(ValueError):
        decompose_713(np.ones((6, 4)) / 4)


def _reference_recover(joint):
    """recover_713 as first written, on [batch, syndromes, 4]: argmax,
    sum, Klein relabel by take_along_axis, and division, each along the
    class axis."""
    joint = np.asarray(joint, dtype=float)
    best = joint.argmax(axis=2)
    weights = joint.sum(axis=2)
    relabelled = np.take_along_axis(joint, _KLEIN[best], axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = relabelled / weights[..., None]
    cond[weights <= 0] = np.array([1.0, 0.0, 0.0, 0.0])
    return weights, cond


@pytest.mark.parametrize("syndromes", [64, 1])
def test_recover_matches_reference(syndromes, knill_population):
    rng = np.random.default_rng(syndromes)
    raw = rng.random((300, syndromes, 4)) ** 3
    drawn = rng.integers(0, knill_population.shape[0], size=(300, 7))
    joint = decompose_713(knill_population[drawn])[:, :syndromes]
    for block in (raw, joint):
        block = block.copy()
        block[0, 0] = 0.0  # zero weight
        block[1, 0] = (0.25, 0.25, 0.25, 0.25)  # four-way tie
        block[2, 0] = (0.0, 0.5, 0.0, 0.5)  # X/Z tie
        block[3, 0] = (0.1, np.nan, 0.2, 0.3)
        block[4, 0] = (-0.0, -0.0, -0.0, -0.0)
        block[5, 0] = (0.3, 0.3, -0.1, 0.1)  # a weight under zero
        cond, want_cond = recover_713(block.reshape(-1, 4)), _reference_recover(block)[1]
        assert cond.shape == (block.shape[0] * syndromes, 4)
        np.testing.assert_array_equal(_as_bits(cond), _as_bits(want_cond.reshape(-1, 4)))


def test_recover_relabels_to_identity():
    rng = np.random.default_rng(3)
    raw = rng.random((2, 7, 4))
    joint = decompose_713(raw / raw.sum(axis=2, keepdims=True))
    np.testing.assert_allclose(joint.sum(axis=(1, 2)), 1.0, atol=1e-12)
    cond = recover_713(joint.reshape(-1, 4))
    np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
    # after relabelling the recovered class leads every conditional
    assert (cond[:, 0:1] >= cond - 1e-15).all()


def test_recover_zero_weight_syndromes():
    rows = np.zeros((64, 4))
    rows[0, 2] = 0.5
    cond = recover_713(rows)
    np.testing.assert_array_equal(cond[0], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(cond[1:], np.tile([1.0, 0.0, 0.0, 0.0], (63, 1)))


def test_first_level_fidelity():
    assert first_level_fidelity([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
    p = 0.01
    fid = first_level_fidelity([1 - p, p / 3, p / 3, p / 3])
    assert 0 < 1 - fid < 30 * p**2
    assert fid > first_level_fidelity([0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3])
    with pytest.raises(ValueError):
        first_level_fidelity([1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "dist",
    [
        [0.5, 0.5, 0.5, 0.5],
        [1.2, -0.2, 0.0, 0.0],
        [nan, 0.0, 0.0, 0.0],
        [inf, 0.0, 0.0, 0.0],
        [0.5, 0.1, 0.0, 0.0],
        [[1.0, 0.0, 0.0, 0.0]],
    ],
    ids=["sum 2", "negative", "nan", "inf", "sum below 1", "shape 1x4"],
)
def test_first_level_fidelity_rejects_bad_distributions(dist):
    # the rule of mc_verdict's dist0: [0.5] * 4 gave a "fidelity" of 32
    with pytest.raises(ValueError, match="dist must be 4 finite non-negative"):
        first_level_fidelity(dist)


def test_first_level_fidelity_sum_tolerance():
    # a sum within 1e-9 of 1 passes, as an input off by rounding does
    assert 0.0 < first_level_fidelity([0.97, 0.01, 0.01, 0.01 + 5e-10]) < 1.0
    # -0.0 is non-negative, as for numpy's >= 0
    assert first_level_fidelity(np.array([-0.0, 1.0, 0.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        first_level_fidelity([0.97, 0.01, 0.01, 0.01 + 2e-9])


# ---------------------------------------------------------------------------
# one-row path for seven qubits that share a distribution

#: distributions whose bits the one-row path must keep: a zero sum of
#: signed entries, one nonzero entry and a negative zero
EDGE_DISTS = ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.25] * 4, [0.5, 0.5, 0.0, 0.0],
              [-0.0, 1.0, 0.0, 0.0])


def _reference_first_level_fidelity(dist):
    """first_level_fidelity through the full decomposition: decompose_713
    of the seven tiled rows and _reference_recover."""
    dist = _check_distribution("dist", dist)
    joint = decompose_713(np.tile(dist, (7, 1)))
    weights, cond = _reference_recover(joint)
    return float((weights[0] * cond[0, :, 0]).sum())


def _shared_dists():
    """Seeded distributions: random ones, one-type ones in either sector
    (whose other sector's syndromes have zero weight), and EDGE_DISTS."""
    rng = np.random.default_rng(21)
    raw = rng.random((300, 4)) ** 3
    dists = list(raw / raw.sum(axis=1, keepdims=True))
    for p in rng.uniform(0.0, 0.3, 100):
        dists += [np.array([1 - p, 0.0, 0.0, p]), np.array([1 - p, p, 0.0, 0.0])]
    return dists + [np.array(d) for d in EDGE_DISTS]


def _as_bits(a):
    # the sign of a zero counts too
    return np.asarray(a, dtype=float).view(np.int64)


def test_character_sums_match_gemm():
    # each qubit's sums are the K=4 gemm's, at batch 1 and in a block
    tables = _tables_713()
    sig, kinds = tables.sig, tables.kinds
    assert kinds.shape == (7, 256) and not kinds.flags.writeable
    dists = _shared_dists()
    for dist in dists:
        sums = _character_sums(dist)
        for i in range(7):
            np.testing.assert_array_equal(_as_bits(sums[kinds[i]]), _as_bits(dist[None] @ sig[i])[0])
    block = np.array(dists[:256])
    gathered = np.array([_character_sums(d) for d in block])[:, kinds]  # [256, 7, 256]
    for i in range(7):
        np.testing.assert_array_equal(_as_bits(gathered[:, i]), _as_bits(block @ sig[i]))


def test_shared_product_matches_character_product():
    qh, term = np.empty((1, 256)), np.empty((1, 256))
    for dist in _shared_dists():
        _character_product(np.tile(dist, (1, 7, 1)), qh, term)
        got = _shared_product(dist)
        assert got.shape == (1, 256)
        np.testing.assert_array_equal(_as_bits(got), _as_bits(qh))


def test_first_level_fidelity_matches_reference():
    dists = _shared_dists()
    # some syndromes of the one-type rows have no weight, so the
    # trivial-row branch of recovery is taken
    assert (decompose_713(np.tile(dists[300], (7, 1))).sum(axis=2) <= 0).any()
    for dist in dists:
        assert first_level_fidelity(dist).hex() == _reference_first_level_fidelity(dist).hex()


# ---------------------------------------------------------------------------
# drawn-syndrome class rows


@lru_cache(maxsize=1)
def _reference_draw_tables():
    """The reference character signs, the 64-point signs, and the
    reference transform as [character, syndrome, class]."""
    sig, wht, perm = _reference_tables()
    transform = np.zeros((256, 256))
    transform[:, perm] = wht.T / 256.0
    return sig, wht[:64, :64], transform.reshape(256, 64, 4)


def _reference_drawn_rows(children, u):
    """The drawn-syndrome method written plainly on the whole batch: the
    character product, the 64-point transform of its parity-free
    characters as syndrome weights, the syndrome each uniform draws from
    their cumulative sum, and that syndrome's four columns of the
    decomposition transform, summed over the characters in ascending
    order (np.cumsum adds in order).  Returns (syndromes, unrecovered
    class rows)."""
    sig, signs, transform = _reference_draw_tables()
    q = children[:, 0] @ sig[0]
    for i in range(1, 7):
        q = q * (children[:, i] @ sig[i])
    parity_free = q.reshape(-1, 2, 8, 2, 8)[:, 0, :, 0, :].reshape(-1, 64)
    weights = parity_free @ (signs / 64.0).T
    pick = np.minimum((np.cumsum(weights, axis=1) < u[:, None]).sum(axis=1), 63)
    rows = np.empty((q.shape[0], 4))
    # 1024 rows at a time bounds the memory; each row is summed on its own
    for lo in range(0, q.shape[0], 1024):
        terms = q[lo : lo + 1024, :, None] * transform[:, pick[lo : lo + 1024]].transpose(1, 0, 2)
        rows[lo : lo + 1024] = np.cumsum(terms, axis=1)[:, -1]
    return pick, rows


def _drawn_rows(children, u):
    """(syndromes, unrecovered class rows) from the level's kernel."""
    buffers = _syndrome_buffers(children.shape[0])
    qh, cum = _cumulative_syndrome_weights(children, buffers)
    syndromes = _drawn_syndromes(cum, u)
    return syndromes, _drawn_class_rows(qh, syndromes, buffers)


def test_transform_factors_by_syndrome():
    # each column of the decomposition transform is a per-syndrome sign
    # times the column of the same class at syndrome 0, bit for bit
    tables = _tables_713()
    transform = _reference_draw_tables()[2]
    np.testing.assert_array_equal(tables.signs.T[:, :, None] * tables.classes[:, None, :4], transform)
    np.testing.assert_array_equal(tables.classes[:, 4:], 0.0)
    # the cumulative transform is the reference's running sums of integer
    # signs over 64, exactly, in the C layout whose bits no batch changes
    signs = _reference_draw_tables()[1].astype(np.int64)
    np.testing.assert_array_equal(tables.cumulative_transform, np.cumsum(signs.T, axis=1) / 64.0)
    assert tables.cumulative_transform.flags.c_contiguous


# 128 is a full block of a population level; 8 and 16 the last blocks of
# a worker's 5000 rows and of a 10^4 population; 1, 3 and 5 are short
# tails, and 256 and 259 span more than a block
@pytest.mark.parametrize("batch", [1, 3, 5, 8, 16, 128, 256, 259])
def test_drawn_rows_match_decompose(batch, knill_population):
    rng = np.random.default_rng(100 + batch)
    raw = rng.random((batch, 7, 4)) ** 3
    drawn = rng.integers(0, knill_population.shape[0], size=(batch, 7))
    u = rng.random(batch)
    for children in (raw / raw.sum(axis=2, keepdims=True), knill_population[drawn]):
        joint = decompose_713(children)
        cum = np.cumsum(joint.sum(axis=2), axis=1)
        want = np.minimum((cum < u[:, None]).sum(axis=1), 63)
        syndromes, rows = _drawn_rows(children, u)
        np.testing.assert_array_equal(syndromes, want)
        np.testing.assert_allclose(rows, joint[np.arange(batch), want], rtol=0, atol=1e-13)
        if batch >= 5:
            # from 5 rows up decompose_713 sums in the same order
            np.testing.assert_array_equal(rows, joint[np.arange(batch), want])


# OpenBLAS sums in order on large batches whatever the kernel's layout;
# 8, 16 and 128 rows check that the kernel does on blocks too
@pytest.mark.parametrize("batch", [2, 8, 16, 128, 256, 2000])
def test_drawn_rows_match_reference(batch, knill_population):
    rng = np.random.default_rng(2)
    children = knill_population[rng.integers(0, 10_000, (batch, 7))]
    u = rng.random(batch)
    for got, want in zip(_drawn_rows(children, u), _reference_drawn_rows(children, u)):
        np.testing.assert_array_equal(got, want)


def test_drawn_rows_match_any_batch(knill_population):
    # a population level relies on this down to a single row: blocks
    # leave a tail of any size, and level 1 builds one row.  The
    # cumulative weights are compared too, since a draw flips only when a
    # uniform falls between two roundings of a running sum; in F order,
    # the cumulative transform's matmul changes bits on 1-18 rows
    rng = np.random.default_rng(0)
    children = knill_population[rng.integers(0, 10_000, (8192, 7))]
    u = rng.random(8192)
    syndromes, rows = _drawn_rows(children, u)
    cum = _cumulative_syndrome_weights(children, _syndrome_buffers(8192))[1]
    blocks = [(0, n) for n in range(1, 12)] + [(8191, 8192), (8188, 8192), (3, 7), (0, 16), (4992, 5000),
                                               (100, 228), (100, 356), (7000, 7255), (7000, 7259)]
    for start, stop in blocks:
        got_syndromes, got_rows = _drawn_rows(children[start:stop], u[start:stop])
        np.testing.assert_array_equal(got_syndromes, syndromes[start:stop])
        np.testing.assert_array_equal(got_rows, rows[start:stop])
        got_cum = _cumulative_syndrome_weights(children[start:stop], _syndrome_buffers(stop - start))[1]
        np.testing.assert_array_equal(got_cum, cum[start:stop])


def test_drawn_rows_from_one_shared_row():
    # level 1 draws every uniform from one row's weights and builds the
    # class rows of all 64 syndromes from that row
    dist = np.array([0.9, 0.04, 0.02, 0.04])
    children = np.tile(dist, (64, 7, 1))
    u = np.random.default_rng(4).random(64)
    syndromes, rows = _drawn_rows(children, u)
    buffers = _syndrome_buffers(64)
    qh, cum = _cumulative_syndrome_weights(children[:1], buffers)
    np.testing.assert_array_equal(_drawn_syndromes(cum, u), syndromes)
    shared = _drawn_class_rows(qh, np.arange(64), buffers)
    np.testing.assert_array_equal(shared[syndromes], rows)
    np.testing.assert_array_equal(shared, decompose_713(children[:5])[0])


# ---------------------------------------------------------------------------
# Golay cosets


def test_golay_weight_distribution():
    weights = {}
    for c in golay_codewords():
        w = bin(int(c)).count("1")
        weights[w] = weights.get(w, 0) + 1
    assert weights == {
        0: 1,
        7: 253,
        8: 506,
        11: 1288,
        12: 1288,
        15: 506,
        16: 253,
        23: 1,
    }


def test_golay_coset_counts():
    assert sum(GOLAY_COSET_COUNTS) == 2**11
    for leader, count in zip(GOLAY_COSET_LEADERS, GOLAY_COSET_COUNTS):
        w = bin(leader).count("1")
        assert count == comb(23, w)


def _reference_golay_codewords():
    """golay_codewords as first written: one polynomial product mod 2
    per message."""

    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r

    words = np.array([mul(GOLAY_GENERATOR, m) for m in range(4096)], dtype=np.int64)
    words.setflags(write=False)
    return words


def _reference_golay_enumerators(leaders=GOLAY_COSET_LEADERS):
    """golay_coset_enumerators as first written, for the cosets of the
    given leaders: one bin().count per word and leader."""
    words = _reference_golay_codewords()
    weights = np.array([bin(int(c)).count("1") for c in words])
    even = words[weights % 2 == 0]
    odd = words[weights % 2 == 1]
    out = []
    for leader in leaders:
        a = np.zeros(24, dtype=np.int64)
        b = np.zeros(24, dtype=np.int64)
        for c in even:
            a[bin(int(c) ^ leader).count("1")] += 1
        for c in odd:
            b[bin(int(c) ^ leader).count("1")] += 1
        a.setflags(write=False)
        b.setflags(write=False)
        out.append((a, b))
    return tuple(out)


def _assert_same_table(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_table(g, w)
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.flags.writeable == want.flags.writeable
    assert got.tobytes(order="A") == want.tobytes(order="A")


def test_golay_tables_match_reference_builds():
    _assert_same_table(golay_codewords(), _reference_golay_codewords())
    got, want = golay_coset_enumerators(), np.array(_reference_golay_enumerators())
    assert got.dtype == want.dtype and got.shape == want.shape == (4, 2, 24)
    np.testing.assert_array_equal(got, want)
    assert not got.flags.writeable


def test_golay_enumerators_leader_independent():
    # every coset of a class shares one weight enumerator; recompute a
    # few classes from different leaders
    enums = golay_coset_enumerators()
    other = _reference_golay_enumerators((1 << 13, 0b101, 0b10011))
    for j, (a, b) in enumerate(other, start=1):
        np.testing.assert_array_equal(a, enums[j][0])
        np.testing.assert_array_equal(b, enums[j][1])


def test_decomposition_tables_match_reference_popcount(monkeypatch):
    cols = [sum(row[i] << k for k, row in enumerate(PARITY_CHECK_713)) for i in range(7)]
    for masks in ([c | (1 << 3) for c in cols], [(c << 4) | (1 << 7) for c in cols], np.arange(256)):
        _assert_same_table(_popcount_signs(masks), _reference_popcount_signs(masks))
    got = _tables_713()
    monkeypatch.setattr(codes, "_popcount_signs", _reference_popcount_signs)
    # every field of the NamedTuple
    _assert_same_table(got, _tables_713.__wrapped__())
    # the transform stays Fortran-ordered (see _tables_713)
    assert got.transform.flags.f_contiguous


def test_import_leaves_tables_unbuilt():
    # the Golay and decomposition tables are built on first use, not at
    # import
    src = str(Path(psthresh.__file__).resolve().parent.parent)
    code = (
        "import psthresh\n"
        "from psthresh import codes\n"
        "print([f.cache_info().currsize for f in (codes.golay_codewords, "
        "codes.golay_coset_enumerators, codes._tables_713)])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[0, 0, 0]"


def test_golay_syndrome_weights_match_row_dot_products():
    # np.vecdot takes one dot product per enumerator row, with the bits of
    # the per-row loop it replaced
    enums = golay_coset_enumerators()
    for p in [0.0, 0.5, 1.0] + np.random.default_rng(14).uniform(0.0, 1.0, 500).tolist():
        pw = np.array([p**w * (1 - p) ** (23 - w) for w in range(24)])
        kept, flipped = golay_syndrome_weights(p)
        assert kept.tolist() == [float(a @ pw) for a, _ in enums]
        assert flipped.tolist() == [float(b @ pw) for _, b in enums]


def test_golay_syndrome_weights_normalized():
    kept, flipped = golay_syndrome_weights(0.09)
    n = np.array(GOLAY_COSET_COUNTS, dtype=float)
    assert n @ (kept + flipped) == pytest.approx(1.0, abs=1e-12)
    assert (kept > 0).all() and (flipped > 0).all()


def test_golay_logical_diagonal_matches_polynomial():
    # the diagonal is crash_poly_2317 at 1 - 2p; its reference is the sum
    # over the Golay cosets, sum_j n_j (W_j - V_j)
    n_j = np.array(GOLAY_COSET_COUNTS, dtype=float)
    for p in (0.0, 0.01, 0.05, 0.109681, 0.2, 0.5, 1.0):
        kept, flipped = golay_syndrome_weights(p)
        assert golay_logical_diagonal(p) == pytest.approx(float(n_j @ (kept - flipped)), abs=1e-12)
    assert golay_logical_diagonal(0.05) == float(crash_poly_2317()(0.9))
    assert type(golay_logical_diagonal(0)) is float


def test_golay_sector_entropy_calibration():
    assert 2 * golay_sector_entropy(0.109681) == pytest.approx(
        1.00162555, abs=1e-7
    )
    assert golay_sector_entropy(0.0) == 0.0


@pytest.mark.parametrize("p", [1.5, -0.1, nan, inf])
def test_golay_maps_reject_bad_rate(p):
    # 1.5 gave an entropy of 0.0 and a diagonal of 6105963.25
    for golay_map in (golay_syndrome_weights, golay_sector_entropy, golay_logical_diagonal):
        with pytest.raises(ValueError, match="p must be in"):
            golay_map(p)
    assert golay_logical_diagonal(1.0) == pytest.approx(-1.0)
