"""Tests for the distance-class machinery.

The combine / post-selection semiring and the syndrome decomposition
both have brute-force oracles here: exact Fraction enumeration over all
pattern pairs for the class operations, and the full 4^7 product
distribution for the Walsh-Hadamard decomposition.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from psthresh.codes import (
    CLASS_SIZES_713,
    GOLAY_COSET_COUNTS,
    GOLAY_COSET_LEADERS,
    PARITY_CHECK_713,
    combine_classes,
    coset_class_713,
    crash_poly_2317,
    crash_poly_713,
    crash_polynomial,
    decompose_713,
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
)
from psthresh.pauli import pauli_commutes
from psthresh.threshold import McConfig, _mc_level, model_level0

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
    with pytest.raises(ValueError):
        postselect_classes([0, 1, 0, 0], [0, 0, 1, 0])


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


@lru_cache(maxsize=1)
def _reference_tables():
    cols = [sum(row[i] << k for k, row in enumerate(PARITY_CHECK_713)) for i in range(7)]
    u = np.arange(256)

    def signs(masks):
        v = np.asarray(masks)[:, None] & u[None, :]
        pc = sum((v >> b) & 1 for b in range(8))
        return np.where(pc % 2 == 0, 1.0, -1.0)

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


def test_recover_relabels_to_identity():
    rng = np.random.default_rng(3)
    raw = rng.random((2, 7, 4))
    joint = decompose_713(raw / raw.sum(axis=2, keepdims=True))
    weights, cond = recover_713(joint)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(cond.sum(axis=2), 1.0, atol=1e-12)
    # after relabelling the recovered class leads every conditional
    assert (cond[..., 0:1] >= cond - 1e-15).all()


def test_recover_zero_weight_syndromes():
    joint = np.zeros((1, 64, 4))
    joint[0, 0, 0] = 1.0
    weights, cond = recover_713(joint)
    assert weights[0, 0] == 1.0
    np.testing.assert_array_equal(cond[0, 1], [1.0, 0.0, 0.0, 0.0])


def test_first_level_fidelity():
    assert first_level_fidelity([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
    p = 0.01
    fid = first_level_fidelity([1 - p, p / 3, p / 3, p / 3])
    assert 0 < 1 - fid < 30 * p**2
    assert fid > first_level_fidelity([0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3])
    with pytest.raises(ValueError):
        first_level_fidelity([1.0, 0.0, 0.0])


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


def test_golay_enumerators_leader_independent():
    # every coset of a class shares one weight enumerator; recompute a
    # few classes from different leaders
    words = golay_codewords()
    weights = np.array([bin(int(c)).count("1") for c in words])
    even = words[weights % 2 == 0]
    odd = words[weights % 2 == 1]
    enums = golay_coset_enumerators()
    for j, leader in ((1, 1 << 13), (2, 0b101), (3, 0b10011)):
        a = np.zeros(24, dtype=np.int64)
        b = np.zeros(24, dtype=np.int64)
        for c in even:
            a[bin(int(c) ^ leader).count("1")] += 1
        for c in odd:
            b[bin(int(c) ^ leader).count("1")] += 1
        np.testing.assert_array_equal(a, enums[j][0])
        np.testing.assert_array_equal(b, enums[j][1])


def test_golay_syndrome_weights_normalized():
    kept, flipped = golay_syndrome_weights(0.09)
    n = np.array(GOLAY_COSET_COUNTS, dtype=float)
    assert n @ (kept + flipped) == pytest.approx(1.0, abs=1e-12)
    assert (kept > 0).all() and (flipped > 0).all()


def test_golay_logical_diagonal_matches_polynomial():
    f23 = crash_poly_2317()
    for p in (0.01, 0.05, 0.109681, 0.2):
        assert golay_logical_diagonal(p) == pytest.approx(
            float(f23(1 - 2 * p)), abs=1e-12
        )


def test_golay_sector_entropy_calibration():
    assert 2 * golay_sector_entropy(0.109681) == pytest.approx(
        1.00162555, abs=1e-7
    )
    assert golay_sector_entropy(0.0) == 0.0
