import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusconf import torus
from torusconf.decomp import decompose
from torusconf.gf2 import Gf2Matrix
from torusconf.torus import (
    Decomposition,
    binom,
    cup,
    cup_vector,
    kunneth_basis,
    kunneth_index,
    monomials,
    sigma_matrix,
    swap_permutation,
    torus_closed_form,
    torus_module,
    total_dim,
)


def sorted_basis(d, i):
    """The oracle basis order: every (left, right) pair of masks of total
    degree i, sorted as integer pairs."""
    masks = range(1 << d)
    return sorted(
        (s, t) for s in masks for t in masks if s.bit_count() + t.bit_count() == i
    )


# --- monomial enumeration -------------------------------------------------

def test_monomials_degree_zero():
    assert monomials(3, 0) == (0,)


def test_monomials_degree_one():
    assert monomials(3, 1) == (0b001, 0b010, 0b100)
    assert len(monomials(3, 1)) == math.comb(3, 1)


def test_monomials_above_dimension_empty():
    assert monomials(2, 3) == ()


def test_monomials_mask_ascending():
    for d in range(6):
        for k in range(d + 1):
            masks = list(monomials(d, k))
            assert masks == sorted(masks)
            assert len(masks) == math.comb(d, k)


# --- tensor basis ---------------------------------------------------------

def test_kunneth_smallest_case():
    assert kunneth_basis(1, 1) == ((0b0, 0b1), (0b1, 0b0))


def test_kunneth_counts():
    assert len(kunneth_basis(2, 2)) == 6  # C(4, 2) by the Vandermonde identity
    assert len(kunneth_basis(3, 3)) == 20  # C(6, 3)


def test_kunneth_count_formula():
    for d in range(6):
        for i in range(2 * d + 2):
            assert len(kunneth_basis(d, i)) == binom(2 * d, i) == total_dim(d, i)


def test_kunneth_canonical_order():
    # the basis, the arithmetic rank and the swap against the sorted oracle
    for d in range(8):
        for i in range(2 * d + 1):
            pairs = sorted_basis(d, i)
            assert list(kunneth_basis(d, i)) == pairs, (d, i)
            index = {pair: j for j, pair in enumerate(pairs)}
            assert all(kunneth_index(d, i, s, t) == j for (s, t), j in index.items())
            assert list(swap_permutation(d, i)) == [index[t, s] for s, t in pairs]


def test_kunneth_index_rejects_non_classes():
    for d, i, left, right in (
        (3, 2, 0b001, 0b011),  # degrees add up to 3, not 2
        (2, 2, 0b100, 0b001),  # index outside 1..d
        (2, 1, -1, 0b001),  # negative mask
    ):
        with pytest.raises(ValueError):
            kunneth_index(d, i, left, right)


# --- cup product ----------------------------------------------------------

def test_cup_square_vanishes():
    assert cup((0b1, 0), (0b1, 0)) is None


def test_cup_unit():
    assert cup((0, 0), (0b101, 0b10)) == (0b101, 0b10)


def test_cup_disjoint_union():
    assert cup((0b01, 0b10), (0b10, 0b01)) == (0b11, 0b11)


masks = st.integers(0, 15)


@given(masks, masks, masks, masks)
def test_cup_commutative(a, b, c, d):
    assert cup((a, b), (c, d)) == cup((c, d), (a, b))


@given(masks, masks, masks, masks, masks, masks)
def test_cup_associative(a, b, c, d, e, f):
    x, y, z = (a, b), (c, d), (e, f)
    left = cup(x, y)
    right = cup(y, z)
    lhs = cup(left, z) if left is not None else None
    rhs = cup(x, right) if right is not None else None
    assert lhs == rhs


@given(masks, masks, masks, masks)
def test_cup_vanishes_exactly_on_overlap(a, b, c, d):
    overlap = bool(a & c) or bool(b & d)
    assert (cup((a, b), (c, d)) is None) == overlap


def test_cup_vector_expands_termwise():
    # (1 x e1* + 1 x e2*) cup (e1* x 1) = e1* x e1* + e1* x e2* for d = 2
    d = 2
    out = cup_vector(d, 1, 0b0011, 1, 0b0100)
    terms = ((0b01, 0b01), (0b01, 0b10))
    assert out == sum(1 << kunneth_index(d, 2, s, t) for s, t in terms)


def test_cup_vector_cancels_mod2():
    d = 1
    u = 0b01  # 1 x e1*
    assert cup_vector(d, 1, u, 1, u) == 0


# --- swap action ----------------------------------------------------------

def test_sigma_degree_zero_identity():
    assert sigma_matrix(3, 0) == Gf2Matrix.identity(1)


def test_sigma_smallest_swap():
    assert sigma_matrix(1, 1) == Gf2Matrix(2, 2, (0b10, 0b01))


def test_sigma_is_permutation_involution():
    for d in range(1, 5):
        for i in range(2 * d + 1):
            s = sigma_matrix(d, i)
            n = s.nrows
            assert all(r.bit_count() == 1 for r in s.rows)
            assert s @ s == Gf2Matrix.identity(n)
            # swap_permutation is the same swap: row perm[j] holds bit j
            perm = swap_permutation(d, i)
            assert all(s.rows[p] == 1 << j for j, p in enumerate(perm))


def per_entry_swap(d, i):
    """The swap built one entry at a time: off_i[T] + pos(S) for each basis
    class (S, T), with no lanes."""
    if not 0 <= i <= 2 * d:
        return []
    off, pos = torus.offsets(d, i), torus.positions(d)
    return [
        off[t] + pos[s]
        for s in range(1 << d)
        for t in monomials(d, i - s.bit_count())
    ]


def test_lane_built_swap_matches_per_entry_reference():
    for d in range(8):
        for i in range(-1, 2 * d + 2):
            perm = swap_permutation(d, i)
            assert perm.typecode == "I"
            assert list(perm) == per_entry_swap(d, i), (d, i)
            if 0 <= i <= 2 * d:
                rows = sigma_matrix(d, i).rows
                assert len(rows) == len(perm)
                assert all(rows[p] == 1 << j for j, p in enumerate(perm)), (d, i)


def test_swap_refuses_positions_wider_than_a_lane(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lane width is checked before any table is built")

    monkeypatch.setattr(torus, "offsets", refuse)
    monkeypatch.setattr(torus, "positions", refuse)
    # C(36, 18) > 2^32: the largest position would wrap into the next lane
    with pytest.raises(OverflowError, match="lane"):
        swap_permutation(18, 18)


def test_sigma_fixed_point_count():
    # fixed basis classes in degree 2k are the diagonal ones: C(d, k) of them
    for d in range(1, 6):
        for i in range(2 * d + 1):
            s = sigma_matrix(d, i)
            fixed = sum(1 for j, r in enumerate(s.rows) if r == 1 << j)
            assert fixed == (binom(d, i // 2) if i % 2 == 0 else 0)


# --- torus modules ---------------------------------------------------------

def test_torus_module_small_cases():
    assert decompose(torus_module(2, 1)) == Decomposition(4, 0, 2)
    assert decompose(torus_module(2, 2)) == Decomposition(6, 2, 2)


def test_torus_top_class_is_fixed():
    for d in range(1, 5):
        assert decompose(torus_module(d, 2 * d)) == Decomposition(1, 1, 0)


def test_torus_closed_form_values():
    assert torus_closed_form(3, 2) == Decomposition(15, 3, 6)
    assert torus_closed_form(1, 1) == Decomposition(2, 0, 1)
    assert torus_closed_form(4, 9) == Decomposition(0, 0, 0)


def test_torus_oracle_small_sweep():
    for d in range(6):
        for i in range(2 * d + 2):
            assert decompose(torus_module(d, i)) == torus_closed_form(d, i)


def test_degenerate_point_torus():
    assert decompose(torus_module(0, 0)) == Decomposition(1, 1, 0)
    assert torus_closed_form(0, 0) == Decomposition(1, 1, 0)


# --- value types ------------------------------------------------------------

def test_decomposition_validation():
    with pytest.raises(ValueError):
        Decomposition(3, 2, 1)  # 2 + 2*1 != 3
    with pytest.raises(ValueError):
        Decomposition(2, -2, 2)
    with pytest.raises(ValueError):  # a 2-entry swap on a 1-dimensional basis
        torus.Sigma2Module(swap_permutation(1, 1), torus_module(1, 0).presentation)



def test_torus_module_outside_degrees_is_empty(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty degree must not build a 2^d-entry table")

    # at d = 40 the tables would have 2^40 entries, so fail fast
    monkeypatch.setattr(torus, "offsets", refuse)
    monkeypatch.setattr(torus, "positions", refuse)
    for i in (-1, 81, 100):
        assert decompose(torus_module(40, i)) == Decomposition(0, 0, 0)
