from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from torusconf.gf2 import (
    Gf2Matrix,
    SubspaceNotPreservedError,
    bit_indices,
    echelon,
    from_indices,
    induced_map_on_quotient,
    quotient_structure,
    rank,
)
from torusconf.torus import cup_vector


def brute_span(masks, n):
    """Every GF(2) combination of the given row masks, as a set."""
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return span


def mat(rows, ncols):
    return Gf2Matrix(len(rows), ncols, tuple(rows))


def support(mask):
    """The sparse row of a mask: the positions of its set bits."""
    return list(bit_indices(mask))


def quotient_of_masks(n, masks):
    """quotient_structure on the sparse rows of the given masks."""
    return quotient_structure(n, [support(v) for v in masks])


# --- mask <-> bit positions ----------------------------------------------

LONG = (1 << 20) + 5  # a mask length past 2^20 bits


@given(st.integers(0, 1 << 300))
@example(1 | 1 << (LONG - 1))
def test_mask_to_indices_round_trip(mask):
    indices = list(bit_indices(mask))
    assert len(indices) == mask.bit_count()
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert from_indices(indices) == mask


@given(st.sets(st.integers(0, 2000)))
@example({0, LONG - 1})
def test_indices_to_mask_round_trip(indices):
    mask = from_indices(indices)
    assert mask == sum(1 << j for j in indices)
    assert list(bit_indices(mask)) == sorted(indices)


def test_from_indices_repeats_cancel():
    assert from_indices([]) == 0
    assert from_indices([3, 3]) == 0
    assert from_indices([3, 5, 3]) == 1 << 5


def test_negative_masks_and_indices_raise():
    # islice bounds the walk, so a version that never ends on a negative
    # mask fails here instead of hanging
    with pytest.raises(ValueError):
        list(islice(bit_indices(-5), 4))
    with pytest.raises(ValueError):
        from_indices([2, -1])


# --- rank ---------------------------------------------------------------

def test_rank_zero_matrix():
    assert rank([0, 0, 0]) == 0


def test_rank_identity():
    assert rank(Gf2Matrix.identity(4).rows) == 4


def test_rank_dependent_rows_against_enumeration():
    # rows 110, 011, 101 as coordinate sets {0,1}, {1,2}, {0,2}
    rows = [0b011, 0b110, 0b101]
    span = brute_span(rows, 3)
    assert len(span) == 4  # dimension 2: the third row is the sum of the others
    assert rank(rows) == 2


def test_rank_does_not_mutate():
    rows = [0b011, 0b110]
    assert rank(iter(rows)) == 2  # any iterable of row masks
    assert rows == [0b011, 0b110]


@st.composite
def matrices(draw, max_dim=6):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r))
    return mat(rows, c)


@given(matrices())
def test_rank_nullity(m):
    assert 1 << rank(m.rows) == len(brute_span(m.rows, m.ncols))


# --- quotients ----------------------------------------------------------

def test_quotient_by_nothing_is_identity():
    q = quotient_structure(3, [])
    assert q.dim == 3
    for bits in range(8):
        assert q.reduce(support(bits)) == tuple(support(bits))
        assert q.reduce_bits(bits) == bits


def test_quotient_by_everything_is_zero():
    q = quotient_structure(2, [[0], [1]])
    assert q.dim == 0
    for bits in range(4):
        assert q.reduce(support(bits)) == ()
        assert q.reduce_bits(bits) == 0


def test_quotient_coset_arithmetic_exhaustive():
    q = quotient_structure(3, [[0, 1, 2]])
    assert q.dim == 2
    assert q.rows == ((0, 1, 2),)
    r100 = from_indices(q.reduce([0]))
    r011 = from_indices(q.reduce([1, 2]))
    assert r100 ^ r011 == from_indices(q.reduce([0, 1, 2])) == 0
    # reduce(v) is empty exactly on the subspace, over all 2^3 vectors
    for bits in range(8):
        in_span = bits in (0, 0b111)
        assert (q.reduce(support(bits)) == ()) == in_span
        assert (q.reduce_bits(bits) == 0) == in_span


@st.composite
def subspaces(draw, max_dim=7):
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    return n, rows


@given(subspaces(), st.data())
def test_reduce_idempotent_and_linear(sub, data):
    n, rows = sub
    q = quotient_of_masks(n, rows)
    u = data.draw(st.integers(0, (1 << n) - 1))
    v = data.draw(st.integers(0, (1 << n) - 1))

    def reduce(mask):
        return from_indices(q.reduce(support(mask)))

    assert reduce(reduce(u)) == reduce(u)
    assert reduce(u ^ v) == reduce(u) ^ reduce(v)


@given(subspaces())
def test_kernel_vectors_are_killed(sub):
    # the kernel of reduction is exactly the span of the subspace rows
    n, rows = sub
    q = quotient_of_masks(n, rows)
    span = brute_span(rows, n)
    for v in range(1 << n):
        assert (q.reduce(support(v)) == ()) == (v in span)
        assert (q.reduce_bits(v) == 0) == (v in span)


@given(subspaces())
def test_quotient_dim_plus_span_dim(sub):
    n, rows = sub
    q = quotient_of_masks(n, rows)
    assert q.dim + len(q.pivots) == n
    assert len(brute_span(rows, n)) == 1 << len(q.pivots)


@given(subspaces(max_dim=12), st.data())
def test_sparse_quotient_matches_dense_oracles(sub, data):
    # the sparse echelon and reduction against the dense rank and reduce_bits
    n, rows = sub
    sparse = [support(v) for v in rows]
    assert len(echelon(sparse)) == rank(rows)
    q = quotient_structure(n, sparse)
    assert len(q.pivots) == rank(rows)
    # reduced row echelon: row k has pivot k as its lowest position, and no
    # row holds another row's pivot
    pivots = set(q.pivots)
    for p, row in zip(q.pivots, q.rows):
        assert list(row) == sorted(set(row)) and row[0] == p
        assert pivots.intersection(row) == {p}
    assert rank(rows + [from_indices(r) for r in q.rows]) == rank(rows)
    for v in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8)):
        rep = q.reduce(support(v))
        assert rep == tuple(support(q.reduce_bits(v)))
        assert not pivots.intersection(rep)  # supported on free coordinates
        assert rank(rows + [v ^ from_indices(rep)]) == rank(rows)  # same coset


def test_sparse_rows_list_each_position_once():
    with pytest.raises(ValueError, match="twice"):
        echelon([[1, 2, 1]])
    with pytest.raises(ValueError, match="twice"):
        quotient_structure(3, [[0, 0]])
    with pytest.raises(ValueError, match="twice"):
        quotient_structure(3, [[0, 1]]).reduce([2, 2])


def lift(q, w):
    """The ambient mask carrying quotient coordinates w on the free coordinates."""
    bits = 0
    for k in bit_indices(w):
        bits |= 1 << q.free_coords[k]
    return bits


def to_quotient(q, v):
    """Quotient coordinates of the coset of v, read off its representative."""
    rep = q.reduce_bits(v)
    return sum(1 << k for k, f in enumerate(q.free_coords) if (rep >> f) & 1)


def test_lift_then_reduce_round_trip():
    # a mask on the free coordinates is its own coset representative
    q = quotient_structure(3, [[0, 1, 2]])
    for w in range(1 << q.dim):
        assert q.reduce_bits(lift(q, w)) == lift(q, w)
        assert to_quotient(q, lift(q, w)) == w


# --- induced maps -------------------------------------------------------

def test_induced_identity_is_identity():
    q = quotient_structure(3, [[0, 1, 2]])
    ind = induced_map_on_quotient(Gf2Matrix.identity(3), q)
    assert ind == Gf2Matrix.identity(2)


def test_induced_on_zero_quotient():
    q = quotient_structure(2, [[0], [1]])
    ind = induced_map_on_quotient(Gf2Matrix.identity(2), q)
    assert ind.shape == (0, 0)


def test_induced_swap_mod_diagonal():
    # basis {ab, ba}, swap, modulo <ab + ba>: the induced map is 1x1 identity
    swap = mat([0b10, 0b01], 2)
    q = quotient_structure(2, [[0, 1]])
    ind = induced_map_on_quotient(swap, q)
    assert ind == Gf2Matrix.identity(1)


def test_unstable_subspace_raises():
    # shift e0 -> e1 -> 0 does not stabilise <e0>
    m = mat([0, 0b01], 2)
    q = quotient_structure(2, [[0]])
    with pytest.raises(SubspaceNotPreservedError):
        induced_map_on_quotient(m, q)


@st.composite
def preserving_setups(draw, max_dim=6):
    """A quotient plus a random endomorphism mapping its subspace into itself."""
    n, rows = draw(subspaces(max_dim=max_dim))
    q = quotient_of_masks(n, rows)
    kernel_rows = [from_indices(r) for r in q.rows]
    cols = [0] * n
    for f in q.free_coords:
        cols[f] = draw(st.integers(0, (1 << n) - 1))
    for p, row in zip(q.pivots, kernel_rows):
        img = 0
        for kr in kernel_rows:
            if draw(st.booleans()):
                img ^= kr
        # row = e_p + (free part), so the image of e_p balances the free images
        for b in bit_indices(row ^ (1 << p)):
            img ^= cols[b]
        cols[p] = img
    m = Gf2Matrix(n, n, tuple(cols)).transpose()
    return q, m, cols


def apply(m, v):
    """m v, one parity per row."""
    return sum(1 << i for i, r in enumerate(m.rows) if (r & v).bit_count() & 1)


@given(preserving_setups())
def test_induced_commutes_with_reduction(setup):
    q, m, cols = setup
    ind = induced_map_on_quotient(m, q)
    for j in range(q.ambient_dim):
        lhs = to_quotient(q, cols[j])
        rhs = apply(ind, to_quotient(q, 1 << j))
        assert lhs == rhs


# --- value types --------------------------------------------------------

def test_vector_validation():
    # a subspace vector's positions must lie inside the ambient space
    assert quotient_structure(2, [[0, 1]]).dim == 1
    with pytest.raises(ValueError):
        quotient_structure(2, [[2]])
    with pytest.raises(ValueError):
        quotient_structure(2, [[0], [70]])
    with pytest.raises(ValueError):
        quotient_structure(2, [[-1]])
    with pytest.raises(ValueError):
        quotient_structure(2, [[0, 5], [0, 5]])  # the second row cancels


def test_vector_length_mismatch():
    # cup_vector masks must fit the basis of their stated degree: d = 2 has
    # four degree-1 classes and one degree-0 class
    assert cup_vector(2, 1, 0b1000, 0, 0b1) == 0b1000
    with pytest.raises(ValueError):
        cup_vector(2, 1, 0b10000, 0, 0b1)
    with pytest.raises(ValueError):
        cup_vector(2, 1, 0b1000, 0, 0b10)
    with pytest.raises(ValueError):
        cup_vector(2, 1, -1, 0, 0b1)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Gf2Matrix(2, 2, (0b100, 0))
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (0, 0))
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (-1,))


def test_matrix_transpose_and_column():
    # row j of the transpose is column j
    m = mat([0b01, 0b11], 2)
    assert m.transpose().rows == (0b11, 0b10)
    assert mat([0b011, 0b110], 3).transpose() == mat([0b01, 0b11, 0b10], 2)


@given(matrices(max_dim=5))
def test_transpose_involutive(m):
    assert m.transpose().transpose() == m
