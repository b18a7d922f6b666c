from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusconf import decomp
from torusconf.decomp import (
    closed_form_report,
    conf_closed_form,
    decompose,
    published_closed_form,
    reduced_table,
    relation_decomposition,
)
from torusconf.gf2 import (
    Gf2Matrix,
    SubspaceNotPreservedError,
    bit_indices,
    induced_map_on_quotient,
    quotient_structure,
    rank,
)
from torusconf.quotient import conf_module
from torusconf.torus import (
    Decomposition,
    KernelPresentation,
    Sigma2Module,
    involution_fixed_points,
    sigma_matrix,
    torus_module,
)


def module(perm, relations=()):
    """A module on len(perm) coordinates swapped by ``perm``, modulo the span
    of the masks ``relations``."""
    rows = tuple(tuple(bit_indices(v)) for v in relations)
    pres = KernelPresentation(rows, quotient_structure(len(perm), rows))
    return Sigma2Module(tuple(perm), pres)


def permutation_matrix(perm):
    rows = [0] * len(perm)
    for j, p in enumerate(perm):
        rows[p] |= 1 << j
    return Gf2Matrix(len(perm), len(perm), tuple(rows))


def dense_decompose(sigma, quotient=None):
    """The dense oracle: induce the swap matrix on the quotient, check that
    it squares to the identity and read the regular count off rank(sigma + I)."""
    if quotient is not None:
        sigma = induced_map_on_quotient(sigma, quotient)
    n = sigma.nrows
    identity = Gf2Matrix.identity(n)
    assert sigma @ sigma == identity
    regular = rank((sigma + identity).rows)
    return Decomposition(n, n - 2 * regular, regular)


# --- decompose ----------------------------------------------------------------

def test_decompose_trivial_line():
    assert decompose(module([0])) == Decomposition(1, 1, 0)


def test_decompose_swap_pair():
    assert decompose(module([1, 0])) == Decomposition(2, 0, 1)


def test_decompose_conf_2_2():
    assert decompose(conf_module(2, 2)) == Decomposition(5, 3, 1)


def test_decompose_rejects_non_involution():
    # a 3-cycle; an entry out of range; negative entries, which would index
    # from the end
    for perm in ([1, 2, 0], [0, 2], [-1, 0], [0, -1]):
        with pytest.raises(ValueError, match="not an involution"):
            decompose(module(perm))


def test_module_rejects_swap_of_wrong_length():
    pres = KernelPresentation((), quotient_structure(2, ()))
    with pytest.raises(ValueError, match="ambient"):
        Sigma2Module((0,), pres)


def test_decompose_rejects_unstable_kernel():
    # the swap sends the relation e0 to e1, which is not a relation
    with pytest.raises(SubspaceNotPreservedError):
        decompose(module([1, 0], [0b01]))


def test_decompose_matches_dense_oracle_exhaustive():
    for d in range(8):
        for i in range(2 * d + 1):
            sigma = sigma_matrix(d, i)
            assert decompose(torus_module(d, i)) == dense_decompose(sigma), (d, i)
            if i < 2 * d:
                m = conf_module(d, i)
                assert decompose(m) == dense_decompose(sigma, m.presentation.quotient), (d, i)


@st.composite
def involutions_with_stable_subspaces(draw):
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    for t in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * t], order[2 * t + 1]
        perm[a], perm[b] = b, a
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))
    swapped = [sum(1 << perm[b] for b in bit_indices(v)) for v in masks]
    return perm, masks + swapped


@given(involutions_with_stable_subspaces())
def test_decompose_matches_dense_oracle_random(case):
    perm, relations = case
    m = module(perm, relations)
    sigma = permutation_matrix(perm)
    assert decompose(m) == dense_decompose(sigma, m.presentation.quotient)
    assert decompose(module(perm)) == dense_decompose(sigma)


def per_entry_fixed_points(perm):
    """The plain reference for involution_fixed_points: every entry is looked
    up, must lie in range and must map back; None when one does not."""
    n = len(perm)
    for j, p in enumerate(perm):
        if not 0 <= p < n or perm[p] != j:
            return None
    return sum(p == j for j, p in enumerate(perm))


@st.composite
def edited_involutions(draw):
    """An involution, left as it is or edited into a near miss: one entry
    set to any value (negative, out of range or a duplicate of another
    entry), or three entries made a 3-cycle."""
    perm, _ = draw(involutions_with_stable_subspaces())
    n = len(perm)
    edit = draw(st.sampled_from(["none", "entry", "duplicate", "cycle"]))
    if edit == "entry" and n:
        perm[draw(st.integers(0, n - 1))] = draw(st.integers(-n - 2, n + 2))
    elif edit == "duplicate" and n >= 2:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        perm[a] = perm[b]
    elif edit == "cycle" and n >= 3:
        a, b, c = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        perm[a], perm[b], perm[c] = b, c, a
    return perm


@given(st.one_of(edited_involutions(), st.lists(st.integers(-3, 12), max_size=10)))
def test_involution_fixed_points_matches_the_per_entry_loop(perm):
    expected = per_entry_fixed_points(perm)
    if expected is None:
        with pytest.raises(ValueError, match="not an involution"):
            involution_fixed_points(perm)
    else:
        assert involution_fixed_points(perm) == expected


# --- closed forms ---------------------------------------------------------------

def test_conf_closed_form_values():
    assert conf_closed_form(3, 4) == Decomposition(12, 6, 3)
    assert conf_closed_form(3, 3) == Decomposition(19, 1, 9)
    assert conf_closed_form(2, 3) == Decomposition(2, 2, 0)
    assert conf_closed_form(1, 2) == Decomposition(0, 0, 0)


def test_published_form_non_integral_cell():
    t, r = published_closed_form(3, 3)
    assert (t, r) == (Fraction(1), Fraction(15, 2))


def test_published_form_matches_in_even_and_low_degrees():
    for d in range(1, 7):
        for i in range(2 * d + 1):
            if i % 2 and i >= d:
                continue
            t, r = published_closed_form(d, i)
            corrected = conf_closed_form(d, i)
            assert (t, r) == (corrected.trivial, corrected.regular)


def test_report_3_3():
    rep = closed_form_report(3, 3)
    assert rep.brute == rep.corrected == Decomposition(19, 1, 9)
    assert rep.published_regular == Fraction(15, 2)
    assert not rep.published_integral


def test_report_even_case_agreement():
    rep = closed_form_report(3, 4)
    assert rep.published_integral
    assert (rep.published_trivial, rep.published_regular) == (6, 3)
    assert rep.brute == rep.corrected == Decomposition(12, 6, 3)


def test_report_below_d():
    rep = closed_form_report(2, 1)
    assert rep.published_integral
    assert (rep.published_trivial, rep.published_regular) == (0, 2)
    assert rep.corrected == rep.brute
    assert (rep.brute.trivial, rep.brute.regular) == (0, 2)


# --- tables -----------------------------------------------------------------------

def test_cached_decomposition_matches_uncached_and_closed_form():
    for d in range(7):
        for i in range(2 * d + 2):
            cached = decomp._table_decomposition(d, i)
            assert cached == relation_decomposition(d, i)
            assert cached == decompose(conf_module(d, i)) == conf_closed_form(d, i)
            assert decomp._table_decomposition(d, i) is cached


# --- relation-local decomposition ------------------------------------------------

def test_relation_decomposition_matches_ambient_elimination():
    for d in range(9):
        for i in range(-1, 2 * d + 2):
            assert relation_decomposition(d, i) == decompose(conf_module(d, i)), (d, i)


def test_relation_decomposition_matches_closed_form():
    for d in range(12):
        for i in range(-1, 2 * d + 2):
            assert relation_decomposition(d, i) == conf_closed_form(d, i), (d, i)


def test_relation_decomposition_rejects_negative_d():
    with pytest.raises(ValueError):
        relation_decomposition(-1, 0)


def corrupt_one_term(monkeypatch, edit):
    """Make decomp's _relation_terms yield edit(s, t) for the second term of
    the generator of the monomial 0b001 at d = 3."""
    original = decomp._relation_terms

    def corrupted(d, m):
        for j, (s, t) in enumerate(original(d, m)):
            yield edit(s, t) if (d, m, j) == (3, 0b001, 1) else (s, t)

    monkeypatch.setattr(decomp, "_relation_terms", corrupted)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s, t: (s, t | 0b010),  # S and T meet in more than m
        lambda s, t: (s & ~0b100, t & ~0b100),  # S and T miss an index
        lambda s, t: (s | t, s | t),  # a swap-fixed term
        lambda s, t: (t, s),  # the row's swapped term twice, this one never
    ],
    ids=["meet", "cover", "fixed", "unstable"],
)
def test_relation_decomposition_rejects_a_corrupted_term(monkeypatch, edit):
    corrupt_one_term(monkeypatch, edit)
    with pytest.raises(ValueError, match=r"\(3, 4, 1\)"):
        relation_decomposition(3, 4)


def test_reduced_table_d1():
    # degree 1 carries a single trivial summand: the space is one-dimensional
    assert reduced_table(1) == (
        Decomposition(0, 0, 0),
        Decomposition(1, 1, 0),
    )


def test_reduced_table_d2():
    assert reduced_table(2) == (
        Decomposition(0, 0, 0),
        Decomposition(4, 0, 2),
        Decomposition(5, 3, 1),
        Decomposition(2, 2, 0),
    )


def test_reduced_table_d3():
    assert reduced_table(3) == (
        Decomposition(0, 0, 0),
        Decomposition(6, 0, 3),
        Decomposition(15, 3, 6),
        Decomposition(19, 1, 9),
        Decomposition(12, 6, 3),
        Decomposition(3, 3, 0),
    )


def test_reduced_table_requires_positive_d():
    with pytest.raises(ValueError):
        reduced_table(0)


def test_duality_like_swap_for_small_d():
    # trivial rank in degree d+i matches regular rank in degree d-i (i >= 1);
    # this pattern is special to d <= 3
    for d in (1, 2, 3):
        table = reduced_table(d)

        def cell(i):
            if 0 <= i < len(table):
                return table[i]
            return Decomposition(0, 0, 0)

        for i in range(1, d + 1):
            assert cell(d + i).trivial == cell(d - i).regular
            assert cell(d + i).regular == cell(d - i).trivial


def test_bookkeeping_invariant():
    for d in range(1, 7):
        for i in range(2 * d + 1):
            dec = decompose(conf_module(d, i))
            assert dec.trivial + 2 * dec.regular == dec.dim
