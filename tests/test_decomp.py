from fractions import Fraction

import pytest

from torusconf.decomp import (
    closed_form_report,
    conf_closed_form,
    decompose,
    published_closed_form,
    reduced_table,
)
from torusconf.gf2 import Gf2Matrix
from torusconf.quotient import conf_module
from torusconf.torus import Decomposition, Sigma2Module, TensorClass, Monomial


def plain_module(sigma_rows, ncols):
    n = ncols
    labels = tuple(TensorClass(Monomial(0), Monomial(0)) for _ in range(n))
    return Sigma2Module(n, labels, Gf2Matrix(n, n, tuple(sigma_rows)))


# --- decompose ----------------------------------------------------------------

def test_decompose_trivial_line():
    assert decompose(plain_module([0b1], 1)) == Decomposition(1, 1, 0)


def test_decompose_swap_pair():
    assert decompose(plain_module([0b10, 0b01], 2)) == Decomposition(2, 0, 1)


def test_decompose_conf_2_2():
    assert decompose(conf_module(2, 2)) == Decomposition(5, 3, 1)


def test_decompose_rejects_non_involution():
    with pytest.raises(ValueError):
        decompose(plain_module([0b10, 0b00], 2))  # nilpotent, not an involution


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
