import dataclasses

import pytest

from torusconf.borel import (
    PAGE_INF,
    attribute_rank_drops,
    consistency_check,
    e2_page,
    fixture_page,
    sw_height,
    uconf_fixture,
)
from torusconf.decomp import decompose
from torusconf.quotient import conf_module


# --- computed second page ------------------------------------------------------

def test_e2_d2_rows():
    page = e2_page(2, 5)
    assert page.rows[2] == (4, 3, 3, 3, 3, 3)
    assert page.rows[0] == (1, 1, 1, 1, 1, 1)
    assert page.rows[1] == (2, 0, 0, 0, 0, 0)
    assert page.rows[3] == (2, 2, 2, 2, 2, 2)


def test_e2_d3_rows():
    page = e2_page(3, 7)
    assert page.rows[3] == (10, 1, 1, 1, 1, 1, 1, 1)
    assert page.rows[0] == (1,) * 8


def test_e2_column_totals():
    for d in (1, 2, 3, 4):
        page = e2_page(d, 3)
        decs = [decompose(conf_module(d, q)) for q in range(2 * d)]
        assert sum(page.rows[q][0] for q in range(2 * d)) == sum(
            dec.trivial + dec.regular for dec in decs
        )
        for p in (1, 2, 3):
            assert sum(page.rows[q][p] for q in range(2 * d)) == sum(
                dec.trivial for dec in decs
            )


def test_e2_rejects_bad_arguments():
    with pytest.raises(ValueError):
        e2_page(0, 3)
    with pytest.raises(ValueError):
        e2_page(2, -1)


# --- stored pages -----------------------------------------------------------------

def test_limit_page_d2():
    page = fixture_page(2, PAGE_INF)
    assert page.rows == (
        (1, 1, 1, 0, 0, 0),
        (2, 0, 0, 0, 0, 0),
        (3, 2, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
    )
    assert page.provenance == "fixture"
    assert page.source_figure == "figure-4"


def test_limit_page_d3_rows():
    page = fixture_page(3, "inf")
    assert page.rows[4] == (6, 3, 0, 0, 0, 0, 0, 0)
    assert page.rows[2] == (9, 3, 3, 0, 0, 0, 0, 0)


def test_third_page_d2():
    page = fixture_page(2, 3)
    assert page.rows[2] == (4, 3, 1, 1, 1, 1)
    assert page.source_figure == "figure-3"


def test_fourth_page_d2_is_the_limit():
    p4 = fixture_page(2, 4)
    pinf = fixture_page(2, PAGE_INF)
    assert p4.rows == pinf.rows
    assert p4.page == 4


def test_unsupported_pages_raise():
    with pytest.raises(ValueError):
        fixture_page(4, 3)
    with pytest.raises(ValueError):
        fixture_page(3, 4)


def test_pages_monotone_entrywise():
    for d in (2, 3):
        a = fixture_page(d, 2)
        b = fixture_page(d, 3)
        c = fixture_page(d, PAGE_INF)
        for q in range(a.qmax + 1):
            for p in range(a.pmax + 1):
                assert a.rows[q][p] >= b.rows[q][p] >= c.rows[q][p]


def test_with_pmax_extends_constant_tail():
    page = fixture_page(2, PAGE_INF).with_pmax(8)
    assert page.rows[0] == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert page.dim_at(30, 0) == 0
    narrowed = page.with_pmax(2)
    assert narrowed.rows[2] == (3, 2, 0)


def test_antidiagonal_sums():
    page = fixture_page(3, PAGE_INF)
    assert page.antidiagonal_sums(6) == (1, 4, 10, 13, 9, 3, 0)


# --- module structure over the polynomial generator -------------------------------

def test_uconf_graded_dims():
    assert uconf_fixture(2).graded_dims(4) == (1, 3, 4, 2, 0)
    assert uconf_fixture(3).graded_dims(6) == (1, 4, 10, 13, 9, 3, 0)


def test_uconf_top_degree_vanishes_d2():
    # an open connected 4-manifold has no top cohomology
    assert uconf_fixture(2).graded_dims(4)[4] == 0


def test_uconf_unsupported():
    with pytest.raises(ValueError):
        uconf_fixture(4)


# --- characteristic-class height ----------------------------------------------------

def test_sw_height_fixture_path():
    for d in (2, 3):
        res = sw_height(d)
        assert res.height == d
        assert res.evidence == "fixture-verified"
        row0 = fixture_page(d, PAGE_INF).rows[0]
        assert row0[:d + 1] == (1,) * (d + 1)
        assert row0[d + 1] == 0


def test_sw_height_theorem_path():
    res = sw_height(5)
    assert res.height == 5
    assert res.evidence == "theorem"
    assert len(res.notes) == 2


def test_sw_height_rejects_d1():
    with pytest.raises(ValueError):
        sw_height(1)


# --- consistency ----------------------------------------------------------------------

def test_consistency_passes():
    for d in (2, 3):
        results = consistency_check(d)
        assert all(r.passed for r in results)
        assert [r.name for r in results] == [
            "second-page-match",
            "graded-dimension-match",
            "entrywise-monotone",
            "rank-drop-attribution",
        ]


def test_consistency_unsupported():
    with pytest.raises(ValueError):
        consistency_check(4)


def _set_cell(page, q, p, value):
    rows = list(list(r) for r in page.rows)
    rows[q][p] = value
    return dataclasses.replace(page, rows=tuple(tuple(r) for r in rows))


def test_attribution_on_real_pages():
    for d in (2, 3):
        ok, cell = attribute_rank_drops(fixture_page(d, 2), fixture_page(d, 3), (2,))
        assert ok and cell is None
        ok, cell = attribute_rank_drops(
            fixture_page(d, 3), fixture_page(d, PAGE_INF), tuple(range(3, 2 * d + 1))
        )
        assert ok and cell is None


def test_attribution_flags_impossible_drop():
    # a drop in the bottom-left corner has no differential to blame
    src = fixture_page(2, 3)
    dst = _set_cell(fixture_page(2, PAGE_INF), 1, 0, 1)
    ok, cell = attribute_rank_drops(src, dst, (3, 4))
    assert not ok
    assert cell == (0, 1)


def test_attribution_flags_unmatched_target_drop():
    # resurrect a killed cell: the drop elsewhere loses its partner
    src = fixture_page(2, 3)
    dst = _set_cell(fixture_page(2, PAGE_INF), 2, 2, 1)
    ok, cell = attribute_rank_drops(src, dst, (3, 4))
    assert not ok
    assert cell == (5, 0)


def test_attribution_rejects_growth():
    src = fixture_page(2, 3)
    dst = _set_cell(fixture_page(2, PAGE_INF), 0, 4, 2)
    with pytest.raises(ValueError):
        attribute_rank_drops(src, dst, (3, 4))
