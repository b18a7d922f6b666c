import json
from importlib import resources

import pytest

from torusconf import borel, verify
from torusconf.borel import (
    PAGE_INF,
    AlphaModuleSummand,
    SSPage,
    attribute_rank_drops,
    consistency_check,
    differentials,
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


def _refuse_pages(monkeypatch, refused):
    """Make the SSPage constructor raise on the pages that ``refused`` picks
    by (d, page, pmax), so that a path around its checks fails a test."""
    new = SSPage.__new__

    def strict(cls, d, page, pmax, *rest, **kwargs):
        if refused(d, page, pmax):
            raise ValueError("refused page")
        return new(cls, d, page, pmax, *rest, **kwargs)

    monkeypatch.setattr(SSPage, "__new__", strict)


def test_fourth_page_d2_is_the_limit(monkeypatch):
    p4 = fixture_page(2, 4)
    pinf = fixture_page(2, PAGE_INF)
    assert p4.rows == pinf.rows
    assert p4.page == 4
    # the stored file has no page 4: only the alias builds one
    _refuse_pages(monkeypatch, lambda d, page, pmax: page == 4)
    with pytest.raises(ValueError, match="refused page"):
        borel._fixture_pages.__wrapped__()


def test_unsupported_pages_raise():
    with pytest.raises(ValueError):
        fixture_page(4, 3)
    with pytest.raises(ValueError):
        fixture_page(3, 4)
    with pytest.raises(ValueError, match="width"):
        SSPage(2, 3, 1, ((1, 1), (1,), (1, 1), (1, 1)), "fixture")
    with pytest.raises(ValueError, match="nonnegative"):
        SSPage(2, 3, 1, ((1, -1), (1, 1), (1, 1), (1, 1)), "fixture")
    with pytest.raises(ValueError, match="2d rows"):
        SSPage(2, 3, 1, ((1, 1),) * 3, "fixture")


def test_pages_monotone_entrywise():
    for d in (2, 3):
        a = fixture_page(d, 2)
        b = fixture_page(d, 3)
        c = fixture_page(d, PAGE_INF)
        for q in range(a.qmax + 1):
            for p in range(a.pmax + 1):
                assert a.rows[q][p] >= b.rows[q][p] >= c.rows[q][p]


def test_fixture_loader_rejects_a_row_that_is_not_eventually_constant(monkeypatch):
    stored = resources.files("torusconf").joinpath("data/ss_pages.json").read_text()
    raw = json.loads(stored)
    raw["pages"][-1]["rows"][1]["eventually_constant"] = False

    class Edited:
        def joinpath(self, name):
            return self

        def read_text(self):
            return json.dumps(raw)

    monkeypatch.setattr(borel.resources, "files", lambda package: Edited())
    with pytest.raises(ValueError, match="eventually constant"):
        borel._fixture_pages.__wrapped__()  # past the cache of the real file


def test_with_pmax_extends_constant_tail(monkeypatch):
    page = fixture_page(2, PAGE_INF).with_pmax(8)
    assert page.rows[0] == (1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert page.dim_at(30, 0) == 0
    narrowed = page.with_pmax(2)
    assert narrowed.rows[2] == (3, 2, 0)
    _refuse_pages(monkeypatch, lambda d, page, pmax: pmax == 9)
    with pytest.raises(ValueError, match="refused page"):
        page.with_pmax(9)


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
    with pytest.raises(ValueError):
        AlphaModuleSummand(0, 0, 1)  # F2[a]/(a^0) is no summand


# --- characteristic-class height ----------------------------------------------------

def test_sw_height_fixture_path():
    for d in (2, 3):
        assert sw_height(d) == d
        row0 = fixture_page(d, PAGE_INF).rows[0]
        assert row0[:d + 1] == (1,) * (d + 1)
        assert row0[d + 1] == 0


def test_sw_height_reads_only_stored_limit_pages():
    with pytest.raises(ValueError):
        sw_height(4)


def test_sw_height_rejects_d1():
    with pytest.raises(ValueError):
        sw_height(1)


def _with_rows(page, rows):
    """``page`` with ``rows`` in place of its own, built through the checks."""
    return SSPage(page.d, page.page, page.pmax, rows, page.provenance, page.source_figure)


def _patch_page(monkeypatch, d, page, changed):
    """Let borel.fixture_page return `changed` for (d, page), else the store."""
    original = borel.fixture_page

    def patched(d_, page_):
        return changed if (d_, page_) == (d, page) else original(d_, page_)

    monkeypatch.setattr(borel, "fixture_page", patched)


def test_sw_height_is_read_off_row_zero(monkeypatch):
    # alpha^2 dies on this d = 3 limit page, so the height is 1 and the
    # check names it
    limit = fixture_page(3, PAGE_INF)
    _patch_page(monkeypatch, 3, PAGE_INF, _with_rows(
        limit, ((1, 1, 0, 0, 0, 0, 0, 0),) + limit.rows[1:]
    ))
    assert sw_height(3) == 1
    assert verify._check_sw_height(3) == (False, "height 1 at d=3")
    # a power of alpha cannot come back after one has died
    _patch_page(monkeypatch, 3, PAGE_INF, _with_rows(
        limit, ((1, 1, 0, 1, 0, 0, 0, 0),) + limit.rows[1:]
    ))
    with pytest.raises(ValueError):
        sw_height(3)


# --- consistency ----------------------------------------------------------------------

def test_consistency_passes():
    for d in (2, 3):
        assert consistency_check(d) == (
            True,
            "second-page-match: ok; graded-dimension-match: ok; "
            "entrywise-monotone: ok; rank-drop-attribution: ok",
        )


def test_consistency_names_a_growing_page(monkeypatch):
    # page 3 gains a class at (p, q) = (1, 1) that page 2 lacks
    _patch_page(monkeypatch, 2, 3, _set_cell(fixture_page(2, 3), 1, 1, 1))
    assert consistency_check(2) == (
        False, "entrywise-monotone: page 2->3 grows at (p, q) = (1, 1)"
    )


def test_consistency_unsupported():
    with pytest.raises(ValueError):
        consistency_check(4)


def _set_cell(page, q, p, value):
    rows = list(list(r) for r in page.rows)
    rows[q][p] = value
    return _with_rows(page, tuple(tuple(r) for r in rows))


def test_attribution_on_real_pages():
    stored = {
        2: [(2, 3), (3, PAGE_INF), (2, 4), (3, 4), (4, PAGE_INF)],  # page 4 aliases inf
        3: [(2, 3), (3, PAGE_INF)],
    }
    for d, pairs in stored.items():
        for a, b in pairs:
            src, dst = fixture_page(d, a), fixture_page(d, b)
            assert attribute_rank_drops(src, dst) == (True, None), (d, a, b)


def test_attribution_flags_impossible_drop():
    # a drop in the bottom-left corner has no differential to blame
    src = fixture_page(2, 3)
    dst = _set_cell(fixture_page(2, PAGE_INF), 1, 0, 1)
    assert attribute_rank_drops(src, dst) == (False, (0, 1))


def test_attribution_flags_unmatched_target_drop():
    # resurrect a killed cell: d_3 kills it, so the resurrected cell differs
    src = fixture_page(2, 3)
    dst = _set_cell(fixture_page(2, PAGE_INF), 2, 2, 1)
    assert attribute_rank_drops(src, dst) == (False, (2, 2))


def test_attribution_rejects_growth():
    src = fixture_page(2, 3)
    dst = _set_cell(fixture_page(2, PAGE_INF), 0, 4, 2)
    assert attribute_rank_drops(src, dst) == (False, (4, 0))


def test_attribution_rejects_pages_of_different_shape():
    with pytest.raises(ValueError, match="shape"):
        attribute_rank_drops(fixture_page(2, 3), fixture_page(3, PAGE_INF))
    with pytest.raises(ValueError, match="shape"):
        attribute_rank_drops(fixture_page(2, 3), fixture_page(2, PAGE_INF).with_pmax(6))


def test_consistency_rejects_every_corrupted_limit_cell(monkeypatch):
    # each cell of the limit page set to each other value the third page
    # allows, one cell at a time
    earlier = ("second-page-match", "graded-dimension-match", "entrywise-monotone")
    for d in (2, 3):
        third, limit = fixture_page(d, 3), fixture_page(d, PAGE_INF)
        for q in range(limit.qmax + 1):
            for p in range(limit.pmax + 1):
                for value in range(third.rows[q][p] + 1):
                    if value == limit.rows[q][p]:
                        continue
                    with monkeypatch.context() as m:
                        m.setitem(borel._fixture_pages(), (d, None),
                                  _set_cell(limit, q, p, value))
                        ok, detail = consistency_check(d)
                    assert not ok, (d, p, q, value)
                    assert detail.startswith(
                        earlier + ("rank-drop-attribution: pages 3->inf",)
                    ), detail


def test_differentials_leave_height_d_beyond_the_fixtures():
    for d in range(1, 9):
        assert sorted(differentials(d)) == list(range(2, d + 2))
        limit = borel._apply_differentials(e2_page(d, 2 * d + 2), None)
        assert min(min(row) for row in limit) >= 0
        assert tuple(limit[0]) == (1,) * (d + 1) + (0,) * (d + 2)
