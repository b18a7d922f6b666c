"""Spectral sequence of the Borel construction over the swap group.

The second page is computed: a trivial summand of the fiber module in row q
contributes one dimension in every column, a regular summand only in column
p = 0 (coefficients in the group ring concentrate in degree zero). Later
pages exist only for d = 2, 3, where the differentials were resolved by
hand; those tables ship as versioned JSON fixtures, together with the
graded module structure of the unordered configuration space they converge
to. Consistency checks tie the three together: computed second page versus
fixture, anti-diagonal sums versus graded dimensions, entrywise monotony,
and that the stored later pages are the closed-form differentials' pages.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from importlib import resources

from .decomp import conf_table
from .torus import binom

PAGE_INF = "inf"


def _normalize_page(page: int | str | None) -> int | None:
    """Accept 2, 3, 4, "2", "inf" or None; None encodes the limit page."""
    if page is None or page == PAGE_INF:
        return None
    p = int(page)
    if p < 2:
        raise ValueError("pages start at 2")
    return p


class SSPage(namedtuple("SSPage", "d page pmax rows provenance source_figure")):
    """One page: a (p, q) dimension table for 0 <= p <= pmax, 0 <= q <= 2d-1.

    ``page`` is the page number, None for the limit page; ``rows[q][p]`` is
    the dimension at (p, q). Every row repeats its last column for every
    p > pmax (the alpha tail), so truncation loses no information.

    ``_replace`` and ``_make`` bypass these checks: build pages through the
    constructor.
    """

    __slots__ = ()

    def __new__(
        cls,
        d: int,
        page: int | None,
        pmax: int,
        rows: tuple[tuple[int, ...], ...],
        provenance: str,
        source_figure: str | None = None,
    ) -> SSPage:
        if len(rows) != 2 * d:
            raise ValueError("a page has 2d rows")
        for row in rows:
            if len(row) != pmax + 1:
                raise ValueError("row width must be pmax + 1")
            if any(x < 0 for x in row):
                raise ValueError("dimensions must be nonnegative")
        return super().__new__(cls, d, page, pmax, rows, provenance, source_figure)

    @property
    def qmax(self) -> int:
        return len(self.rows) - 1

    def dim_at(self, p: int, q: int) -> int:
        if p < 0 or q < 0:
            raise IndexError((p, q))
        if q > self.qmax:
            return 0
        return self.rows[q][min(p, self.pmax)]

    def with_pmax(self, pmax: int) -> SSPage:
        """Truncate or extend columns; extension repeats the constant tail."""
        if pmax == self.pmax:
            return self
        rows = tuple(
            tuple(self.dim_at(p, q) for p in range(pmax + 1))
            for q in range(self.qmax + 1)
        )
        return SSPage(self.d, self.page, pmax, rows, self.provenance, self.source_figure)

    def antidiagonal_sums(self, max_degree: int) -> tuple[int, ...]:
        """Total dimension in each degree n = p + q, for n = 0 .. max_degree."""
        if max_degree > self.pmax:
            raise ValueError("table too narrow for the requested degree")
        return tuple(
            sum(self.dim_at(n - q, q) for q in range(min(n, self.qmax) + 1))
            for n in range(max_degree + 1)
        )


def e2_page(d: int, pmax: int) -> SSPage:
    """The computed second page: rows from the fiber module decompositions."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if pmax < 0:
        raise ValueError("pmax must be nonnegative")
    # from a list: tuple() of a generator over-allocates, and CPython keeps
    # the shrunk block on its tuple free list until a full collection
    rows = tuple([
        (dec.trivial + dec.regular,) + (dec.trivial,) * pmax
        for dec in conf_table(d)[:-1]  # H^2d vanishes
    ])
    return SSPage(d, 2, pmax, rows, provenance="computed")


@lru_cache(maxsize=None)
def _fixture_pages() -> dict[tuple[int, int | None], SSPage]:
    raw = json.loads(
        resources.files("torusconf").joinpath("data/ss_pages.json").read_text()
    )
    pages: dict[tuple[int, int | None], SSPage] = {}
    for entry in raw["pages"]:
        page = _normalize_page(entry["page"])
        if any(r["eventually_constant"] is not True for r in entry["rows"]):
            raise ValueError("every stored row must be eventually constant")
        rows = tuple(tuple(r["dims"]) for r in entry["rows"])
        pages[entry["d"], page] = SSPage(
            entry["d"], page, entry["pmax"], rows,
            provenance="fixture", source_figure=entry["source_figure"],
        )
    # The d = 2 sequence degenerates after page 4: page 4 already equals the
    # limit page.
    limit = pages[2, None]
    pages[2, 4] = SSPage(2, 4, limit.pmax, limit.rows, limit.provenance, limit.source_figure)
    return pages


def fixture_page(d: int, page: int | str | None) -> SSPage:
    """Stored page table for d in {2, 3}: page 2 is the figure transcription
    that the computed e2_page must reproduce, and the hand-resolved later
    pages are r in {3, 4, inf} for d = 2 and r in {3, inf} for d = 3."""
    norm = _normalize_page(page)
    stored = _fixture_pages().get((d, norm))
    if stored is None:
        raise ValueError(
            f"no stored page {PAGE_INF if norm is None else norm} for d={d}: "
            "later pages exist only for d in {2, 3} (pages 3 and inf, and "
            "page 4 for d = 2); differentials are not computed automatically"
        )
    return stored


class AlphaModuleSummand(namedtuple(
    "AlphaModuleSummand", "generator_degree truncation multiplicity"
)):
    """A cyclic summand F2[a]/(a^truncation) generated in one degree."""

    __slots__ = ()

    def __new__(
        cls, generator_degree: int, truncation: int, multiplicity: int
    ) -> AlphaModuleSummand:
        if truncation < 1 or multiplicity < 1 or generator_degree < 0:
            raise ValueError("invalid summand")
        return super().__new__(cls, generator_degree, truncation, multiplicity)


class UconfModule(namedtuple("UconfModule", "d summands")):
    """Graded module structure of the unordered configuration space: its
    ``AlphaModuleSummand``s."""

    __slots__ = ()

    def graded_dims(self, max_degree: int) -> tuple[int, ...]:
        dims = [0] * (max_degree + 1)
        for s in self.summands:
            for n in range(s.generator_degree, s.generator_degree + s.truncation):
                if n <= max_degree:
                    dims[n] += s.multiplicity
        return tuple(dims)


# Degree-2 tails for d = 2: the published truncation 3 gives graded dims
# (1, 3, 4, 2, 2), but the limit-page table (and vanishing of top cohomology of
# an open 4-manifold) forces the stored truncation 2, giving (1, 3, 4, 2, 0).
_UCONF = {
    2: (
        AlphaModuleSummand(0, 3, 1),
        AlphaModuleSummand(1, 1, 2),
        AlphaModuleSummand(2, 1, 1),
        AlphaModuleSummand(2, 2, 2),
    ),
    3: (
        AlphaModuleSummand(0, 4, 1),
        AlphaModuleSummand(1, 1, 3),
        AlphaModuleSummand(2, 1, 6),
        AlphaModuleSummand(2, 3, 3),
        AlphaModuleSummand(3, 1, 9),
        AlphaModuleSummand(4, 1, 3),
        AlphaModuleSummand(4, 2, 3),
    ),
}


def uconf_fixture(d: int) -> UconfModule:
    """Summand list for d in {2, 3}, with the corrected d = 2 truncation 2."""
    if d not in _UCONF:
        raise ValueError("module structure is stored only for d in {2, 3}")
    return UconfModule(d, _UCONF[d])


def sw_height(d: int) -> int:
    """The height of the first characteristic class of the two-fold cover,
    read off the stored limit page for d in {2, 3}: row q = 0 holds the
    powers of the class, so the height is the column before its first zero.

    For every d >= 2 the height is d. Upper bound: the configuration space
    embeds equivariantly in that of R^(d+1), whose quotient has height d.
    Lower bound: the collapsing sequence of the ambient torus-square Borel
    construction surjects onto rows q <= d, so no class of the bottom row
    dies there. Only d in {2, 3} is read here; any other d raises.
    """
    row0 = fixture_page(d, PAGE_INF).rows[0]
    if 0 not in row0 or any(row0[row0.index(0):]):
        raise ValueError(f"limit-page row q=0 {row0} has no zero or revives after one")
    return row0.index(0) - 1


def differentials(d: int) -> dict[int, tuple[int, int, int]]:
    """The nonzero differentials, r -> (rank, source row, target row): for
    0 <= k < d, d_r with r = d - k + 1 has rank C(d, k) in every column, from
    row k + d to row 2k."""
    return {d - k + 1: (binom(d, k), k + d, 2 * k) for k in range(d)}


def _apply_differentials(src: SSPage, page: int | None) -> list[list[int]]:
    """The rows that every d_r with src.page <= r < page (None: the limit
    page) leaves of ``src``: d_r removes its rank from every column of its
    source row and from the columns p >= r of its target row."""
    rows = [list(row) for row in src.rows]
    for r, (rank, source, target) in differentials(src.d).items():
        if src.page is not None and src.page <= r and (page is None or r < page):
            rows[source] = [x - rank for x in rows[source]]
            rows[target][r:] = [x - rank for x in rows[target][r:]]
    return rows


def attribute_rank_drops(src: SSPage, dst: SSPage) -> tuple[bool, tuple[int, int] | None]:
    """Check that the closed-form differentials turn ``src`` into ``dst``:
    (True, None) if they do, else (False, (p, q)) for the first differing
    cell, scanning rows from the top."""
    if (src.d, src.pmax) != (dst.d, dst.pmax):
        raise ValueError("pages must share shape")
    rows = _apply_differentials(src, dst.page)
    for q in range(src.qmax, -1, -1):
        for p in range(src.pmax + 1):
            if rows[q][p] != dst.rows[q][p]:
                return False, (p, q)
    return True, None


def consistency_check(d: int) -> tuple[bool, str]:
    """Cross-validate the computed second page, the stored later pages and
    the graded module structure for d in {2, 3}. Four sub-checks run; the
    verdict names all four when they pass, else the first that fails."""
    if d not in (2, 3):
        raise ValueError("consistency data exists only for d in {2, 3}")
    fix2 = fixture_page(d, 2)
    fix3 = fixture_page(d, 3)
    fixinf = fixture_page(d, PAGE_INF)

    computed = e2_page(d, fix2.pmax)
    bad = [
        (p, q)
        for q in range(fix2.qmax + 1)
        for p in range(fix2.pmax + 1)
        if computed.rows[q][p] != fix2.rows[q][p]
    ]

    expected = uconf_fixture(d).graded_dims(2 * d)
    sums = fixinf.antidiagonal_sums(2 * d)

    mono_bad = [
        (page_pair, (p, q))
        for page_pair, (a, b) in (("2->3", (fix2, fix3)), ("3->inf", (fix3, fixinf)))
        for q in range(a.qmax + 1)
        for p in range(a.pmax + 1)
        if a.rows[q][p] < b.rows[q][p]
    ]

    attribution = None
    try:
        ok23, cell23 = attribute_rank_drops(fix2, fix3)
        okinf, cellinf = attribute_rank_drops(fix3, fixinf)
        if not ok23:
            attribution = f"pages 2->3: closed form differs at (p, q) = {cell23}"
        elif not okinf:
            attribution = f"pages 3->inf: closed form differs at (p, q) = {cellinf}"
    except ValueError as exc:
        attribution = str(exc)

    failures = (  # each sub-check's detail if it fails, else None
        ("second-page-match", f"mismatch at (p, q) = {bad[0]}" if bad else None),
        ("graded-dimension-match",
         f"anti-diagonal sums {sums} vs module dims {expected}"
         if sums != expected else None),
        ("entrywise-monotone",
         "page {} grows at (p, q) = {}".format(*mono_bad[0]) if mono_bad else None),
        ("rank-drop-attribution", attribution),
    )
    for name, failure in failures:
        if failure is not None:
            return False, f"{name}: {failure}"
    return True, "; ".join(f"{name}: ok" for name, _ in failures)
