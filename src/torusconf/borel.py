"""Spectral sequence of the Borel construction over the swap group.

The second page is computed: a trivial summand of the fiber module in row q
contributes one dimension in every column, a regular summand only in column
p = 0 (coefficients in the group ring concentrate in degree zero). Later
pages exist only for d = 2, 3, where the differentials were resolved by
hand; those tables ship as versioned JSON fixtures, together with the
graded module structure of the unordered configuration space they converge
to. Consistency checks tie the three together: computed second page versus
fixture, anti-diagonal sums versus graded dimensions, entrywise monotony,
and an exact rank-bookkeeping match for every drop between pages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

from .decomp import conf_table

PAGE_INF = "inf"


def _normalize_page(page: int | str | None) -> int | None:
    """Accept 2, 3, 4, "2", "inf" or None; None encodes the limit page."""
    if page is None or page == PAGE_INF:
        return None
    p = int(page)
    if p < 2:
        raise ValueError("pages start at 2")
    return p


@dataclass(frozen=True)
class SSPage:
    """One page: a (p, q) dimension table for 0 <= p <= pmax, 0 <= q <= 2d-1.

    Rows flagged eventually_constant repeat their last column for every
    p > pmax (the alpha tail), so truncation loses no information.
    """

    d: int
    page: int | None
    pmax: int
    rows: tuple[tuple[int, ...], ...]
    eventually_constant: tuple[bool, ...]
    provenance: str
    source_figure: str | None = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.pmax + 1:
                raise ValueError("row width must be pmax + 1")
            if any(x < 0 for x in row):
                raise ValueError("dimensions must be nonnegative")

    @property
    def page_label(self) -> str:
        return PAGE_INF if self.page is None else str(self.page)

    @property
    def qmax(self) -> int:
        return len(self.rows) - 1

    def dim_at(self, p: int, q: int) -> int:
        if p < 0 or q < 0:
            raise IndexError((p, q))
        if q > self.qmax:
            return 0
        if p > self.pmax:
            if not self.eventually_constant[q]:
                raise IndexError(f"column {p} beyond pmax on a non-constant row")
            return self.rows[q][self.pmax]
        return self.rows[q][p]

    def with_pmax(self, pmax: int) -> SSPage:
        """Truncate or extend columns; extension repeats the constant tail."""
        if pmax == self.pmax:
            return self
        rows = tuple(
            tuple(self.dim_at(p, q) for p in range(pmax + 1))
            for q in range(self.qmax + 1)
        )
        return replace(self, pmax=pmax, rows=rows)

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
    rows = tuple(
        (dec.trivial + dec.regular,) + (dec.trivial,) * pmax
        for dec in conf_table(d)[:-1]  # H^2d vanishes
    )
    return SSPage(
        d, 2, pmax, rows, (True,) * (2 * d), provenance="computed"
    )


@lru_cache(maxsize=None)
def _fixture_pages() -> dict[tuple[int, int | None], SSPage]:
    raw = json.loads(
        resources.files("torusconf").joinpath("data/ss_pages.json").read_text()
    )
    pages: dict[tuple[int, int | None], SSPage] = {}
    for entry in raw["pages"]:
        page = _normalize_page(entry["page"])
        rows = tuple(tuple(r["dims"]) for r in entry["rows"])
        flags = tuple(bool(r["eventually_constant"]) for r in entry["rows"])
        pages[entry["d"], page] = SSPage(
            entry["d"], page, entry["pmax"], rows, flags,
            provenance="fixture", source_figure=entry["source_figure"],
        )
    # The d = 2 sequence degenerates after page 4: page 4 already equals the
    # limit page.
    pages[2, 4] = replace(pages[2, None], page=4)
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


@dataclass(frozen=True)
class AlphaModuleSummand:
    """A cyclic summand F2[a]/(a^truncation) generated in one degree."""

    generator_degree: int
    truncation: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.truncation < 1 or self.multiplicity < 1 or self.generator_degree < 0:
            raise ValueError("invalid summand")


@dataclass(frozen=True)
class UconfModule:
    """Graded module structure of the unordered configuration space."""

    d: int
    summands: tuple[AlphaModuleSummand, ...]

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


@dataclass(frozen=True)
class SwHeight:
    """Height of the first characteristic class of the two-fold cover."""

    d: int
    height: int
    evidence: str
    notes: tuple[str, ...] = ()


def sw_height(d: int) -> SwHeight:
    """The height equals d for every d >= 2; for d in {2, 3} this is read off
    the stored limit page (row q = 0 has ones through column d, zero after)."""
    if d < 2:
        raise ValueError("height is computed for d >= 2; read d = 1 from its table")
    if d in (2, 3):
        row0 = fixture_page(d, PAGE_INF).rows[0]
        if any(row0[p] != 1 for p in range(d + 1)) or row0[d + 1] != 0:
            raise ValueError(f"limit-page row q=0 contradicts height {d}")
        return SwHeight(d, d, "fixture-verified")
    return SwHeight(
        d, d, "theorem",
        notes=(
            f"upper bound {d}: the configuration space embeds equivariantly in "
            f"that of R^{d + 1}, whose quotient has height {d}",
            f"lower bound {d}: the collapsing sequence of the ambient "
            f"torus-square Borel construction surjects onto rows q <= {d}, "
            "so no class of the bottom row dies there",
        ),
    )


@dataclass(frozen=True)
class CheckEntry:
    """One named verification outcome with a human-readable detail."""

    name: str
    passed: bool
    detail: str = ""


def attribute_rank_drops(
    src: SSPage, dst: SSPage, allowed_r: tuple[int, ...]
) -> tuple[bool, tuple[int, int] | None]:
    """Explain every entrywise drop between two pages by differential ranks.

    A rank-x differential d_r removes x from its source (p, q) and x from
    its target (p + r, q - r + 1); targets beyond pmax are out of view and
    absorb anything. Returns (True, None) when a consistent assignment
    exists, else (False, (p, q)) naming a cell whose drop cannot be matched.
    """
    if (src.d, src.pmax, src.qmax) != (dst.d, dst.pmax, dst.qmax):
        raise ValueError("pages must share shape")
    pmax, qmax = src.pmax, src.qmax
    drop = {
        (p, q): src.rows[q][p] - dst.rows[q][p]
        for q in range(qmax + 1)
        for p in range(pmax + 1)
    }
    if any(v < 0 for v in drop.values()):
        raise ValueError("destination page exceeds source page somewhere")

    # Differentials lower q, so scanning rows top-down makes each cell's
    # incoming rank final before its outgoing rank is chosen.
    cells = [(p, q) for q in range(qmax, -1, -1) for p in range(pmax + 1)]
    received: dict[tuple[int, int], int] = {c: 0 for c in cells}
    fail: list[tuple[int, int]] = []

    def solve(k: int) -> bool:
        if k == len(cells):
            return True
        p, q = cells[k]
        need = drop[p, q] - received[p, q]
        if need < 0:
            if not fail:
                fail.append((p, q))
            return False
        in_window: list[tuple[int, int]] = []
        has_sink = False
        for r in allowed_r:
            tp, tq = p + r, q - r + 1
            if tq < 0:
                continue
            if tp > pmax:
                has_sink = True
            else:
                in_window.append((tp, tq))
        if need == 0:
            return solve(k + 1)
        if not in_window and not has_sink:
            if not fail:
                fail.append((p, q))
            return False

        caps = [drop[t] - received[t] for t in in_window]

        def distribute(idx: int, rest: int) -> bool:
            if idx == len(in_window):
                if rest and not has_sink:
                    return False
                return solve(k + 1)
            for x in range(min(rest, caps[idx]), -1, -1):
                received[in_window[idx]] += x
                if distribute(idx + 1, rest - x):
                    return True
                received[in_window[idx]] -= x
            return False

        if distribute(0, need):
            return True
        if not fail:
            fail.append((p, q))
        return False

    ok = solve(0)
    return (True, None) if ok else (False, fail[0] if fail else None)


def consistency_check(d: int) -> tuple[CheckEntry, ...]:
    """Cross-validate the computed second page, the stored later pages and
    the graded module structure for d in {2, 3}: four named outcomes."""
    if d not in (2, 3):
        raise ValueError("consistency data exists only for d in {2, 3}")
    fix2 = fixture_page(d, 2)
    fix3 = fixture_page(d, 3)
    fixinf = fixture_page(d, PAGE_INF)
    results = []

    computed = e2_page(d, fix2.pmax)
    bad = [
        (p, q)
        for q in range(fix2.qmax + 1)
        for p in range(fix2.pmax + 1)
        if computed.rows[q][p] != fix2.rows[q][p]
    ]
    results.append(
        CheckEntry(
            "second-page-match",
            not bad,
            "computed page equals stored table" if not bad
            else f"mismatch at (p, q) = {bad[0]}",
        )
    )

    expected = uconf_fixture(d).graded_dims(2 * d)
    sums = fixinf.antidiagonal_sums(2 * d)
    results.append(
        CheckEntry(
            "graded-dimension-match",
            sums == expected,
            f"anti-diagonal sums {sums} vs module dims {expected}",
        )
    )

    mono_bad = [
        (page_pair, (p, q))
        for page_pair, (a, b) in (("2->3", (fix2, fix3)), ("3->inf", (fix3, fixinf)))
        for q in range(a.qmax + 1)
        for p in range(a.pmax + 1)
        if a.rows[q][p] < b.rows[q][p]
    ]
    results.append(
        CheckEntry(
            "entrywise-monotone",
            not mono_bad,
            "pages never grow" if not mono_bad
            else "page {} grows at (p, q) = {}".format(*mono_bad[0]),
        )
    )

    detail = "all rank drops pair up with differentials"
    ok = True
    try:
        ok23, cell23 = attribute_rank_drops(fix2, fix3, (2,))
        okinf, cellinf = attribute_rank_drops(fix3, fixinf, tuple(range(3, 2 * d + 1)))
        ok = ok23 and okinf
        if not ok23:
            detail = f"pages 2->3: unattributable drop at (p, q) = {cell23}"
        elif not okinf:
            detail = f"pages 3->inf: unattributable drop at (p, q) = {cellinf}"
    except ValueError as exc:
        ok, detail = False, str(exc)
    results.append(CheckEntry("rank-drop-attribution", ok, detail))
    return tuple(results)
