"""Krull-Schmidt decomposition over the group ring of the swap, and the
closed-form multiplicity counts it must reproduce.

Over F2 the group ring of an order-2 group is F2[x]/(x^2) with x = 1 + sigma,
so the only indecomposables are the trivial module and the regular module,
and the regular multiplicity of any involution equals rank(sigma + 1).

Every module here is V/K: a permutation module V, whose basis the swap
permutes, modulo a swap-stable subspace K (K = 0 without relations). On V
the image of sigma + 1 is spanned by e_j + e_sigma(j), one vector per
swapped pair {j, sigma(j)}: it is the set of swap-invariant vectors that
vanish on the fixed coordinates, of dimension #pairs. On V/K the image is
(im(sigma + 1) + K)/K, so

    rank(sigma + 1 on V/K) = #pairs - dim(K intersect im(sigma + 1)).

The intersection is the kernel on K of h(v) = (sigma + 1)v + (v restricted
to the fixed coordinates); the two terms have disjoint supports, so h(v) = 0
exactly when v is swap-invariant and vanishes on the fixed coordinates.
Applying h to the reduced rows of K turns the intersection into one small
rank.

The swap is a compact array of n positions. Its fixed-point count is the
module's ``fixed_points``, read in one pass that checks the swap is an
involution and looks up only the entries that point up the array, and
cached on the module: ``check`` takes the relation-free twin's
decomposition from the same count after decomposing V/K. The rows of K,
their swaps and their images under h are sparse, the positions of their
terms, so the stability check and the rank cost the number of terms, not
n: no n x n matrix and no length-n row is formed.

The configuration-space relations need none of that machinery.
``relation_decomposition`` walks each kernel generator's terms, 3^d in all
degrees together against the 4^d classes of the ambient swap. Per term
(S, T) of the generator of m it asserts that S and T meet exactly in m and
cover 1..d. The term is then a degree-i class, and m is the only generator
it can belong to, so the rows of a degree are disjoint. No term is
swap-fixed either: S = T would make m = 1..d, of degree 2d > i. Per row it
asserts that the swapped positions off[T] + pos(S) are the row's own
positions. Disjoint, swap-stable rows with no fixed term are independent
and h maps each of them to 0, so lost = #rows = r. The torus square's
closed form gives n = C(2d, i) classes, f = C(d, i/2) of them swap-fixed in
even degree i (none in odd), so dim = n - r and regular = (n - f)/2 - r.
No swap and no echelon is built.

One cache holds one decomposition per (d, i) per process (three ints, never
a module): ``_table_decomposition``, the relation-local count. ``conf_table``
reads it, and so do ``table``, ``poincare``, ``ss --page 2`` and
``reduced_table``; ``closed_form_report`` reads it for ``compute``.
``decompose(conf_module)``, the general ambient elimination, is the oracle
the count is held to: ``check``'s sweep (``verify._degree``) decomposes its
own modules and never reads the cache.

The closed forms come in two flavours: the corrected count, which the brute
force must match exactly, and the count as published, which in the odd case
between degrees d and 2d carries a spurious -C(d, k)/2 and can fail to be an
integer. Reports always carry both; brute force is the arbiter.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from typing import TYPE_CHECKING

from .gf2 import SubspaceNotPreservedError, echelon
from .quotient import _relation_terms
from .torus import (
    Decomposition,
    Sigma2Module,
    binom,
    monomials,
    offsets,
    positions,
    torus_closed_form,
)

if TYPE_CHECKING:
    from fractions import Fraction


def decompose(m: Sigma2Module) -> Decomposition:
    """Multiplicities of trivial and regular summands of an involution module.

    Raises ValueError unless the swap is an involution, and
    SubspaceNotPreservedError unless it maps the relation subspace into
    itself.
    """
    fixed = m.fixed_points
    perm = m.swap
    q = m.presentation.quotient
    images = []
    for r in q.rows:
        swapped = [perm[b] for b in r]
        if q.reduce(swapped):
            raise SubspaceNotPreservedError(
                "swap does not stabilise the subspace; no induced quotient map"
            )
        image = set(swapped).symmetric_difference(r)
        image.update(b for b in r if perm[b] == b)
        images.append(image)
    lost = len(images) - len(echelon(images))
    regular = (len(perm) - fixed) // 2 - lost
    return Decomposition(m.dim, m.dim - 2 * regular, regular)


def relation_decomposition(d: int, i: int) -> Decomposition:
    """decompose(conf_module(d, i)) counted from the kernel generators'
    terms, without the ambient swap (see the module docstring).

    Raises ValueError, naming (d, i, m), if a term of the generator of m
    breaks an asserted property, and for negative d as conf_module does.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not 0 <= i < 2 * d:
        return Decomposition(0, 0, 0)
    full = (1 << d) - 1
    rows = 0
    lefts = monomials(d, i - d)  # empty below degree d
    off = offsets(d, i) if lefts else ()
    pos = positions(d) if lefts else ()
    for m in lefts:
        row, swapped = set(), set()
        for s, t in _relation_terms(d, m):
            if s & t != m or s | t != full:
                raise ValueError(f"term ({s}, {t}) breaks the relation row at {(d, i, m)}")
            row.add(off[s] + pos[t])
            swapped.add(off[t] + pos[s])
        if row != swapped:
            raise ValueError(f"relation row not swap-stable at {(d, i, m)}")
        rows += 1
    ambient = torus_closed_form(d, i)  # C(2d, i) classes, f of them fixed
    return Decomposition(ambient.dim - rows, ambient.trivial + rows, ambient.regular - rows)


@cache
def _table_decomposition(d: int, i: int) -> Decomposition:
    """relation_decomposition(d, i), read as a module global on a miss."""
    return relation_decomposition(d, i)


def conf_closed_form(d: int, i: int) -> Decomposition:
    """Corrected closed-form decomposition of conf_module(d, i).

    Below degree d this is the torus-square count. For d <= i < 2d each of
    the C(d, i-d) relations converts one regular summand into a trivial one;
    in even degree 2k the C(d, k) diagonal classes stay trivial as well.
    """
    if i < 0 or i >= 2 * d:
        return Decomposition(0, 0, 0)
    if i < d:
        return torus_closed_form(d, i)
    total = binom(2 * d, i)
    moved = binom(d, i - d)
    if i % 2 == 0:
        diag = binom(d, i // 2)
        trivial = diag + moved
        regular = (total - diag) // 2 - moved
    else:
        trivial = moved
        regular = total // 2 - moved
    return Decomposition(trivial + 2 * regular, trivial, regular)


def published_closed_form(d: int, i: int) -> tuple[Fraction, Fraction]:
    """The multiplicity pair exactly as published, evaluated as rationals.

    The published odd case for d <= i < 2d subtracts C(d, k)/2 with
    k = (i-1)/2; that term makes the count non-integral whenever C(d, k)
    is odd (already at d = 3, i = 3).
    """
    # imported on first use: fractions loads decimal, and only compute and
    # check read the published counts
    from fractions import Fraction

    if i < 0 or i >= 2 * d:
        return Fraction(0), Fraction(0)
    total = Fraction(sum(binom(d, j) * binom(d, i - j) for j in range(i + 1)))
    k = i // 2
    if i < d:
        if i % 2 == 0:
            return Fraction(binom(d, k)), (total - binom(d, k)) / 2
        return Fraction(0), total / 2
    moved = binom(d, i - d)
    if i % 2 == 0:
        return Fraction(binom(d, k) + moved), (total - binom(d, k)) / 2 - moved
    return Fraction(moved), (total - binom(d, k)) / 2 - moved


class ClosedFormReport(namedtuple(
    "ClosedFormReport",
    "d i brute corrected published_trivial published_regular published_integral",
)):
    """Brute force next to both closed-form readings for one (d, i): the
    count from the relation rows and the corrected closed form, each a
    ``Decomposition``, and the published multiplicities as ``Fraction``s."""

    __slots__ = ()


def closed_form_report(d: int, i: int) -> ClosedFormReport:
    """Evaluate the corrected and the published count next to the count
    from the relation rows, which builds no module; ``check`` holds that
    count to the ambient elimination."""
    brute = _table_decomposition(d, i)
    corrected = conf_closed_form(d, i)
    pt, pr = published_closed_form(d, i)
    return ClosedFormReport(
        d, i, brute, corrected, pt, pr,
        published_integral=(pt.denominator == 1 and pr.denominator == 1),
    )


def conf_table(d: int) -> tuple[Decomposition, ...]:
    """Decompositions of conf_module(d, i) for i = 0 .. 2d, counted from
    the relations; no module is built."""
    # from a list: tuple() of a generator over-allocates, and CPython keeps
    # the shrunk block on its tuple free list until a full collection
    return tuple([_table_decomposition(d, i) for i in range(2 * d + 1)])


def reduced(table: tuple[Decomposition, ...]) -> tuple[Decomposition, ...]:
    """A degree table in reduced cohomology: degree 0 loses the trivial
    summand of the unit class."""
    head = table[0]
    return (Decomposition(head.dim - 1, head.trivial - 1, head.regular),) + table[1:]


def reduced_table(d: int) -> tuple[Decomposition, ...]:
    """Reduced decompositions of degrees 0 .. 2d-1."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return reduced(conf_table(d))[:-1]
