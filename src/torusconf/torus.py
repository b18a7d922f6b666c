"""Mod-2 cellular cohomology of a torus power and of its square.

Degree-k classes of the d-torus are square-free exterior monomials in the
duals of the d one-cells, stored as d-bit masks (index j <-> bit j-1).
The square carries the tensor basis of pairs (left mask, right mask) of
monomials, and the coordinate swap acts by exchanging the two masks.

Basis order is fixed once and for all: tensor classes of a given degree are
sorted by (left mask, right mask) read as integers. Every matrix, vector
and table in the package is written in that order. The position of the
degree-i class (S, T) is therefore off_i[S] + pos(T), where pos(T) is the
index of T in monomials(d, |T|), and off_i[S], the sum of C(d, i - |S'|)
over all masks S' < S, counts the classes whose left mask is smaller than S.
The tables are ``offsets(d, i)`` and ``positions(d)``.

Packed as the 2d-bit key (S << d) | T, the classes keep that order: the
degree-i basis is monomials(2d, i) and the position of a class is
positions(2d)[key]. Two classes have a zero cup product exactly when their
keys share a bit; otherwise the product is the class of the union of keys.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from functools import cached_property, lru_cache
from math import comb
from typing import Sequence

from .gf2 import Gf2Matrix, bit_indices, from_indices, quotient_structure


def binom(m: int, n: int) -> int:
    """Binomial coefficient with C(m, n) = 0 outside 0 <= n <= m."""
    if n < 0 or n > m:
        return 0
    return comb(m, n)


@lru_cache(maxsize=None)
def monomials(d: int, k: int) -> tuple[int, ...]:
    """The masks of the C(d, k) degree-k monomials, in increasing order."""
    if not 0 <= k <= d:
        return ()
    return tuple(m for m in range(1 << d) if m.bit_count() == k)


@lru_cache(maxsize=None)
def positions(d: int) -> tuple[int, ...]:
    """Entry T is the index of the mask T in monomials(d, |T|)."""
    pos = [0] * (1 << d)
    for k in range(d + 1):
        for j, t in enumerate(monomials(d, k)):
            pos[t] = j
    return tuple(pos)


@lru_cache(maxsize=None)
def offsets(d: int, i: int) -> tuple[int, ...]:
    """Entry S is the position of the first degree-i class with left mask S."""
    sizes = [binom(d, i - k) for k in range(d + 1)]
    out = []
    total = 0
    for smask in range(1 << d):
        out.append(total)
        total += sizes[smask.bit_count()]
    return tuple(out)


@lru_cache(maxsize=None)
def kunneth_basis(d: int, i: int) -> tuple[tuple[int, int], ...]:
    """All degree-i tensor classes (left mask, right mask) in canonical order."""
    if d < 0:
        return ()
    return tuple(
        (smask, tmask)
        for smask in range(1 << d)
        for tmask in monomials(d, i - smask.bit_count())
    )


def kunneth_index(d: int, i: int, left: int, right: int) -> int:
    """Position of the class (left, right) in kunneth_basis(d, i).

    Raises ValueError unless both masks lie inside 1..d and their degrees
    add up to i.
    """
    top = 1 << d
    if not (0 <= left < top and 0 <= right < top) or (
        left.bit_count() + right.bit_count() != i
    ):
        raise ValueError(f"({left}, {right}) is not a degree-{i} class for d={d}")
    return offsets(d, i)[left] + positions(d)[right]


def total_dim(d: int, i: int) -> int:
    """dim of the degree-i part of the square; equals C(2d, i)."""
    return binom(2 * d, i)


def cup(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    """Cup product of basis classes: componentwise union, or None when a
    one-cell dual repeats on either side (its square vanishes)."""
    (sa, ta), (sb, tb) = a, b
    if sa & sb or ta & tb:
        return None
    return sa | sb, ta | tb


def cup_vector(d: int, deg_a: int, a: int, deg_b: int, b: int) -> int:
    """Bilinear extension of the cup product to coefficient vectors, given
    and returned as masks over the tensor basis of each degree.

    This is the slow reference for the product law of the ``check`` sweep,
    which multiplies phi-star columns decoded once into their basis terms
    (``verify._product_mask``); a differential test holds the two equal."""
    basis_a = kunneth_basis(d, deg_a)
    basis_b = kunneth_basis(d, deg_b)
    if a < 0 or a >> len(basis_a) or b < 0 or b >> len(basis_b):
        raise ValueError("vector does not match the stated degree")
    right = [basis_b[ib] for ib in bit_indices(b)]
    products = (cup(basis_a[ia], tb) for ia in bit_indices(a) for tb in right)
    return from_indices(
        kunneth_index(d, deg_a + deg_b, *c) for c in products if c is not None
    )


def swap_permutation(d: int, i: int) -> array:
    """The swap on the degree-i tensor basis: entry j is the position of the
    swapped class (right, left) of basis class j = (left, right). Outside
    0 <= i <= 2d the basis is empty, and no table of 2^d entries is built.

    The entries of the block of left mask S are off_i[T] + pos(S) over the
    right masks T of degree i - |S|. Each block is one integer sum: the
    offsets off_i[T], packed as fixed-width lanes of one integer, plus pos(S)
    times the integer with a 1 in every lane. No sum reaches C(2d, d), so no
    lane carries into the next, and the integer's bytes in native order are
    the block's array entries.
    """
    perm = array("I")
    if not 0 <= i <= 2 * d:
        return perm
    width = 8 * perm.itemsize
    if binom(2 * d, d) > 1 << width:
        raise OverflowError(f"C({2 * d}, {d}) positions do not fit a {width}-bit lane")
    off = offsets(d, i)
    pos = positions(d)
    # left degree k -> (packed offsets, ones in every lane, block byte length)
    lanes = []
    for k in range(d + 1):
        rights = monomials(d, i - k)
        packed = array("I", [off[t] for t in rights]).tobytes()
        ones = array("I", [1]).tobytes() * len(rights)
        lanes.append((
            int.from_bytes(packed, sys.byteorder),
            int.from_bytes(ones, sys.byteorder),
            len(packed),
        ))
    for smask in range(1 << d):
        packed, ones, size = lanes[smask.bit_count()]
        if size:
            perm.frombytes((packed + pos[smask] * ones).to_bytes(size, sys.byteorder))
    return perm


def sigma_matrix(d: int, i: int) -> Gf2Matrix:
    """The swap involution on the degree-i tensor basis, as a dense
    permutation matrix: the oracle the tests hold swap_permutation to.

    Its basis order comes from sorting every pair of masks of total degree
    i, not from kunneth_index."""
    masks = range(1 << d)
    pairs = sorted(
        (s, t) for s in masks for t in masks if s.bit_count() + t.bit_count() == i
    )
    index = {pair: j for j, pair in enumerate(pairs)}
    rows = [0] * len(pairs)
    for j, (s, t) in enumerate(pairs):
        rows[index[t, s]] |= 1 << j
    return Gf2Matrix(len(pairs), len(pairs), tuple(rows))


class Decomposition(namedtuple("Decomposition", "dim trivial regular")):
    """Multiplicities of the two indecomposables: trivial and regular summands."""

    __slots__ = ()

    def __new__(cls, dim: int, trivial: int, regular: int) -> Decomposition:
        if min(dim, trivial, regular) < 0:
            raise ValueError("negative multiplicity")
        if trivial + 2 * regular != dim:
            raise ValueError("trivial + 2 * regular must equal dim")
        return super().__new__(cls, dim, trivial, regular)


class KernelPresentation(namedtuple("KernelPresentation", "generators quotient")):
    """Relation generators in an ambient space, with the ``QuotientBasis`` of
    its quotient by their span; each generator lists the positions of its
    terms."""

    __slots__ = ()

    @property
    def span_dim(self) -> int:
        return len(self.quotient.pivots)


def involution_fixed_points(perm: Sequence[int]) -> int:
    """The number of fixed points of ``perm``, read in one pass.

    Raises ValueError unless ``perm`` is an involution of range(len(perm)).
    """
    # Each entry j points up (perm[j] > j), is fixed or points down (below j,
    # negatives included); only the up-entries are looked up. An up-entry j
    # with perm[j] = p in range and perm[p] = j makes p a down-entry, and no
    # two up-entries reach the same p, since perm[p] names only one of them.
    # So the up-entries inject into the down-entries, and 2 up + fixed = n
    # says there are as many of each: every down-entry k is the image of an
    # up-entry j, so perm[k] = j is in range and perm[perm[k]] = k.
    n = len(perm)
    fixed = up = 0
    for j, p in enumerate(perm):
        if p > j:
            if p >= n or perm[p] != j:
                raise ValueError("sigma is not an involution")
            up += 1
        elif p == j:
            fixed += 1
    if 2 * up + fixed != n:
        raise ValueError("sigma is not an involution")
    return fixed


class Sigma2Module(namedtuple("Sigma2Module", "swap presentation")):
    """An F2-vector space with an involution: the ambient tensor basis, which
    ``swap`` permutes (entry j is the image of basis vector j), modulo the
    swap-stable span of the relations in the ``KernelPresentation``
    ``presentation``. The involution of the module is the one ``swap``
    induces on quotient coordinates; with no relations the module is the
    ambient space itself.
    """

    # no __slots__: the cached fixed_points is stored in the instance __dict__

    def __new__(cls, swap: Sequence[int], presentation: KernelPresentation) -> Sigma2Module:
        if len(swap) != presentation.quotient.ambient_dim:
            raise ValueError("swap must permute the ambient basis")
        return super().__new__(cls, swap, presentation)

    @property
    def dim(self) -> int:
        return self.presentation.quotient.dim

    @cached_property
    def fixed_points(self) -> int:
        """The number of basis vectors ``swap`` fixes, read in one pass the
        first time it is asked for. Raises ValueError, and caches nothing,
        unless ``swap`` is an involution."""
        return involution_fixed_points(self.swap)


def torus_module(d: int, i: int) -> Sigma2Module:
    """H^i of the square of T^d with the swap involution, on the tensor basis:
    the permutation module of the swap, with no relations."""
    swap = swap_permutation(d, i)
    return Sigma2Module(swap, KernelPresentation((), quotient_structure(len(swap), ())))


def torus_closed_form(d: int, i: int) -> Decomposition:
    """Counted decomposition of torus_module(d, i): in even degree 2k there
    are C(d, k) swap-fixed basis classes and all other classes pair up."""
    if d < 0 or i < 0 or i > 2 * d:
        return Decomposition(0, 0, 0)
    n = total_dim(d, i)
    if i % 2 == 0:
        t = binom(d, i // 2)
        return Decomposition(n, t, (n - t) // 2)
    return Decomposition(n, 0, n // 2)
