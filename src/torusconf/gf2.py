"""Exact linear algebra over the two-element field.

Vectors come in two forms. A dense vector of length n is an n-bit Python
integer (bit j = coordinate j), and a dense matrix is a tuple of such row
masks; Python integers are word-limbed bitsets, so XOR row operations run
at machine speed with no array dependency. A sparse row is the collection
of the positions of its nonzero coordinates. The relation rows of the
pipeline have few nonzero coordinates in a large ambient space, so they
are eliminated sparse (``echelon``, ``quotient_structure``). Dense masks
serve the shear-pullback check, ``torus.cup_vector`` and the dense oracles
(``rank``, ``Gf2Matrix``, ``induced_map_on_quotient``) that the tests hold
the sparse path to.

Pivoting is deterministic: elimination always takes the lowest-index
(leftmost) column available, so echelon forms and coset representatives
are reproducible across runs and platforms.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Collection, Iterable, Iterator


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order.

    One scan of the binary digits, so the cost is linear in the length of
    the mask however many bits are set. Raises ValueError on a negative
    mask, which has no finite set of bits.
    """
    if mask < 0:
        raise ValueError("a negative mask has no finite set of bits")
    digits = bin(mask)[:1:-1]  # lowest bit first
    j = digits.find("1")
    while j >= 0:
        yield j
        j = digits.find("1", j + 1)


def from_indices(indices: Iterable[int]) -> int:
    """The GF(2) sum of the unit vectors e_j over ``indices``, as a mask: a
    repeated index cancels. Built in one byte array, so the cost is linear
    in the length of the result. Raises ValueError on a negative index."""
    idx = list(indices)
    if not idx:
        return 0
    if min(idx) < 0:
        raise ValueError("bit indices must be nonnegative")
    buf = bytearray((max(idx) >> 3) + 1)
    for j in idx:
        buf[j >> 3] ^= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class Gf2Matrix(namedtuple("Gf2Matrix", "nrows ncols rows")):
    """A dense GF(2) matrix; column j holds the image of basis vector j.
    ``rows`` is a tuple of ``nrows`` row masks, each below 2^ncols.

    No pipeline code builds one: it is the type of the dense oracles
    (``torus.sigma_matrix``, ``induced_map_on_quotient``) the tests read."""

    __slots__ = ()

    def __new__(cls, nrows: int, ncols: int, rows: tuple[int, ...]) -> Gf2Matrix:
        if len(rows) != nrows:
            raise ValueError("row count does not match nrows")
        for r in rows:
            if r < 0 or r >> ncols:
                raise ValueError("row bits fall outside ncols")
        return super().__new__(cls, nrows, ncols, rows)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def __add__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Gf2Matrix(
            self.nrows, self.ncols,
            tuple(a ^ b for a, b in zip(self.rows, other.rows)),
        )

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for r in self.rows:
            acc = 0
            for j in bit_indices(r):
                acc ^= other.rows[j]
            out.append(acc)
        return Gf2Matrix(self.nrows, other.ncols, tuple(out))

    def transpose(self) -> Gf2Matrix:
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            for j in bit_indices(r):
                cols[j] |= bit
        return Gf2Matrix(self.ncols, self.nrows, tuple(cols))


class SubspaceNotPreservedError(ValueError):
    """A map claimed to stabilise a subspace fails to do so."""


def _echelon_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Reduce row masks to echelon form; maps pivot column -> row mask.

    Rows are consumed in order and each is reduced against the pivots seen
    so far, always clearing the lowest set bit first.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            seen = pivots.get(p)
            if seen is None:
                pivots[p] = r
                break
            r ^= seen
    return pivots


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of the row masks ``rows``, via row elimination: the dense
    oracle the tests hold ``echelon`` to."""
    return len(_echelon_pivots(rows))


def _as_set(row: Collection[int]) -> set[int]:
    positions = set(row)
    if len(positions) != len(row):
        raise ValueError("a sparse row lists a position twice")
    return positions


def echelon(rows: Iterable[Collection[int]]) -> dict[int, set[int]]:
    """Reduce sparse rows to echelon form; maps pivot -> row.

    A sparse row is the collection of the positions of its nonzero
    coordinates, each listed once; stored rows are sets. Rows are consumed
    in order and each is reduced against the pivots seen so far, always
    clearing its lowest position first, so a stored row's pivot is its
    lowest position. Its cost is the total length of the rows XORed, with
    no term in the ambient dimension. The number of pivots is the rank.
    """
    pivots: dict[int, set[int]] = {}
    for row in rows:
        r = _as_set(row)
        while r:
            p = min(r)
            seen = pivots.get(p)
            if seen is None:
                pivots[p] = r
                break
            r ^= seen
    return pivots


class QuotientBasis(namedtuple("QuotientBasis", "ambient_dim rows pivots")):
    """An ambient space modulo a subspace, with canonical coset representatives.

    ``rows`` is the reduced row-echelon basis of the subspace, ordered by
    pivot, each row the increasing positions of its nonzero coordinates;
    the pivot-free coordinates index a basis of the quotient. ``reduce``
    sends the positions of any ambient vector to those of the unique coset
    representative supported on the free coordinates, so reduce(v) is empty
    exactly when v lies in the subspace. ``reduce_bits`` does the same on
    masks for the dense oracles.
    """

    # no __slots__: each cached_property is stored in the instance __dict__

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.pivots)

    @cached_property
    def free_coords(self) -> tuple[int, ...]:
        """The pivot-free coordinates, in increasing order."""
        return tuple(bit_indices(((1 << self.ambient_dim) - 1) ^ self._pivot_mask))

    @cached_property
    def _pivot_mask(self) -> int:
        return from_indices(self.pivots)

    @cached_property
    def _row_by_pivot(self) -> dict[int, tuple[int, ...]]:
        return dict(zip(self.pivots, self.rows))

    @cached_property
    def _free_index(self) -> dict[int, int]:
        return {f: k for k, f in enumerate(self.free_coords)}

    def reduce(self, positions: Collection[int]) -> tuple[int, ...]:
        """The increasing positions of the coset representative of the
        vector with nonzero coordinates ``positions``, each listed once."""
        rows = self._row_by_pivot
        v = _as_set(positions)
        # RREF rows carry no other pivot, so each clears exactly its own.
        for p in [b for b in v if b in rows]:
            v.symmetric_difference_update(rows[p])
        return tuple(sorted(v))

    def reduce_bits(self, bits: int) -> int:
        rows = self._row_by_pivot
        for p in bit_indices(bits & self._pivot_mask):
            bits ^= from_indices(rows[p])
        return bits


def quotient_structure(
    ambient_dim: int, subspace: Iterable[Collection[int]]
) -> QuotientBasis:
    """Row-reduce the sparse ``subspace`` rows and package the quotient of
    the ambient space."""
    pivots = echelon(subspace)
    for r in pivots.values():
        if min(r) < 0 or max(r) >= ambient_dim:
            raise ValueError("subspace vector has positions outside the ambient space")
    # Echelon row p has no position below p, and rows of higher pivot are
    # reduced first, so clearing its other pivots brings in no new pivot.
    order = sorted(pivots)
    for p in reversed(order):
        r = pivots[p]
        for q in [b for b in r if b != p and b in pivots]:
            r ^= pivots[q]
    # from a list: tuple() of a generator over-allocates, and CPython keeps
    # the shrunk block on its tuple free list until a full collection
    rows = tuple([tuple(sorted(pivots[p])) for p in order])
    return QuotientBasis(ambient_dim, rows, tuple(order))


def induced_map_on_quotient(m: Gf2Matrix, q: QuotientBasis) -> Gf2Matrix:
    """The matrix induced by ``m`` on quotient coordinates.

    Raises SubspaceNotPreservedError unless m maps the subspace of ``q``
    into itself. The result commutes with reduction: for every ambient v,
    reduce_bits(m v) represents induced(reduce_bits(v)).
    """
    if m.shape != (q.ambient_dim, q.ambient_dim):
        raise ValueError("map must be an endomorphism of the ambient space")
    tm = m.transpose()

    def image_bits(bits: int) -> int:
        acc = 0
        for j in bit_indices(bits):
            acc ^= tm.rows[j]
        return acc

    for r in q.rows:
        if q.reduce_bits(image_bits(from_indices(r))):
            raise SubspaceNotPreservedError(
                "map does not stabilise the subspace; no induced quotient map"
            )

    out = [0] * q.dim
    index = q._free_index
    for col, f in enumerate(q.free_coords):
        img = q.reduce_bits(image_bits(1 << f))
        colbit = 1 << col
        for b in bit_indices(img):
            out[index[b]] |= colbit
    return Gf2Matrix(q.dim, q.dim, tuple(out))
