"""Exact linear algebra over the two-element field.

Vectors and matrices are bit-packed: a length-n vector is an n-bit Python
integer (bit j = coordinate j), and a matrix is a tuple of such row masks.
Python integers are word-limbed bitsets, so XOR row operations run at
machine speed with no array dependency.

Pivoting is deterministic: elimination always takes the lowest-index
(leftmost) column available, so echelon forms and coset representatives
are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


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


@dataclass(frozen=True)
class Gf2Matrix:
    """A dense GF(2) matrix; column j holds the image of basis vector j.

    No pipeline code builds one: it is the type of the dense oracles
    (``torus.sigma_matrix``, ``induced_map_on_quotient``) the tests read."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.nrows:
            raise ValueError("row count does not match nrows")
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise ValueError("row bits fall outside ncols")

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
    """Reduce rows to echelon form; maps pivot column -> row mask.

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


def _rref(rows: Iterable[int]) -> dict[int, int]:
    """Full row reduction: no stored row contains another row's pivot bit."""
    pivots = _echelon_pivots(rows)
    pivot_mask = from_indices(pivots)
    # Echelon row p has no bit below p, and rows of higher pivot are reduced
    # first, so clearing its other pivot bits brings in no new pivot bit.
    for p in sorted(pivots, reverse=True):
        r = pivots[p]
        for q in bit_indices(r & pivot_mask ^ (1 << p)):
            r ^= pivots[q]
        pivots[p] = r
    return pivots


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of the row masks ``rows``, via row elimination."""
    return len(_echelon_pivots(rows))


@dataclass(frozen=True)
class QuotientBasis:
    """An ambient space modulo a subspace, with canonical coset representatives.

    ``rows`` is the reduced row-echelon basis of the subspace, ordered by
    pivot; the pivot-free coordinates index a basis of the quotient.
    ``reduce_bits`` sends any ambient vector to the unique coset
    representative supported on the free coordinates, so reduce_bits(v) == 0
    exactly when v lies in the subspace.
    """

    ambient_dim: int
    rows: tuple[int, ...]
    pivots: tuple[int, ...]

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
    def _row_by_pivot(self) -> dict[int, int]:
        return dict(zip(self.pivots, self.rows))

    @cached_property
    def _free_index(self) -> dict[int, int]:
        return {f: k for k, f in enumerate(self.free_coords)}

    def reduce_bits(self, bits: int) -> int:
        rows = self._row_by_pivot
        # RREF rows carry no other pivot bit, so each clears exactly its own.
        for p in bit_indices(bits & self._pivot_mask):
            bits ^= rows[p]
        return bits


def quotient_structure(ambient_dim: int, subspace: Iterable[int]) -> QuotientBasis:
    """Row-reduce the ``subspace`` masks and package the quotient of the
    ambient space."""
    masks = list(subspace)
    for v in masks:
        if v < 0 or v >> ambient_dim:
            raise ValueError("subspace vector has bits outside the ambient space")
    reduced = _rref(masks)
    pivots = tuple(sorted(reduced))
    # from a list: tuple() of a generator over-allocates, and CPython keeps
    # the shrunk block on its tuple free list until a full collection
    return QuotientBasis(ambient_dim, tuple([reduced[p] for p in pivots]), pivots)


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
        if q.reduce_bits(image_bits(r)):
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
