"""Mod-2 cellular cohomology of a torus power and of its square.

Degree-k classes of the d-torus are square-free exterior monomials in the
duals of the d one-cells, stored as d-bit masks (index j <-> bit j-1).
The square carries the tensor basis of pairs of monomials, and the
coordinate swap acts by exchanging the two tensor factors.

Basis order is fixed once and for all: tensor classes of a given degree are
sorted by (left mask, right mask) read as integers. Every matrix, vector
and table in the package is written in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Mapping

from .gf2 import Gf2Matrix, bit_indices

if TYPE_CHECKING:  # pragma: no cover
    from .quotient import KernelPresentation


def binom(m: int, n: int) -> int:
    """Binomial coefficient with C(m, n) = 0 outside 0 <= n <= m."""
    if n < 0 or n > m:
        return 0
    return comb(m, n)


@dataclass(frozen=True, order=True, slots=True)
class Monomial:
    """A square-free exterior monomial, as the bit mask of its index set."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("negative mask")

    @property
    def degree(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True, order=True, slots=True)
class TensorClass:
    """A tensor-basis element: a pair of monomials (left factor, right factor)."""

    left: Monomial
    right: Monomial

    def swap(self) -> TensorClass:
        return TensorClass(self.right, self.left)

    @property
    def key(self) -> tuple[int, int]:
        return self.left.mask, self.right.mask


def _weight_masks(d: int, k: int) -> tuple[int, ...]:
    """All d-bit masks of popcount k in increasing integer order."""
    if k < 0 or k > d:
        return ()
    if k == 0:
        return (0,)
    out = []
    m = (1 << k) - 1
    top = 1 << d
    while m < top:
        out.append(m)
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return tuple(out)


def monomials(d: int, k: int) -> tuple[Monomial, ...]:
    """The C(d, k) degree-k monomials in canonical (mask-ascending) order."""
    return tuple(Monomial(m) for m in _weight_masks(d, k))


@lru_cache(maxsize=None)
def kunneth_basis(d: int, i: int) -> tuple[TensorClass, ...]:
    """All degree-i tensor classes over T^d x T^d in canonical order."""
    if d < 0 or i < 0 or i > 2 * d:
        return ()
    out = []
    for smask in range(1 << d):
        kt = i - smask.bit_count()
        if 0 <= kt <= d:
            left = Monomial(smask)
            for tmask in _weight_masks(d, kt):
                out.append(TensorClass(left, Monomial(tmask)))
    return tuple(out)


@lru_cache(maxsize=None)
def kunneth_index(d: int, i: int) -> Mapping[tuple[int, int], int]:
    """Map (left mask, right mask) -> position in kunneth_basis(d, i)."""
    return {tc.key: j for j, tc in enumerate(kunneth_basis(d, i))}


def total_dim(d: int, i: int) -> int:
    """dim of the degree-i part of the square; equals C(2d, i)."""
    return binom(2 * d, i)


def cup(a: TensorClass, b: TensorClass) -> TensorClass | None:
    """Cup product of basis classes: componentwise union, or None when a
    one-cell dual repeats on either side (its square vanishes)."""
    if a.left.mask & b.left.mask or a.right.mask & b.right.mask:
        return None
    return TensorClass(
        Monomial(a.left.mask | b.left.mask),
        Monomial(a.right.mask | b.right.mask),
    )


def cup_vector(d: int, deg_a: int, a: int, deg_b: int, b: int) -> int:
    """Bilinear extension of the cup product to coefficient vectors, given
    and returned as masks over the tensor basis of each degree."""
    basis_a = kunneth_basis(d, deg_a)
    basis_b = kunneth_basis(d, deg_b)
    if a < 0 or a >> len(basis_a) or b < 0 or b >> len(basis_b):
        raise ValueError("vector does not match the stated degree")
    index = kunneth_index(d, deg_a + deg_b)
    bits = 0
    for ia in bit_indices(a):
        ta = basis_a[ia]
        for ib in bit_indices(b):
            c = cup(ta, basis_b[ib])
            if c is not None:
                bits ^= 1 << index[c.key]
    return bits


def swap_permutation(d: int, i: int) -> tuple[int, ...]:
    """The swap on the degree-i tensor basis: entry j is the position of the
    swapped class (right, left) of basis class j = (left, right)."""
    index = kunneth_index(d, i)
    return tuple(index[tc.right.mask, tc.left.mask] for tc in kunneth_basis(d, i))


def sigma_matrix(d: int, i: int) -> Gf2Matrix:
    """The swap involution on the degree-i tensor basis, as a dense
    permutation matrix: the oracle the tests hold swap_permutation to."""
    basis = kunneth_basis(d, i)
    index = kunneth_index(d, i)
    rows = [0] * len(basis)
    for j, tc in enumerate(basis):
        rows[index[tc.swap().key]] |= 1 << j
    return Gf2Matrix(len(basis), len(basis), tuple(rows))


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of the two indecomposables: trivial and regular summands."""

    dim: int
    trivial: int
    regular: int

    def __post_init__(self) -> None:
        if min(self.dim, self.trivial, self.regular) < 0:
            raise ValueError("negative multiplicity")
        if self.trivial + 2 * self.regular != self.dim:
            raise ValueError("trivial + 2 * regular must equal dim")


@dataclass(frozen=True)
class Sigma2Module:
    """A finite F2-vector space with an involution induced by a permutation
    of an ambient basis.

    ``swap`` is that permutation of the ambient tensor basis (entry j is
    the image of basis vector j). For a plain module the ambient
    basis is the module's own basis. When the module is presented as the
    ambient space modulo a swap-stable subspace, ``presentation`` records the
    relation generators and the quotient structure, and the involution of
    the module is the one ``swap`` induces on quotient coordinates.
    """

    dim: int
    basis_labels: tuple[TensorClass, ...]
    swap: tuple[int, ...]
    presentation: "KernelPresentation | None" = None

    def __post_init__(self) -> None:
        ambient = self.dim if self.presentation is None else (
            self.presentation.quotient.ambient_dim
        )
        if len(self.swap) != ambient:
            raise ValueError("swap must permute the ambient basis")
        if len(self.basis_labels) != self.dim:
            raise ValueError("one label per basis vector required")


def zero_module() -> Sigma2Module:
    return Sigma2Module(0, (), ())


def torus_module(d: int, i: int) -> Sigma2Module:
    """H^i of the square of T^d with the swap involution, on the tensor basis."""
    basis = kunneth_basis(d, i)
    if not basis:
        return zero_module()
    return Sigma2Module(len(basis), basis, swap_permutation(d, i))


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
