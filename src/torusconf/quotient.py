"""Cohomology of the two-point configuration space of T^d as a quotient.

The shear (x, y) -> (x, y - x) identifies the configuration space with
T^d x (T^d minus a point), so restriction from the square is onto and its
kernel is generated, in degree i with d <= i <= 2d, by the products of the
degree-(i-d) left-factor monomials with one fixed degree-d relation vector.
Quotienting the tensor basis by that kernel gives the configuration-space
module; the kernel is swap-stable, so the swap of the tensor basis descends
to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gf2 import Gf2Matrix, from_indices, quotient_structure, submasks
from .torus import (
    KernelPresentation,
    Sigma2Module,
    free_module,
    kunneth_basis,
    kunneth_index,
    monomials,
    swap_permutation,
    total_dim,
)


@dataclass(frozen=True)
class PhiStar:
    """The pullback of the shear, one matrix per degree of the square."""

    d: int
    matrices: tuple[Gf2Matrix, ...]

    def in_degree(self, i: int) -> Gf2Matrix:
        if not 0 <= i <= 2 * self.d:
            raise ValueError(f"degree {i} outside [0, {2 * self.d}]")
        return self.matrices[i]


def _phi_star_matrix(d: int, i: int) -> Gf2Matrix:
    # Column of (S, T): multiply the degree-1 images. Left factors are fixed,
    # each right factor e_t* maps to e_t* x 1 + 1 x e_t*, so the image is the
    # sum over submasks J of T of (S u (T \ J), J), dropping repeated indices.
    basis = kunneth_basis(d, i)
    rows = [0] * len(basis)
    for j, (smask, tmask) in enumerate(basis):
        colbit = 1 << j
        for sub in submasks(tmask):
            moved = tmask ^ sub
            if not smask & moved:
                rows[kunneth_index(d, i, smask | moved, sub)] ^= colbit
    return Gf2Matrix(len(basis), len(basis), tuple(rows))


def phi_star_build(d: int) -> PhiStar:
    """All per-degree matrices of the shear pullback on the square."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return PhiStar(d, tuple(_phi_star_matrix(d, i) for i in range(2 * d + 1)))


def _relation_terms(d: int, m: int) -> Iterator[tuple[int, int]]:
    """The terms (m u (free \\ A), m u A) of the kernel generator of the
    monomial ``m``, one per submask A of free = full \\ m."""
    free = ((1 << d) - 1) ^ m
    for a in submasks(free):
        yield m | (free ^ a), m | a


def kernel_generators(d: int, i: int) -> KernelPresentation:
    """The C(d, i-d) kernel generators in degree i (none below degree d).

    The one generator in degree d is the top relation, the shear image of
    1 x (top monomial): the product over j of (e_j* x 1 + 1 x e_j*), one
    term (complement of J) x J per subset J. Each generator is the cup
    product of a left-factor monomial m of degree i-d with the top relation;
    terms with a repeated index drop out, leaving the 2^(2d-i) terms whose
    masks meet exactly in m.
    """
    # monomials(d, i - d) is empty unless d <= i <= 2d
    gens = tuple(
        from_indices(kunneth_index(d, i, s, t) for s, t in _relation_terms(d, m))
        for m in monomials(d, i - d)
    )
    return KernelPresentation(gens, quotient_structure(total_dim(d, i), gens))


def conf_module(d: int, i: int) -> Sigma2Module:
    """H^i of the two-point configuration space of T^d with its swap action:
    the tensor basis modulo the kernel generators, of which there are none
    below degree d. From degree 2d on everything dies, and the empty module
    is returned without building any table of 2^d entries.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not 0 <= i < 2 * d:
        return free_module(())
    kp = kernel_generators(d, i)  # row-reduced before the swap is built
    return Sigma2Module(swap_permutation(d, i), kp)


def fixed_element_terms(d: int, i: int, m: int) -> tuple[tuple[int, int], ...]:
    """The terms (left, right) of fixed_element_x(d, i, m).

    Take the kernel generator attached to the monomial mask ``m`` and keep
    one term from each swapped pair: all terms whose left degree exceeds
    half the free weight, plus, when the free weight 2d-i is even, the
    middle-layer terms whose right free part is the smaller mask of its pair.
    """
    if not d <= i < 2 * d:
        raise ValueError("degree must satisfy d <= i < 2d")
    full = (1 << d) - 1
    # a negative mask has bits outside ``full`` too
    if m & ~full or m.bit_count() != i - d:
        raise ValueError(f"expected a degree-{i - d} monomial inside 1..{d}")
    free = full ^ m
    n = 2 * d - i
    kept = []
    for left, right in _relation_terms(d, m):
        a = right ^ m
        if 2 * a.bit_count() < n or (2 * a.bit_count() == n and a < free ^ a):
            kept.append((left, right))
    return tuple(kept)


def fixed_element_x(d: int, i: int, m: int) -> int:
    """A representative whose coset is swap-fixed yet nonzero: half of the
    kernel generator of ``m``, one term from each swapped pair."""
    return from_indices(kunneth_index(d, i, *t) for t in fixed_element_terms(d, i, m))
