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

from typing import Iterator

from .gf2 import quotient_structure, submasks
from .torus import (
    KernelPresentation,
    Sigma2Module,
    monomials,
    offsets,
    positions,
    swap_permutation,
    total_dim,
)


def _image_keys(d: int, key: int) -> tuple[int, ...]:
    # Left factors are fixed and each right factor e_t* maps to
    # e_t* x 1 + 1 x e_t*, so the image of (S, T) is the sum over submasks J
    # of T of (S u (T \ J), J), dropping the terms with a repeated index.
    smask, tmask = key >> d, key & ((1 << d) - 1)
    return tuple([
        ((smask | (tmask ^ sub)) << d) | sub
        for sub in submasks(tmask)
        if not smask & (tmask ^ sub)
    ])


def phi_star_build(d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The shear pullback on the square, one entry per degree i = 0 .. 2d.

    Entry i lists, for each class of the degree-i tensor basis written as
    packed keys (monomials(2d, i), see ``torus``), the packed keys of the
    terms of its image.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    # from lists: tuple() of a generator over-allocates, and CPython keeps
    # the shrunk block on its tuple free list until a full collection
    return tuple([
        tuple([_image_keys(d, key) for key in monomials(2 * d, i)])
        for i in range(2 * d + 1)
    ])


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
    masks meet exactly in m. A generator lists the positions of its terms,
    in the order of ``_relation_terms``, each ranked by table lookup as
    offsets(d, i)[S] + positions(d)[T] (see ``torus``); a test holds them
    to the validating ``kunneth_index``.
    """
    lefts = monomials(d, i - d)  # empty unless d <= i <= 2d
    off = offsets(d, i) if lefts else ()
    pos = positions(d) if lefts else ()
    # from lists: tuple() of a generator over-allocates, and CPython keeps
    # the shrunk block on its tuple free list until a full collection
    gens = tuple([
        tuple([off[s] + pos[t] for s, t in _relation_terms(d, m)]) for m in lefts
    ])
    return KernelPresentation(gens, quotient_structure(total_dim(d, i), gens))


def conf_module(d: int, i: int) -> Sigma2Module:
    """H^i of the two-point configuration space of T^d with its swap action:
    the tensor basis modulo the kernel generators, of which there are none
    below degree d. In degree 2d the one class is killed by its own relation;
    outside 0 <= i <= 2d both are empty and no table of 2^d entries is built.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    kp = kernel_generators(d, i)  # row-reduced before the swap is built
    return Sigma2Module(swap_permutation(d, i), kp)


def fixed_element_x(d: int, i: int, m: int) -> tuple[int, ...]:
    """A representative whose coset is swap-fixed yet nonzero: half of the
    kernel generator of ``m``, one term from each swapped pair, given by the
    positions of its terms.

    The kept terms (left, right) of the generator attached to the monomial
    mask ``m`` are all terms whose left degree exceeds half the free weight,
    plus, when the free weight 2d-i is even, the middle-layer terms whose
    right free part is the smaller mask of its pair. Each is ranked as
    ``kernel_generators`` ranks it, offsets(d, i)[left] + positions(d)[right];
    a test holds the ranks to the validating ``kunneth_index``.
    """
    if not d <= i < 2 * d:
        raise ValueError("degree must satisfy d <= i < 2d")
    full = (1 << d) - 1
    # a negative mask has bits outside ``full`` too
    if m & ~full or m.bit_count() != i - d:
        raise ValueError(f"expected a degree-{i - d} monomial inside 1..{d}")
    free = full ^ m
    n = 2 * d - i
    off, pos = offsets(d, i), positions(d)
    kept = []
    for left, right in _relation_terms(d, m):
        a = right ^ m
        if 2 * a.bit_count() < n or (2 * a.bit_count() == n and a < free ^ a):
            kept.append(off[left] + pos[right])
    return tuple(kept)
