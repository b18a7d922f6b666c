import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusconf.decomp import decompose
from torusconf.gf2 import Gf2Matrix, bit_indices, from_indices, induced_map_on_quotient
from torusconf.quotient import (
    _relation_terms,
    conf_module,
    fixed_element_x,
    kernel_generators,
    phi_star_build,
)
from torusconf.gf2 import submasks
from torusconf.torus import (
    binom,
    cup_vector,
    kunneth_basis,
    kunneth_index,
    monomials,
    sigma_matrix,
    swap_permutation,
    torus_module,
    total_dim,
)
from torusconf.verify import poincare_product


# --- the shear pullback -----------------------------------------------------

def phi_star_matrix(d, i):
    """The dense oracle: degree i of phi_star_build(d) as a matrix whose
    column j holds the image of basis class j, each term ranked through
    kunneth_index rather than the packed-key positions."""
    right = (1 << d) - 1
    columns = phi_star_build(d)[i]
    rows = [0] * len(columns)
    for j, terms in enumerate(columns):
        for key in terms:
            rows[kunneth_index(d, i, key >> d, key & right)] ^= 1 << j
    return Gf2Matrix(len(columns), len(columns), tuple(rows))


def test_phi_star_degree_one_rules():
    for d in (1, 2, 3):
        m = phi_star_matrix(d, 1)
        basis = kunneth_basis(d, 1)
        for j, (_, s) in enumerate(basis):
            image = {b for b in range(len(basis)) if (m.rows[b] >> j) & 1}
            if s == 0:  # e_s* x 1 is fixed
                assert image == {j}
            else:  # 1 x e_t* picks up the matching left factor
                assert image == {kunneth_index(d, 1, s, 0), kunneth_index(d, 1, 0, s)}


def test_phi_star_is_involution_small():
    for d in range(1, 5):
        for i in range(2 * d + 1):
            m = phi_star_matrix(d, i)
            assert m @ m == Gf2Matrix.identity(m.nrows)


def test_phi_star_degree_zero_and_range():
    assert phi_star_matrix(2, 0) == Gf2Matrix.identity(1)
    assert [len(degree) for degree in phi_star_build(2)] == [1, 4, 6, 4, 1]
    with pytest.raises(ValueError):
        phi_star_build(0)


def phi_terms(d, s, t):
    """Classwise image of the shear pullback as a set of (left, right) masks."""
    out = set()
    for sub in submasks(t):
        moved = t ^ sub
        if not s & moved:
            out.add((s | moved, sub))
    return out


def phi_terms_sum(d, terms):
    acc = set()
    for l, r in terms:
        acc ^= phi_terms(d, l, r)
    return acc


def cup_terms(terms_a, terms_b):
    acc = set()
    for la, ra in terms_a:
        for lb, rb in terms_b:
            if la & lb or ra & rb:
                continue
            acc ^= {(la | lb, ra | rb)}
    return acc


def test_phi_star_matrix_agrees_with_classwise_expansion():
    # every column of the dense oracle against the classwise expansion
    for d, degrees in ((1, range(3)), (2, range(5)), (3, range(7)), (6, (2, 4, 7))):
        for i in degrees:
            columns = phi_star_matrix(d, i).transpose().rows
            basis = kunneth_basis(d, i)
            for j, (s, t) in enumerate(basis):
                got = {basis[b] for b in bit_indices(columns[j])}
                assert got == phi_terms(d, s, t), (d, i, j)


def test_phi_star_laws_sampled_high_dimension():
    # classwise sampling keeps d = 6..8 affordable: no full matrices needed
    import random

    rng = random.Random(20140)
    full_masks = lambda d: range(1 << d)
    for d in (6, 7, 8):
        masks = list(full_masks(d))
        for _ in range(200):
            s, t = rng.choice(masks), rng.choice(masks)
            image = phi_terms(d, s, t)
            assert phi_terms_sum(d, image) == {(s, t)}  # involutive
            sa, ta = rng.choice(masks), rng.choice(masks)
            sb, tb = rng.choice(masks), rng.choice(masks)
            if sa & sb or ta & tb:
                continue
            lhs = phi_terms(d, sa | sb, ta | tb)
            rhs = cup_terms(phi_terms(d, sa, ta), phi_terms(d, sb, tb))
            assert lhs == rhs  # multiplicative


# --- the top relation: the one kernel generator in degree d ---------------------

def top_relation(d):
    (rel,) = kernel_generators(d, d).generators
    assert len(set(rel)) == len(rel)  # each position listed once
    return set(rel)


def test_top_relation_d1():
    assert top_relation(1) == {0, 1}  # 1 x e1* plus e1* x 1


def test_top_relation_d2_terms():
    terms = ((0b11, 0b00), (0b01, 0b10), (0b10, 0b01), (0b00, 0b11))
    expected = {kunneth_index(2, 2, s, t) for s, t in terms}
    assert top_relation(2) == expected


def test_top_relation_weight_and_symmetry():
    for d in range(1, 7):
        rel = top_relation(d)
        assert len(rel) == 1 << d
        basis = kunneth_basis(d, d)
        terms = {basis[b] for b in rel}
        assert {(r, l) for l, r in terms} == terms  # swap-invariant term set


# --- kernel generators --------------------------------------------------------

def test_kernel_generator_counts():
    assert len(kernel_generators(2, 3).generators) == 2  # C(2, 1)
    assert len(kernel_generators(3, 2).generators) == 0  # below degree d
    assert kernel_generators(3, 2).span_dim == 0


def test_kernel_generator_surviving_terms():
    # multiplying by a left monomial kills exactly the overlapping summands
    for d in range(1, 6):
        for i in range(d, 2 * d + 1):
            kp = kernel_generators(d, i)
            assert all(len(set(g)) == len(g) == 1 << (2 * d - i) for g in kp.generators)


def test_sparse_kernel_rows_match_validated_ranking():
    # positions ranked through offsets/positions against the validating
    # kunneth_index, term by term and in order
    for d in range(8):
        for i in range(2 * d + 2):
            expected = tuple(
                tuple(kunneth_index(d, i, s, t) for s, t in _relation_terms(d, m))
                for m in monomials(d, i - d)
            )
            assert kernel_generators(d, i).generators == expected, (d, i)


def test_kernel_generators_independent():
    for d in range(1, 6):
        for i in range(d, 2 * d):
            kp = kernel_generators(d, i)
            assert kp.span_dim == len(kp.generators) == binom(d, i - d)


def test_kernel_fills_top_degree():
    # the one class of degree 2d is killed by its own relation
    for d in range(1, 6):
        kp = kernel_generators(d, 2 * d)
        assert kp.span_dim == total_dim(d, 2 * d) == 1
        m = conf_module(d, 2 * d)
        assert len(m.swap) == 1
        assert len(m.presentation.generators) == 1
        assert m.presentation.span_dim == 1
        assert m.dim == 0


def alt_generator(d, i, m):
    """The same relation expanded the long way: sum the hatted products over
    the free indices first, then multiply by the diagonal class of m."""
    full = (1 << d) - 1
    free = full ^ m
    nfree = 2 * d - i
    bits = 0
    for sub in submasks(free):
        bits |= 1 << kunneth_index(d, nfree, free ^ sub, sub)
    diag_deg = 2 * (i - d)
    diag_idx = kunneth_index(d, diag_deg, m, m)
    return cup_vector(d, nfree, bits, diag_deg, 1 << diag_idx)


def test_kernel_generators_agree_with_hatted_expansion():
    for d in range(1, 5):
        for i in range(d, 2 * d):
            kp = kernel_generators(d, i)
            for g, m in zip(kp.generators, monomials(d, i - d)):
                assert len(set(g)) == len(g)
                assert from_indices(g) == alt_generator(d, i, m)


def test_kernel_span_is_swap_stable():
    for d in range(1, 6):
        for i in range(d, 2 * d):
            kp = kernel_generators(d, i)
            basis = kunneth_basis(d, i)
            for g in kp.generators:
                swapped = []
                for b in g:
                    l, r = basis[b]
                    swapped.append(kunneth_index(d, i, r, l))
                assert kp.quotient.reduce(swapped) == ()


# --- configuration-space modules ----------------------------------------------

def test_conf_module_dims():
    assert conf_module(2, 2).dim == 5
    assert conf_module(3, 5).dim == 3
    assert conf_module(1, 2).dim == 0
    assert decompose(conf_module(3, 5)).trivial == 3


def test_conf_module_below_d_is_torus():
    # the same swap and no relations
    for d in range(1, 5):
        for i in range(d):
            m = conf_module(d, i)
            assert m == torus_module(d, i)
            assert m.presentation.generators == ()
            assert m.dim == total_dim(d, i)
            assert m.swap == swap_permutation(d, i)


def test_conf_dim_formula():
    for d in range(7):
        product = poincare_product(d)
        for i in range(2 * d + 3):
            dim = conf_module(d, i).dim
            assert dim == (product[i] if i <= 2 * d else 0)
            if i < 2 * d:
                assert dim == binom(2 * d, i) - binom(d, i - d)


def test_conf_module_of_point_vanishes():
    for i in range(3):
        assert conf_module(0, i).dim == 0


def test_conf_module_sigma_is_involution():
    # the dense oracle: the swap matrix induced on quotient coordinates
    for d in range(1, 5):
        for i in range(2 * d):
            m = conf_module(d, i)
            s = induced_map_on_quotient(sigma_matrix(d, i), m.presentation.quotient)
            assert s @ s == Gf2Matrix.identity(m.dim)


# --- the swap-fixed representative ---------------------------------------------

def test_fixed_element_d2_top():
    # half of the four-term relation: the left-heavy term plus one middle term
    x = fixed_element_x(2, 2, 0)
    assert sorted(x) == sorted([
        kunneth_index(2, 2, 0b11, 0b00), kunneth_index(2, 2, 0b10, 0b01)
    ])
    # every (d, i, m) with d <= 7, 247 in all: the table-lookup ranks equal
    # those of the validating kunneth_index, term by term
    cases = 0
    for d in range(1, 8):
        full = (1 << d) - 1
        for i in range(d, 2 * d):
            n = 2 * d - i
            for m in monomials(d, i - d):
                free, expected = full ^ m, []
                for left, right in _relation_terms(d, m):
                    a = right ^ m
                    if 2 * a.bit_count() < n or (2 * a.bit_count() == n and a < free ^ a):
                        expected.append(kunneth_index(d, i, left, right))
                assert fixed_element_x(d, i, m) == tuple(expected), (d, i, m)
                cases += 1
    assert cases == 247


def test_fixed_element_rejects_bad_input():
    with pytest.raises(ValueError):
        fixed_element_x(2, 4, 0b11)  # i = 2d not allowed
    with pytest.raises(ValueError):
        fixed_element_x(2, 3, 0)  # degree must be i - d
    with pytest.raises(ValueError):
        fixed_element_x(2, 3, 0b100)  # index outside 1..d
    with pytest.raises(ValueError):
        fixed_element_x(2, 3, -1)  # negative mask


@given(st.integers(1, 5), st.data())
def test_fixed_element_is_half_of_its_generator(d, data):
    i = data.draw(st.integers(d, 2 * d - 1))
    choices = monomials(d, i - d)
    m = data.draw(st.sampled_from(choices))
    x = fixed_element_x(d, i, m)
    gens = kernel_generators(d, i)
    g = gens.generators[choices.index(m)]
    assert len(set(x)) == len(x)
    assert len(x) * 2 == len(g)
    assert set(x) <= set(g)  # terms chosen from the relation
