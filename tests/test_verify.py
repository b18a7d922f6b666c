import random
import sys
from array import array
from collections import Counter

import pytest

from torusconf import decomp, quotient, torus, verify
from torusconf.gf2 import from_indices, quotient_structure
from torusconf.quotient import conf_module, phi_star_build
from torusconf.torus import (
    Decomposition,
    KernelPresentation,
    Sigma2Module,
    cup_vector,
    kunneth_index,
    monomials,
    positions,
    total_dim,
)
from torusconf.verify import poincare_product, run_checks


def test_poincare_product_small():
    assert poincare_product(1) == (1, 1, 0)
    assert poincare_product(2) == (1, 4, 5, 2, 0)
    assert poincare_product(3) == (1, 6, 15, 19, 12, 3, 0)


def test_run_checks_dmax3_passes():
    suite = run_checks(3)
    assert suite.passed
    names = [e.name for e in suite.entries]
    assert "conf-oracle d=3" in names
    assert "fixture-consistency d=2" in names
    assert "fixture-consistency d=3" in names
    assert "sw-height" in names
    assert any("(d=3, i=3) is 15/2" in n for n in suite.notes)
    assert any("reduced table for d=1" in n for n in suite.notes)


def test_run_checks_is_deterministic():
    a = run_checks(2)
    b = run_checks(2)
    assert a == b


def test_run_checks_reports_timing_via_callback():
    seen = []
    run_checks(1, progress=lambda entry, seconds: seen.append((entry.name, seconds)))
    assert seen
    assert all(seconds >= 0 for _, seconds in seen)


def test_run_checks_rejects_bad_dmax():
    import pytest

    with pytest.raises(ValueError):
        run_checks(0)


def test_run_checks_builds_each_swap_once(monkeypatch):
    # one sweep per d: the torus oracle decomposes the relation-free module
    # on the swap that conf_module built, so no (d, i) swap is built twice
    built = Counter()
    original = torus.swap_permutation

    def counted(d, i):
        built[d, i] += 1
        return original(d, i)

    for name, module in list(sys.modules.items()):
        if name.startswith("torusconf") and (
            getattr(module, "swap_permutation", None) is original
        ):
            monkeypatch.setattr(module, "swap_permutation", counted)
    assert run_checks(4).passed
    assert [built[4, i] for i in range(10)] == [1] * 10


def test_run_checks_reads_each_swap_once(monkeypatch):
    # in every degree one involution pass serves both decompositions
    passes = Counter()
    current = []
    original_pass = torus.involution_fixed_points
    original_degree = verify._degree

    def counted(perm):
        passes[current[-1]] += 1
        return original_pass(perm)

    def degree(d, i):
        current.append((d, i))
        return original_degree(d, i)

    monkeypatch.setattr(torus, "involution_fixed_points", counted)
    monkeypatch.setattr(verify, "_degree", degree)
    assert run_checks(4).passed
    assert [passes[4, i] for i in range(10)] == [1] * 10


def test_check_never_reads_the_decomposition_cache(monkeypatch):
    # the pages and notes read the cache; the oracles do not
    read = Counter()

    def wrong(d, i):
        read[d, i] += 1
        c = decomp.conf_closed_form(d, i)
        return Decomposition(c.dim + 2, c.trivial, c.regular + 1)

    built = Counter()
    original = verify.conf_module

    def counted(d, i):
        built[d, i] += 1
        return original(d, i)

    monkeypatch.setattr(decomp, "_table_decomposition", wrong)
    monkeypatch.setattr(verify, "conf_module", counted)
    suite = run_checks(3)
    assert read
    families = ("torus-oracle", "conf-oracle", "poincare-identity")
    oracles = [e for e in suite.entries if e.name.split(" ")[0] in families]
    assert len(oracles) == 9 and all(e.passed for e in oracles), oracles
    assert built == Counter({(d, i): 1 for d in (1, 2, 3) for i in range(2 * d + 2)})


def patch_conf_module(monkeypatch, at, edit):
    """Make verify's conf_module(*at) return edit(conf_module(*at))."""
    def patched(d, i):
        m = conf_module(d, i)
        return edit(m) if (d, i) == at else m

    monkeypatch.setattr(verify, "conf_module", patched)


def failed_checks(dmax):
    return {e.name: e.detail for e in run_checks(dmax).entries if not e.passed}


def test_non_involutive_swap_fails_both_oracles(monkeypatch):
    def three_cycle(m):
        swap = array("I", m.swap)
        swap[0], swap[1], swap[2] = 1, 2, 0
        with pytest.raises(ValueError):
            torus.involution_fixed_points(swap)
        return Sigma2Module(swap, m.presentation)

    patch_conf_module(monkeypatch, (3, 2), three_cycle)
    failed = failed_checks(3)
    # poincare-identity reads the same decompositions as conf-oracle
    assert set(failed) == {"torus-oracle d=3", "conf-oracle d=3", "poincare-identity d=3"}
    for detail in failed.values():
        assert detail == "raised ValueError('sigma is not an involution')"


def test_unstable_relation_subspace_fails_only_conf_oracle(monkeypatch):
    def unstable(m):
        # one relation e_j on a swapped class j: its swap e_sigma(j) is not
        # in the span
        j = next(j for j, p in enumerate(m.swap) if p != j)
        rows = ((j,),)
        return Sigma2Module(m.swap, KernelPresentation(rows, quotient_structure(len(m.swap), rows)))

    patch_conf_module(monkeypatch, (3, 2), unstable)
    failed = failed_checks(3)
    assert set(failed) == {"conf-oracle d=3", "poincare-identity d=3"}
    for detail in failed.values():
        assert detail.startswith("raised SubspaceNotPreservedError("), detail


def test_fixed_element_reads_the_module_swap(monkeypatch):
    # a swap that fixes the two middle classes of degree 2 at d = 2 is still
    # an involution and still stabilises the one relation, the sum of all
    # four classes (S, full \ S), but it no longer fixes the coset of
    # fixed_element_x(2, 2, 0) = (0b11, 0b00) + (0b10, 0b01)
    def middle_fixed(m):
        swap = array("I", m.swap)
        for left, right in ((0b10, 0b01), (0b01, 0b10)):
            j = kunneth_index(2, 2, left, right)
            swap[j] = j
        return Sigma2Module(swap, m.presentation)

    patch_conf_module(monkeypatch, (2, 2), middle_fixed)
    failed = failed_checks(2)
    assert set(failed) == {"torus-oracle d=2", "fixed-element d=2"}
    assert failed["fixed-element d=2"] == "coset not swap-fixed in degree 2 at mask 0"


def test_raise_in_degree_work_fails_only_its_check(monkeypatch):
    def broken(*args):
        raise RuntimeError("broken fixed element")

    monkeypatch.setattr(verify, "fixed_element_x", broken)
    seen = []
    suite = run_checks(2, progress=lambda entry, seconds: seen.append(entry))
    assert seen == list(suite.entries)
    for entry in suite.entries:
        if entry.name.startswith("fixed-element d="):
            assert not entry.passed
            assert entry.detail.startswith("raised RuntimeError(")
        else:
            assert entry.passed, entry
    assert sum(not e.passed for e in suite.entries) == 2


def test_kernel_span_tests_the_top_degree_at_every_d(monkeypatch):
    original = quotient.kernel_generators

    def short(d, i):
        kp = original(d, i)
        if (d, i) != (7, 14):
            return kp
        gens = kp.generators[1:]  # the top degree's one generator dropped
        return torus.KernelPresentation(gens, quotient_structure(total_dim(d, i), gens))

    monkeypatch.setattr(quotient, "kernel_generators", short)
    entries = {e.name: e for e in run_checks(7).entries}
    assert not entries["kernel-span d=7"].passed
    assert entries["kernel-span d=7"].detail == "top degree is not exhausted"
    assert entries["kernel-span d=6"].passed


def identity_columns(d, i):
    """Degree i of the identity map, in the column form of phi_star_build."""
    return tuple([(key,) for key in monomials(2 * d, i)])


def test_product_law_fails_on_an_involutive_non_multiplicative_phi_star(monkeypatch):
    # identity in every degree but 2, which keeps the real pullback: each
    # degree is still an involution, but phi*(ab) = phi*(a) phi*(b) breaks
    original = verify.phi_star_build

    def mixed(d):
        return tuple(
            degree if i == 2 else identity_columns(d, i)
            for i, degree in enumerate(original(d))
        )

    monkeypatch.setattr(verify, "phi_star_build", mixed)
    for d, degrees in ((2, "(1, 1)"), (3, "(1, 1)"), (5, "(2, 3)")):  # d = 5 samples
        assert verify._check_phi_star(d) == (
            False, f"product law fails in degrees {degrees}"
        ), d


def test_involution_law_fails_on_a_non_involutive_phi_star(monkeypatch):
    # degree 3 shifts its C(2d, 3) > 2 classes cyclically, a map whose
    # square is not the identity; degrees 0..2 keep the real pullback
    original = verify.phi_star_build

    def skewed(d):
        out = list(original(d))
        keys = monomials(2 * d, 3)
        out[3] = tuple([(keys[(j + 1) % len(keys)],) for j in range(len(keys))])
        return tuple(out)

    monkeypatch.setattr(verify, "phi_star_build", skewed)
    for d in (2, 3, 5):
        assert verify._check_phi_star(d) == (False, "not involutive in degree 3"), d


def column_masks(d):
    """Each column of phi_star_build(d) as a mask over its degree's basis,
    ranked through kunneth_index."""
    right = (1 << d) - 1
    return [
        [
            from_indices(kunneth_index(d, i, key >> d, key & right) for key in terms)
            for terms in degree
        ]
        for i, degree in enumerate(phi_star_build(d))
    ]


def test_decoded_product_matches_cup_vector():
    # the product law multiplies phi-star columns as packed-key term lists;
    # cup_vector on the column masks is the slow reference
    nonzero = 0
    for d in range(1, 4):
        columns = phi_star_build(d)
        masks = column_masks(d)
        ranks = positions(2 * d)
        for a_deg, degree_a in enumerate(columns):
            for b_deg, degree_b in enumerate(columns):
                for a, terms_a in zip(masks[a_deg], degree_a):
                    for b, terms_b in zip(masks[b_deg], degree_b):
                        product = verify._product_mask(ranks, terms_a, terms_b)
                        assert product == cup_vector(d, a_deg, a, b_deg, b), (
                            d, a_deg, a, b_deg, b,
                        )
                        nonzero += product != 0
    assert nonzero > 0


def all_pairs(d):
    """Every product-law pair (a_deg, a_idx, b_deg, b_idx) with
    a_deg + b_deg <= 2d, in (a_deg, b_deg, a_idx, b_idx) order."""
    return [
        (a_deg, a_idx, b_deg, b_idx)
        for a_deg in range(2 * d + 1)
        for b_deg in range(2 * d + 1 - a_deg)
        for a_idx in range(total_dim(d, a_deg))
        for b_idx in range(total_dim(d, b_deg))
    ]


def keys_meet(d, pair):
    a_deg, a_idx, b_deg, b_idx = pair
    return monomials(2 * d, a_deg)[a_idx] & monomials(2 * d, b_deg)[b_idx] != 0


def test_product_law_compares_the_disjoint_pairs_in_order():
    # the d <= 4 check enumerates only the pairs whose keys share no bit
    # and reports the count of all pairs
    for d, count in ((1, 11), (2, 163), (3, 2510), (4, 39203)):
        pairs = all_pairs(d)
        assert len(pairs) == count
        expected = [pair for pair in pairs if not keys_meet(d, pair)]
        assert list(verify._disjoint_pairs(d)) == expected, d
        assert len(expected) == 3 ** (2 * d)
        assert verify._check_phi_star(d) == (
            True, f"involutive; product law exhaustive over {count} pairs"
        )


def test_sampled_pairs_follow_the_randrange_stream():
    # the d = 5 sample draws from getrandbits as randint and randrange do
    for d in range(1, 9):
        rng = random.Random(verify._SAMPLE_SEED)
        dims = [total_dim(d, i) for i in range(2 * d + 1)]
        expected = []
        for _ in range(verify._SAMPLE_PAIRS):
            a_deg = rng.randint(0, 2 * d)
            b_deg = rng.randint(0, 2 * d - a_deg)
            a_idx = rng.randrange(dims[a_deg])
            expected.append((a_deg, a_idx, b_deg, rng.randrange(dims[b_deg])))
        assert list(verify._sampled_pairs(d)) == expected, d


def meeting_pairs(d):
    """The product-law pairs of _check_phi_star(d) that it counts without
    comparing: for d <= 4 the complement of the compared pairs in all pairs,
    for d = 5 the sampled pairs whose keys share a bit."""
    if d <= 4:
        compared = set(verify._disjoint_pairs(d))
        return [pair for pair in all_pairs(d) if pair not in compared]
    return [pair for pair in verify._sampled_pairs(d) if keys_meet(d, pair)]


def test_pullback_product_of_a_meeting_pair_is_zero():
    # the check counts these pairs without comparing them: ab = 0, so the
    # law asks phi*(a) phi*(b) = 0. Of the exhaustive pairs (11, 163 and
    # 2510 at d = 1, 2, 3) the 3^(2d) disjoint ones are compared, one per
    # way to put each of the 2d bits in a, in b or in neither.
    for d, expected in ((1, 11 - 9), (2, 163 - 81), (3, 2510 - 729), (5, None)):
        columns = phi_star_build(d)
        ranks = positions(2 * d)
        count = 0
        for a_deg, a_idx, b_deg, b_idx in meeting_pairs(d):
            terms_a, terms_b = columns[a_deg][a_idx], columns[b_deg][b_idx]
            assert verify._product_mask(ranks, terms_a, terms_b) == 0, (
                d, a_deg, a_idx, b_deg, b_idx,
            )
            count += 1
        assert count == expected or expected is None and count > 0, (d, count)
