import sys
from collections import Counter

from torusconf import torus, verify
from torusconf.gf2 import bit_indices, from_indices, quotient_structure
from torusconf.quotient import fixed_element_x
from torusconf.torus import monomials, swap_permutation, total_dim
from torusconf.verify import _swapped_fixed_element, poincare_product, run_checks


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


def test_swapped_fixed_element_matches_the_swap_permutation():
    # the fixed-element check ranks the swapped kept terms itself; the swap
    # permutation applied to fixed_element_x is the independent reading
    for d in range(1, 7):
        for i in range(d, 2 * d):
            perm = swap_permutation(d, i)
            for m in monomials(d, i - d):
                x = fixed_element_x(d, i, m)
                expected = from_indices(perm[b] for b in bit_indices(x))
                assert _swapped_fixed_element(d, i, m) == expected, (d, i, m)


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
    original = verify.kernel_generators

    def short(d, i):
        kp = original(d, i)
        if (d, i) != (7, 14):
            return kp
        gens = kp.generators[1:]  # the top degree's one generator dropped
        return torus.KernelPresentation(gens, quotient_structure(total_dim(d, i), gens))

    monkeypatch.setattr(verify, "kernel_generators", short)
    entries = {e.name: e for e in run_checks(7).entries}
    assert not entries["kernel-span d=7"].passed
    assert entries["kernel-span d=7"].detail == "top degree is not exhausted"
    assert entries["kernel-span d=6"].passed
