"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single status line (visible with ``pytest -s``); the
suite doubles as the reference run for the ``check`` subcommand.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

from torusconf.borel import (
    PAGE_INF,
    consistency_check,
    e2_page,
    fixture_page,
    sw_height,
    uconf_fixture,
)
from torusconf.decomp import closed_form_report, conf_closed_form, decompose, reduced_table
from torusconf.torus import Decomposition, torus_closed_form, torus_module
from torusconf.verify import (
    _check_fixed_element,
    _check_oracle,
    _check_phi_star,
    _check_poincare,
    _sweep,
)

DMAX = 8

_reports = {}
_sweeps = {}


def report(d, i):
    key = (d, i)
    if key not in _reports:
        _reports[key] = closed_form_report(d, i)
    return _reports[key]


def _passed(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def sweep(d):
    """verify._sweep(d), run once per d: the facts of the ambient
    elimination that check reads."""
    if d not in _sweeps:
        _sweeps[d] = _sweep(d)
    return _sweeps[d]


def conf_facts(d):
    """The brute-force decompositions of degrees 0..2d, as check reads them."""
    _, conf, _, _ = sweep(d)
    return conf[:-1]


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    for d in range(1, DMAX + 1):
        passed, detail = _check_oracle(conf_facts(d), partial(conf_closed_form, d))
        assert passed, (d, detail)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _passed(1, f"oracle equivalence d<=8 in {elapsed:.2f}s")


def test_criterion_02_published_reconciliation():
    rep = report(3, 3)
    assert not rep.published_integral
    assert rep.published_regular == Fraction(15, 2)
    assert rep.brute.regular == 9
    for d in range(1, DMAX + 1):
        for i in range(2 * d + 1):
            if i % 2 == 1 and i >= d:
                continue  # the defective published case, reported not asserted
            r = report(d, i)
            assert r.published_integral, (d, i)
            assert r.published_trivial == r.brute.trivial, (d, i)
            assert r.published_regular == r.brute.regular, (d, i)
    _passed(2, "published-theorem reconciliation")


def test_criterion_03_printed_tables():
    # d = 1 uses the corrected degree-1 cell: the module is one-dimensional,
    # so it is a single trivial summand (see the check notes).
    assert reduced_table(1) == (
        Decomposition(0, 0, 0),
        Decomposition(1, 1, 0),
    )
    assert reduced_table(2) == (
        Decomposition(0, 0, 0),
        Decomposition(4, 0, 2),
        Decomposition(5, 3, 1),
        Decomposition(2, 2, 0),
    )
    assert reduced_table(3) == (
        Decomposition(0, 0, 0),
        Decomposition(6, 0, 3),
        Decomposition(15, 3, 6),
        Decomposition(19, 1, 9),
        Decomposition(12, 6, 3),
        Decomposition(3, 3, 0),
    )
    _passed(3, "reduced tables d=1,2,3")


def test_criterion_04_torus_sweep():
    for d in range(1, DMAX + 1):
        for i in range(2 * d + 2):
            assert decompose(torus_module(d, i)) == torus_closed_form(d, i), (d, i)
    _passed(4, "torus-square sweep d<=8")


def test_criterion_05_poincare_identity():
    for d in range(1, DMAX + 1):
        passed, detail = _check_poincare(d, conf_facts(d))
        assert passed, (d, detail)
    _passed(5, "Poincare identity d<=8")


def test_criterion_06_shear_pullback_laws():
    # involutive in every degree; product law exhaustive for d <= 4, sampled
    # on 10,000 pairs for d = 5
    for d in range(1, 6):
        passed, detail = _check_phi_star(d)
        assert passed, (d, detail)
    _passed(6, "shear pullback laws d<=5")


def test_criterion_07_fixed_elements():
    for d in range(1, DMAX + 1):
        *_, fixed = sweep(d)
        passed, detail = _check_fixed_element(d, fixed)
        assert passed, (d, detail)
    _passed(7, "fixed elements d<=8")


# Tables as drawn for the computed second page, d = 2 and d = 3.
FIGURE_E2_D2 = (
    (1, 1, 1, 1, 1, 1),
    (2, 0, 0, 0, 0, 0),
    (4, 3, 3, 3, 3, 3),
    (2, 2, 2, 2, 2, 2),
)
FIGURE_E2_D3 = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (3, 0, 0, 0, 0, 0, 0, 0),
    (9, 3, 3, 3, 3, 3, 3, 3),
    (10, 1, 1, 1, 1, 1, 1, 1),
    (9, 6, 6, 6, 6, 6, 6, 6),
    (3, 3, 3, 3, 3, 3, 3, 3),
)


def test_criterion_08_second_pages():
    assert e2_page(2, 5).rows == FIGURE_E2_D2
    assert e2_page(3, 7).rows == FIGURE_E2_D3
    assert fixture_page(2, 2).rows == FIGURE_E2_D2
    assert fixture_page(3, 2).rows == FIGURE_E2_D3
    _passed(8, "second pages match the drawn tables")


def test_criterion_09_fixture_consistency():
    for d, dims in ((2, (1, 3, 4, 2, 0)), (3, (1, 4, 10, 13, 9, 3, 0))):
        assert consistency_check(d) == (
            True,
            "second-page-match: ok; graded-dimension-match: ok; "
            "entrywise-monotone: ok; rank-drop-attribution: ok",
        )
        assert uconf_fixture(d).graded_dims(2 * d) == dims
        assert fixture_page(d, PAGE_INF).antidiagonal_sums(2 * d) == dims
    _passed(9, "fixture consistency d=2,3 (with the d=2 truncation correction)")


def test_criterion_10_characteristic_class_height():
    for d in (2, 3):
        assert sw_height(d) == d
        row0 = fixture_page(d, PAGE_INF).rows[0]
        assert all(row0[p] == 1 for p in range(d + 1))  # alpha^d survives
        assert row0[d + 1] == 0  # alpha^(d+1) dies
    _passed(10, "characteristic-class height")


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "torusconf.cli", "check", "--dmax", "6",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    doc = json.loads(first.stdout)
    assert doc["payload"]["passed"]
    _passed(11, "byte-identical check output")
