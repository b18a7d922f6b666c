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
