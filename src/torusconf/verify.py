"""The full verification sweep behind the ``check`` subcommand.

Every structural fact the package relies on is re-derived here by brute
force: closed-form counts against explicit elimination, the Poincare
identity, the shear-pullback laws, nonzero swap-fixed cosets, kernel ranks,
and the stored spectral-sequence tables. Checks are pure and their report
is deterministic; wall-clock timing goes to the optional progress callback
only, never into the report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .borel import CheckEntry, consistency_check, sw_height
from .decomp import (
    conf_closed_form,
    decompose,
    published_closed_form,
    reduced_table,
)
from .gf2 import Gf2Matrix, QuotientBasis, from_indices
from .quotient import (
    conf_module,
    fixed_element_terms,
    fixed_element_x,
    kernel_generators,
    phi_star_build,
)
from .torus import (
    binom,
    cup,
    cup_vector,
    free_module,
    kunneth_basis,
    kunneth_index,
    monomials,
    torus_closed_form,
    torus_module,
    total_dim,
)

_SAMPLE_SEED = 95077
# Product-law pairs sampled for the phi-star check at d = 5 (d <= 4 is
# exhaustive).
_SAMPLE_PAIRS = 10_000


@dataclass(frozen=True)
class SuiteResult:
    dmax: int
    entries: tuple[CheckEntry, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def poincare_product(d: int) -> tuple[int, ...]:
    """Coefficients of (1+t)^d ((1+t)^d - t^d) as an integer polynomial."""
    a = [binom(d, k) for k in range(d + 1)]
    b = [binom(d, k) - (1 if k == d else 0) for k in range(d + 1)]
    out = [0] * (2 * d + 1)
    for j, aj in enumerate(a):
        for k, bk in enumerate(b):
            out[j + k] += aj * bk
    return tuple(out)


def _attempt(make: Callable[[], object]) -> object:
    try:
        return make()
    except Exception as exc:  # fails the check that reads it, not the suite
        return exc.with_traceback(None)  # the traceback would keep the module


def _read(fact):  # a fact whose work raised raises again in its check
    if isinstance(fact, Exception):
        raise fact
    return fact


def _fixed_cosets(d: int, i: int, quo: QuotientBasis) -> int | str:
    """The count of nonzero swap-fixed cosets, or the first failure's detail."""
    checked = 0
    for m in monomials(d, i - d):
        rep = quo.reduce_bits(fixed_element_x(d, i, m))
        if rep == 0:
            return f"representative dies in degree {i} at mask {m}"
        if quo.reduce_bits(_swapped_fixed_element(d, i, m)) != rep:
            return f"coset not swap-fixed in degree {i} at mask {m}"
        checked += 1
    return checked


def _degree(d: int, i: int) -> tuple:
    """Build conf_module(d, i) once and record what the checks read of it:
    decompositions without and with relations, generator count and span
    dim, fixed-element outcome. The module goes when this returns."""
    module = conf_module(d, i)
    kp = module.presentation
    return (
        # from degree 2d on conf_module is the empty shortcut
        _attempt(lambda: decompose(
            torus_module(d, i) if i >= 2 * d else free_module(module.swap)
        )),
        _attempt(lambda: decompose(module)),
        (len(kp.generators), kp.span_dim),
        _attempt(lambda: _fixed_cosets(d, i, kp.quotient)) if i < 2 * d else None,
    )


def _sweep(d: int) -> tuple[tuple, ...]:
    """Each fact of _degree over degrees 0..2d+1, one module alive at a time."""
    return tuple(zip(*(_degree(d, i) for i in range(2 * d + 2))))


def _check_oracle(name: str, decs, closed_form: Callable) -> CheckEntry:
    for i, dec in enumerate(decs):
        if _read(dec) != closed_form(i):
            return CheckEntry(name, False, f"mismatch in degree {i}")
    return CheckEntry(name, True, f"degrees 0..{len(decs) - 1} match the closed form")


def _check_poincare(d: int, decs) -> CheckEntry:
    dims = tuple(_read(dec).dim for dec in decs)
    product = poincare_product(d)
    ok = dims == product
    return CheckEntry(
        f"poincare-identity d={d}", ok,
        f"graded dims {dims}" + ("" if ok else f" != product {product}"),
    )


def _check_kernel_span(d: int, kernels) -> CheckEntry:
    for i in range(d, 2 * d):
        count, span_dim = kernels[i]
        expected = binom(d, i - d)
        if count != expected or span_dim != expected:
            return CheckEntry(
                f"kernel-span d={d}", False,
                f"degree {i}: span dim {span_dim}, expected {expected}",
            )
    if kernel_generators(d, 2 * d).span_dim != total_dim(d, 2 * d):
        return CheckEntry(f"kernel-span d={d}", False, "top degree is not exhausted")
    return CheckEntry(
        f"kernel-span d={d}", True, "generators independent, counts as expected"
    )


def _swapped_fixed_element(d: int, i: int, m: int) -> int:
    """The swap of fixed_element_x(d, i, m), ranked term by swapped term."""
    return from_indices(
        kunneth_index(d, i, right, left) for left, right in fixed_element_terms(d, i, m)
    )


def _check_fixed_element(d: int, outcomes) -> CheckEntry:
    checked = 0
    for i in range(d, 2 * d):
        outcome = _read(outcomes[i])
        if isinstance(outcome, str):
            return CheckEntry(f"fixed-element d={d}", False, outcome)
        checked += outcome
    detail = f"{checked} cosets nonzero and swap-fixed"
    return CheckEntry(f"fixed-element d={d}", True, detail)


def _multiplicative_on(d, transposes, a_deg, a_idx, b_deg, b_idx) -> bool:
    a = kunneth_basis(d, a_deg)[a_idx]
    b = kunneth_basis(d, b_deg)[b_idx]
    c = cup(a, b)
    if c is None:
        return True
    lhs = transposes[a_deg + b_deg].rows[kunneth_index(d, a_deg + b_deg, *c)]
    rhs = cup_vector(
        d, a_deg, transposes[a_deg].rows[a_idx], b_deg, transposes[b_deg].rows[b_idx]
    )
    return lhs == rhs


def _sampled_pairs(d: int):
    rng = random.Random(_SAMPLE_SEED)
    for _ in range(_SAMPLE_PAIRS):
        a_deg = rng.randint(0, 2 * d)
        b_deg = rng.randint(0, 2 * d - a_deg)
        a_idx = rng.randrange(total_dim(d, a_deg))
        yield a_deg, a_idx, b_deg, rng.randrange(total_dim(d, b_deg))


def _check_phi_star(d: int) -> CheckEntry:
    ps = phi_star_build(d)
    for i in range(2 * d + 1):
        m = ps.in_degree(i)
        if m @ m != Gf2Matrix.identity(m.nrows):
            return CheckEntry(
                f"phi-star-laws d={d}", False, f"not involutive in degree {i}"
            )
    transposes = [m.transpose() for m in ps.matrices]
    if d <= 4:
        how = "exhaustive over"
        pairs = (
            (a_deg, a_idx, b_deg, b_idx)
            for a_deg in range(2 * d + 1)
            for b_deg in range(2 * d + 1 - a_deg)
            for a_idx in range(total_dim(d, a_deg))
            for b_idx in range(total_dim(d, b_deg))
        )
    else:
        how, pairs = "sampled on", _sampled_pairs(d)
    count = 0
    for a_deg, a_idx, b_deg, b_idx in pairs:
        if not _multiplicative_on(d, transposes, a_deg, a_idx, b_deg, b_idx):
            return CheckEntry(
                f"phi-star-laws d={d}", False,
                f"product law fails in degrees ({a_deg}, {b_deg})",
            )
        count += 1
    return CheckEntry(
        f"phi-star-laws d={d}", True, f"involutive; product law {how} {count} pairs"
    )


def _check_fixture_consistency(d: int) -> CheckEntry:
    results = consistency_check(d)
    passed = all(r.passed for r in results)
    if passed:
        detail = "; ".join(f"{r.name}: ok" for r in results)
    else:
        first = next(r for r in results if not r.passed)
        detail = f"{first.name}: {first.detail}"
    return CheckEntry(f"fixture-consistency d={d}", passed, detail)


def _check_sw_height(dmax: int) -> CheckEntry:
    for d in range(2, max(dmax, 3) + 1):
        res = sw_height(d)
        if res.height != d:
            return CheckEntry("sw-height", False, f"height {res.height} at d={d}")
    return CheckEntry(
        "sw-height", True,
        f"height equals d for d=2..{max(dmax, 3)}; d=2,3 read off stored pages",
    )


def _notes(dmax: int) -> tuple[str, ...]:
    red = reduced_table(1)
    notes = [
        "published reduced table for d=1 lists a regular summand in degree 1; "
        f"the degree-1 module is {red[1].dim}-dimensional "
        f"({red[1].trivial} trivial), so the published cell cannot fit: "
        "reported, not a failure"
    ]
    for d in range(1, dmax + 1):
        for i in range(d | 1, 2 * d, 2):  # the odd degrees from d on
            _, pr = published_closed_form(d, i)
            if pr.denominator != 1:
                corrected = conf_closed_form(d, i)
                notes.append(
                    f"published odd-case regular count at (d={d}, i={i}) is {pr}, "
                    f"not an integer; corrected count {corrected.regular} matches "
                    "brute force: reported, not a failure"
                )
    return tuple(notes)


def run_checks(
    dmax: int,
    progress: Callable[[CheckEntry, float], None] | None = None,
) -> SuiteResult:
    """Run the whole suite up to torus dimension ``dmax``.

    The returned report depends only on ``dmax``; timing is delivered
    through ``progress`` and deliberately kept out of the result.
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    entries: list[CheckEntry] = []

    def run(name: str, check: Callable[..., CheckEntry], *args) -> None:
        start = time.perf_counter()
        try:
            entry = check(*args)
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            entry = CheckEntry(name, False, f"raised {exc!r}")
        entries.append(entry)
        if progress is not None:
            progress(entry, time.perf_counter() - start)

    for d in range(1, dmax + 1):
        torus, conf, kernels, fixed = _sweep(d)
        conf = conf[:-1]  # degrees 0..2d
        name = f"torus-oracle d={d}"
        run(name, _check_oracle, name, torus, partial(torus_closed_form, d))
        name = f"conf-oracle d={d}"
        run(name, _check_oracle, name, conf, partial(conf_closed_form, d))
        run(f"poincare-identity d={d}", _check_poincare, d, conf)
        run(f"kernel-span d={d}", _check_kernel_span, d, kernels)
        run(f"fixed-element d={d}", _check_fixed_element, d, fixed)
        if d <= 5:
            run(f"phi-star-laws d={d}", _check_phi_star, d)
    for d in range(2, min(dmax, 3) + 1):
        run(f"fixture-consistency d={d}", _check_fixture_consistency, d)
    if dmax >= 2:
        run("sw-height", _check_sw_height, dmax)

    return SuiteResult(dmax, tuple(entries), _notes(dmax))
