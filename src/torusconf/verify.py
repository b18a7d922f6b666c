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
from typing import Callable

from .borel import CheckEntry, consistency_check, sw_height
from .decomp import (
    conf_closed_form,
    decompose,
    published_closed_form,
    reduced_table,
)
from .gf2 import Gf2Matrix, from_indices
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


def _check_torus_oracle(d: int) -> CheckEntry:
    for i in range(2 * d + 2):
        if decompose(torus_module(d, i)) != torus_closed_form(d, i):
            return CheckEntry(
                f"torus-oracle d={d}", False, f"mismatch in degree {i}"
            )
    return CheckEntry(
        f"torus-oracle d={d}", True, f"degrees 0..{2 * d + 1} match the closed form"
    )


def _check_conf_oracle(d: int, decs) -> CheckEntry:
    for i, dec in decs.items():
        if dec != conf_closed_form(d, i):
            return CheckEntry(f"conf-oracle d={d}", False, f"mismatch in degree {i}")
    return CheckEntry(
        f"conf-oracle d={d}", True, f"degrees 0..{2 * d} match the closed form"
    )


def _check_poincare(d: int, decs) -> CheckEntry:
    dims = tuple(decs[i].dim for i in range(2 * d + 1))
    product = poincare_product(d)
    ok = dims == product
    return CheckEntry(
        f"poincare-identity d={d}", ok,
        f"graded dims {dims}" + ("" if ok else f" != product {product}"),
    )


def _check_kernel_span(d: int, presentations) -> CheckEntry:
    for i in range(d, 2 * d):
        kp = presentations[i]
        expected = binom(d, i - d)
        if len(kp.generators) != expected or kp.span_dim != expected:
            return CheckEntry(
                f"kernel-span d={d}", False,
                f"degree {i}: span dim {kp.span_dim}, expected {expected}",
            )
    if d <= 6:
        top = kernel_generators(d, 2 * d)
        if top.span_dim != total_dim(d, 2 * d):
            return CheckEntry(
                f"kernel-span d={d}", False, "top degree is not exhausted"
            )
    return CheckEntry(
        f"kernel-span d={d}", True, "generators independent, counts as expected"
    )


def _swapped_fixed_element(d: int, i: int, m: int) -> int:
    """The swap of fixed_element_x(d, i, m), ranked term by swapped term."""
    return from_indices(
        kunneth_index(d, i, right, left) for left, right in fixed_element_terms(d, i, m)
    )


def _check_fixed_element(d: int, presentations) -> CheckEntry:
    checked = 0
    for i in range(d, 2 * d):
        quo = presentations[i].quotient
        for m in monomials(d, i - d):
            x = fixed_element_x(d, i, m)
            rep = quo.reduce_bits(x)
            if rep == 0:
                return CheckEntry(
                    f"fixed-element d={d}", False,
                    f"representative dies in degree {i} at mask {m}",
                )
            if quo.reduce_bits(_swapped_fixed_element(d, i, m)) != rep:
                return CheckEntry(
                    f"fixed-element d={d}", False,
                    f"coset not swap-fixed in degree {i} at mask {m}",
                )
            checked += 1
    return CheckEntry(
        f"fixed-element d={d}", True,
        f"{checked} cosets nonzero and swap-fixed",
    )


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
    report = consistency_check(d)
    if report.passed:
        detail = "; ".join(f"{r.name}: ok" for r in report.results)
    else:
        first = next(r for r in report.results if not r.passed)
        detail = f"{first.name}: {first.detail}"
    return CheckEntry(f"fixture-consistency d={d}", report.passed, detail)


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
    notes = []
    if dmax >= 1:
        red = reduced_table(1)
        notes.append(
            "published reduced table for d=1 lists a regular summand in degree 1; "
            f"the degree-1 module is {red[1].dim}-dimensional "
            f"({red[1].trivial} trivial), so the published cell cannot fit: "
            "reported, not a failure"
        )
    for d in range(1, dmax + 1):
        for i in range(d, 2 * d):
            if i % 2 == 0:
                continue
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

    def run(name: str, make: Callable[[], CheckEntry]) -> None:
        start = time.perf_counter()
        try:
            entry = make()
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            entry = CheckEntry(name, False, f"raised {exc!r}")
        entries.append(entry)
        if progress is not None:
            progress(entry, time.perf_counter() - start)

    for d in range(1, dmax + 1):
        run(f"torus-oracle d={d}", lambda d=d: _check_torus_oracle(d))
        kps, decs = {}, {}  # each degree's presentation and decomposition
        for i in range(2 * d + 1):
            module = conf_module(d, i)
            kps[i], decs[i] = module.presentation, decompose(module)
            del module  # its swap goes before the next degree is built
        run(f"conf-oracle d={d}", lambda d=d, decs=decs: _check_conf_oracle(d, decs))
        run(f"poincare-identity d={d}", lambda d=d, decs=decs: _check_poincare(d, decs))
        run(f"kernel-span d={d}", lambda d=d, kps=kps: _check_kernel_span(d, kps))
        run(f"fixed-element d={d}", lambda d=d, kps=kps: _check_fixed_element(d, kps))
        if d <= 5:
            run(f"phi-star-laws d={d}", lambda d=d: _check_phi_star(d))
        del kps, decs
    for d in (2, 3):
        if d <= dmax:
            run(
                f"fixture-consistency d={d}",
                lambda d=d: _check_fixture_consistency(d),
            )
    if dmax >= 2:
        run("sw-height", lambda: _check_sw_height(dmax))

    return SuiteResult(dmax, tuple(entries), _notes(dmax))
