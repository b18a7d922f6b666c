"""Command-line front end.

Every subcommand emits one document: a command echo, the parameters, and a
payload. The JSON rendering is canonical and byte-stable for fixed
arguments; csv, markdown and latex render the same numbers as a table.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache
from typing import Sequence

from . import __version__
from .borel import PAGE_INF, e2_page, fixture_page
# decompose and conf_module are not called here; bench/selftest.py reaches
# them through this module
from .decomp import closed_form_report, conf_table, decompose, reduced  # noqa: F401
from .quotient import conf_module  # noqa: F401
from .torus import Decomposition, binom
from .verify import poincare_product, run_checks

FORMATS = ("json", "csv", "markdown", "latex")
# check --dmax 15: 284 s, 703 MB peak RSS (2 cores, 8 GB). check --dmax
# 14's stdout is byte-identical to that of the dense-row build before sparse
# relation rows. The same cap, with no override, bounds --d of table,
# poincare, ss --page 2 and compute below degree 2d (from 2d on the module
# is zero and free); these count relation rows and build no module: table
# --d 15 takes 6.9 s, 35 MB, and compute --d 15 --i 15 0.2 s, 27 MB.
DMAX_CAP = 15
# ss rows are pmax + 1 columns wide, so an explicit --pmax is capped; the cap
# is far above the default 2d + 2 for every d up to DMAX_CAP.
PMAX_CAP = 1000


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def module_label(trivial: int, regular: int, fmt: str) -> str:
    """Render a decomposition, e.g. F2^3 + F2[S2]^1 or its latex form."""
    if trivial == 0 and regular == 0:
        return "0"
    if fmt == "latex":
        parts = []
        if trivial:
            parts.append(r"\mathbb{F}_2^{\oplus %d}" % trivial)
        if regular:
            parts.append(r"\mathbb{F}_2[\Sigma_2]^{\oplus %d}" % regular)
        return r"\oplus ".join(parts)
    parts = []
    if trivial:
        parts.append(f"F2^{trivial}")
    if regular:
        parts.append(f"F2[S2]^{regular}")
    return " + ".join(parts)


def _refuse(message: str) -> int:
    """Report a usage error on stderr; the exit code is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _over_cap(d: int) -> str:
    return f"d {d} exceeds the cap {DMAX_CAP} (degree spaces grow like C(2d, d))"


def _render(doc: dict, headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        import csv  # on first use: only csv documents need it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = [
            r"\begin{tabular}{%s}" % ("l" * len(headers)),
            " & ".join(headers) + r" \\",
            r"\hline",
        ]
        for row in rows:
            lines.append(" & ".join(str(c) for c in row) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt}")


def _output(
    args: argparse.Namespace,
    parameters: dict,
    payload: dict,
    headers: list[str],
    rows: list[list],
    status: int = 0,
) -> int:
    """Render the command's document and write it to stdout or ``--out``;
    returns ``status``, or the refusal code when ``--out`` cannot be written."""
    doc = {
        "command": args.command,
        "parameters": {**parameters, "format": args.format},
        "payload": payload,
        "version": __version__,
    }
    text = _render(doc, headers, rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
        return status
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _refuse(f"cannot write {args.out}: {exc.strerror}")
    return status


def _probe_out(path: str) -> str | None:
    """Why ``path`` cannot be opened for writing, or None when it can.

    Opened for appending, so an existing file keeps its contents until the
    document is written; a file the probe created is removed again. Opening
    a symlink opens its target, so the target is what the probe may create:
    a dangling link is left as it was, with no target."""
    target = os.path.realpath(path)
    existed = os.path.exists(target)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return exc.strerror
    if not existed:
        os.remove(target)
    return None


def _decomposition_row(i: int, dec: Decomposition, fmt: str) -> list:
    return [i, dec.dim, dec.trivial, dec.regular,
            module_label(dec.trivial, dec.regular, fmt)]


def cmd_compute(args: argparse.Namespace) -> int:
    if args.d > DMAX_CAP and args.i < 2 * args.d:
        return _refuse(_over_cap(args.d))
    report = closed_form_report(args.d, args.i)
    brute = report.brute
    payload = {
        "d": args.d,
        "i": args.i,
        "dim": brute.dim,
        "trivial": brute.trivial,
        "regular": brute.regular,
        "corrected": {
            "dim": report.corrected.dim,
            "trivial": report.corrected.trivial,
            "regular": report.corrected.regular,
        },
        "published": {
            "trivial": str(report.published_trivial),
            "regular": str(report.published_regular),
            "integral": report.published_integral,
        },
        "agreement": brute == report.corrected,
    }
    headers = ["d", "i", "dim", "trivial", "regular", "module"]
    rows = [[args.d] + _decomposition_row(args.i, brute, args.format)]
    status = _output(
        args, {"d": args.d, "i": args.i}, payload, headers, rows,
        status=0 if payload["agreement"] else 1,
    )
    if status == 1:
        print(
            f"error: brute force and corrected closed form disagree at "
            f"(d={args.d}, i={args.i})",
            file=sys.stderr,
        )
    return status


def cmd_table(args: argparse.Namespace) -> int:
    if args.reduced and args.d < 1:
        return _refuse("the reduced table requires d >= 1")
    if args.d > DMAX_CAP:
        return _refuse(_over_cap(args.d))
    decs = conf_table(args.d)
    table_rows = list(enumerate(reduced(decs) if args.reduced else decs))
    payload = {
        "d": args.d,
        "reduced": args.reduced,
        "rows": [
            {"i": i, "dim": dec.dim, "trivial": dec.trivial, "regular": dec.regular}
            for i, dec in table_rows
        ],
    }
    headers = ["i", "dim", "trivial", "regular", "module"]
    rows = [_decomposition_row(i, dec, args.format) for i, dec in table_rows]
    return _output(args, {"d": args.d, "reduced": args.reduced}, payload, headers, rows)


def cmd_ss(args: argparse.Namespace) -> int:
    if args.pmax is not None and args.pmax > PMAX_CAP:
        return _refuse(f"pmax {args.pmax} exceeds the cap {PMAX_CAP}")
    if args.page == "2" and args.d > DMAX_CAP:
        return _refuse(_over_cap(args.d))
    pmax = args.pmax if args.pmax is not None else 2 * args.d + 2
    try:
        if args.page == "2":
            page = e2_page(args.d, pmax)
        else:
            page = fixture_page(args.d, args.page).with_pmax(pmax)
    except ValueError as exc:
        return _refuse(str(exc))
    payload = {
        "d": page.d,
        "page": PAGE_INF if page.page is None else page.page,
        "pmax": page.pmax,
        "provenance": page.provenance,
        "source_figure": page.source_figure,
        "rows": [
            {
                "q": q,
                "dims": list(page.rows[q]),
                "eventually_constant": True,
            }
            for q in range(page.qmax + 1)
        ],
    }
    headers = ["q"] + [f"p={p}" for p in range(page.pmax + 1)]
    rows = [[q, *page.rows[q]] for q in range(page.qmax + 1)]
    parameters = {"d": args.d, "page": args.page, "pmax": pmax}
    return _output(args, parameters, payload, headers, rows)


def cmd_check(args: argparse.Namespace) -> int:
    if args.dmax > DMAX_CAP and not args.force:
        return _refuse(
            f"dmax {args.dmax} exceeds the default cap {DMAX_CAP} "
            "(degree spaces grow like C(2d, d)); pass --force to override"
        )
    if args.dmax > DMAX_CAP:
        print(
            f"warning: dmax {args.dmax} above {DMAX_CAP}; this may take long",
            file=sys.stderr,
        )

    def progress(entry, seconds: float) -> None:
        status = "ok" if entry.passed else "FAIL"
        print(f"[{seconds:8.2f}s] {entry.name}: {status}", file=sys.stderr)

    def on_sweep(d: int, seconds: float, growth_kb: int) -> None:
        print(
            f"[{seconds:8.2f}s] sweep d={d}: {2 * d + 2} degrees, "
            f"ambient max {binom(2 * d, d):,}, +{growth_kb / 1024:.0f} MB",
            file=sys.stderr,
        )

    suite = run_checks(args.dmax, progress=progress, on_sweep=on_sweep)
    payload = {
        "dmax": suite.dmax,
        "passed": suite.passed,
        "checks": [
            {"name": e.name, "passed": e.passed, "detail": e.detail}
            for e in suite.entries
        ],
        "notes": list(suite.notes),
    }
    headers = ["check", "status", "detail"]
    rows = [
        [e.name, "pass" if e.passed else "fail", e.detail] for e in suite.entries
    ]
    return _output(
        args, {"dmax": args.dmax}, payload, headers, rows,
        status=0 if suite.passed else 1,
    )


def cmd_poincare(args: argparse.Namespace) -> int:
    if args.d > DMAX_CAP:
        return _refuse(_over_cap(args.d))
    coefficients = [dec.dim for dec in conf_table(args.d)]
    product = list(poincare_product(args.d))
    payload = {
        "d": args.d,
        "coefficients": coefficients,
        "product_form": f"(1+t)^{args.d} * ((1+t)^{args.d} - t^{args.d})",
        "product_coefficients": product,
        "agreement": coefficients == product,
    }
    headers = ["i", "dim", "product coefficient"]
    rows = [[i, coefficients[i], product[i]] for i in range(2 * args.d + 1)]
    return _output(
        args, {"d": args.d}, payload, headers, rows,
        status=0 if payload["agreement"] else 1,
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call (not at import) and shared by
    every later call in the process, so callers must not modify it.

    Sharing is safe because argparse keeps no state between ``parse_args``
    calls; in-process callers that render many documents pay for argparse
    construction once.
    """
    parser = argparse.ArgumentParser(
        prog="torusconf",
        description=(
            "Exact mod-2 cohomology of two-point configuration spaces of "
            "d-tori: swap-action decompositions, closed-form cross-checks "
            "and Borel spectral sequence tables."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("compute", help="decompose one (d, i) cohomology module")
    p.add_argument("--d", type=_nonneg, required=True)
    p.add_argument("--i", type=_nonneg, required=True)
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="full degree sweep for one d")
    p.add_argument("--d", type=_nonneg, required=True)
    p.add_argument("--reduced", action="store_true",
                   help="drop one trivial summand in degree 0")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("ss", help="emit a spectral-sequence page")
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--page", choices=("2", "3", "4", "inf"), required=True)
    p.add_argument("--pmax", type=_nonneg, default=None,
                   help="last column to print (default 2d+2)")
    common(p)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("check", help="run the full verification sweep")
    p.add_argument("--dmax", type=_positive, required=True)
    p.add_argument("--force", action="store_true",
                   help=f"allow dmax beyond the cap of {DMAX_CAP}")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "poincare",
        help="graded dimensions and their closed product form",
    )
    p.add_argument("--d", type=_nonneg, required=True)
    common(p)
    p.set_defaults(func=cmd_poincare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # refused before any work: at --dmax 14 the work takes minutes
    reason = None if args.out is None else _probe_out(args.out)
    if reason is not None:
        return _refuse(f"cannot write {args.out}: {reason}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
