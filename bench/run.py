#!/usr/bin/env python3
"""The torusconf benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (closed loop, one client, one
process and one thread at a time, run one after another):

  table-d9      ``torusconf table --d 9`` in a fresh process, repeated.
  check-d8      ``torusconf check --dmax 8`` in a fresh process, repeated.
  regen-tables  the regenerated-table document set in all four formats plus
                ``compute`` for every (d, i) with d <= 4, run in rounds
                through ``cli.main`` in one long-lived process.

Only ``regen-tables`` reads the seed (it sets the document order of each
round); the other two workloads compute the same fixed command every time.

Every document is checked against a sha256 digest captured from a known
good commit (``bench/digests.json``), and every ``table`` row against the
independent closed form ``conf_closed_form``. A wrong output, a non-zero
exit or an exception counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from wrapped package
functions (see ``bench/layers.py``) and the tracing overhead. The lines
before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 100.0
FORMATS = ("json", "csv", "markdown", "latex")

# name -> (kind, size): size is d for table, dmax for check, and the largest
# d of a ``compute`` document for regen.
WORKLOADS = {
    "table-d9": ("table", 9),
    "check-d8": ("check", 8),
    "regen-tables": ("regen", 4),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

CHECK_FAMILIES = (
    "torus-oracle", "conf-oracle", "poincare-identity", "kernel-span",
    "fixed-element", "phi-star-laws", "fixture-consistency", "sw-height",
)

# Per-layer metric -> unit, or -> (unit, span whose absence makes the metric
# absent). A bare unit marks a ``<span>.self_s`` or ``<span>.calls`` metric.
PER_LAYER = {
    "torus.kunneth_basis.self_s": "s",
    "torus.kunneth_index.self_s": "s",
    "torus.sigma_matrix.self_s": "s",
    "torus.torus_module.self_s": "s",
    "torus.basis_elems": ("count", "torus.kunneth_basis"),
    "torus.cup_vector.self_s": "s",
    "torus.cup_vector.calls": "count",
    "quotient.phi_star_build.self_s": "s",
    "gf2.quotient_structure.self_s": "s",
    "gf2.induced_map_on_quotient.self_s": "s",
    "gf2.rank.self_s": "s",
    "gf2.matmul.self_s": "s",
    "gf2.dense_matrix_bits": ("bits", None),
    "quotient.kernel_generators.self_s": "s",
    "quotient.conf_module.self_s": "s",
    "quotient.conf_module.calls": "count",
    "quotient.fixed_element_x.self_s": "s",
    "quotient.ambient_dim_max": ("count", "gf2.quotient_structure"),
    "quotient.kernel_rank_sum": ("count", "quotient.kernel_generators"),
    "quotient.quotient_dim_sum": ("count", "quotient.conf_module"),
    "quotient.conf_module.unique_ratio": ("ratio", "quotient.conf_module"),
    "decomp.decompose.self_s": "s",
    "decomp.decompose.calls": "count",
    "decomp.closed_form_report.self_s": "s",
    "decomp.reduced_table.self_s": "s",
    "borel.e2_page.self_s": "s",
    "borel.fixture_page.self_s": "s",
    "borel.consistency_check.self_s": "s",
    "borel.attribute_rank_drops.self_s": "s",
    "verify.run_checks.self_s": "s",
    **{f"verify.check.{family}_s": ("s", None) for family in CHECK_FAMILIES},
    "verify.unattributed_s": ("s", "verify.run_checks"),
    "verify.checks_failed": ("count", None),
    "cli.build_parser.self_s": "s",
    "cli.main.self_s": "s",
    "cli.out_bytes": ("bytes", None),
    "trace.overhead_s": ("s", None),
}


def regen_documents(dmax: int = 4) -> list[list[str]]:
    """The document set of ``scripts/regenerate_tables.py`` in every format,
    plus ``compute`` for every (d, i) with d <= dmax. Tables and pages whose
    d exceeds dmax are left out, so that tests can run a small set."""
    docs = []
    for fmt in FORMATS:
        for d in range(1, min(3, dmax) + 1):
            docs.append(["table", "--d", str(d), "--reduced", "--format", fmt])
            docs.append(["poincare", "--d", str(d), "--format", fmt])
        for d in range(2, min(3, dmax) + 1):
            for page in ("2", "3", "inf"):
                docs.append(["ss", "--d", str(d), "--page", page,
                             "--pmax", str(2 * d + 1), "--format", fmt])
        for d in range(dmax + 1):
            for i in range(2 * d + 1):
                docs.append(["compute", "--d", str(d), "--i", str(i),
                             "--format", fmt])
    return docs


def command(kind: str, size: int) -> list[str]:
    if kind == "table":
        return ["table", "--d", str(size)]
    return ["check", "--dmax", str(size)]


def spawn(args: list[str], stdin_text: str | None = None) -> dict:
    """Run ``bench/child.py`` to completion and parse its report."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=env, text=True,
        stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        output, _ = proc.communicate(stdin_text, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
    t_exit = time.monotonic()
    lines = output.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or not isinstance(report, dict):
        print(f"child {' '.join(args)} exited {proc.returncode}:\n{output[-2000:]}",
              file=sys.stderr)
        return {"report": None}
    return {
        "report": report,
        "setup": report["t_ready"] - t_spawn,
        "wall": t_exit - report["t_ready"],
    }


class Run:
    """Samples gathered by one benchmark run, and their verdict."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.ops = 0
        self.latencies: list[float] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.snapshots: list[tuple[dict, int]] = []  # (trace snapshot, units)
        self.checks: list[tuple[str, bool, float]] = []
        self.out_bytes = 0
        self.units = 0

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _table_failures(doc: dict, d: int) -> int:
    """Rows that differ from the independent closed form."""
    from torusconf.decomp import conf_closed_form

    rows = doc["payload"]["rows"]
    if [r["i"] for r in rows] != list(range(2 * d + 1)):
        return 2 * d + 1
    bad = 0
    for r in rows:
        ref = conf_closed_form(d, r["i"])
        bad += (r["dim"], r["trivial"], r["regular"]) != (ref.dim, ref.trivial, ref.regular)
    return bad


def judge_once(run: Run, kind: str, size: int, unit: dict, digests: dict) -> None:
    """Count the operations of one fresh-process unit and its failures."""
    report = unit["report"]
    expected = digests.get(" ".join(command(kind, size)))
    ops = 2 * size + 1 if kind == "table" else 1
    if report is None:
        run.count(ops, ops)
        return
    text = report["document"]
    good = report["code"] == 0 and hashlib.sha256(text.encode()).hexdigest() == expected
    try:
        doc = json.loads(text)
    except ValueError:
        doc, good = None, False
    if kind == "check":
        ops = max(len(doc["payload"]["checks"]) if doc else 0, len(report["checks"]), 1)
        failed = ops if not good else sum(not c["passed"] for c in doc["payload"]["checks"])
    else:
        failed = ops if not good else _table_failures(doc, size)
    run.count(ops, failed)


def run_once_workload(kind: str, size: int, seconds: float, trace: bool) -> list[dict]:
    """Fresh processes, one after another, until ``seconds`` are used.

    A new process starts only if a typical one still fits. With tracing the
    first process runs untraced, to measure the tracing overhead."""
    units = []
    start = time.monotonic()
    while True:
        traced = trace and bool(units)
        unit = spawn(["once", "--trace", str(int(traced)), "--", *command(kind, size)])
        unit["traced"] = traced
        units.append(unit)
        spans = sorted(u["wall"] + u["setup"] for u in units if u["report"])
        typical = spans[len(spans) // 2] if spans else 0.0
        enough = not trace or len(units) >= 2
        if enough and time.monotonic() - start + typical > seconds:
            return units


def collect_once(run: Run, kind: str, size: int, units: list[dict], digests: dict) -> None:
    for unit in units:
        judge_once(run, kind, size, unit, digests)
        report = unit["report"]
        if report is None:
            continue
        if unit["traced"]:
            run.traced_walls.append(unit["wall"])
            run.snapshots.append((report["trace"], 1))
            run.checks.extend(report["checks"])
            run.out_bytes += len(report["document"].encode())
            run.units += 1
            continue
        ops = 2 * size + 1 if kind == "table" else max(len(report["checks"]), 1)
        run.walls.append(unit["wall"])
        run.rss.append(report["maxrss_kb"] / 1024)  # KiB on Linux
        # 19 cells or 48 checks a process are too few, and too unlike each
        # other, for steady percentiles: a process gives one sample, its mean
        run.latencies.append(unit["wall"] / ops)
        run.ops += ops


def run_regen(run: Run, size: int, seed: int, seconds: float, trace: bool, digests: dict) -> None:
    docs = regen_documents(size)
    unit = spawn(["rounds", "--seconds", str(seconds), "--seed", str(seed),
                  "--trace", str(int(trace))], stdin_text=json.dumps(docs))
    report = unit["report"]
    if report is None:
        run.count(len(docs), len(docs))
        return
    for k, code, digest, n in report["results"]:
        good = code == 0 and digest == digests.get(" ".join(docs[k]))
        run.count(n, 0 if good else n)
    run.walls.extend(report["rounds"])
    run.traced_walls.extend(report["traced_rounds"])
    run.ops += len(docs) * len(report["rounds"])
    run.latencies.extend(report["latencies"])
    run.rss.append(report["maxrss_kb"] / 1024)
    rounds = len(report["rounds"]) + len(report["traced_rounds"])
    if trace:
        traced = len(report["traced_rounds"])
        run.snapshots.append((report["trace"], traced))
        run.units += traced
        run.out_bytes += report["out_bytes"] * traced / rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: int | None = None, digests: dict | None = None) -> Run:
    """Measure one workload; ``size`` and ``digests`` override the defaults
    (tests use a small size and a deliberately wrong digest)."""
    kind, default_size = WORKLOADS[name]
    size = default_size if size is None else size
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    run = Run()
    for _ in range(SETUP_PROBES):
        probe = spawn(["setup"])
        if probe["report"] is not None:
            run.setups.append(probe["setup"])
    if kind == "regen":
        run_regen(run, size, seed, seconds, trace, digests)
    else:
        units = run_once_workload(kind, size, seconds, trace)
        if str(SRC) not in sys.path:  # for the closed form, once every child is done
            sys.path.insert(0, str(SRC))
        collect_once(run, kind, size, units, digests)
    return run


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(run: Run) -> dict:
    lat = run.latencies
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(run.walls),
        "ops_per_s": run.ops / sum(run.walls),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": statistics.median(run.rss),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(run: Run) -> dict:
    units = max(run.units, 1)
    calls: dict = {}
    self_s: dict = {}
    total_s: dict = {}
    sizes: dict = {}
    absent: set = set()
    distinct = []
    for snap, _ in run.snapshots:
        absent.update(snap["absent"])
        for key, acc in (("calls", calls), ("self_s", self_s), ("total_s", total_s)):
            for span, value in snap[key].items():
                acc[span] = acc.get(span, 0) + value
        for key, value in snap["sizes"].items():
            if key == "quotient.ambient_dim_max":
                sizes[key] = max(sizes.get(key, 0), value)
            else:
                sizes[key] = sizes.get(key, 0) + value
        distinct.append(snap["conf_distinct"])

    family_s = dict.fromkeys(CHECK_FAMILIES, 0.0)
    for name, _, seconds in run.checks:
        family = name.split(" ")[0]
        family_s[family] = family_s.get(family, 0.0) + seconds
    conf_calls = calls.get("quotient.conf_module", 0) / units
    derived = {
        "torus.basis_elems": sizes.get("torus.basis_elems", 0) / units,
        "gf2.dense_matrix_bits": sizes.get("gf2.dense_matrix_bits", 0) / units,
        "quotient.ambient_dim_max": sizes.get("quotient.ambient_dim_max", 0),
        "quotient.kernel_rank_sum": sizes.get("quotient.kernel_rank_sum", 0) / units,
        "quotient.quotient_dim_sum": sizes.get("quotient.quotient_dim_sum", 0) / units,
        "quotient.conf_module.unique_ratio":
            statistics.mean(distinct) / conf_calls if conf_calls else 0.0,
        **{f"verify.check.{f}_s": s / units for f, s in family_s.items()
           if f in CHECK_FAMILIES},
        "verify.unattributed_s":
            (total_s.get("verify.run_checks", 0.0) - sum(family_s.values())) / units,
        "verify.checks_failed": sum(not ok for _, ok, _ in run.checks) / units,
        "cli.out_bytes": run.out_bytes / units,
        "trace.overhead_s":
            statistics.median(run.traced_walls) - statistics.median(run.walls),
    }
    out = {}
    for name, spec in PER_LAYER.items():
        unit, span = spec if isinstance(spec, tuple) else (spec, name.rsplit(".", 1)[0])
        if span in absent:
            out[name] = _metric(None, unit)
        elif name in derived:
            out[name] = _metric(derived[name], unit)
        elif name.endswith(".calls"):
            out[name] = _metric(calls.get(span, 0) / units, unit)
        else:
            out[name] = _metric(self_s.get(span, 0.0) / units, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "torusconf" / "__init__.py", DIGESTS) if not p.is_file()]
    if missing:
        print(f"error: cannot benchmark without {', '.join(map(str, missing))}; "
              "run from the root of a torusconf checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.walls and run.setups and run.latencies and run.rss and (
            run.traced_walls or not args.trace):
        metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    else:
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    seed_note = "orders the documents" if args.workload == "regen-tables" else "unused"
    print(f"workload {args.workload}  seed {args.seed} ({seed_note})  "
          f"setups {len(run.setups)}  units {len(run.walls)} untraced, "
          f"{len(run.traced_walls)} traced  latency samples {len(run.latencies)}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!s:>22} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
