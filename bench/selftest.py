"""Tests of the benchmark itself, at tiny sizes (d <= 3).

    python3 -m pytest bench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they pin call counts of the current code, which a later change
to the package may legitimately alter without touching the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SECONDS = 0.3


@pytest.fixture(scope="module")
def traced():
    """One traced run of every workload at a tiny size."""
    sizes = {"table-d9": 3, "check-d8": 3, "regen-tables": 2}
    return {
        name: run.run_workload(name, seed=7, seconds=SECONDS, trace=True, size=size)
        for name, size in sizes.items()
    }


def calls(result: run.Run, span: str) -> float:
    return sum(snap["calls"].get(span, 0) for snap, _ in result.snapshots) / result.units


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    per_layer = {
        name: spec[0] if isinstance(spec, tuple) else spec
        for name, spec in run.PER_LAYER.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer


def test_traced_runs_are_correct(traced):
    for name, result in traced.items():
        assert result.attempted > 0, name
        assert result.failed == 0, name
        assert result.traced_walls and result.walls, name


def test_table_call_counts(traced):
    result, d = traced["table-d9"], 3
    assert calls(result, "decomp.decompose") == 2 * d + 1
    assert calls(result, "quotient.conf_module") == 2 * d + 1
    # only degrees d <= i < 2d are quotients by kernel generators
    assert calls(result, "quotient.kernel_generators") == d
    assert calls(result, "gf2.induced_map_on_quotient") == d
    assert calls(result, "cli.main") == 1
    assert calls(result, "cli.build_parser") == 1
    assert calls(result, "verify.run_checks") == 0
    assert len(result.latencies) == len(result.walls) == 1  # the untraced process


def test_check_call_counts(traced):
    result, dmax = traced["check-d8"], 3
    per_d = sum(2 * d + 1 for d in range(1, dmax + 1))
    e2 = 2 * 2 + 2 * 3  # e2_page for the fixture-consistency checks of d = 2, 3
    notes = 2  # reduced_table(1) in the suite's notes
    torus_oracle = sum(2 * d + 2 for d in range(1, dmax + 1))
    assert calls(result, "quotient.conf_module") == per_d + e2 + notes
    assert calls(result, "decomp.decompose") == torus_oracle + per_d + e2 + notes
    assert calls(result, "quotient.phi_star_build") == dmax
    assert calls(result, "borel.consistency_check") == 2
    assert calls(result, "borel.attribute_rank_drops") == 4
    assert calls(result, "verify.run_checks") == 1
    # 5 checks per d, phi-star laws for d <= 5, two fixtures and sw-height
    assert len(result.checks) == 6 * dmax + 3


def test_regen_call_counts(traced):
    result = traced["regen-tables"]
    docs = run.regen_documents(2)
    assert calls(result, "cli.main") == len(docs)
    assert calls(result, "cli.build_parser") == len(docs)
    assert calls(result, "decomp.closed_form_report") == 4 * (1 + 3 + 5)
    # compute 9 + table 3+5 + poincare 3+5 + page 2 of d = 2: 4, per format
    assert calls(result, "quotient.conf_module") == 4 * 29
    metrics = run.per_layer_metrics(result)
    assert metrics["quotient.conf_module.unique_ratio"]["value"] == pytest.approx(9 / 116)


def test_self_time_excludes_child_spans(traced):
    for name, result in traced.items():
        for snap, _ in result.snapshots:
            for span, total in snap["total_s"].items():
                assert 0 <= snap["self_s"][span] <= total + 1e-9, (name, span)
            # every span nests under cli.main, so the self times add up to it
            assert sum(snap["self_s"].values()) == pytest.approx(
                snap["total_s"]["cli.main"], rel=1e-6), name
    edges = traced["table-d9"].snapshots[0][0]["edges"]
    assert edges["quotient.conf_module>quotient.kernel_generators"] == 3
    assert edges["quotient.kernel_generators>gf2.quotient_structure"] == 3
    assert edges["None>cli.main"] == 1


def test_every_metric_is_reported(traced):
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    for name, result in traced.items():
        assert set(run.end_to_end_metrics(result)) == e2e
        metrics = run.per_layer_metrics(result)
        assert set(metrics) == layer
        assert all(m["value"] is not None for m in metrics.values()), name
        assert metrics["cli.out_bytes"]["value"] > 0
    e2e_values = run.end_to_end_metrics(traced["regen-tables"])
    assert all(m["value"] > 0 for m in e2e_values.values())


def test_wrong_digest_counts_as_failure():
    wrong = {key: "0" * 64 for key in json.loads(run.DIGESTS.read_text())}
    result = run.run_workload("table-d9", seed=1, seconds=SECONDS, trace=False,
                              size=2, digests=wrong)
    assert result.attempted > 0 and result.attempted % 5 == 0  # 2d + 1 cells a process
    assert result.failed == result.attempted
    result = run.run_workload("regen-tables", seed=1, seconds=SECONDS, trace=False,
                              size=1, digests=wrong)
    assert result.attempted > 0 and result.failed == result.attempted


def test_wrappers_patch_copied_bindings_and_skip_absent():
    import torusconf.cli
    import torusconf.decomp

    original = torusconf.decomp.decompose
    tracer = layers.Tracer()
    spans = dict(layers.SPANS, **{"decomp.gone": ("torusconf.decomp", "no_such_function")})
    undo = layers.install(tracer, spans)
    try:
        assert torusconf.cli.decompose is torusconf.decomp.decompose
        assert torusconf.cli.decompose is not original
        torusconf.cli.decompose(torusconf.cli.conf_module(2, 2))
    finally:
        undo()
    assert torusconf.cli.decompose is original
    assert tracer.absent == ["decomp.gone"]
    assert tracer.calls["decomp.decompose"] == 1
    assert tracer.edges[None, "quotient.conf_module"] == 1


def test_absent_span_is_reported_as_absent(traced):
    result = traced["table-d9"]
    snap, units = result.snapshots[0]
    result.snapshots[0] = (dict(snap, absent=["decomp.reduced_table"]), units)
    try:
        metrics = run.per_layer_metrics(result)
    finally:
        result.snapshots[0] = (snap, units)
    assert metrics["decomp.reduced_table.self_s"]["value"] is None
    assert metrics["decomp.decompose.self_s"]["value"] is not None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table-d9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
