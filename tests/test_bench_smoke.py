import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_smoke.py"
spec = importlib.util.spec_from_file_location("bench_smoke", SCRIPT)
bench_smoke = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_smoke)

def line(correct=True, **values):
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics})


def problems(text):
    return bench_smoke.result_line_problems(text)


def test_a_well_formed_result_line_passes():
    assert problems(line(wall_s=0.2, peak_rss_mb=21)) == []


def test_non_finite_values_fail():
    # json.dumps writes these as bare NaN / Infinity, which strict JSON lacks
    assert problems(line(wall_s=float("nan"), peak_rss_mb=21))
    assert problems(line(wall_s=0.2, peak_rss_mb=float("inf")))
    assert problems(line(wall_s=0.2, peak_rss_mb=21).replace("21", "1e999"))


def test_a_wrong_run_or_a_non_result_line_fails():
    assert problems(line(correct=False, wall_s=0.2, peak_rss_mb=21))
    assert problems(line(wall_s=0.2, peak_rss_mb="21"))
    assert problems('{"correct": true, "metrics": {"wall_s": 0.2, "peak_rss_mb": 21}}')
    assert problems("wrote tables/d3.json")
    assert problems("[1, 2]")


def test_null_fails_traced_or_not():
    # null marks a span the package no longer defines: a metric that reads
    # nothing, in a traced run as much as in an untraced one
    assert problems(line(wall_s=None, peak_rss_mb=21)) == ["wall_s = None is not a finite number"]
