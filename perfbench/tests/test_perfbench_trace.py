"""Span wrappers fire, restore the program, and feed every listed metric."""
import importlib
import json
import shutil
import subprocess
import sys

import pytest

from admixscan import cli

from conftest import BENCH, tiny
import spans as tracing
from spans import Span, Tracer, self_seconds, span_metrics


def _traced_main(workload, tmp_path, seed=1):
    data = workload.generate(tmp_path, seed)
    with Tracer() as tracer:
        assert cli.main(workload.argv(data, tmp_path / "out", seed)) == 0
    return tracer


@pytest.mark.parametrize("name", ["impute_cohort", "map_correlated"])
def test_expected_spans_fire_and_originals_return(name, tmp_path):
    before = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracing.TARGETS
    }
    workload = tiny(name)
    tracer = _traced_main(workload, tmp_path)
    recorded = {s.name for s in tracer.spans}
    assert set(workload.spans) <= recorded
    for (mod, attr), original in before.items():
        assert getattr(importlib.import_module(mod), attr) is original
    _, missing, _ = span_metrics(tracer.spans, workload.spans)
    assert missing == []


def test_kernel_spans_nest_inside_sampler_steps(tmp_path):
    tracer = _traced_main(tiny("impute_cohort"), tmp_path)
    for s in tracer.spans:
        if s.name.startswith("kernels."):
            assert tracer.spans[s.parent].name.startswith("sampler.")


def test_missing_expected_span_is_named_not_zeroed(tmp_path):
    workload = tiny("impute_cohort")
    tracer = _traced_main(workload, tmp_path)
    expected = workload.spans + ("glm.fit_glm",)
    metrics, missing, _ = span_metrics(tracer.spans, expected)
    assert missing == ["glm.fit_glm"]
    assert "glm.fit_glm_ms" not in metrics
    # a layer the workload does not use reads zero
    assert metrics["mapping.stage1_scan_s"]["value"] == 0
    assert metrics["sampler.sweeps"]["value"] == workload.sweeps


def test_self_time_subtracts_direct_children():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("child", 1.0, 4.0, 0),
        Span("grandchild", 2.0, 3.0, 1),
        Span("child", 5.0, 6.0, 0),
    ]
    assert self_seconds(spans) == [6.0, 2.0, 1.0, 1.0]


def test_every_listed_metric_is_reported(tmp_path):
    import run

    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = tiny("map_correlated")
    _, e2e = run.measure(run.Run(workload, 2, tmp_path / "e2e"), 0, 0)
    detail, layers = run.measure(run.Run(workload, 2, tmp_path / "layers"), 0, 1)
    assert e2e["correct"] and layers["correct"]
    assert set(e2e["metrics"]) == {m["name"] for m in listed["end_to_end"]}
    assert set(layers["metrics"]) == {m["name"] for m in listed["per_layer"]}
    assert detail["missing_spans"] == []
    units = {m["name"]: m["unit"] for m in listed["end_to_end"] + listed["per_layer"]}
    for record in (e2e, layers):
        for name, metric in record["metrics"].items():
            assert metric["unit"] == units[name]


def test_compare_prints_ratio_against_base(tmp_path, capsys):
    import run

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(
        {"scan_binary": {"metrics": {"wall_ref": {"value": 8.0, "unit": "ref"}}}}))
    new.write_text(json.dumps(
        {"scan_binary": {"metrics": {"wall_ref": {"value": 2.0, "unit": "ref"}}}}))
    run.compare(base, new)
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["scan_binary", "wall_ref", "8", "2", "0.250", "ref"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_binary",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
