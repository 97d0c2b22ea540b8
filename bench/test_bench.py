"""The benchmark's own tests: run with ``python3 -m pytest bench -q`` from
the checkout root (about a minute; the tier-1 suite does not collect them).

The traced tests shrink each workload's inputs so they stay quick; the
spans and counts they check do not depend on input size.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "train": {"epochs": 1},
    # one match on each side of tracing.LONG_MATCH_ACTIONS
    "season-graphs": {"match_lengths": [200, 1200]},
    "wide-attribute": {"window_k": 12, "split_frac": 0.05},
}

COUNT_UNITS = {"count", "bytes", "nodes"}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_layers_fire_and_counts_repeat(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, workload, SMALL[workload])
    runner = run.Runner(ROOT, tmp_path, time.monotonic() + 300)
    runner.child("setup", workload, tmp_path / "a", 3)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    metrics = []
    for name in ("a", "b"):
        result = runner.child("stages", workload, tmp_path / name, 3, trace=True)
        assert all(s["rc"] == 0 and s["ran"] for s in result["steps"]), result["steps"]
        trace = json.loads((tmp_path / name / "trace.json").read_text())
        fired = {span[0] for span in trace["spans"]}
        missing = set(tracing.EXPECTED_SPANS[workload]) - fired
        assert not missing, f"{workload}: spans never fired: {sorted(missing)}"
        metrics.append(tracing.layer_metrics(trace))

    counts = [name for name, unit, *_ in tracing.PER_LAYER if unit in COUNT_UNITS and name in metrics[0]]
    assert counts
    for name in counts:
        assert metrics[0][name] == metrics[1][name], name
    if workload == "season-graphs":
        assert metrics[0]["graphs.infer_recipients_calls"] == sum(SMALL[workload]["match_lengths"])
        assert metrics[0]["graphs.ms_per_graph.m800"] > 0 and metrics[0]["graphs.ms_per_graph.m1600"] > 0
    else:
        assert all(metrics[0][f"diffcore.tensors_per_graph.{v}"] > 0 for v in tracing.VARIANTS)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _w, _m in tracing.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    empty = {"spans": [], "tensors": {}}
    assert set(tracing.layer_metrics(empty)) | {"trace_overhead_s"} == {m["name"] for m in spec["per_layer"]}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.run_stage", 0.0, 10.0, -1, "-/x", None],
        ["models.train", 1.0, 8.0, 0, "-/x", None],
        ["models.forward", 2.0, 5.0, 1, "-/x", None],
    ]
    assert tracing.self_times(spans) == [3.0, 4.0, 3.0]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "train", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i % 7
    return total


def test_reference_clock_scales_with_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    clock = refclock.RefClock().start()
    readings = []
    for n in (400_000, 800_000):
        start = clock.now()
        _spin(n)
        readings.append(clock.now() - start)
    clock.stop()
    assert clock.samples > 0
    assert 1.5 < readings[1] / readings[0] < 2.5, readings
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
