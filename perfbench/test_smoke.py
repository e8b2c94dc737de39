"""Smoke test of the benchmark harness at tiny input sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from catalog import END_TO_END, LAYER_METRICS, WORKLOADS  # noqa: E402
from tracing import span_times  # noqa: E402


def _run(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny",
                           "--seconds", "1", *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_printed_with_unit(workload):
    lines = _run("--workload", workload, "--trace", "0")
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["fail_ratio"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    printed = {line.split()[0]: line.split()[2] for line in lines
               if line.startswith("  ")}
    for name, (unit, _) in END_TO_END.items():
        assert result["metrics"][name] == {"value": result["metrics"][name]["value"],
                                           "unit": unit}
        assert result["metrics"][name]["value"] > 0
        assert printed[name] == unit
    assert printed["fail_ratio"] == "ratio"


def test_traced_run_calls_every_wrapped_name():
    # run.py exits non-zero when a wrapped name is called on no workload
    result = json.loads(_run("--workload", "all", "--trace", "1")[-1])
    assert result["correct"]
    for workload in WORKLOADS:
        for name, (unit, _) in LAYER_METRICS.items():
            assert result["metrics"]["%s.%s" % (workload, name)]["unit"] == unit


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
             ["b", 2.0, 3.0, 1]]
    self_s, incl_s = span_times(spans)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert incl_s["a"] == 10.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == LAYER_METRICS
