"""Smoke-size tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/smoke.py -q``
(the file name keeps them out of the default test collection).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.compare import verdict
from perfbench.workloads import WORKLOADS, PassResult, ServiceCache

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    return run.run_benchmark(workload, seed=3, seconds=0, trace=trace, size="smoke", setup_runs=1)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = smoke(workload, 0)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in BENCH["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics(workload):
    result = smoke(workload, 1)["result"]
    assert result["correct"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in BENCH["per_layer"]}
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert value["trace.coverage"] >= 0.9
    if workload != "exact-analysis":
        assert value["exact.configurations"] == value["exact.orbits"] == 0
        assert value["exact.chain_s"] == value["exact.solve_s"] == 0
    if workload == "grid-small-n":
        assert value["simulation.kernel_calls"] == 0
        assert value["simulation.burst_calls"] > 0 and value["simulation.check_calls"] > 0
    if workload == "replicates-large-n":
        assert value["simulation.burst_calls"] == 0
        assert value["simulation.kernel_interactions"] > 0
    if workload == "service-cache":
        assert value["service.store.put_calls"] > 0 and value["service.store.get_calls"] > 0
        assert value["service.queue.retries"] == value["service.queue.failed"] == 0
    if workload == "exact-analysis":
        assert value["exact.solve_s"] > 0 and value["exact.transient_states"] > 0


def test_reference_units_cancel_a_uniformly_slower_host():
    def metrics(slowdown):
        passes = [
            PassResult(2.0 * slowdown, 10, 1000, 10, 0, [0.5 * slowdown], 2.0 * slowdown)
            for _ in range(3)
        ]
        return run.end_to_end(passes, [0.4], [0.05 * slowdown] * 4)

    slow, fast = metrics(1.7), metrics(1.0)
    for name in ("wall_ref", "runs_per_ref", "interactions_per_ref", "latency_p50_ref"):
        assert math.isclose(slow[name], fast[name])
    assert math.isclose(slow["wall_s"], 1.7 * fast["wall_s"])


def test_altered_warm_record_trips_error_rate(monkeypatch):
    original = ServiceCache.post
    posts = []

    def tampered(self, body):
        data = original(self, body)
        posts.append(body)
        if len(posts) == 2:  # the first warm POST
            data = data.replace(b'"steps": ', b'"steps": 1', 1)
        return data

    monkeypatch.setattr(ServiceCache, "post", tampered)
    result = smoke("service-cache", 0)["result"]
    assert result["failed"] == 1 and not result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-small-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.5, 99.5, 100.0]

    def judge(change, better="higher", bound=0.1, base=parent):
        return verdict(base, change, list(zip(base, change)), better, bound)[0]

    assert judge([v * 1.5 for v in parent]) == "improved"
    assert judge([v * 0.7 for v in parent]) == "worse"
    assert judge([v * 0.7 for v in parent], better="lower") == "improved"
    assert judge([v * 0.98 for v in parent]) == "no worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert judge([v * 0.95 for v in noisy], base=noisy) == "unresolved"
