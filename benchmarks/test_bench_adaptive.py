"""Adaptive-sampling benchmark — ``trials="auto"`` versus a fixed budget.

The sequential-sampling layer exists for exactly one reason: on an easy grid
cell the statistic settles long before a worst-case fixed budget is spent.
The perf test pins that claim at matched precision: an all-correct Circles
cell (batch engine, planted majority — the easy-cell regime of the E3/E6
grids) tracked to a Wilson half-width of 0.15 stops after 12 trials, while a
fixed sweep sized for the same half-width *without* knowing p̂ in advance
must budget for the worst case (p̂ = ½), i.e. ``⌈(z / 2·0.15)²⌉ = 43``
trials.  The adaptive sweep must finish at least **2× faster** in wall
clock — the trial-count ratio is ≈3.6×, so the bound has slack — while its
records stay a bit-identical prefix of the fixed sweep's.

The cell sits at n=256, below the vector kernel's population gate, so a
replicate group steps one batch engine per row and does the same work as
running the trials one at a time: the measurement isolates the sampling
policy from replicate-group amortization.

Wall-clock assertions are opt-in via ``pytest --perf benchmarks/``; timings
land in ``BENCH_results.json`` through the atomic ``record_perf`` fixture.
The smoke test keeps the early-stop + prefix-identity contract exercised in
the default suite.
"""

import dataclasses
import math
import time

import pytest

from repro.api.executor import run_sweep
from repro.api.spec import SweepSpec
from repro.api.stopping import StoppingRule

TARGET_HALF_WIDTH = 0.15
Z_95 = 1.959964
#: Fixed trials guaranteeing a normal-approximation half-width of at most
#: ``TARGET_HALF_WIDTH`` at the worst-case proportion p̂ = ½.
MATCHED_FIXED_TRIALS = math.ceil((Z_95 / (2 * TARGET_HALF_WIDTH)) ** 2)


def adaptive_sweep(n: int, max_trials: int = 64) -> SweepSpec:
    return SweepSpec(
        name="bench-adaptive",
        protocols=("circles",),
        populations=(n,),
        ks=(3,),
        workloads=("planted-majority",),
        engines=("batch",),
        trials="auto",
        stopping=StoppingRule(
            metric="correct",
            proportion=True,
            target_half_width=TARGET_HALF_WIDTH,
            min_trials=4,
            batch_size=4,
            max_trials=max_trials,
        ),
        seed=67,
        max_steps_quadratic=200,
    )


def test_adaptive_stops_early_and_prefixes_fixed():
    """Smoke (default suite): the easy cell stops at 12 trials and its
    records are the exact prefix of the matched fixed sweep."""
    sweep = adaptive_sweep(32)
    auto = run_sweep(sweep)
    (entry,) = auto.extras["stopping"]
    assert entry["reason"] == "half-width"
    assert entry["trials"] == 12  # Wilson hw at p̂=1: 0.162 @ 8, 0.121 @ 12
    fixed = run_sweep(dataclasses.replace(sweep, trials=12, stopping=None))
    assert auto.records == fixed.records


@pytest.mark.perf
def test_adaptive_is_2x_faster_than_matched_fixed_budget(record_perf):
    n = 256
    sweep = adaptive_sweep(n)
    fixed = dataclasses.replace(sweep, trials=MATCHED_FIXED_TRIALS, stopping=None)

    start = time.perf_counter()
    fixed_result = run_sweep(fixed)
    fixed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    auto_result = run_sweep(sweep)
    auto_seconds = time.perf_counter() - start

    # Matched precision, identical prefix: the speedup is pure trial savings.
    spent = len(auto_result.records)
    assert auto_result.records == fixed_result.records[:spent]
    assert all(record.correct for record in fixed_result.records)
    (entry,) = auto_result.extras["stopping"]
    assert entry["half_width"] <= TARGET_HALF_WIDTH

    speedup = fixed_seconds / auto_seconds
    print(
        f"\nadaptive: {spent} trials in {auto_seconds:.2f}s vs fixed "
        f"{MATCHED_FIXED_TRIALS} trials in {fixed_seconds:.2f}s at half-width "
        f"<= {TARGET_HALF_WIDTH} (speedup {speedup:.1f}x)"
    )
    record_perf(
        "adaptive-vs-fixed",
        n=n,
        engine="batch",
        seconds=auto_seconds,
        speedup=speedup,
        baseline_seconds=fixed_seconds,
    )
    assert auto_seconds * 2 <= fixed_seconds, (
        f"adaptive sweep only {speedup:.1f}x faster than the matched fixed "
        f"budget ({auto_seconds:.2f}s vs {fixed_seconds:.2f}s for "
        f"{spent} vs {MATCHED_FIXED_TRIALS} trials)"
    )
