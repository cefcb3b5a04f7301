"""Sparse-regime benchmark — skipping null interactions on the pool path.

Near the minimum-energy configuration almost every Circles interaction is
null, so the batch engine's compiled pool path switches to its sparse regime:
it draws the number of null interactions geometrically and applies only the
active ones (:mod:`repro.simulation.batch_engine`).  The perf test pins the
claim on a convergence workload: circles k=3 at ``n = 256``, run to
``StableCircles`` over 8 seeds, must finish at least **5× faster** on the
batch engine than on :class:`ConfigurationSimulation`, which pays for every
interaction.  The smoke test keeps the replicate-group record identity
exercised across a regime switch in the default suite.

Wall-clock assertions are opt-in via ``pytest --perf benchmarks/``; timings
land in ``BENCH_results.json`` through the atomic ``record_perf`` fixture.
"""

import time

import pytest

from repro.api.executor import execute_replicate_group, execute_run
from repro.api.spec import SweepSpec
from repro.core.circles import CirclesProtocol
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.config_engine import ConfigurationSimulation
from repro.simulation.convergence import StableCircles

N = 256
SEEDS = range(8)
COLORS = [0] * 90 + [1] * 84 + [2] * 82


def test_replicate_group_matches_serial_across_a_regime_switch(monkeypatch):
    """Smoke (default suite): n=256 vector rows equal serial runs, sparse included."""
    sparse_calls = 0
    run_sparse = BatchConfigurationSimulation._run_sparse

    def counting(self, max_interactions):
        nonlocal sparse_calls
        sparse_calls += 1
        return run_sparse(self, max_interactions)

    monkeypatch.setattr(BatchConfigurationSimulation, "_run_sparse", counting)
    specs = SweepSpec(
        protocols=("circles",),
        populations=(N,),
        ks=(3,),
        engines=("vector",),
        trials=3,
        seed=23,
    ).expand()
    grouped = execute_replicate_group(specs)
    assert sparse_calls > 0
    assert grouped == [execute_run(spec) for spec in specs]
    assert all(record.converged and record.correct for record in grouped)


def _time_to_convergence(engine_cls) -> tuple[float, int]:
    protocol = CirclesProtocol(3)
    steps = 0
    start = time.perf_counter()
    for seed in SEEDS:
        simulation = engine_cls.from_colors(protocol, COLORS, seed=seed)
        assert simulation.run(10**9, criterion=StableCircles())
        steps += simulation.steps_taken
    return time.perf_counter() - start, steps


@pytest.mark.perf
def test_batch_is_5x_faster_than_configuration_to_convergence(record_perf):
    _time_to_convergence(BatchConfigurationSimulation)  # compile outside the timing
    batch_seconds, batch_steps = _time_to_convergence(BatchConfigurationSimulation)
    baseline_seconds, baseline_steps = _time_to_convergence(ConfigurationSimulation)
    speedup = baseline_seconds / batch_seconds
    print(
        f"\nsparse regime: batch {batch_seconds:.2f}s for {batch_steps:,} interactions "
        f"({batch_steps / batch_seconds:,.0f}/s), configuration {baseline_seconds:.2f}s "
        f"for {baseline_steps:,} ({baseline_steps / baseline_seconds:,.0f}/s), "
        f"speedup {speedup:.1f}x"
    )
    record_perf(
        "sparse-regime-vs-configuration",
        n=N,
        engine="batch",
        seconds=batch_seconds,
        speedup=speedup,
        baseline_seconds=baseline_seconds,
    )
    assert batch_seconds * 5 <= baseline_seconds, (
        f"batch only {speedup:.1f}x faster than the configuration engine "
        f"({batch_seconds:.2f}s vs {baseline_seconds:.2f}s over {len(SEEDS)} runs to convergence)"
    )
