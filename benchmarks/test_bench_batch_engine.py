"""Batched-engine benchmark — the fast path behind the E6 convergence sweeps.

Two checks on an E6-style Circles workload (planted majority, uniform random
scheduler) at ``n = 10^5``:

* the batched engine simulates a fixed interaction budget at least 5× faster
  (wall-clock) than the exact sequential :class:`ConfigurationSimulation`
  (the engines sample the *same* Markov chain, so equal budgets are equal
  work);
* the batched engine actually reaches a stable output consensus at that scale
  within a few seconds — a regime where the sequential engines need minutes.

Both tests carry the ``perf`` marker: wall-clock assertions only mean
something on an otherwise idle machine, so they are opt-in via
``pytest --perf benchmarks/``.  A marker-free smoke test keeps the large-``n``
path exercised in the default suite.
"""

import time

import pytest

from repro.core.circles import CirclesProtocol
from repro.simulation import (
    BatchConfigurationSimulation,
    ConfigurationSimulation,
    OutputConsensus,
)
from repro.workloads.distributions import planted_majority

N = 100_000
K = 4


def _elapsed(engine, budget: int) -> float:
    start = time.perf_counter()
    engine.run(budget)
    return time.perf_counter() - start


def test_batch_engine_simulates_large_populations():
    """Smoke (default suite): 100k interactions at n = 10^5 stay exact and fast."""
    colors = planted_majority(N, K, seed=5)
    simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(K), colors, seed=6)
    simulation.run(100_000)
    assert simulation.steps_taken == 100_000
    assert simulation.num_agents == N
    assert len(simulation.configuration()) == N
    assert sum(simulation.output_counts().values()) == N


@pytest.mark.perf
def test_batch_engine_is_5x_faster_than_configuration_engine(record_perf):
    protocol = CirclesProtocol(K)
    colors = planted_majority(N, K, seed=5)
    budget = 200_000

    batch = BatchConfigurationSimulation.from_colors(protocol, colors, seed=6)
    sequential = ConfigurationSimulation.from_colors(protocol, colors, seed=6)
    # Warm both engines (the first round allocates the kernel's buffers) so
    # the timed region is steady-state.
    batch.run(5_000)
    sequential.run(5_000)

    batch_time = _elapsed(batch, budget)
    sequential_time = _elapsed(sequential, budget)
    rate_batch = budget / batch_time
    rate_sequential = budget / sequential_time
    print(
        f"\nbatch: {rate_batch:,.0f} interactions/s, "
        f"sequential: {rate_sequential:,.0f} interactions/s, "
        f"speedup {rate_batch / rate_sequential:.1f}x"
    )
    record_perf(
        "batch-vs-configuration",
        n=N,
        engine="batch",
        seconds=batch_time,
        speedup=sequential_time / batch_time,
        baseline_seconds=sequential_time,
    )
    assert batch_time * 5 <= sequential_time, (
        f"batched engine only {rate_batch / rate_sequential:.1f}x faster "
        f"({batch_time:.2f}s vs {sequential_time:.2f}s for {budget} interactions)"
    )


@pytest.mark.perf
def test_batch_engine_reaches_stable_output_at_1e5():
    # A skewed E6-style input: the majority color dominates, so the output
    # consensus is reachable within a small multiple of n·log n interactions —
    # a regime the batched engine clears in seconds at n = 10^5.
    colors = [0] * (N - 60) + [1] * 40 + [2] * 20
    simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=9)
    converged = simulation.run(40 * N, criterion=OutputConsensus(target=0))
    assert converged, "batched engine did not reach output consensus at n=10^5"
    assert simulation.output_counts() == {0: N}
