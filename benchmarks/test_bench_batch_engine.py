"""Batched-engine benchmark — the fast path behind the E6 convergence sweeps.

On an E6-style Circles workload at ``n = 10^5``, the batched engine reaches
a stable output consensus within a few seconds.

That test carries the ``perf`` marker: wall-clock assertions only mean
something on an otherwise idle machine, so it is opt-in via
``pytest --perf benchmarks/``.  A marker-free smoke test keeps the large-``n``
path exercised in the default suite.
"""

import pytest

from repro.core.circles import CirclesProtocol
from repro.simulation import BatchConfigurationSimulation, OutputConsensus
from repro.workloads.distributions import planted_majority

N = 100_000
K = 4


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
def test_batch_engine_reaches_stable_output_at_1e5():
    # A skewed E6-style input: the majority color dominates, so the output
    # consensus is reachable within a small multiple of n·log n interactions —
    # a regime the batched engine clears in seconds at n = 10^5.
    colors = [0] * (N - 60) + [1] * 40 + [2] * 20
    simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=9)
    converged = simulation.run(40 * N, criterion=OutputConsensus(target=0))
    assert converged, "batched engine did not reach output consensus at n=10^5"
    assert simulation.output_counts() == {0: N}
