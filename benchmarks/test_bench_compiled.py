"""Compiled-engine benchmark — the table-lookup hot path of the batch engine.

Checks on an E6-style Circles workload (planted majority, uniform random
scheduler) at ``n = 10^5``:

* the compiled batch engine (integer count vectors + flat transition tables,
  vectorized kernel rounds) simulates a fixed interaction budget at least
  **2× faster** than the uncompiled batch engine (the path past the compile
  cap, forced here by the ``force_uncompiled`` fixture: a pool of lazily
  interned codes + a per-pair δ memo).  The engines sample the
  *same* Markov chain, so equal budgets are equal work;
* compilation itself is cheap and cached per ``(protocol, colors)`` pair.

Wall-clock assertions carry the ``perf`` marker (opt-in via
``pytest --perf benchmarks/``); marker-free smoke tests keep the compiled
paths exercised — importable and correct — in the default suite and in the
CI bench-smoke job.
"""

import time

import pytest

from repro.compile import compile_protocol
from repro.core.circles import CirclesProtocol
from repro.simulation import (
    BatchConfigurationSimulation,
    OutputConsensus,
)
from repro.utils.multiset import Multiset
from repro.workloads.distributions import planted_majority

N = 100_000
K = 4


def _elapsed(engine, budget: int) -> float:
    start = time.perf_counter()
    engine.run(budget)
    return time.perf_counter() - start


def test_compiled_batch_engine_smoke():
    """Smoke (default suite): the compiled path runs exactly and conserves n."""
    colors = planted_majority(N, K, seed=5)
    simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(K), colors, seed=6)
    assert simulation.compiled_protocol is not None
    simulation.run(100_000)
    assert simulation.steps_taken == 100_000
    assert simulation.num_agents == N
    assert len(simulation.configuration()) == N
    assert sum(simulation.output_counts().values()) == N


def test_compiled_and_uncompiled_run_the_same_chain(request):
    """Smoke (default suite): both paths expose identical engine semantics."""
    colors = planted_majority(2_000, K, seed=7)
    protocol = CirclesProtocol(K)
    compiled = BatchConfigurationSimulation.from_colors(protocol, colors, seed=8)
    request.getfixturevalue("force_uncompiled")
    uncompiled = BatchConfigurationSimulation.from_colors(protocol, colors, seed=8)
    assert compiled.compiled_protocol is not None
    assert uncompiled.compiled_protocol is None
    for simulation in (compiled, uncompiled):
        simulation.run(20_000)
        assert simulation.steps_taken == 20_000
        assert len(simulation.configuration()) == 2_000
        assert Multiset(simulation.states()) == simulation.configuration()


def test_compilation_is_cached_per_protocol_and_colors():
    protocol = CirclesProtocol(K)
    colors = planted_majority(64, K, seed=9)
    start = time.perf_counter()
    first = compile_protocol(protocol, colors)
    compile_time = time.perf_counter() - start
    assert compile_protocol(protocol, colors) is first
    assert compile_time < 5.0  # d² transition evaluations, once


@pytest.mark.perf
def test_compiled_batch_is_2x_faster_than_uncompiled_batch(record_perf, request):
    """The acceptance bar: ≥2× over the uncompiled batch engine at n=10^5."""
    protocol = CirclesProtocol(K)
    colors = planted_majority(N, K, seed=5)
    budget = 200_000

    compiled = BatchConfigurationSimulation.from_colors(protocol, colors, seed=6)
    request.getfixturevalue("force_uncompiled")
    uncompiled = BatchConfigurationSimulation.from_colors(protocol, colors, seed=6)
    assert compiled.compiled_protocol is not None
    assert uncompiled.compiled_protocol is None
    # Warm both engines (the first window fills the transition caches) so the
    # timed region is steady-state.
    compiled.run(5_000)
    uncompiled.run(5_000)

    compiled_time = _elapsed(compiled, budget)
    uncompiled_time = _elapsed(uncompiled, budget)
    rate_compiled = budget / compiled_time
    rate_uncompiled = budget / uncompiled_time
    print(
        f"\ncompiled batch: {rate_compiled:,.0f} interactions/s, "
        f"uncompiled batch: {rate_uncompiled:,.0f} interactions/s, "
        f"speedup {rate_compiled / rate_uncompiled:.1f}x"
    )
    record_perf(
        "compiled-vs-uncompiled-batch",
        n=N,
        engine="batch",
        seconds=compiled_time,
        speedup=uncompiled_time / compiled_time,
        baseline_seconds=uncompiled_time,
    )
    assert compiled_time * 2 <= uncompiled_time, (
        f"compiled batch engine only {rate_compiled / rate_uncompiled:.1f}x faster "
        f"({compiled_time:.2f}s vs {uncompiled_time:.2f}s for {budget} interactions)"
    )


@pytest.mark.perf
def test_compiled_batch_reaches_stable_output_at_1e5():
    # A skewed E6-style input: the majority color dominates, so the output
    # consensus is reachable within a small multiple of n·log n interactions —
    # a regime the compiled batch engine clears in a second at n = 10^5.
    colors = [0] * (N - 60) + [1] * 40 + [2] * 20
    simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=9)
    converged = simulation.run(40 * N, criterion=OutputConsensus(target=0))
    assert converged, "compiled batch engine did not reach output consensus at n=10^5"
    assert simulation.output_counts() == {0: N}
