"""Sparse-regime benchmark — skipping null interactions on the pool path.

Near the minimum-energy configuration almost every Circles interaction is
null, so the batch engine's compiled pool path switches to its sparse regime:
it draws the number of null interactions geometrically and applies only the
active ones (:mod:`repro.simulation.batch_engine`).  The perf test pins the
claim on a convergence workload: circles k=3 at ``n = 256``, run to
``StableCircles`` over 8 seeds, must finish at least **2× faster** than the
same engine with the sparse regime held off, which draws every interaction
from the dense pool.  Ten runs on a 2-vCPU Xeon VM measured 3.5–4.9×
(sparse 0.019–0.024 s, dense 0.082–0.096 s) with the geometric skip carried
across windows, so the bound sits well below the slowest of them.  The smoke test keeps the replicate-group record identity
exercised across a regime switch in the default suite.

Wall-clock assertions are opt-in via ``pytest --perf benchmarks/``; timings
land in ``BENCH_results.json`` through the atomic ``record_perf`` fixture.
"""

import time

import pytest

from repro.api.executor import execute_replicate_group, execute_run
from repro.api.spec import SweepSpec
from repro.core.circles import CirclesProtocol
from repro.simulation import batch_engine
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.convergence import StableCircles

N = 256
SEEDS = range(8)
COLORS = [0] * 90 + [1] * 84 + [2] * 82
#: A regime threshold no load falls below: the engine never goes sparse.
NEVER = -1.0
SPEEDUP_BOUND = 2


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


def _time_to_convergence() -> tuple[float, int, int]:
    """Seconds, interactions and runs that finished sparse, over SEEDS."""
    protocol = CirclesProtocol(3)
    steps = sparse_finishes = 0
    start = time.perf_counter()
    for seed in SEEDS:
        simulation = BatchConfigurationSimulation.from_colors(protocol, COLORS, seed=seed)
        assert simulation.run(10**9, criterion=StableCircles())
        steps += simulation.steps_taken
        sparse_finishes += simulation.regime == "sparse"
    return time.perf_counter() - start, steps, sparse_finishes


@pytest.mark.perf
def test_sparse_regime_is_2x_faster_than_the_dense_pool_to_convergence(
    record_perf, monkeypatch
):
    _time_to_convergence()  # compile outside the timing
    sparse_seconds, sparse_steps, sparse_finishes = _time_to_convergence()
    # The baseline is the code path the sparse regime replaces: the same
    # engine with the sparse regime held off, drawing every interaction
    # from the dense pool.
    monkeypatch.setattr(batch_engine, "SPARSE_ENTER_LOAD", NEVER)
    monkeypatch.setattr(batch_engine, "SPARSE_LEAVE_LOAD", NEVER)
    dense_seconds, dense_steps, dense_finishes = _time_to_convergence()
    assert sparse_finishes > 0 and dense_finishes == 0
    speedup = dense_seconds / sparse_seconds
    print(
        f"\nsparse regime: {sparse_seconds:.3f}s for {sparse_steps:,} interactions "
        f"({sparse_steps / sparse_seconds:,.0f}/s), dense pool only {dense_seconds:.3f}s "
        f"for {dense_steps:,} ({dense_steps / dense_seconds:,.0f}/s), speedup {speedup:.1f}x"
    )
    record_perf(
        "sparse-regime-vs-dense-pool",
        n=N,
        engine="batch",
        seconds=sparse_seconds,
        speedup=speedup,
        baseline_seconds=dense_seconds,
    )
    assert sparse_seconds * SPEEDUP_BOUND <= dense_seconds, (
        f"sparse regime only {speedup:.1f}x faster than the dense pool "
        f"({sparse_seconds:.3f}s vs {dense_seconds:.3f}s over {len(SEEDS)} runs to convergence)"
    )
