"""Observer-pipeline benchmark — streaming metrics and incremental quiescence.

Two claims at ``n = 10^5``:

* attaching count-level observers (energy + ket exchanges) to the batched
  engine keeps large runs exact: the incrementally maintained energy equals
  a from-scratch recomputation after millions of interactions;
* incremental convergence detection (the
  :class:`~repro.simulation.convergence.ActivePairTracker` behind
  ``SilentConfiguration``) answers each quiescence check in ``O(1)`` — at
  least **3× faster** (measured: orders of magnitude) than the periodic
  ``O(d²)`` from-scratch rescan it replaces, on a near-quiescent long run.

The perf test times *detection only*: the same engine advances through a
near-quiescent run (a stable-structure configuration where a few thousand
agents still report stale outputs, so almost every interaction is a no-op),
and at each boundary both detection strategies are timed on the identical
live configuration and must return the identical verdict.  The incremental
side calls the engine's criterion evaluation directly, so every timed check
asks the tracker; a ``run(0)`` check would return the verdict the engine
cached at the boundary without consulting it.  Wall-clock
assertions carry the ``perf`` marker (opt-in via ``pytest --perf``); the
marker-free smoke tests keep the pipeline exercised in the default suite.
"""

import time

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_majority, predicted_stable_brakets
from repro.core.potential import configuration_energy
from repro.core.state import CirclesState
from repro.simulation import (
    BatchConfigurationSimulation,
    EnergyObserver,
    KetExchangeObserver,
    SilentConfiguration,
)
from repro.workloads.distributions import planted_majority

N = 100_000
K = 6

#: A skewed plural distribution over K colors with a unique majority (color 0),
#: in fractions of the population size.
SHARES = (0.40, 0.25, 0.15, 0.10, 0.06, 0.04)


def _skewed_colors(num_agents: int) -> list[int]:
    colors: list[int] = []
    for color, share in enumerate(SHARES[:-1]):
        colors += [color] * int(share * num_agents)
    colors += [K - 1] * (num_agents - len(colors))
    return colors


def _near_quiescent_states(num_agents: int, stale: int) -> list[CirclesState]:
    """The predicted stable configuration with ``stale`` out-of-date outputs.

    Lemma 3.6 predicts the terminal braket multiset from the input alone;
    giving every agent the majority output makes the configuration *silent*.
    Re-staling a few outputs yields exactly the near-quiescent regime: the
    only remaining activity is output copying, so almost every interaction
    changes nothing while the configuration is not yet silent.
    """
    colors = _skewed_colors(num_agents)
    majority = predicted_majority(colors)
    states: list[CirclesState] = []
    for braket, count in predicted_stable_brakets(colors).items():
        states.extend([CirclesState(braket.bra, braket.ket, majority)] * count)
    for index in range(stale):
        state = states[index]
        states[index] = CirclesState(
            state.bra, state.ket, (state.out + 1 + index % (K - 1)) % K
        )
    return states


def test_observers_stay_exact_on_the_batch_engine_at_1e5():
    """Smoke (default suite): incremental energy == recomputation at n = 10^5."""
    colors = planted_majority(N, 4, seed=5)
    simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(4), colors, seed=6)
    energy = simulation.add_observer(EnergyObserver(record="check"))
    exchanges = simulation.add_observer(KetExchangeObserver())
    simulation.run(400_000)
    assert energy.energy == configuration_energy(simulation.states(), 4)
    assert exchanges.exchanges <= simulation.interactions_changed
    assert energy.summary()["monotone_nonincreasing"]


def test_incremental_and_rescan_verdicts_agree_along_a_run():
    """Smoke (default suite): both detection strategies always agree."""
    n = 10_000
    protocol = CirclesProtocol(K)
    simulation = BatchConfigurationSimulation(
        protocol, _near_quiescent_states(n, stale=200), seed=11
    )
    silent = SilentConfiguration()

    def rescan() -> bool:
        return silent.is_converged_configuration(protocol, simulation.configuration())

    converged = False
    for _ in range(100):
        converged = simulation.run(n, criterion=silent, check_interval=n)
        assert rescan() == converged
        if converged:
            break
    assert converged and rescan()  # the run ends silent


@pytest.mark.perf
def test_incremental_detection_is_3x_faster_than_rescan(record_perf):
    """The issue's acceptance bar: ≥3× faster detection on a near-quiescent run."""
    protocol = CirclesProtocol(K)
    simulation = BatchConfigurationSimulation(
        protocol, _near_quiescent_states(N, stale=2_000), seed=3
    )
    assert simulation.compiled_protocol is not None
    incremental = SilentConfiguration()
    # Both strategies are called directly on the live configuration, so the
    # engine's verdict cache is not in the way: each incremental check asks
    # the tracker, each baseline call rescans from scratch.
    evaluate = simulation._evaluate
    rescan = incremental.is_converged_configuration

    checks_per_boundary = 5
    incremental_time = 0.0
    rescan_time = 0.0
    boundaries = 0
    converged = False
    while not converged and boundaries < 60:
        # Advance one parallel-time window of the near-quiescent run, then
        # time both detection strategies on the identical live configuration.
        simulation.run(N, criterion=incremental, check_interval=N)
        boundaries += 1
        start = time.perf_counter()
        for _ in range(checks_per_boundary):
            converged = evaluate(incremental)
        incremental_time += time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(checks_per_boundary):
            rescan_verdict = rescan(protocol, simulation.configuration())
        rescan_time += time.perf_counter() - start
        assert rescan_verdict == converged  # identical verdict on every state

    assert converged, "the near-quiescent run did not reach silence"
    checks = boundaries * checks_per_boundary
    print(
        f"\nincremental: {incremental_time * 1e6 / checks:,.1f}µs/check, "
        f"rescan: {rescan_time * 1e6 / checks:,.1f}µs/check, "
        f"speedup {rescan_time / incremental_time:.0f}x over {checks} checks"
    )
    record_perf(
        "incremental-quiescence-detection",
        n=N,
        engine="batch",
        seconds=incremental_time,
        speedup=rescan_time / incremental_time,
        baseline_seconds=rescan_time,
    )
    assert incremental_time * 3 <= rescan_time, (
        f"incremental detection only {rescan_time / incremental_time:.1f}x faster "
        f"({incremental_time:.4f}s vs {rescan_time:.4f}s for {checks} checks)"
    )
