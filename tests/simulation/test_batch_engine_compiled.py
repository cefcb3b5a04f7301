"""Exactness of the compiled batch-engine paths.

The batch engine picks among three representations (legacy hashable-state
pool, compiled pool of integer codes, compiled numpy count vectors above
``NUMPY_BURST_THRESHOLD``); all must sample the *same* Markov chain.  The
small-``n`` paths are covered by ``test_batch_engine.py`` and the
registry-wide conformance matrix; this module pins the vectorized
counts-vector path, which only activates at ``n ≥ 4096``.
"""

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.invariants import braket_invariant_holds
from repro.simulation.batch_engine import (
    NUMPY_BURST_THRESHOLD,
    BatchConfigurationSimulation,
)
from repro.simulation.observers import CallbackObserver, KetExchangeObserver, Observer
from repro.simulation.vector_engine import VectorReplicateSimulation
from repro.utils.multiset import Multiset
from repro.workloads.distributions import planted_majority

np = pytest.importorskip("numpy", reason="the counts-vector burst path needs numpy")

#: Smallest population on the vectorized path.
N = NUMPY_BURST_THRESHOLD
K = 3


def _colors():
    return planted_majority(N, K, seed=23)


class TestCountsVectorPath:
    def test_path_is_active_at_the_threshold(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(K), _colors(), seed=1
        )
        assert simulation.compiled_protocol is not None
        # No agent pool is materialized on the counts-vector path.
        assert simulation._pool is None

    def test_exact_budget_accounting_across_bursts(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(K), _colors(), seed=3
        )
        for budget in (1, 7, 1_000, 12_345):
            before = simulation.steps_taken
            simulation.run(budget)
            assert simulation.steps_taken == before + budget

    def test_population_conserved_and_views_consistent(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(K), _colors(), seed=5
        )
        for _ in range(20):
            simulation.run_burst()
            configuration = simulation.configuration()
            assert len(configuration) == N
            assert Multiset(simulation.states()) == configuration
        assert sum(simulation.output_counts().values()) == N

    def test_braket_invariant_preserved(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(K), _colors(), seed=7
        )
        for _ in range(10):
            simulation.run_burst()
        assert braket_invariant_holds(simulation.states())

    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            simulation = BatchConfigurationSimulation.from_colors(
                CirclesProtocol(K), _colors(), seed=11
            )
            simulation.run(5_000)
            runs.append(simulation.configuration())
        assert runs[0] == runs[1]

    def test_observer_counts_match_interactions_changed(self):
        observed = 0

        def observe(initiator, responder, result, count):
            nonlocal observed
            observed += count
            assert result.as_pair() != (initiator, responder)

        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(K), _colors(), seed=13)
        simulation.add_observer(CallbackObserver(observe))
        simulation.run(8_000)
        assert observed == simulation.interactions_changed > 0


class DeltaCounter(Observer):
    """A decoded-delta observer: counts the changed interactions it is shown."""

    def __init__(self) -> None:
        self.changed = 0

    def on_delta(self, delta) -> None:
        self.changed += delta.count


class TestKernelRowBooking:
    """The engine's counts and changed count are its kernel row's booking."""

    BURSTS = (None, 1, 2_000, 2_048, 3, None, 4_095)

    def _drive(self, observer):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(K), _colors(), seed=17
        )
        if observer is not None:
            simulation.add_observer(observer)
        kernel = simulation._kernel
        d = simulation.compiled_protocol.num_states
        for cap in self.BURSTS:
            simulation.run_burst(cap)
            assert np.array_equal(
                simulation.count_vector(), np.bincount(kernel._states[0], minlength=d)
            )
            assert simulation.interactions_changed == kernel.changed[0]
        return simulation

    def test_observers_do_not_change_the_run(self):
        bare = self._drive(None)
        ket = KetExchangeObserver()
        deltas = DeltaCounter()
        for observer in (ket, deltas):
            observed = self._drive(observer)
            assert observed.steps_taken == bare.steps_taken
            assert observed.interactions_changed == bare.interactions_changed
            assert observed.configuration() == bare.configuration()
        assert deltas.changed == bare.interactions_changed > 0
        # The ket-exchange observer on codes equals the kernel's tally mask.
        group = VectorReplicateSimulation.replicate_group_from_colors(
            CirclesProtocol(K), _colors(), seeds=[17]
        )
        (outcome,) = group.run(bare.steps_taken)
        assert outcome.ket_exchanges == ket.exchanges > 0
        assert outcome.interactions_changed == bare.interactions_changed
        assert outcome.configuration == bare.configuration()


class TestDistributionalAgreementWithThePoolPath:
    """The vectorized path samples the same chain as the legacy pool path."""

    TRIALS = 120
    HORIZON = 250

    def _histogram(self, compiled, seed_base):
        protocol = CirclesProtocol(K)
        colors = _colors()
        histogram = {}
        for trial in range(self.TRIALS):
            simulation = BatchConfigurationSimulation.from_colors(
                protocol, colors, seed=seed_base + trial
            )
            assert (simulation.compiled_protocol is not None) == compiled
            simulation.run(self.HORIZON)
            count = simulation.output_counts().get(0, 0)
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    def test_output_count_distributions_agree(self, two_sample_chi_squared, request):
        vectorized = self._histogram(True, 60_000)
        request.getfixturevalue("force_uncompiled")
        pool = self._histogram(False, 75_000)
        statistic, critical = two_sample_chi_squared(vectorized, pool)
        assert statistic < critical, (
            f"chi-squared {statistic:.1f} exceeds the 99.9% critical value "
            f"{critical:.1f}: vectorized {vectorized} vs pool {pool}"
        )
