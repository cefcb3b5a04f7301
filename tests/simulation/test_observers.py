"""Tests for the unified observer pipeline (repro.simulation.observers)."""

import pytest

from repro.core.circles import CirclesProtocol, CirclesVariant, ExchangeRule, OutputRule
from repro.core.potential import configuration_energy, weight_histogram
from repro.simulation import (
    AgentSimulation,
    BatchConfigurationSimulation,
    EnergyObserver,
    KetExchangeObserver,
    Observer,
    OutputConsensus,
    PotentialObserver,
    Trace,
    TraceObserver,
    available_observers,
    build_observer,
    register_observer,
    run_circles,
)
from repro.simulation.observers import OBSERVERS, CallbackObserver, ket_exchange_occurred

ENGINE_CLASSES = (AgentSimulation, BatchConfigurationSimulation)

COLORS = [0] * 9 + [1] * 5 + [2] * 2


def _build(engine_cls, seed=3):
    return engine_cls.from_colors(CirclesProtocol(3), COLORS, seed=seed)


class RecordingObserver(Observer):
    """Collects every hook invocation for assertions."""

    name = "recording"

    def __init__(self):
        self.started = 0
        self.deltas = []
        self.checks = 0
        self.finishes = []

    def on_start(self, engine):
        self.started += 1

    def on_delta(self, delta):
        self.deltas.append(delta)

    def on_check(self, engine):
        self.checks += 1

    def on_finish(self, engine, converged):
        self.finishes.append(converged)


class TestHooks:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_delta_counts_sum_to_interactions_changed(self, engine_cls):
        simulation = _build(engine_cls)
        recording = simulation.add_observer(RecordingObserver())
        simulation.run(4_000)
        assert recording.started == 1
        assert sum(delta.count for delta in recording.deltas) == simulation.interactions_changed
        assert all(delta.changed for delta in recording.deltas)

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_check_and_finish_fire_in_run(self, engine_cls):
        simulation = _build(engine_cls)
        recording = simulation.add_observer(RecordingObserver())
        converged = simulation.run(50_000, criterion=OutputConsensus())
        assert recording.finishes == [converged]
        assert recording.checks >= 1

    def test_finish_fires_for_budget_only_runs(self):
        simulation = _build(BatchConfigurationSimulation)
        recording = simulation.add_observer(RecordingObserver())
        simulation.run(100)
        assert recording.finishes == [False]
        assert recording.checks == 0

    def test_agent_engine_indices_and_unchanged_deltas(self):
        simulation = _build(AgentSimulation)

        class Unfiltered(RecordingObserver):
            wants_unchanged = True

        everything = simulation.add_observer(Unfiltered())
        changed_only = simulation.add_observer(RecordingObserver())
        simulation.run(500)
        assert len(everything.deltas) == 500  # one delta per interaction
        assert all(delta.initiator_index is not None for delta in everything.deltas)
        assert len(changed_only.deltas) == sum(
            1 for delta in everything.deltas if delta.changed
        )

    def test_anonymous_engines_reject_index_observers(self):
        simulation = _build(BatchConfigurationSimulation)
        with pytest.raises(ValueError, match="does not track individual agents"):
            simulation.add_observer(TraceObserver())


class TestTraceObserver:
    def test_records_every_interaction_with_its_metrics(self):
        trace = Trace()
        simulation = AgentSimulation.from_colors(CirclesProtocol(3), COLORS, seed=5)
        simulation.add_observer(TraceObserver(trace, metrics={"agents": len}))
        simulation.run(200)
        assert len(trace) == 200
        assert [event.step for event in trace] == list(range(200))
        assert all(event.metrics["agents"] == len(COLORS) for event in trace)
        changed = [event for event in trace if event.changed]
        assert len(changed) == simulation.interactions_changed

    def test_summary_is_json_native(self):
        simulation = AgentSimulation.from_colors(CirclesProtocol(3), COLORS, seed=5)
        observer = simulation.add_observer(TraceObserver())
        simulation.run(100)
        summary = observer.summary()
        assert summary["events"] == 100
        assert summary["changed_events"] == simulation.interactions_changed


class TestMetricObservers:
    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_energy_matches_recomputation(self, engine_cls):
        simulation = _build(engine_cls)
        energy = simulation.add_observer(EnergyObserver())
        simulation.run(6_000)
        assert energy.energy == configuration_energy(simulation.states(), 3)
        assert energy.summary()["monotone_nonincreasing"]

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_potential_histogram_matches_recomputation(self, engine_cls):
        simulation = _build(engine_cls)
        potential = simulation.add_observer(PotentialObserver())
        simulation.run(6_000)
        assert potential.histogram == weight_histogram(simulation.states(), 3)
        assert potential.strictly_decreasing

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    def test_ket_exchange_counts_are_bounded_by_changes(self, engine_cls):
        simulation = _build(engine_cls)
        exchanges = simulation.add_observer(KetExchangeObserver())
        simulation.run(6_000)
        assert 0 < exchanges.exchanges <= simulation.interactions_changed
        assert exchanges.summary() == {"ket_exchanges": exchanges.exchanges}

    def test_energy_check_mode_samples_at_boundaries(self):
        simulation = _build(BatchConfigurationSimulation)
        energy = simulation.add_observer(EnergyObserver(record="check"))
        simulation.run(3_200, criterion=OutputConsensus(), check_interval=400)
        steps = [step for step, _ in energy.samples]
        assert steps[0] == 0
        assert all(step % 400 == 0 for step in steps)

    def test_energy_rejects_unknown_record_mode(self):
        with pytest.raises(ValueError, match="record"):
            EnergyObserver(record="sometimes")


class DecodedKetCounter(CallbackObserver):
    """The reference count: every decoded changed delta through the predicate."""

    def __init__(self):
        super().__init__(self._observe)
        self.exchanges = 0
        self.changed = 0

    def _observe(self, initiator, responder, result, count):
        self.changed += count
        if ket_exchange_occurred((initiator, responder), (result.initiator, result.responder)):
            self.exchanges += count


KET_CASES = [
    pytest.param(CirclesProtocol(3), [0] * 9 + [1] * 5 + [2] * 4, id="circles-k3"),
    pytest.param(CirclesProtocol(4), [0] * 8 + [1] * 6 + [2] * 4 + [3] * 2, id="circles-k4"),
    pytest.param(
        CirclesProtocol(
            3,
            CirclesVariant(exchange_rule=ExchangeRule.SUM_WEIGHT, output_rule=OutputRule.EPIDEMIC),
        ),
        [0] * 9 + [1] * 5 + [2] * 4,
        id="circles-k3-sum-weight-epidemic",
    ),
]


class TestKetExchangesOnCodes:
    """Compiled engines count ket exchanges on pair codes, without decoding."""

    @pytest.mark.parametrize("protocol, colors", KET_CASES)
    def test_code_count_equals_decoded_count(self, protocol, colors):
        alone = BatchConfigurationSimulation.from_colors(protocol, colors, seed=5)
        assert alone.compiled_protocol is not None
        ket_alone = alone.add_observer(KetExchangeObserver())
        assert ket_alone.code_hook(alone.compiled_protocol) is not None
        alone.run(8_000)

        observed = BatchConfigurationSimulation.from_colors(protocol, colors, seed=5)
        ket = observed.add_observer(KetExchangeObserver())
        reference = observed.add_observer(DecodedKetCounter())
        observed.run(8_000)

        assert ket.exchanges == reference.exchanges > 0
        assert reference.changed == observed.interactions_changed
        # Observers consume no randomness: the same seed, the same run.
        assert ket_alone.exchanges == ket.exchanges
        assert alone.configuration() == observed.configuration()


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"trace", "energy", "potential", "ket-exchanges"} <= set(available_observers())

    def test_build_observer_with_params(self):
        observer = build_observer("energy", record="check")
        assert isinstance(observer, EnergyObserver)
        assert observer.record == "check"

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="unknown observer 'nope'"):
            build_observer("nope")

    def test_register_observer_duplicate_and_overwrite(self):
        register_observer("recording-test", RecordingObserver)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_observer("recording-test", RecordingObserver)
            register_observer("recording-test", RecordingObserver, overwrite=True)
        finally:
            OBSERVERS.pop("recording-test", None)


class TestRunApi:
    def test_run_circles_reports_observer_summaries(self):
        result = run_circles(COLORS, seed=2, engine="batch", observers=("energy",))
        summary = result.observer_summaries["energy"]
        assert summary["initial_energy"] == len(COLORS) * 3
        assert summary["final_energy"] <= summary["initial_energy"]
        assert result.ket_exchanges is not None

    def test_run_circles_accepts_observer_instances(self):
        energy = EnergyObserver()
        result = run_circles(COLORS, seed=2, engine="batch", observers=[energy])
        assert energy.energy == configuration_energy(list(result.final_states), 3)


class TestEnergySampleSteps:
    def test_agent_series_is_single_valued_over_the_full_budget(self):
        """Regression: samples used to pair post-delta energy with the
        pre-delta step, duplicating x=0 and never reaching the budget."""
        from repro.chemistry.energy import energy_trajectory

        budget = 50
        trajectory = energy_trajectory(COLORS, num_colors=3, max_steps=budget, seed=3)
        assert trajectory.steps == tuple(range(budget + 1))
        assert len(trajectory.series()) == budget + 1

    def test_count_engine_sample_steps_strictly_follow_the_run(self):
        simulation = _build(BatchConfigurationSimulation)
        energy = simulation.add_observer(EnergyObserver())
        simulation.run(2_000)
        steps = [step for step, _ in energy.samples]
        assert steps[0] == 0 and min(steps[1:]) >= 1
        assert steps == sorted(steps)
        assert steps[-1] <= simulation.steps_taken
