"""Tests for engine selection and the shared engine policies."""

import pytest

from repro.api.executor import execute_run
from repro.api.spec import RunSpec
from repro.simulation import (
    ENGINES,
    AgentSimulation,
    BatchConfigurationSimulation,
    ExactMarkovEngine,
    SimulationEngine,
    VectorReplicateSimulation,
    available_engines,
    default_check_interval,
    get_engine,
    run_protocol,
    stochastic_engines,
)
from repro.core.circles import CirclesProtocol
from repro.simulation.convergence import OutputConsensus
from repro.simulation.observers import CallbackObserver


class TestRegistry:
    def test_known_names(self):
        assert available_engines() == ("agent", "batch", "exact", "vector")
        assert get_engine("agent") is AgentSimulation
        assert get_engine("batch") is BatchConfigurationSimulation
        assert get_engine("exact") is ExactMarkovEngine
        assert get_engine("vector") is VectorReplicateSimulation

    def test_stochastic_engines_excludes_the_analytical_one(self):
        assert stochastic_engines() == ("agent", "batch", "vector")
        assert not ExactMarkovEngine.samples_trajectories
        assert all(ENGINES[name].samples_trajectories for name in stochastic_engines())

    def test_names_match_engine_classes(self):
        for name, engine_cls in ENGINES.items():
            assert engine_cls.engine_name == name
            assert issubclass(engine_cls, SimulationEngine)

    def test_unknown_name_lists_available_engines(self):
        with pytest.raises(KeyError, match="agent, batch, exact, vector"):
            get_engine("warp-drive")

    def test_removed_configuration_engine_is_an_unknown_name(self):
        """The batch engine samples the same chain; the old name is not aliased."""
        message = r"unknown engine 'configuration'; available engines: agent, batch"
        with pytest.raises(KeyError, match=message):
            run_protocol(CirclesProtocol(2), [0, 0, 1], engine="configuration", seed=1)
        spec = RunSpec(protocol="circles", n=6, k=2, engine="configuration", seed=1)
        with pytest.raises(KeyError, match=message):
            execute_run(spec)


class TestDefaultCheckInterval:
    def test_one_parallel_time_unit(self):
        assert default_check_interval(50) == 50
        assert default_check_interval(1) == 1
        assert default_check_interval(0) == 1

    @pytest.mark.parametrize("name", ["agent", "batch", "vector"])
    def test_every_engine_shares_the_policy(self, name):
        """All engines detect convergence within one parallel-time unit.

        Regression for the old split defaults (the agent engine used to check
        only once per ``n·(n-1)`` scheduler cycle): on an already-converged
        input every engine must stop at the pre-run check, and on a
        nearly-converged input detection must not take a quadratic number of
        interactions.
        """
        engine_cls = get_engine(name)
        protocol = CirclesProtocol(2)
        converged_input = [0] * 20
        simulation = engine_cls.from_colors(protocol, converged_input, seed=1)
        assert simulation.run(10_000, criterion=OutputConsensus())
        assert simulation.steps_taken == 0

    @pytest.mark.parametrize("name", ["agent", "batch", "vector"])
    def test_negative_check_interval_rejected(self, name):
        """Regression: a negative interval used to spin the run loop forever."""
        simulation = get_engine(name).from_colors(CirclesProtocol(2), [0, 0, 1], seed=1)
        with pytest.raises(ValueError, match="check_interval"):
            simulation.run(100, criterion=OutputConsensus(), check_interval=-1)

    @pytest.mark.parametrize("name", ["agent", "batch", "vector"])
    def test_every_engine_supports_the_observer_hook(self, name):
        observed = 0

        def observe(initiator, responder, result, count):
            nonlocal observed
            observed += count

        simulation = get_engine(name).from_colors(CirclesProtocol(3), [0, 1, 2] * 8, seed=2)
        simulation.add_observer(CallbackObserver(observe))
        simulation.run(300)
        assert observed == simulation.interactions_changed > 0
