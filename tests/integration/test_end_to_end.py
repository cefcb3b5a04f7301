"""End-to-end integration tests across the public API."""

from repro import (
    CirclesProtocol,
    get_protocol,
    predicted_majority,
    predicted_stable_brakets,
    run_circles,
    run_protocol,
)
from repro.scheduling.adversarial import GreedyStallScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.simulation.convergence import OutputConsensus
from repro.utils.multiset import Multiset
from repro.workloads.registry import DEFAULT_WORKLOADS


class TestPublicApi:
    def test_quickstart_flow(self):
        """The README quickstart, as an executable test."""
        colors = [0, 0, 0, 1, 1, 2]
        result = run_circles(colors, seed=1)
        assert result.correct
        assert set(result.outputs) == {predicted_majority(colors)}

    def test_registry_and_runner_compose(self):
        protocol = get_protocol("circles", 4)
        colors = DEFAULT_WORKLOADS.generate("planted-majority", 14, 4, seed=2)
        outcome = run_protocol(protocol, colors, criterion=OutputConsensus(), seed=3)
        assert outcome.converged
        assert outcome.correct

    def test_workload_to_prediction_to_simulation_pipeline(self):
        from repro.core.greedy_sets import has_unique_majority

        colors = DEFAULT_WORKLOADS.generate("zipf", 16, 4, seed=4)
        if has_unique_majority(colors):  # zipf occasionally ties; skip silently
            outcome = run_circles(colors, num_colors=4, seed=5)
            final = Multiset(state.braket for state in outcome.final_states)
            assert final == predicted_stable_brakets(colors)


class TestAdversarialEndToEnd:
    def test_circles_survives_the_stalling_adversary(self):
        colors = DEFAULT_WORKLOADS.generate("near-tie", 10, 3, seed=6)
        protocol = CirclesProtocol(3)
        scheduler = GreedyStallScheduler(
            len(colors),
            protocol=protocol,
            seed=7,
            patience=5,
        )
        outcome = run_circles(colors, num_colors=3, scheduler=scheduler)
        assert outcome.converged
        assert outcome.correct

    def test_round_robin_worst_case_still_correct(self):
        colors = DEFAULT_WORKLOADS.generate("adversarial-two-block", 13, 4, seed=8)
        outcome = run_circles(colors, num_colors=4, scheduler=RoundRobinScheduler(13))
        assert outcome.converged
        assert outcome.correct


class TestScalability:
    def test_large_population_through_batch_engine(self):
        from repro.simulation.batch_engine import BatchConfigurationSimulation
        from repro.simulation.convergence import StableCircles

        colors = [0] * 150 + [1] * 100 + [2] * 50
        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=9)
        converged = simulation.run(600_000, criterion=StableCircles(), check_interval=2_000)
        assert converged
        assert simulation.unanimous_output() == 0
