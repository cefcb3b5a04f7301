"""Tests for the adversarial schedulers and the fairness checker."""

import pytest

from repro.core.circles import CirclesProtocol
from repro.scheduling.adversarial import (
    GreedyStallScheduler,
    IsolationScheduler,
    SingleColorScheduler,
)
from repro.scheduling.fairness import collect_pairs, covers_all_pairs, fairness_report
from repro.simulation.population import Population


class TestGreedyStall:
    def _scheduler(self, n: int, patience: int = 4, seed: int = 0) -> GreedyStallScheduler:
        protocol = CirclesProtocol(3)
        return GreedyStallScheduler(
            n,
            protocol=protocol,
            seed=seed,
            patience=patience,
        )

    def test_patience_must_be_positive(self):
        with pytest.raises(ValueError):
            self._scheduler(4, patience=0)

    def test_prefers_null_interactions(self):
        protocol = CirclesProtocol(3)
        population = Population.from_colors(protocol, [0, 0, 0, 1])
        scheduler = self._scheduler(4, patience=10)
        pair = scheduler.next_pair(0, population.states())
        a, b = pair
        # With patience available, the adversary picks a pair whose interaction is a no-op.
        pair = (population[a], population[b])
        assert protocol.transition(*pair).as_pair() == pair

    def test_backlog_forces_progress_after_patience(self):
        protocol = CirclesProtocol(3)
        states = [protocol.initial_state(0)] * 3 + [protocol.initial_state(1)]
        scheduler = self._scheduler(4, patience=2)
        pairs = [scheduler.next_pair(step, states) for step in range(12)]
        # Despite stalling, the deterministic backlog keeps injecting pairs in
        # round-robin order, so the schedule still covers many distinct pairs.
        assert len(set(pairs)) >= 4

    def test_remains_weakly_fair_on_static_population(self):
        scheduler = self._scheduler(4, patience=1, seed=2)
        pairs = collect_pairs(scheduler, 200, states=[CirclesProtocol(3).initial_state(0)] * 4)
        assert covers_all_pairs(pairs, 4)

    def test_delta_runs_once_per_ordered_state_pair(self):
        calls = []

        class CountingCircles(CirclesProtocol):
            def transition(self, a, b):
                calls.append((a, b))
                return super().transition(a, b)

        protocol = CountingCircles(3)
        scheduler = GreedyStallScheduler(6, protocol=protocol, seed=1, patience=3)
        states = Population.from_colors(protocol, [0, 0, 0, 1, 1, 2]).states()
        for step in range(40):
            scheduler.next_pair(step, states)
        # Color 2 has a single agent, so its state never meets itself.
        expected = {(a, b) for i, a in enumerate(states) for j, b in enumerate(states) if i != j}
        assert len(expected) == 8
        assert sorted(calls, key=repr) == sorted(expected, key=repr)

    def test_declared_fairness_flags(self):
        assert self._scheduler(4).is_weakly_fair
        assert not IsolationScheduler(4, [0]).is_weakly_fair
        assert not SingleColorScheduler(4, [(0, 1)]).is_weakly_fair


class TestIsolation:
    def test_isolated_agents_never_appear(self):
        scheduler = IsolationScheduler(6, isolated={0, 5}, seed=1)
        pairs = collect_pairs(scheduler, 300)
        used = {index for pair in pairs for index in pair}
        assert used <= {1, 2, 3, 4}

    def test_needs_two_active_agents(self):
        with pytest.raises(ValueError):
            IsolationScheduler(3, isolated={0, 1})

    def test_rejects_out_of_range_agent(self):
        with pytest.raises(ValueError):
            IsolationScheduler(3, isolated={7})

    def test_coverage_is_incomplete(self):
        scheduler = IsolationScheduler(5, isolated={4}, seed=2)
        report = fairness_report(collect_pairs(scheduler, 400), 5)
        assert not report.complete
        assert all(4 in pair for pair in report.missing_pairs)


class TestSingleColor:
    def test_cycles_through_given_pairs(self):
        scheduler = SingleColorScheduler(4, [(0, 1), (2, 3)])
        pairs = collect_pairs(scheduler, 4)
        assert pairs == [(0, 1), (2, 3), (0, 1), (2, 3)]

    def test_rejects_empty_and_invalid_pairs(self):
        with pytest.raises(ValueError):
            SingleColorScheduler(4, [])
        with pytest.raises(ValueError):
            SingleColorScheduler(4, [(1, 1)])
        with pytest.raises(ValueError):
            SingleColorScheduler(4, [(0, 9)])


class TestFairnessReport:
    def test_complete_report(self):
        from repro.scheduling.round_robin import RoundRobinScheduler

        scheduler = RoundRobinScheduler(3)
        report = fairness_report(collect_pairs(scheduler, scheduler.cycle_length * 2), 3)
        assert report.complete
        assert report.coverage == 1.0
        assert report.min_pair_count == 2
        assert report.max_pair_count == 2

    def test_partial_report(self):
        report = fairness_report([(0, 1), (0, 1)], 3)
        assert report.distinct_pairs_seen == 1
        assert report.total_pairs == 6
        assert 0 < report.coverage < 1
        assert not report.complete
