"""Exactness of the batch engine's pool regimes and of the verdict cache.

The dense regime draws one interaction at a time from the agent pool; the
sparse regime skips null interactions with a geometric draw and samples the
next active ordered pair by its mass ``c_p·(c_q - [p=q])``.  Both must
sample the same chain as the sequential process.  These tests check them
against the exact chain, across forced regime switches, on a silent
configuration, and check that convergence verdicts are re-evaluated only
after a changed interaction while ``on_check`` still fires at every boundary.
The geometric skip is carried across check windows: the mean time to
``StableCircles`` under one-interaction windows matches the exact chain's,
and a run takes one skip draw per event, not per window.
"""

import math

import pytest

import repro.simulation.batch_engine as batch_engine
from repro.core.circles import CirclesProtocol
from repro.exact import ConfigurationChain, exact_expected_convergence
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.convergence import OutputConsensus, StableCircles
from repro.simulation.observers import Observer
from repro.utils.multiset import Multiset

ALWAYS = float("inf")
NEVER = -1.0


def force(monkeypatch, enter: float, leave: float) -> None:
    monkeypatch.setattr(batch_engine, "SPARSE_ENTER_LOAD", enter)
    monkeypatch.setattr(batch_engine, "SPARSE_LEAVE_LOAD", leave)


def configuration_key(configuration: Multiset) -> tuple:
    return tuple(sorted(configuration.items()))


class TestAgainstTheExactChain:
    COLORS = [0, 0, 0, 0, 1, 1, 2, 2]
    HORIZON = 120
    TRIALS = 400

    @staticmethod
    def exact_distribution(protocol, colors, horizon) -> dict:
        chain = ConfigurationChain.from_colors(protocol, colors)
        exact = {
            configuration_key(chain.configuration(index)): probability
            for index, probability in chain.distribution_after(horizon).items()
        }
        assert math.isclose(sum(exact.values()), 1.0, abs_tol=1e-9)
        return exact

    @pytest.mark.parametrize(
        "forced",
        [None, (ALWAYS, ALWAYS), (NEVER, NEVER)],
        ids=["measured-switch", "always-sparse", "always-dense"],
    )
    def test_configuration_distribution_matches(self, monkeypatch, one_sample_chi_squared, forced):
        """Full-configuration histograms after a horizon, per regime policy."""
        if forced is not None:
            force(monkeypatch, *forced)
        protocol = CirclesProtocol(3)
        exact = self.exact_distribution(protocol, self.COLORS, self.HORIZON)

        observed: dict = {}
        sparse_steps = 0
        for trial in range(self.TRIALS):
            simulation = BatchConfigurationSimulation.from_colors(
                protocol, self.COLORS, seed=30_000 + trial
            )
            for _ in range(self.HORIZON // len(self.COLORS)):
                if simulation.regime == "sparse":
                    sparse_steps += len(self.COLORS)
                simulation.run(len(self.COLORS))
            assert simulation.steps_taken == self.HORIZON
            key = configuration_key(simulation.configuration())
            observed[key] = observed.get(key, 0) + 1

        if forced == (NEVER, NEVER):
            assert sparse_steps == 0
        else:
            assert sparse_steps > self.TRIALS * self.HORIZON / 2
        statistic, critical = one_sample_chi_squared(observed, exact, self.TRIALS)
        assert statistic < critical, (
            f"pool regimes disagree with the exact chain "
            f"(chi-squared {statistic:.1f} > {critical:.1f})"
        )

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
    def test_dense_regime_matches_at_sixteen_agents(
        self, monkeypatch, one_sample_chi_squared, compiled, request
    ):
        """Always dense at n = 16, over a horizon that ends inside a window."""
        force(monkeypatch, NEVER, NEVER)
        protocol = CirclesProtocol(2)
        colors = [0] * 10 + [1] * 6
        horizon = 72
        exact = self.exact_distribution(protocol, colors, horizon)
        if not compiled:
            request.getfixturevalue("force_uncompiled")
        observed: dict = {}
        for trial in range(self.TRIALS):
            simulation = BatchConfigurationSimulation.from_colors(
                protocol, colors, seed=40_000 + trial
            )
            assert (simulation.compiled_protocol is not None) == compiled
            simulation.run(horizon)
            assert simulation.regime == "dense"
            key = configuration_key(simulation.configuration())
            observed[key] = observed.get(key, 0) + 1
        statistic, critical = one_sample_chi_squared(observed, exact, self.TRIALS)
        assert statistic < critical, (
            f"dense regime disagrees with the exact chain "
            f"(chi-squared {statistic:.1f} > {critical:.1f})"
        )


class TestRegimeSwitches:
    COLORS = [0] * 30 + [1] * 20 + [2] * 14

    def assert_consistent(self, simulation, steps):
        assert simulation.steps_taken == steps
        assert Multiset(simulation.states()) == simulation.configuration()
        assert len(simulation.configuration()) == len(self.COLORS)

    def test_dense_sparse_dense_round_trip(self, monkeypatch):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), self.COLORS, seed=5
        )
        steps = 0
        for enter, leave, regime in [
            (NEVER, NEVER, "dense"),
            (ALWAYS, ALWAYS, "sparse"),
            (NEVER, NEVER, "dense"),
            (ALWAYS, ALWAYS, "sparse"),
        ]:
            force(monkeypatch, enter, leave)
            # The regime is re-decided once per n interactions, so the switch
            # lands within the phase's first n steps.
            for budget in (1, 63, 64, 500, 777):
                simulation.run(budget)
                steps += budget
                self.assert_consistent(simulation, steps)
            assert simulation.regime == regime
        assert simulation.interactions_changed > 0

    def test_silent_configuration_consumes_the_window_without_draws(self, monkeypatch):
        force(monkeypatch, ALWAYS, ALWAYS)
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), [0] * 20, seed=9
        )
        simulation.run(1)
        assert simulation.regime == "sparse"
        state = simulation._rng.getstate()
        simulation.run(10**9)
        assert simulation._rng.getstate() == state
        assert simulation.steps_taken == 10**9 + 1
        assert simulation.interactions_changed == 0
        assert Multiset(simulation.states()) == simulation.configuration()

    def test_regime_runs_reach_the_predicted_outcome(self):
        """Measured thresholds: a run to StableCircles switches and converges."""
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), self.COLORS, seed=11
        )
        seen = set()
        while not simulation.run(len(self.COLORS), criterion=StableCircles()):
            seen.add(simulation.regime)
        assert seen == {"dense", "sparse"}
        assert simulation.unanimous_output() == 0
        assert Multiset(simulation.states()) == simulation.configuration()


class TestCarriedSkip:
    """One geometric skip per event, carried across one-interaction windows."""

    COLORS = [0, 0, 0, 1, 1, 2]
    TRIALS = 3_000
    BUDGET = 10_000

    def test_mean_time_to_stable_circles_matches_the_exact_chain(self, monkeypatch):
        """A stale, short or uncut carried skip moves the mean by many standard errors."""
        force(monkeypatch, ALWAYS, ALWAYS)
        protocol = CirclesProtocol(3)
        expected = exact_expected_convergence(protocol, self.COLORS, StableCircles())
        assert expected == pytest.approx(35.741, abs=1e-3)
        times = []
        for trial in range(self.TRIALS):
            simulation = BatchConfigurationSimulation.from_colors(
                protocol, self.COLORS, seed=50_000 + trial
            )
            assert simulation.run(self.BUDGET, criterion=StableCircles(), check_interval=1)
            times.append(simulation.steps_taken)
        mean = sum(times) / self.TRIALS
        variance = sum((time - mean) ** 2 for time in times) / (self.TRIALS - 1)
        z = (mean - expected) / math.sqrt(variance / self.TRIALS)
        assert abs(z) < 4, f"mean {mean:.3f} against exact {expected:.3f} (z = {z:.2f})"

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_one_skip_draw_per_event(self, monkeypatch, n):
        """A skip and a pair draw per changed interaction, plus the last skip."""
        force(monkeypatch, ALWAYS, ALWAYS)
        first = n // 3 + 2
        second = n // 3
        colors = [0] * first + [1] * second + [2] * (n - first - second)
        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=1)
        draws = 0
        uniform = simulation._rng.random

        def counted() -> float:
            nonlocal draws
            draws += 1
            return uniform()

        simulation._rng.random = counted
        assert simulation.run(400 * n * n, criterion=StableCircles(), check_interval=1)
        assert simulation.regime == "sparse"
        assert draws <= 2 * simulation.interactions_changed + 1


class CountingConsensus(OutputConsensus):
    def __init__(self, target: int | None = None) -> None:
        super().__init__(target)
        self.evaluations = 0

    def is_converged_counts(self, protocol, compiled, counts):
        self.evaluations += 1
        return super().is_converged_counts(protocol, compiled, counts)


class CheckCounter(Observer):
    name = "check-counter"

    def __init__(self) -> None:
        self.checks = 0
        self.changed_at_check: list[int] = []

    def on_check(self, engine) -> None:
        self.checks += 1
        self.changed_at_check.append(engine.interactions_changed)


class TestVerdictCache:
    def test_evaluates_only_after_a_change(self):
        criterion = CountingConsensus(target=1)  # never holds on a 0-majority
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), [0] * 6 + [1] * 5 + [2] * 5, seed=3
        )
        counter = simulation.add_observer(CheckCounter())
        assert not simulation.run(4_000, criterion=criterion, check_interval=4)
        boundaries = 1 + 4_000 // 4
        assert counter.checks == boundaries
        changes = 1 + sum(
            1 for before, after in zip(counter.changed_at_check, counter.changed_at_check[1:])
            if after != before
        )
        assert criterion.evaluations == changes < boundaries

    def test_silent_configuration_is_evaluated_once(self):
        criterion = CountingConsensus(target=1)
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), [0] * 20, seed=3
        )
        counter = simulation.add_observer(CheckCounter())
        assert not simulation.run(2_000, criterion=criterion, check_interval=20)
        assert simulation.interactions_changed == 0
        assert criterion.evaluations == 1
        assert counter.checks == 1 + 2_000 // 20
