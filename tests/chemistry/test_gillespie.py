"""Tests for the Gillespie SSA of a protocol's reaction network."""

import math

import pytest

from repro.chemistry.gillespie import simulate_crn
from repro.compile import StateSpaceCapExceeded
from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.exact import ConfigurationChain, ExactMarkovEngine
from repro.protocols.approximate_majority import ApproximateMajorityProtocol, OpinionState
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.leader_election import LeaderElectionProtocol
from repro.protocols.ordering import ColorOrderingProtocol
from repro.simulation.convergence import SilentConfiguration
from repro.utils.multiset import Multiset


class Annihilation(PopulationProtocol[str]):
    """``A + B → C + C`` as a three-state table protocol.

    The ordered pair ``(A, B)`` is the only one that changes a state, so its
    reaction fires at rate ``c_A·c_B``.
    """

    name = "annihilation"
    TABLE = {("A", "B"): ("C", "C")}

    def __init__(self) -> None:
        super().__init__(2)

    def states(self):
        return ("A", "B", "C")

    def initial_state(self, color: int) -> str:
        return "AB"[color]

    def output(self, state: str) -> int:
        return 0 if state == "A" else 1

    def transition(self, initiator: str, responder: str) -> TransitionResult[str]:
        a, b = self.TABLE.get((initiator, responder), (initiator, responder))
        return TransitionResult(a, b)


class Pairing(PopulationProtocol[object]):
    """Every interaction makes two new states, so the closure never ends."""

    name = "pairing"

    def __init__(self) -> None:
        super().__init__(1)

    def states(self):
        return (0,)

    def initial_state(self, color: int) -> object:
        return 0

    def output(self, state: object) -> int:
        return 0

    def transition(self, initiator, responder) -> TransitionResult:
        return TransitionResult((initiator, responder), (responder, initiator))


ANNIHILATION = Annihilation()


def annihilate(counts, **kwargs):
    return simulate_crn(ANNIHILATION, counts, **kwargs)


class TestBasics:
    def test_runs_to_exhaustion(self):
        result = annihilate({"A": 3, "B": 3}, seed=1)
        assert result.exhausted
        assert result.final_counts == {"C": 6}
        assert result.reactions_fired == 3
        assert result.time > 0

    def test_respects_reaction_budget(self):
        result = annihilate({"A": 50, "B": 50}, max_reactions=5, seed=2)
        assert not result.exhausted
        assert result.reactions_fired == 5

    def test_respects_time_budget(self):
        result = annihilate({"A": 5, "B": 5}, max_time=1e-12, seed=3)
        assert result.reactions_fired == 0

    def test_reported_time_never_overshoots_the_cap(self):
        """Regression: the waiting time past the cap used to leak into ``time``."""
        max_time = 1e-12
        result = annihilate({"A": 5, "B": 5}, max_time=max_time, seed=3)
        assert result.time <= max_time
        # A mid-run cap (some reactions fire, then the budget hits) clamps too.
        for seed in range(10):
            partial = annihilate({"A": 200, "B": 200}, max_time=2e-5, seed=seed)
            assert partial.time <= 2e-5
            if not partial.exhausted and partial.reactions_fired:
                assert partial.time == 2e-5

    def test_trajectory_times_respect_the_cap(self):
        max_time = 3e-5
        result = annihilate({"A": 200, "B": 200}, max_time=max_time, seed=6, record_every=1)
        assert all(time <= max_time for time, _ in result.trajectory)

    def test_mass_conservation(self):
        result = annihilate({"A": 4, "B": 2}, seed=4)
        assert sum(result.final_counts.values()) == 6
        assert result.final_counts["A"] == 2  # the excess A can never react away

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            annihilate({"A": -1}, seed=0)

    def test_trajectory_recording(self):
        result = annihilate({"A": 4, "B": 4}, seed=5, record_every=1)
        assert len(result.trajectory) >= 2
        times = [time for time, _ in result.trajectory]
        assert times == sorted(times)

    def test_same_seed_same_result(self):
        first = annihilate({"A": 6, "B": 6}, seed=9)
        second = annihilate({"A": 6, "B": 6}, seed=9)
        assert first.final_counts == second.final_counts
        assert first.time == second.time


class TestArguments:
    def test_final_snapshot_is_recorded_once(self):
        result = annihilate({"A": 3, "B": 3}, seed=1, record_every=1)
        assert len(result.trajectory) == 1 + result.reactions_fired == 4
        assert result.trajectory[-1] == (result.time, result.final_counts)
        mixtures = [counts for _, counts in result.trajectory]
        assert all(before != after for before, after in zip(mixtures, mixtures[1:]))

    def test_final_snapshot_between_strides(self):
        result = annihilate({"A": 3, "B": 3}, seed=1, record_every=2)
        assert [counts for _, counts in result.trajectory] == [
            {"A": 3, "B": 3},
            {"A": 1, "B": 1, "C": 4},
            {"C": 6},
        ]

    def test_clamped_run_records_the_mixture_at_the_cap(self):
        result = annihilate({"A": 200, "B": 200}, max_time=1e-4, seed=2, record_every=1)
        assert not result.exhausted and result.time == 1e-4
        assert len(result.trajectory) == result.reactions_fired + 2
        assert result.trajectory[-1] == (1e-4, result.final_counts)
        assert result.trajectory[-2][0] < 1e-4

    def test_zero_time_fires_nothing(self):
        result = annihilate({"A": 2, "B": 2}, max_time=0.0, seed=0, record_every=1)
        assert result.reactions_fired == 0 and result.time == 0.0
        assert result.trajectory == [(0.0, {"A": 2, "B": 2})]

    @pytest.mark.parametrize(
        "budget",
        [
            {"max_time": -1.0},
            {"max_time": math.nan},
            {"max_reactions": -1},
            {"record_every": 0},
            {"record_every": -1},
        ],
        ids=["negative-time", "nan-time", "negative-reactions", "record-0", "record-negative"],
    )
    def test_invalid_budgets_rejected_up_front(self, budget):
        with pytest.raises(ValueError):
            annihilate({"A": 2, "B": 2}, seed=0, **budget)

    def test_closure_over_the_compile_cap_raises(self):
        with pytest.raises(StateSpaceCapExceeded, match="compiled tables"):
            simulate_crn(Pairing(), {0: 4}, seed=0)


class TestProtocolNetworks:
    def test_approximate_majority_reaches_consensus(self):
        protocol = ApproximateMajorityProtocol()
        result = simulate_crn(protocol, {OpinionState(0): 20, OpinionState(1): 5}, seed=11)
        assert result.exhausted
        assert set(result.final_counts) == {OpinionState(0)}

    def test_circles_relaxes_to_predicted_configuration(self):
        protocol = CirclesProtocol(3)
        colors = [0, 0, 0, 1, 1, 2]
        initial = Multiset(protocol.initial_state(color) for color in colors)
        result = simulate_crn(protocol, initial, max_reactions=100_000, seed=13)
        final_brakets = Multiset(
            state.braket for state in result.final_multiset().elements()
        )
        assert final_brakets == predicted_stable_brakets(colors)


def configuration_key(configuration: Multiset) -> tuple:
    return tuple(sorted(configuration.items()))


class TestAgainstTheExactChain:
    """The SSA samples the uniform scheduler's chain, same-state pairs included."""

    TRIALS = 2000

    @staticmethod
    def jump_distribution(chain: ConfigurationChain, events: int) -> dict:
        """The exact chain's jump chain after ``events`` changes (silent ones stay put).

        A jump row is the chain's row with the null mass ``1 - change_probability``
        taken off the self-loop, renormalized by ``change_probability``.
        """
        distribution = {chain.initial_index: 1.0}
        for _ in range(events):
            moved: dict = {}
            for index, probability in distribution.items():
                change = chain.change_probability[index]
                if not change:
                    moved[index] = moved.get(index, 0.0) + probability
                    continue
                for target, weight in chain.rows[index].items():
                    if target == index:
                        weight -= 1 - change
                    moved[target] = moved.get(target, 0.0) + probability * weight / change
            distribution = moved
        return {
            configuration_key(chain.configuration(index)): probability
            for index, probability in distribution.items()
            if probability > 1e-12
        }

    @pytest.mark.parametrize(
        "protocol, colors, events",
        [
            (LeaderElectionProtocol(), [0] * 6, 3),
            (ColorOrderingProtocol(2), [0, 0, 0, 1, 1], 1),
            (ColorOrderingProtocol(2), [0, 0, 0, 1, 1], 3),
        ],
        ids=["leader-election", "color-ordering-first-event", "color-ordering-three-events"],
    )
    def test_configuration_after_m_events_matches_the_jump_chain(
        self, one_sample_chi_squared, protocol, colors, events
    ):
        initial = Multiset(protocol.initial_state(color) for color in colors)
        exact = self.jump_distribution(ConfigurationChain(protocol, initial), events)
        observed: dict = {}
        for trial in range(self.TRIALS):
            result = simulate_crn(protocol, initial, max_reactions=events, seed=50_000 + trial)
            key = configuration_key(result.final_multiset())
            observed[key] = observed.get(key, 0) + 1
        statistic, critical = one_sample_chi_squared(observed, exact, self.TRIALS)
        assert statistic < critical, (
            f"SSA jump chain disagrees with the exact chain "
            f"(chi-squared {statistic:.1f} > {critical:.1f})"
        )

    @pytest.mark.parametrize(
        "protocol, colors",
        [(LeaderElectionProtocol(), [0] * 6), (CirclesProtocol(3), [0, 0, 0, 1, 1, 2])],
        ids=["leader-election", "circles-k3"],
    )
    def test_time_to_a_dead_mixture_is_the_exact_interaction_count(self, protocol, colors):
        """``E[time] · n(n-1)`` equals the exact expected interactions to silence.

        Each ordered pair of distinct agents fires at rate 1, so interactions
        arrive at rate ``n(n-1)`` and, by Wald's identity, the mean time of
        the silencing interaction is its expected index over ``n(n-1)``.  The
        sample mean must lie within four standard errors of that value.
        """
        n = len(colors)
        engine = ExactMarkovEngine.from_colors(protocol, colors)
        assert engine.run(10**9, criterion=SilentConfiguration())
        expected = engine.distribution_result.expected_interactions_to_criterion
        initial = Multiset(protocol.initial_state(color) for color in colors)
        scaled = []
        for trial in range(self.TRIALS):
            result = simulate_crn(protocol, initial, seed=60_000 + trial)
            assert result.exhausted
            scaled.append(result.time * n * (n - 1))
        mean = sum(scaled) / len(scaled)
        variance = sum((value - mean) ** 2 for value in scaled) / (len(scaled) - 1)
        standard_error = math.sqrt(variance / len(scaled))
        assert abs(mean - expected) <= 4 * standard_error, (mean, expected, standard_error)
