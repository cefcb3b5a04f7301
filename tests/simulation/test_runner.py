"""Tests for the high-level run API."""

import random

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.braket import braket_weight
from repro.core.state import CirclesState
from repro.protocols.exact_majority import ExactMajorityProtocol
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.simulation.convergence import OutputConsensus, StableCircles
from repro.simulation.observers import TraceObserver
from repro.simulation.runner import (
    RunResult,
    _count_input,
    default_max_steps,
    ket_exchange_occurred,
    run_circles,
    run_protocol,
)
from repro.utils.multiset import Multiset


class TestDefaults:
    def test_default_max_steps_grows_with_population(self):
        assert default_max_steps(10, 3) < default_max_steps(40, 3)
        assert default_max_steps(2, 2) >= 2_000


class TestRunCircles:
    def test_basic_run_reports_everything(self):
        colors = [0, 0, 0, 1, 1, 2]
        outcome = run_circles(colors, seed=5)
        assert isinstance(outcome, RunResult)
        assert outcome.protocol_name == "circles"
        assert outcome.num_agents == 6
        assert outcome.num_colors == 3
        assert outcome.converged and outcome.correct
        assert outcome.majority == 0
        assert outcome.unanimous
        assert outcome.ket_exchanges is not None and outcome.ket_exchanges > 0
        assert outcome.initial_energy == 6 * 3
        assert outcome.final_energy is not None
        assert outcome.final_energy < outcome.initial_energy
        assert Multiset(s.braket for s in outcome.final_states) == predicted_stable_brakets(colors)

    def test_explicit_k_larger_than_colors(self):
        outcome = run_circles([0, 0, 1], num_colors=5, seed=2)
        assert outcome.num_colors == 5
        assert outcome.correct

    def test_explicit_scheduler(self):
        scheduler = RoundRobinScheduler(4)
        outcome = run_circles([0, 0, 0, 1], scheduler=scheduler, seed=0)
        assert outcome.scheduler_name == "round-robin"
        assert outcome.correct

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least two input colors"):
            run_circles([])

    def test_single_agent_input_rejected_with_the_same_message(self):
        """Regression: a one-agent input used to fall through to Population's
        unrelated "needs at least two agents" error."""
        with pytest.raises(ValueError, match="at least two input colors"):
            run_circles([0])

    def test_tie_input_reports_not_correct(self):
        outcome = run_circles([0, 0, 1, 1], seed=3)
        assert outcome.majority is None
        assert not outcome.correct
        # The run still stabilizes (Theorem 3.4 does not need a unique majority).
        assert outcome.converged is False or outcome.converged is True

    def test_record_trace(self):
        tracer = TraceObserver()
        outcome = run_circles([0, 0, 1], seed=1, observers=[tracer])
        assert len(tracer.trace) == outcome.steps

    def test_summary_keys(self):
        outcome = run_circles([0, 0, 1], seed=1)
        summary = outcome.summary()
        assert summary["protocol"] == "circles"
        assert summary["correct"] is True
        assert summary["n"] == 3

    def test_results_are_self_describing(self):
        """Engine and seed are recorded on the result and in its summary."""
        for engine in ("agent", "batch"):
            outcome = run_circles([0, 0, 0, 1], seed=5, engine=engine)
            assert outcome.engine == engine
            assert outcome.seed == 5
            summary = outcome.summary()
            assert summary["engine"] == engine
            assert summary["seed"] == 5

    def test_unseeded_run_records_no_seed(self):
        outcome = run_circles([0, 0, 1])
        assert outcome.seed is None
        assert outcome.engine == "agent"

    def test_budget_too_small_reports_not_converged(self):
        outcome = run_circles([0, 0, 0, 1, 1, 2, 2, 3], max_steps=1, seed=4)
        assert not outcome.converged


class TestRunProtocol:
    def test_runs_exact_majority(self):
        outcome = run_protocol(
            ExactMajorityProtocol(), [0, 0, 0, 1, 1], criterion=OutputConsensus(), seed=9
        )
        assert outcome.protocol_name == "exact-majority"
        assert outcome.correct
        assert outcome.majority == 0

    def test_default_criterion_is_output_consensus(self):
        protocol = ExactMajorityProtocol()
        assert isinstance(protocol.default_criterion(), OutputConsensus)
        outcome = run_protocol(protocol, [0, 0, 0, 1, 1], seed=9)
        explicit = run_protocol(protocol, [0, 0, 0, 1, 1], criterion=OutputConsensus(), seed=9)
        assert outcome.converged
        assert outcome.steps == explicit.steps
        # Circles overrides the hook with its own stabilization criterion.
        assert isinstance(CirclesProtocol(2).default_criterion(), StableCircles)

    def test_scheduler_mismatch_raises(self):
        with pytest.raises(ValueError):
            run_protocol(
                CirclesProtocol(2), [0, 1, 1], scheduler=RoundRobinScheduler(5), seed=0
            )

    def test_trace_recording(self):
        tracer = TraceObserver()
        outcome = run_protocol(CirclesProtocol(2), [0, 1], seed=1, observers=[tracer], max_steps=10)
        assert len(tracer.trace) == outcome.steps

    def test_empty_and_single_agent_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least two input colors"):
            run_protocol(CirclesProtocol(2), [])
        with pytest.raises(ValueError, match="at least two input colors"):
            run_protocol(CirclesProtocol(2), [1])


class TestKetExchangeCounting:
    def _state(self, bra, ket, out=0):
        return CirclesState(bra, ket, out)

    def test_no_exchange(self):
        before = (self._state(0, 1), self._state(1, 0))
        after = (self._state(0, 1, 1), self._state(1, 0, 1))  # output-only change
        assert not ket_exchange_occurred(before, after)

    def test_both_sides_change_counts_once(self):
        before = (self._state(0, 1), self._state(1, 0))
        after = (self._state(0, 0), self._state(1, 1))
        assert ket_exchange_occurred(before, after)

    def test_responder_side_only_change_is_counted(self):
        """Regression: the old initiator-only check silently dropped these."""
        before = (self._state(0, 1), self._state(1, 0))
        after = (self._state(0, 1), self._state(1, 1))
        assert ket_exchange_occurred(before, after)

    def test_initiator_side_only_change_is_counted(self):
        before = (self._state(0, 1), self._state(1, 0))
        after = (self._state(0, 0), self._state(1, 0))
        assert ket_exchange_occurred(before, after)


class TestEngineSelection:
    COLORS = [0] * 10 + [1] * 6 + [2] * 4

    @pytest.mark.parametrize("engine", ["agent", "batch"])
    def test_run_circles_converges_on_every_engine(self, engine):
        outcome = run_circles(self.COLORS, seed=21, engine=engine)
        assert outcome.converged and outcome.correct
        assert outcome.ket_exchanges is not None and outcome.ket_exchanges > 0
        assert outcome.final_energy is not None
        assert outcome.final_energy < outcome.initial_energy
        assert Multiset(s.braket for s in outcome.final_states) == predicted_stable_brakets(
            self.COLORS
        )

    def test_batch_engine_reports_the_uniform_scheduler(self):
        outcome = run_circles([0, 0, 0, 1], seed=2, engine="batch")
        assert outcome.scheduler_name == "uniform-random"

    def test_run_protocol_supports_the_batch_engine(self):
        outcome = run_protocol(ExactMajorityProtocol(), [0, 0, 0, 1, 1], seed=9, engine="batch")
        assert outcome.correct
        assert outcome.num_agents == 5
        assert len(outcome.outputs) == 5

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="unknown engine"):
            run_circles([0, 0, 1], engine="warp-drive")

    def test_scheduler_requires_agent_engine(self):
        with pytest.raises(ValueError, match="custom scheduler"):
            run_circles([0, 0, 1], scheduler=RoundRobinScheduler(3), engine="batch")

    def test_trace_requires_agent_engine(self):
        with pytest.raises(ValueError, match="trace"):
            run_protocol(CirclesProtocol(2), [0, 1], observers=[TraceObserver()], engine="batch")


class TestInputEnergy:
    def test_equals_the_per_agent_sum(self):
        rng = random.Random(20)
        for _ in range(50):
            k = rng.randrange(2, 7)
            protocol = CirclesProtocol(k)
            colors = [rng.randrange(k) for _ in range(rng.randrange(2, 300))]
            per_agent = sum(
                braket_weight(protocol.initial_state(color).braket, k) for color in colors
            )
            assert _count_input(protocol, colors)[2] == per_agent

    def test_none_for_protocols_without_braket_weights(self):
        assert _count_input(ExactMajorityProtocol(), [0, 1, 1])[2] is None
