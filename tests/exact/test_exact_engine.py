"""Tests for the exact engine facade and its API integration."""

import json
import math

import pytest

from repro import run_circles, run_protocol
from repro.api.executor import execute_run
from repro.api.records import RunRecord
from repro.api.spec import RunSpec
from repro.core.circles import CirclesProtocol
import repro.exact.absorption as absorption
from repro.exact import DistributionResult, ExactMarkovEngine
from repro.exact.golden import case_criterion
from repro.protocols.approximate_majority import ApproximateMajorityProtocol
from repro.simulation import get_engine
from repro.simulation.convergence import StableCircles
from repro.simulation.observers import Observer, TraceObserver


class TestEngineSurface:
    def test_registered_and_flagged_analytical(self):
        assert get_engine("exact") is ExactMarkovEngine
        assert ExactMarkovEngine.engine_name == "exact"
        assert not ExactMarkovEngine.samples_trajectories
        assert not ExactMarkovEngine.tracks_agents

    def test_states_before_run_are_the_initial_configuration(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert len(engine.states()) == 3
        assert engine.num_agents == 3
        assert sum(engine.output_counts().values()) == 3

    def test_run_reports_expected_interactions_and_modal_outcome(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        assert engine.run(10_000, criterion=StableCircles())
        assert math.isclose(engine.steps_taken, 20.5, rel_tol=1e-9)
        assert engine.outputs() == [0] * 5  # the modal stable outcome
        result = engine.distribution_result
        assert result is not None
        assert result.num_classes == 1
        assert result.always_correct is True

    def test_run_without_criterion_reports_absorption(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert engine.run(0)  # max_steps bounds nothing on the exact engine
        assert math.isclose(engine.steps_taken, 4.5, rel_tol=1e-9)
        assert engine.distribution_result.criterion is None

    def test_unreachable_criterion_reports_budget_and_not_converged(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 1))
        converged = engine.run(777, criterion=StableCircles())
        assert not converged
        assert engine.steps_taken == 777  # mirrors a sampler exhausting its budget
        result = engine.distribution_result
        assert result.criterion_probability == 0.0
        assert result.expected_interactions_to_criterion is None

    def test_seed_is_ignored_deterministically(self):
        runs = []
        for seed in (None, 1, 99):
            engine = ExactMarkovEngine.from_colors(
                CirclesProtocol(2), (0, 0, 0, 1, 1), seed=seed
            )
            engine.run(0, criterion=StableCircles())
            runs.append(engine.distribution_result)
        assert runs[0] == runs[1] == runs[2]

    def test_invalid_run_arguments_mirror_the_shared_contract(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1))
        with pytest.raises(ValueError, match="max_steps"):
            engine.run(-1)
        with pytest.raises(ValueError, match="check_interval"):
            engine.run(10, criterion=StableCircles(), check_interval=0)

    def test_observers_get_finish_but_no_deltas(self):
        events: list[str] = []

        class Probe(Observer):
            name = "probe"

            def on_start(self, engine):
                events.append("start")

            def on_delta(self, delta):  # pragma: no cover - must not fire
                events.append("delta")

            def on_finish(self, engine, converged):
                events.append(f"finish:{converged}")

        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1))
        engine.add_observer(Probe())
        engine.run(0, criterion=StableCircles())
        assert events == ["start", "finish:True"]

    def test_too_small_population_rejected(self):
        with pytest.raises(ValueError, match="two agents"):
            ExactMarkovEngine.from_colors(CirclesProtocol(2), (0,))

    def test_compiled_protocol_is_the_chains_table(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert engine.compiled_protocol is None  # no chain built yet
        engine.run(0)
        assert engine.compiled_protocol is not None
        assert engine.compiled_protocol is engine.chain.compiled

    def test_compiled_protocol_past_the_compile_cap_is_none(self, force_uncompiled):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 1))
        engine.run(0)
        assert engine.chain.compiled is None
        assert engine.compiled_protocol is None

    @pytest.mark.parametrize("colors", [(0, 0, 0, 1, 1), (0, 0, 1, 1)])
    def test_rational_analysis_reads_the_integer_weights(self, colors):
        """An exact run never builds the chain's ``Fraction`` probability views."""
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), colors, arithmetic="exact")
        engine.run(0, criterion=StableCircles())
        assert engine.distribution_result.expected_interactions > 0
        assert "rows" not in vars(engine.chain)
        assert "change_probability" not in vars(engine.chain)


class _Forgetful(dict):
    """A ``solved_visits`` memo that never keeps anything: every analysis solves."""

    def __setitem__(self, key, value):
        pass


class TestSharedSolve:
    """A hitting analysis over the absorption analysis's system reuses its solve."""

    @staticmethod
    def _run(monkeypatch, colors, *, share=True):
        solves = []

        def counting(rows, system, start, **kwargs):
            solves.append(len(system))
            return solve(rows, system, start, **kwargs)

        solve = absorption.solve_transient_systems
        monkeypatch.setattr(absorption, "solve_transient_systems", counting)
        k = max(colors) + 1
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(k), colors, arithmetic="exact")
        if not share:
            engine.chain.solved_visits = _Forgetful()
        engine.run(0, criterion=case_criterion("circles"))
        monkeypatch.setattr(absorption, "solve_transient_systems", solve)
        return solves, engine.distribution_result.to_dict()

    def test_golden_case_solves_once(self, monkeypatch):
        colors = (0, 0, 0, 1, 1)
        solves, result = self._run(monkeypatch, colors)
        assert solves == [10]
        unshared, unshared_result = self._run(monkeypatch, colors, share=False)
        assert unshared == [10, 10]
        assert result == unshared_result

    def test_tied_case_stays_at_one_solve(self, monkeypatch):
        colors = (0, 0, 1, 1, 2, 2)
        solves, result = self._run(monkeypatch, colors)
        assert solves == [156]
        assert result == self._run(monkeypatch, colors, share=False)[1]
        assert result["expected_interactions_exact"] == "335/14"
        assert (result["num_configurations"], result["num_orbits"]) == (560, 192)

    def test_memo_lives_on_the_chain(self):
        engine = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        engine.run(0, criterion=StableCircles())
        [(system, start)] = engine.chain.solved_visits
        assert start == engine.chain.initial_index and len(system) == 10
        other = ExactMarkovEngine.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        assert other.chain.solved_visits == {}


class TestRunnerIntegration:
    def test_run_protocol_exact_reports_distribution_semantics(self):
        result = run_protocol(ApproximateMajorityProtocol(2), [0, 0, 0, 1, 1], engine="exact")
        assert result.engine == "exact"
        assert result.converged  # consensus is almost sure for approximate majority
        # ... but correctness is not: P(all-0) < 1, so `correct` must be False
        # even though the modal outcome is the all-majority consensus.
        assert result.exact is not None
        assert 0 < result.exact["correctness_probability"] < 1
        assert result.correct is False
        assert result.outputs == (0, 0, 0, 0, 0)

    def test_run_protocol_exact_is_always_correct_for_circles(self):
        result = run_protocol(CirclesProtocol(2), [0, 0, 0, 1, 1], engine="exact")
        assert result.correct is True
        assert result.exact["correctness_probability"] == 1.0

    def test_run_circles_exact_omits_ket_exchanges(self):
        result = run_circles([0, 0, 0, 1, 1], engine="exact")
        assert result.ket_exchanges is None
        assert result.converged and result.correct
        assert math.isclose(result.steps, 20.5, rel_tol=1e-9)
        assert result.initial_energy is not None
        assert result.final_energy is not None

    def test_exact_engine_rejects_schedulers_and_traces(self):
        with pytest.raises(ValueError, match="scheduler"):
            from repro.scheduling.round_robin import RoundRobinScheduler

            run_protocol(
                CirclesProtocol(2),
                [0, 0, 1],
                engine="exact",
                scheduler=RoundRobinScheduler(3),
            )
        with pytest.raises(ValueError, match="trace"):
            run_protocol(CirclesProtocol(2), [0, 0, 1], engine="exact", observers=[TraceObserver()])


class TestSpecIntegration:
    def test_exact_record_round_trips_through_json(self):
        spec = RunSpec(protocol="circles", n=5, k=2, engine="exact", seed=7)
        record = execute_run(spec)
        assert record.engine == "exact"
        restored = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record
        result = restored.exact_result()
        assert isinstance(result, DistributionResult)
        assert result.num_classes >= 1
        assert restored.exact_result() == record.exact_result()

    def test_sampled_records_have_no_exact_result(self):
        spec = RunSpec(protocol="circles", n=5, k=2, engine="batch", seed=7)
        record = execute_run(spec)
        assert record.exact_result() is None

    def test_exact_runs_are_trial_deterministic(self):
        records = [
            execute_run(
                RunSpec(
                    protocol="circles", n=5, k=2, engine="exact",
                    seed=seed, workload_seed=5,
                )
            )
            for seed in (1, 2)
        ]
        # Different run seeds, same workload seed: identical analytical output.
        first, second = (record.extras["exact"] for record in records)
        assert first == second
