"""Adaptive (``trials="auto"``) sweeps: stopping rules, seed discipline,
prefix identity with fixed sweeps, and executor/vectorization agreement."""

import dataclasses
import json

import pytest

from repro.api.executor import SweepRunner, exact_anchor_value, register_runner, run_sweep
from repro.api.records import SweepResult
from repro.api.spec import RunSpec, SweepSpec
from repro.api.stopping import STOP_REASONS, StopDecision, StoppingRule


def adaptive_rule(**overrides) -> StoppingRule:
    """A rule every all-correct cell satisfies at 4 trials.

    The Wilson half-width at p̂=1 is ≈0.329 for 2 trials and ≈0.245 for 4,
    so with a 0.3 target the first checkpoint keeps sampling and the second
    stops — the sweep genuinely iterates, yet stays cheap.
    """
    params = dict(
        metric="correct",
        proportion=True,
        target_half_width=0.3,
        min_trials=2,
        batch_size=2,
        max_trials=8,
    )
    params.update(overrides)
    return StoppingRule(**params)


def adaptive_sweep(**overrides) -> SweepSpec:
    params = dict(
        name="adaptive-demo",
        protocols=("circles",),
        populations=(8, 10),
        ks=(2,),
        workloads=("planted-majority",),
        engines=("batch",),
        trials="auto",
        stopping=adaptive_rule(),
        seed=101,
        max_steps_quadratic=200,
    )
    params.update(overrides)
    return SweepSpec(**params)


class TestSpecValidation:
    def test_trials_accepts_auto_and_positive_ints_only(self):
        assert adaptive_sweep().is_adaptive
        with pytest.raises(ValueError):
            adaptive_sweep(trials="adaptive")
        with pytest.raises(ValueError):
            adaptive_sweep(trials=0, stopping=None)

    def test_stopping_requires_adaptive_trials(self):
        with pytest.raises(ValueError):
            SweepSpec(
                protocols=("circles",), populations=(8,), ks=(2,),
                trials=3, stopping=adaptive_rule(),
            )

    def test_stopping_dict_is_normalized_and_defaulted(self):
        from_dict = adaptive_sweep(stopping={"metric": "correct", "min_trials": 2})
        assert isinstance(from_dict.stopping_rule, StoppingRule)
        assert from_dict.stopping_rule.min_trials == 2
        defaulted = adaptive_sweep(stopping=None)
        assert defaulted.stopping_rule == StoppingRule()

    def test_expand_refuses_adaptive_sweeps(self):
        with pytest.raises(ValueError, match="auto"):
            adaptive_sweep().expand()

    def test_len_is_the_max_trials_budget(self):
        sweep = adaptive_sweep()
        assert len(sweep) == sweep.num_cells() * adaptive_rule().max_trials

    def test_sweep_spec_json_round_trip(self):
        sweep = adaptive_sweep()
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert rebuilt == sweep
        assert rebuilt.stopping_rule == sweep.stopping_rule


class TestStoppingRule:
    def test_json_round_trip(self):
        rule = adaptive_rule(exact_anchor=True, relative=True)
        rebuilt = StoppingRule.from_dict(json.loads(json.dumps(rule.to_dict())))
        assert rebuilt == rule

    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(metric="")
        with pytest.raises(ValueError):
            StoppingRule(target_half_width=0.0)
        with pytest.raises(ValueError):
            StoppingRule(confidence=1.0)
        with pytest.raises(ValueError):
            StoppingRule(min_trials=0)
        with pytest.raises(ValueError):
            StoppingRule(min_trials=8, max_trials=4)
        with pytest.raises(ValueError):
            StoppingRule(batch_size=0)

    def test_checkpoint_schedule(self):
        rule = StoppingRule(min_trials=3, batch_size=4, max_trials=12)
        assert rule.checkpoints() == [3, 7, 11, 12]
        assert rule.next_target(0) == 3
        assert rule.next_target(11) == 12
        assert rule.next_target(12) == 12

    def test_evaluate_never_stops_before_min_trials(self):
        assert adaptive_rule().evaluate([1.0]) is None

    def test_evaluate_half_width_and_cap(self):
        rule = adaptive_rule()
        stop = rule.evaluate([1.0] * 4)
        assert isinstance(stop, StopDecision)
        assert stop.reason == "half-width" and stop.trials == 4
        assert stop.ci_low <= stop.mean <= stop.ci_high
        # A half-correct cell never reaches the 0.3 target within 8 trials.
        assert rule.evaluate([1.0, 0.0] * 2) is None
        # Against a 0.1 target even the full budget stays too wide: the cap
        # fires instead.
        capped = adaptive_rule(target_half_width=0.1).evaluate([1.0, 0.0] * 4)
        assert capped is not None and capped.reason == "max-trials"
        assert set(STOP_REASONS) >= {stop.reason, capped.reason}

    def test_evaluate_anchor_inside_interval_wins(self):
        rule = adaptive_rule(exact_anchor=True, min_trials=2)
        anchored = rule.evaluate([1.0, 1.0], anchor=1.0)
        assert anchored is not None and anchored.reason == "exact-anchor"
        # An anchor outside the interval changes nothing.
        assert rule.evaluate([1.0, 1.0], anchor=0.1) is None

    def test_relative_target(self):
        rule = StoppingRule(
            metric="steps", relative=True, target_half_width=0.5,
            min_trials=2, batch_size=2, max_trials=8, proportion=False,
        )
        # Half-width 5 against mean 100: well within ±50%.
        stop = rule.evaluate([95.0, 105.0])
        assert stop is not None and stop.reason == "half-width"


class TestSeedDiscipline:
    def test_grown_trial_seeds_are_pairwise_distinct(self):
        """512 seeds across 4 cells × 128 grown trials never collide."""
        sweep = adaptive_sweep(
            populations=(8, 16), ks=(2, 3),
            stopping=adaptive_rule(max_trials=128),
        )
        cells = sweep.expand_cells()
        assert len(cells) == 4
        seeds = [cell.trial_seed(trial) for cell in cells for trial in range(128)]
        assert len(seeds) == 512
        assert len(set(seeds)) == 512

    def test_first_trials_match_the_fixed_expansion(self):
        """Prefix identity: an auto cell's first B specs are exactly the
        specs of the same sweep with ``trials=B``."""
        sweep = adaptive_sweep()
        fixed = dataclasses.replace(sweep, trials=4, stopping=None)
        auto_prefix = [
            cell.spec(trial)
            for cell in sweep.expand_cells()
            for trial in range(4)
        ]
        assert auto_prefix == fixed.expand()


class TestAdaptiveExecution:
    def test_stops_early_and_reports_diagnostics(self):
        sweep = adaptive_sweep()
        result = run_sweep(sweep)
        budget = len(sweep)
        assert len(result.records) < budget  # early stop actually saved trials
        stopping = result.extras["stopping"]
        assert len(stopping) == sweep.num_cells()
        for entry in stopping:
            assert entry["reason"] in STOP_REASONS
            assert entry["trials"] == 4  # all-correct cells stop at 4 (0.245 <= 0.3)
            assert entry["ci_low"] <= entry["mean"] <= entry["ci_high"]
        assert sum(entry["trials"] for entry in stopping) == len(result.records)

    def test_records_are_prefix_identical_to_fixed_sweep(self):
        sweep = adaptive_sweep()
        auto = run_sweep(sweep)
        fixed = run_sweep(dataclasses.replace(sweep, trials=4, stopping=None))
        assert auto.records == fixed.records

    def test_rerun_is_bit_identical_and_run_iter_agrees(self):
        sweep = adaptive_sweep()
        runner = SweepRunner()
        first = runner.run(sweep)
        second = SweepRunner().run(sweep)
        assert first.to_dict() == second.to_dict()

        # run_iter streams round-major (every active cell's batch per round);
        # sorted by global index it is exactly run()'s cell-major record list.
        streaming = SweepRunner()
        events = list(streaming.run_iter(sweep))
        by_index = {index: record for index, record, _cached in events}
        assert [by_index[index] for index in sorted(by_index)] == first.records
        assert streaming.last_stopping == first.extras["stopping"]
        max_trials = adaptive_rule().max_trials
        assert sorted(by_index) == [
            cell * max_trials + trial
            for cell in range(sweep.num_cells())
            for trial in range(4)
        ]

    @pytest.mark.parametrize("executor", ["multiprocessing", "asyncio"])
    def test_executors_agree_record_for_record(self, executor):
        sweep = adaptive_sweep()
        serial = SweepRunner().run(sweep)
        other = SweepRunner(executor=executor, workers=2).run(sweep)
        assert other.records == serial.records
        assert other.extras == serial.extras

    def test_per_spec_execution_is_record_identical(self, per_spec_sweep):
        sweep = adaptive_sweep()
        assert SweepRunner().run(sweep).to_dict() == per_spec_sweep(sweep).to_dict()

    def test_unknown_metric_fails_loudly(self):
        sweep = adaptive_sweep(stopping=adaptive_rule(metric="no-such-field"))
        with pytest.raises(KeyError, match="no-such-field"):
            run_sweep(sweep)

    def test_sweep_result_extras_round_trip(self):
        result = run_sweep(adaptive_sweep())
        rebuilt = SweepResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.extras == result.extras
        assert rebuilt.records == result.records


class TestExactAnchor:
    def test_anchor_stop_on_solvable_cells(self):
        """Tiny cells with exact_anchor stop at min_trials: the analytical
        P(correct)=1 sits inside the wide 2-trial Wilson interval."""
        sweep = adaptive_sweep(
            populations=(6,),
            stopping=adaptive_rule(exact_anchor=True),
        )
        result = run_sweep(sweep)
        (entry,) = result.extras["stopping"]
        assert entry["reason"] == "exact-anchor"
        assert entry["trials"] == 2

    def test_anchor_value_gates(self):
        spec = RunSpec(protocol="circles", n=6, k=2, seed=1, workload_seed=3)
        probability = exact_anchor_value(spec, "correct")
        assert probability is not None and 0.0 <= probability <= 1.0
        # Metrics without an analytical counterpart never anchor.
        assert exact_anchor_value(spec, "ket_exchanges") is None
        # Nor do custom runners or non-uniform schedulers.
        def toy_runner(spec: RunSpec):
            raise AssertionError("an anchor never executes a run")

        register_runner("anchor-toy", toy_runner, overwrite=True)
        custom = dataclasses.replace(spec, runner="anchor-toy")
        assert exact_anchor_value(custom, "correct") is None
        scheduled = dataclasses.replace(spec, engine="agent", scheduler="round-robin")
        assert exact_anchor_value(scheduled, "correct") is None

    def test_anchor_expected_steps(self):
        spec = RunSpec(protocol="circles", n=5, k=2, seed=1, workload_seed=3)
        expected = exact_anchor_value(spec, "steps")
        assert expected is not None and expected > 0.0

    def test_both_anchors_share_one_solve_cap(self):
        # E6's approximate-majority k=2 n=64 planted-majority cell: its
        # transient system has 2142 states, and its largest strongly
        # connected component 2016 — past the 1500-state component cap.
        # Both metrics hit the same cap, so neither anchors (the expected
        # steps once did, under a separate, larger whole-system cap).
        from repro.api.executor import EXACT_ANCHOR_MAX_CONFIGURATIONS, resolve_workload
        from repro.exact import SolveTooLarge, exact_expected_convergence
        from repro.experiments.e6_convergence import sweep_specs
        from repro.protocols.registry import get_protocol
        from repro.simulation.convergence import OutputConsensus

        [sweep] = sweep_specs(populations=(64,), ks=(2,))
        [cell] = [c for c in sweep.expand_cells() if c.protocol == "approximate-majority"]
        spec = cell.spec(0)
        assert exact_anchor_value(spec, "correct") is None
        assert exact_anchor_value(spec, "steps") is None
        with pytest.raises(SolveTooLarge, match="2016 states"):
            exact_expected_convergence(
                get_protocol("approximate-majority", 2),
                resolve_workload(spec),
                OutputConsensus(),
                max_configurations=EXACT_ANCHOR_MAX_CONFIGURATIONS,
            )
