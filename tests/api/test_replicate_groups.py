"""Replicate-group routing: sweep trials through the vector engine, unchanged.

The promise the routing makes: a sweep executed in units — replicate groups
and single runs — is *record-for-record identical* to the same sweep
executed one spec at a time through ``execute_run`` —
same seeds, same trajectories, same JSON — so the result store, the manifest,
and every downstream consumer cannot tell the difference.  These tests pin
the grouping key, the eligibility gate, the identity across executors and
the composition with the content-addressed store.
"""

from dataclasses import replace

import pytest

from repro.api.executor import (
    SweepRunner,
    _replicate_groupable,
    execute_replicate_group,
    execute_run,
    replicate_group_key,
    run_sweep,
)
from repro.api.spec import SweepSpec
from repro.api.stopping import StoppingRule
from repro.service.store import ResultStore


def circles_sweep(**overrides) -> SweepSpec:
    params = dict(
        protocols=("circles",),
        populations=(48,),
        ks=(3,),
        engines=("batch",),
        trials=5,
        seed=13,
    )
    params.update(overrides)
    return SweepSpec(**params)


class TestGroupingKey:
    def test_key_ignores_only_the_run_seed(self):
        specs = circles_sweep().expand()
        keys = {replicate_group_key(spec) for spec in specs}
        assert len(keys) == 1
        other_n = circles_sweep(populations=(64,)).expand()[0]
        assert replicate_group_key(other_n) not in keys

    def test_expanded_trial_seeds_are_pairwise_distinct(self):
        """The SHA-derived per-trial seeds the lockstep rows rely on."""
        specs = circles_sweep(trials=512).expand()
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_eligibility_gate(self):
        base = circles_sweep().expand()[0]
        assert _replicate_groupable(base)
        assert _replicate_groupable(replace(base, engine="vector"))
        # Engines without lockstep support, schedulers, observers, missing
        # seeds and floating workloads all fall back to per-spec execution.
        assert not _replicate_groupable(replace(base, engine="agent"))
        assert not _replicate_groupable(replace(base, engine="exact"))
        assert not _replicate_groupable(replace(base, scheduler="round-robin"))
        assert not _replicate_groupable(replace(base, observers=("energy",)))
        assert not _replicate_groupable(replace(base, seed=None, workload_seed=7))
        assert not _replicate_groupable(replace(base, workload_seed=None))


class TestExecuteReplicateGroup:
    def test_records_identical_to_serial_execution(self):
        specs = circles_sweep().expand()
        assert execute_replicate_group(specs) == [execute_run(spec) for spec in specs]

    def test_explicit_criterion_branch(self):
        specs = circles_sweep(criterion="silent", trials=3).expand()
        records = execute_replicate_group(specs)
        assert records == [execute_run(spec) for spec in specs]
        # The Circles bookkeeping rides with the protocol, whatever the criterion.
        assert all(record.ket_exchanges is not None for record in records)
        assert all(record.final_energy is not None for record in records)

    def test_invalid_protocol_params_rejected_like_execute_run(self):
        sweep = circles_sweep(protocols=(("circles", {"bogus": 1}),), trials=3)
        specs = sweep.expand()
        with pytest.raises(TypeError, match="bogus"):
            execute_run(specs[0])
        with pytest.raises(TypeError, match="bogus"):
            execute_replicate_group(specs)
        with pytest.raises(TypeError, match="bogus"):
            run_sweep(sweep)

    def test_invalid_color_rejected_like_execute_run(self, monkeypatch):
        """Counts-first set-up raises the input map's error for the same color."""
        monkeypatch.setattr(
            "repro.api.executor.resolve_workload", lambda spec: [0, 1, 7, 1, 0, 9]
        )
        specs = circles_sweep(trials=3).expand()
        with pytest.raises(ValueError, match="color 7 out of range"):
            execute_run(specs[0])
        with pytest.raises(ValueError, match="color 7 out of range"):
            execute_replicate_group(specs)

    def test_single_agent_errors_unchanged(self, monkeypatch):
        monkeypatch.setattr("repro.api.executor.resolve_workload", lambda spec: [1])
        specs = circles_sweep(trials=3).expand()
        with pytest.raises(ValueError, match="at least two input colors"):
            execute_run(specs[0])
        with pytest.raises(ValueError, match="a population needs at least two agents"):
            execute_replicate_group(specs)

    def test_ineligible_specs_fall_back_per_spec(self):
        specs = circles_sweep(engines=("agent",), trials=2).expand()
        assert execute_replicate_group(specs) == [execute_run(spec) for spec in specs]

    def test_mixed_groups_rejected(self):
        a = circles_sweep().expand()[0]
        b = circles_sweep(populations=(64,)).expand()[0]
        with pytest.raises(ValueError, match="identical up to the run seed"):
            execute_replicate_group([a, b])

    def test_duplicate_seeds_rejected(self):
        spec = circles_sweep().expand()[0]
        with pytest.raises(ValueError, match="pairwise distinct"):
            execute_replicate_group([spec, replace(spec), spec])

    def test_empty_group(self):
        assert execute_replicate_group([]) == []


class TestSweepRunnerRouting:
    def test_vectorized_sweep_equals_per_spec_sweep(self, per_spec_sweep):
        sweep = circles_sweep()
        assert run_sweep(sweep).records == per_spec_sweep(sweep).records

    def test_multiprocessing_executor_routes_groups(self, per_spec_sweep):
        sweep = circles_sweep(trials=4)
        assert run_sweep(sweep, workers=2).records == per_spec_sweep(sweep).records

    def test_run_iter_yields_every_index_once(self):
        sweep = circles_sweep(trials=4, populations=(32, 48))
        runner = SweepRunner()
        seen = sorted(index for index, _record, _cached in runner.run_iter(sweep))
        assert seen == list(range(len(sweep.expand())))

    def test_duplicate_specs_become_singletons_not_errors(self):
        """A sweep hand-built with repeated identical specs must still run."""
        spec = circles_sweep().expand()[0]
        runner = SweepRunner()
        units = runner._units([spec, spec, spec], [0, 1, 2])
        assert sorted(len(unit) for unit in units) == [1, 1, 1]

    def test_partially_cached_group_executes_only_the_remainder(self, tmp_path):
        sweep = circles_sweep(trials=5)
        specs = sweep.expand()
        reference = [execute_run(spec) for spec in specs]
        cache = ResultStore(tmp_path)
        cache.put(specs[1], reference[1])
        cache.put(specs[3], reference[3])
        runner = SweepRunner(store=cache)
        cached_flags = {}
        records = [None] * len(specs)
        for index, record, cached in runner.run_iter(sweep):
            cached_flags[index] = cached
            records[index] = record
        assert records == reference
        assert cached_flags == {0: False, 1: True, 2: False, 3: True, 4: False}


def mixed_sweep(adaptive: bool) -> SweepSpec:
    """Groupable cells (batch and vector engines, several trials) beside
    ungroupable ones (the agent engine), fixed or adaptive."""
    stopping = StoppingRule(metric="correct", proportion=True, target_half_width=0.3,
                            min_trials=2, batch_size=2, max_trials=6)
    return SweepSpec(
        protocols=("circles",),
        populations=(8, 12),
        ks=(2,),
        engines=("batch", "vector", "agent"),
        trials="auto" if adaptive else 3,
        stopping=stopping if adaptive else None,
        seed=59,
        max_steps_quadratic=200,
    )


class TestMixedUnits:
    """One execution unit: groups and units of one through every executor,
    with and without a store, equal per-spec ``execute_run``."""

    @pytest.fixture(scope="class")
    def references(self, per_spec_sweep):
        return {adaptive: per_spec_sweep(mixed_sweep(adaptive)) for adaptive in (False, True)}

    def test_the_sweep_mixes_groups_and_single_runs(self):
        specs = mixed_sweep(False).expand()
        sizes = sorted(len(unit) for unit in SweepRunner()._units(specs, list(range(len(specs)))))
        assert sizes == [1] * 6 + [3] * 4

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "auto"])
    @pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize(
        "executor, workers",
        [("serial", None), ("multiprocessing", 2), ("asyncio", 2)],
        ids=["serial", "multiprocessing", "asyncio"],
    )
    def test_records_equal_per_spec_execution(
        self, references, tmp_path, executor, workers, stored, adaptive
    ):
        sweep = mixed_sweep(adaptive)
        store = ResultStore(tmp_path) if stored else None
        result = SweepRunner(workers=workers, executor=executor, store=store).run(sweep)
        reference = references[adaptive]
        assert result.records == reference.records
        assert result.extras == reference.extras
        if stored:
            assert store.loaded == len(reference.records)
