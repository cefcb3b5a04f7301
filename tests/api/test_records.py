"""Tests for RunRecord/SweepResult: snapshots and lossless persistence."""

import pytest

from repro.api.executor import execute_run, resolve_workload, run_sweep
from repro.api.records import RunRecord, SweepResult
from repro.api.spec import RunSpec, SweepSpec
from repro.simulation.runner import run_circles


class TestRunRecord:
    def test_record_snapshots_the_run(self):
        spec = RunSpec(protocol="circles", n=8, k=2, seed=3, engine="batch")
        record = execute_run(spec)
        result = run_circles(resolve_workload(spec), num_colors=2, seed=3, engine="batch")
        assert record.spec is spec
        assert record.seed == 3
        assert record.engine == "batch"
        assert record.protocol_name == "circles"
        assert (record.steps, record.converged, record.correct, record.unanimous) == (
            result.steps, result.converged, result.correct, result.unanimous
        )
        assert (record.ket_exchanges, record.initial_energy, record.final_energy) == (
            result.ket_exchanges, result.initial_energy, result.final_energy
        )

    def test_record_is_json_native(self):
        record = execute_run(RunSpec(protocol="circles", n=8, k=2, seed=3, engine="batch"))
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_summary_inlines_extras(self):
        record = execute_run(RunSpec(protocol="circles", n=8, k=2, seed=3))
        summary = record.summary()
        assert summary["protocol"] == "circles"
        assert summary["workload"] == "planted-majority"
        assert summary["engine"] == "agent"
        assert summary["seed"] == 3


    def test_empty_extras_are_one_shared_read_only_dict(self):
        first = execute_run(RunSpec(protocol="circles", n=8, k=2, seed=3))
        second = RunRecord.from_dict(first.to_dict())
        assert first.extras == {} and first.extras is second.extras
        with pytest.raises(TypeError):
            first.extras["key"] = 1
        assert second.to_dict()["extras"] == {}
        second.to_dict()["extras"]["key"] = 1
        assert first.extras == {}


class TestSweepResultPersistence:
    def test_json_round_trip_is_lossless(self):
        sweep = SweepSpec(
            protocols=("circles", "cancellation-plurality"),
            populations=(8,),
            ks=(3,),
            engines=("batch",),
            trials=2,
            seed=11,
            max_steps_quadratic=200,
        )
        result = run_sweep(sweep)
        restored = SweepResult.from_json(result.to_json())
        assert restored.spec == result.spec
        assert restored.records == result.records  # record-for-record

    def test_round_trip_through_indented_json(self):
        sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), seed=1,
                          engines=("batch",), max_steps_quadratic=200)
        result = run_sweep(sweep)
        assert SweepResult.from_json(result.to_json(indent=2)).records == result.records

    def test_restored_records_are_analyzable(self):
        sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), trials=3,
                          seed=4, engines=("batch",), max_steps_quadratic=200)
        restored = SweepResult.from_json(run_sweep(sweep).to_json())
        rows = restored.aggregate(value="steps", by=("protocol", "n"), stats=("mean", "max"))
        assert rows[0]["trials"] == 3
        assert rows[0]["mean_steps"] <= rows[0]["max_steps"]

    def test_restored_spec_re_expands_to_the_same_runs(self):
        # A persisted SweepResult is re-runnable: the spec round-trips and its
        # expansion (including every derived seed) is unchanged.
        sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2,), trials=2,
                          seed=9, engines=("batch",), max_steps_quadratic=200)
        result = run_sweep(sweep)
        restored = SweepResult.from_json(result.to_json())
        assert restored.spec.expand() == [record.spec for record in result.records]
