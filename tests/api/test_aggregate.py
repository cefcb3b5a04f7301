"""Tests for the groupby/aggregate helpers."""

import pytest

from repro.analysis.statistics import summarize
from repro.api.aggregate import aggregate_records, group_records, record_value
from repro.api.records import RunRecord
from repro.api.spec import RunSpec


def _record(protocol="circles", n=8, k=2, steps=100, correct=True, extras=None):
    return RunRecord(
        spec=RunSpec(protocol=protocol, n=n, k=k, seed=1),
        protocol_name=protocol,
        num_colors=k,
        scheduler_name="uniform-random",
        converged=True,
        correct=correct,
        steps=steps,
        interactions_changed=steps // 2,
        extras=dict(extras or {}),
    )


class TestRecordValue:
    def test_aliases_and_fields(self):
        record = _record(extras={"custom": 9})
        assert record_value(record, "protocol") == "circles"
        assert record_value(record, "n") == 8
        assert record_value(record, "k") == 2
        assert record_value(record, "scheduler") == "uniform-random"
        assert record_value(record, "workload") == "planted-majority"
        assert record_value(record, "custom") == 9

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            record_value(_record(), "nope")


class TestGroupRecords:
    def test_groups_preserve_first_seen_order(self):
        records = [
            _record(protocol="b", steps=1),
            _record(protocol="a", steps=2),
            _record(protocol="b", steps=3),
        ]
        groups = group_records(records, ("protocol",))
        assert list(groups) == [("b",), ("a",)]
        assert [r.steps for r in groups[("b",)]] == [1, 3]


class TestAggregateRecords:
    def test_mean_median_quantiles(self):
        records = [_record(steps=s) for s in (100, 200, 300, 400)]
        rows = aggregate_records(
            records, value="steps", by=("protocol",), stats=("mean", "median", "min", "max", "q25")
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["protocol"] == "circles"
        assert row["trials"] == 4
        assert row["mean_steps"] == 250.0
        assert row["median_steps"] == 250.0
        assert row["min_steps"] == 100.0
        assert row["max_steps"] == 400.0
        assert 100.0 <= row["q25_steps"] <= 250.0

    def test_correct_counts_per_group(self):
        records = [_record(correct=True), _record(correct=False), _record(correct=True)]
        row = aggregate_records(records, by=("protocol", "n", "k"), stats=("count",))[0]
        assert row["correct"] == 2
        assert row["count_steps"] == 3

    def test_quantiles_match_summarize(self):
        """One quantile implementation: a row's median and q90 are summarize()'s."""
        steps = (913, 17, 404, 58, 2_711, 120, 333)
        records = [_record(steps=s) for s in steps] + [_record(protocol="other", steps=5)]
        row = aggregate_records(records, by=("protocol",), stats=("median", "q90"))[0]
        stats = summarize([float(s) for s in steps])
        assert row["trials"] == len(steps)
        assert row["median_steps"] == stats.median
        assert row["q90_steps"] == stats.p90

    def test_single_value_quantile(self):
        row = aggregate_records([_record(steps=42)], by=("protocol",), stats=("q90",))[0]
        assert row["q90_steps"] == 42.0

    def test_unknown_stat_and_bad_quantile(self):
        with pytest.raises(ValueError):
            aggregate_records([_record()], stats=("variance",))
        with pytest.raises(ValueError):
            aggregate_records([_record(), _record()], stats=("q0",))

    def test_aggregate_over_extras(self):
        records = [_record(extras={"steps_to_stable": 10}), _record(extras={"steps_to_stable": 30})]
        row = aggregate_records(records, value="steps_to_stable", by=("protocol",), stats=("mean",))[0]
        assert row["mean_steps_to_stable"] == 20.0
