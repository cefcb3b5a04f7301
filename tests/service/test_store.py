"""Cache-correctness suite for the content-addressed result store (satellite).

The store's contract: identical specs are served from cache bit-identically,
*any* spec difference misses, and corruption is detected and recomputed —
never served.
"""

import json
from dataclasses import replace

import pytest

from repro.api.executor import SerialExecutor, SweepRunner, execute_run
from repro.api.records import RECORD_EPOCH, RunRecord
from repro.api.spec import RunSpec, SweepSpec, canonical_json, sha_of
from repro.service.store import ResultStore


def small_sweep(seed: int = 7, trials: int = 2) -> SweepSpec:
    return SweepSpec(
        protocols=("circles",),
        populations=(8, 12),
        ks=(2,),
        engines=("batch",),
        trials=trials,
        seed=seed,
        max_steps_quadratic=200,
    )


class CountingExecutor:
    """Serial execution that counts how many specs were actually simulated."""

    def __init__(self) -> None:
        self.executed = 0

    def map_groups(self, groups):
        self.executed += sum(len(group) for group in groups)
        return SerialExecutor().map_groups(groups)


class TestContentAddressing:
    def test_sha_is_deterministic_and_canonical(self):
        spec = RunSpec(protocol="circles", n=8, k=2, seed=3)
        assert spec.sha() == RunSpec.from_json(spec.to_json()).sha()
        assert spec.sha() == sha_of(spec.to_dict())
        assert len(spec.sha()) == 64

    def test_canonical_json_sorts_keys_recursively(self):
        a = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        b = canonical_json({"a": {"c": 3, "d": 2}, "b": 1})
        assert a == b

    @pytest.mark.parametrize(
        "variation",
        [
            {"seed": 999},
            {"workload_seed": 999},
            {"observers": ("energy",)},
            {"criterion": "silent"},
            {"engine": "batch"},
            {"n": 10},
            {"max_steps": 123},
        ],
    )
    def test_any_field_difference_changes_the_sha(self, variation):
        base = RunSpec(protocol="circles", n=8, k=2, seed=3)
        assert replace(base, **variation).sha() != base.sha()

    def test_sweep_sha_changes_with_any_axis(self):
        base = small_sweep()
        assert small_sweep(seed=8).sha() != base.sha()
        assert replace(base, trials=3).sha() != base.sha()


class TestCacheHits:
    def test_same_spec_twice_hits_the_cache_bit_identically(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        counting = CountingExecutor()
        cold = SweepRunner(store=store, executor=counting).run(sweep)
        assert counting.executed == len(sweep)

        warm = SweepRunner(store=store, executor=counting).run(sweep)
        assert counting.executed == len(sweep)  # nothing re-simulated
        assert warm.records == cold.records
        # Bit-identical, not merely equal: the canonical serializations match.
        assert [canonical_json(r.to_dict()) for r in warm.records] == [
            canonical_json(r.to_dict()) for r in cold.records
        ]
        assert store.hits == len(sweep)

    def test_cache_survives_process_restart(self, tmp_path):
        """A fresh store object over the same directory reloads the shards."""
        sweep = small_sweep()
        cold = SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        counting = CountingExecutor()
        warm = SweepRunner(store=ResultStore(tmp_path), executor=counting).run(sweep)
        assert counting.executed == 0
        assert warm.records == cold.records

    def test_differing_specs_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        base = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        store.put(base, execute_run(base))
        assert store.get(base) is not None
        for variation in ({"seed": 4}, {"observers": ("energy",)}, {"criterion": "silent"}):
            assert store.get(replace(base, **variation)) is None

    def test_get_returns_equal_record_not_same_object(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        record = execute_run(spec)
        store.put(spec, record)
        served = store.get(spec)
        assert served == record
        assert isinstance(served, RunRecord)


    def test_hits_are_decoded_once_at_shard_load(self, tmp_path, monkeypatch):
        sweep = small_sweep()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        decoded = []
        from_dict = RunRecord.from_dict.__func__
        monkeypatch.setattr(
            RunRecord,
            "from_dict",
            classmethod(lambda cls, data: decoded.append(1) or from_dict(cls, data)),
        )
        fresh = ResultStore(tmp_path)
        for _ in range(3):
            records = [fresh.get(spec) for spec in sweep.expand()]
        assert all(record is not None for record in records)
        assert len(decoded) == len(sweep)  # one decode per stored line
        assert fresh.hits == 3 * len(sweep)

    def test_shard_lines_keep_their_format_and_records_their_text(self, tmp_path):
        """A shard line is json.dumps of {sha, epoch, checksum, record}, and a
        served record's JSON text is that line's record, as written."""
        sweep = small_sweep()
        cold = SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        lines = [
            line
            for shard in sorted((tmp_path / "shards").glob("*.jsonl"))
            for line in shard.read_text().splitlines()
        ]
        assert len(lines) == len(sweep)
        for line in lines:
            entry = json.loads(line)
            assert list(entry) == ["sha", "epoch", "checksum", "record"]
            assert json.dumps(entry) == line
        fresh = ResultStore(tmp_path)
        for spec, record in zip(sweep.expand(), cold.records):
            served = fresh.get(spec)
            assert served.to_json() == json.dumps(record.to_dict())
            assert f'"record": {served.to_json()}}}' in "\n".join(lines)

    def test_lines_written_by_json_dumps_serve_without_recomputation(self, tmp_path):
        """A store whose lines were written as json.dumps of the entry dict
        (every earlier version's writer) is served as it is."""
        sweep = small_sweep()
        records = [execute_run(spec) for spec in sweep.expand()]
        shards = tmp_path / "shards"
        shards.mkdir()
        for spec, record in zip(sweep.expand(), records):
            entry = {
                "sha": spec.sha(),
                "epoch": RECORD_EPOCH,
                "checksum": ResultStore.record_checksum(record.to_dict()),
                "record": record.to_dict(),
            }
            with open(shards / f"{spec.sha()[:2]}.jsonl", "a") as handle:
                handle.write(json.dumps(entry) + "\n")
        store = ResultStore(tmp_path)
        counting = CountingExecutor()
        warm = SweepRunner(store=store, executor=counting).run(sweep)
        assert counting.executed == 0
        assert warm.records == records
        assert [r.to_json() for r in warm.records] == [
            json.dumps(r.to_dict()) for r in records
        ]
        assert (store.hits, store.misses, store.corrupt) == (len(sweep), 0, 0)


class TestCorruptionDetection:
    def _store_one(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        record = execute_run(spec)
        store.put(spec, record)
        return spec, record

    def _shard_file(self, tmp_path):
        [shard] = list((tmp_path / "shards").glob("*.jsonl"))
        return shard

    def test_bitflip_is_detected_and_recomputed_not_served(self, tmp_path):
        spec, record = self._store_one(tmp_path)
        shard = self._shard_file(tmp_path)
        text = shard.read_text()
        # Flip one digit inside the stored record payload: the line still
        # parses as JSON but no longer matches its checksum.
        corrupted = text.replace('"steps": ', '"steps": 9', 1)
        assert corrupted != text
        shard.write_text(corrupted)

        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None  # a miss, not a wrong record
        assert fresh.corrupt == 1

        # The runner recomputes and the recomputed record matches the original.
        recomputed = execute_run(spec)
        fresh.put(spec, recomputed)
        assert fresh.get(spec) == record

    def test_torn_final_line_is_skipped(self, tmp_path):
        spec, _record = self._store_one(tmp_path)
        shard = self._shard_file(tmp_path)
        text = shard.read_text()
        shard.write_text(text[: len(text) // 2])  # crash mid-append

        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        assert fresh.corrupt == 1

    def test_undecodable_record_with_valid_checksum_is_recomputed(self, tmp_path):
        """A line that passes its checksum but is not a record this version
        can build (here: an unknown field) is corrupt, not a crash."""
        sweep = small_sweep(trials=1)
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        shard = sorted((tmp_path / "shards").glob("*.jsonl"))[0]
        entries = [json.loads(line) for line in shard.read_text().splitlines()]
        entries[0]["record"]["future_field"] = 1
        entries[0]["checksum"] = ResultStore.record_checksum(entries[0]["record"])
        shard.write_text("".join(json.dumps(entry) + "\n" for entry in entries))

        fresh = ResultStore(tmp_path)
        counting = CountingExecutor()
        result = SweepRunner(store=fresh, executor=counting).run(sweep)
        assert counting.executed == 1
        assert fresh.corrupt == 1
        assert result.records == [execute_run(spec) for spec in sweep.expand()]

    def test_line_filed_under_another_specs_sha_is_corrupt(self, tmp_path):
        """A line whose checksum holds but whose sha names another spec is
        never served — not by get, not by a warm sweep — and is recomputed."""
        sweep = small_sweep()
        reference = SweepRunner(store=ResultStore(tmp_path)).run(sweep).records
        first, second = sweep.expand()[:2]
        # Replace the second run's line with the first run's record filed
        # under the second run's sha: a valid checksum, the wrong spec.
        source = tmp_path / "shards" / f"{first.sha()[:2]}.jsonl"
        [line] = [
            line for line in source.read_text().splitlines()
            if json.loads(line)["sha"] == first.sha()
        ]
        misfiled = json.loads(line)
        misfiled["sha"] = second.sha()
        shard = tmp_path / "shards" / f"{second.sha()[:2]}.jsonl"
        kept = [
            line for line in shard.read_text().splitlines()
            if json.loads(line)["sha"] != second.sha()
        ]
        shard.write_text("".join(line + "\n" for line in [*kept, json.dumps(misfiled)]))

        fresh = ResultStore(tmp_path)
        assert fresh.get(second) is None
        assert fresh.corrupt == 1

        fresh = ResultStore(tmp_path)
        counting = CountingExecutor()
        events = list(SweepRunner(store=fresh, executor=counting).run_iter(sweep))
        assert counting.executed == 1
        assert fresh.corrupt == 1
        assert {index for index, _record, cached in events if not cached} == {1}
        assert [record for _index, record, _cached in sorted(events, key=lambda e: e[0])] == (
            reference
        )

    def test_put_refuses_a_record_of_another_spec(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        record = execute_run(spec)
        with pytest.raises(ValueError, match="cannot be stored"):
            store.put(replace(spec, seed=4), record)
        assert list((tmp_path / "shards").glob("*.jsonl")) == []
        assert store.loaded == 0

    def test_garbage_shard_lines_are_counted_and_ignored(self, tmp_path):
        spec, record = self._store_one(tmp_path)
        shard = self._shard_file(tmp_path)
        shard.write_text("not json at all\n" + shard.read_text())

        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) == record  # the valid line still serves
        assert fresh.corrupt == 1


class TestStoreStats:
    def test_hit_rate_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        assert store.hit_rate is None
        assert store.get(spec) is None
        store.put(spec, execute_run(spec))
        assert store.get(spec) is not None
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["loaded"] == 1
        assert stats["hit_rate"] == 0.5
        assert spec in store


class TestRecordEpoch:
    """Lines of another engine generation are recomputed, never served."""

    def _shard_entries(self, tmp_path):
        [shard] = list((tmp_path / "shards").glob("*.jsonl"))
        return [json.loads(line) for line in shard.read_text().splitlines()]

    def test_current_epoch_line_is_served(self, tmp_path):
        spec = RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=3, max_steps=2_000)
        record = execute_run(spec)
        ResultStore(tmp_path).put(spec, record)
        [entry] = self._shard_entries(tmp_path)
        assert entry["epoch"] == RECORD_EPOCH

        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) == record
        assert (fresh.stale, fresh.corrupt) == (0, 0)

    @pytest.mark.parametrize("epoch", [None, RECORD_EPOCH - 1])
    def test_epochless_or_foreign_line_is_recomputed(self, tmp_path, epoch):
        sweep = small_sweep(trials=1)
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        for shard in (tmp_path / "shards").glob("*.jsonl"):
            entries = [json.loads(line) for line in shard.read_text().splitlines()]
            for entry in entries:
                if epoch is None:
                    del entry["epoch"]
                else:
                    entry["epoch"] = epoch
            shard.write_text("".join(json.dumps(entry) + "\n" for entry in entries))

        fresh = ResultStore(tmp_path)
        counting = CountingExecutor()
        result = SweepRunner(store=fresh, executor=counting).run(sweep)
        assert counting.executed == len(sweep)
        assert fresh.stale == len(sweep) and fresh.corrupt == 0
        assert result.records == [execute_run(spec) for spec in sweep.expand()]

    def test_epoch_one_exact_record_is_stale_and_recomputed(self, tmp_path):
        # Epoch 2 moved the exact engine's float solve to block-by-block
        # order; an epoch-1 exact record may differ in the last bits.
        sweep = SweepSpec(
            protocols=("circles",), populations=(6,), ks=(3,), engines=("exact",),
            trials=1, seed=5, max_steps_quadratic=200,
        )
        [spec] = sweep.expand()
        record = execute_run(spec)
        assert "exact" in record.extras
        ResultStore(tmp_path).put(spec, record)
        [shard] = list((tmp_path / "shards").glob("*.jsonl"))
        [entry] = [json.loads(line) for line in shard.read_text().splitlines()]
        entry["epoch"] = 1
        shard.write_text(json.dumps(entry) + "\n")

        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        assert (fresh.stale, fresh.corrupt) == (1, 0)
        counting = CountingExecutor()
        result = SweepRunner(store=fresh, executor=counting).run(sweep)
        assert counting.executed == 1
        assert result.records == [record]
        assert ResultStore(tmp_path).get(spec) == record

    def test_epoch_two_circles_record_with_explicit_criterion_is_recomputed(self, tmp_path):
        # Epoch 3 gave Circles runs with an explicit criterion the ket and
        # energy bookkeeping; an epoch-2 line of such a spec lacks it.
        sweep = SweepSpec(
            protocols=("circles",), populations=(8,), ks=(2,), engines=("batch",),
            criterion="silent", trials=1, seed=5, max_steps_quadratic=200,
        )
        [spec] = sweep.expand()
        epoch_two = replace(
            execute_run(spec), ket_exchanges=None, initial_energy=None, final_energy=None
        )
        ResultStore(tmp_path).put(spec, epoch_two)
        [entry] = self._shard_entries(tmp_path)
        entry["epoch"] = 2
        [shard] = list((tmp_path / "shards").glob("*.jsonl"))
        shard.write_text(json.dumps(entry) + "\n")

        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        assert (fresh.stale, fresh.corrupt) == (1, 0)
        counting = CountingExecutor()
        [record] = SweepRunner(store=fresh, executor=counting).run(sweep).records
        assert counting.executed == 1
        assert record.ket_exchanges is not None
        assert record.initial_energy is not None and record.final_energy is not None
        assert ResultStore(tmp_path).get(spec) == record
