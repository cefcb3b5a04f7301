"""Kill-and-resume integration (satellite): a sweep interrupted mid-flight and
restarted from its manifest finishes only the remainder, and the merged
result is record-identical to an uninterrupted run."""

import dataclasses
import json

import pytest

from repro.api.executor import SerialExecutor, SweepRunner
from repro.api.records import RECORD_EPOCH
from repro.api.spec import SweepSpec, sha_of
from repro.api.stopping import StoppingRule
from repro.service.store import ResultStore


def sweep_spec() -> SweepSpec:
    return SweepSpec(
        name="resume-demo",
        protocols=("circles",),
        populations=(8, 10, 12),
        ks=(2,),
        engines=("batch",),
        trials=2,
        seed=17,
        max_steps_quadratic=200,
    )


def adaptive_sweep_spec() -> SweepSpec:
    """Two all-correct cells that stop at 4 trials each (Wilson half-width
    at p̂=1 is ≈0.329 after 2 trials, ≈0.245 ≤ 0.3 after 4)."""
    return SweepSpec(
        name="resume-adaptive-demo",
        protocols=("circles",),
        populations=(8, 10),
        ks=(2,),
        engines=("batch",),
        trials="auto",
        stopping=StoppingRule(
            metric="correct",
            proportion=True,
            target_half_width=0.3,
            min_trials=2,
            batch_size=2,
            max_trials=8,
        ),
        seed=23,
        max_steps_quadratic=200,
    )


class CountingExecutor:
    """Serial execution that counts the runs it simulated."""

    def __init__(self) -> None:
        self.executed = 0

    def map_groups(self, groups):
        self.executed += sum(len(group) for group in groups)
        return SerialExecutor().map_groups(groups)


class KillAfter:
    """Executor that simulates a crash after ``survive`` completed rounds.

    It has no ``workers``, so each round is one unit: a replicate group of
    the sweep's two (or, adaptive, a batch's two) trials.
    """

    def __init__(self, survive: int) -> None:
        self.survive = survive
        self.calls = 0

    def map_groups(self, groups):
        if self.calls >= self.survive:
            raise KeyboardInterrupt("simulated kill mid-sweep")
        self.calls += 1
        return SerialExecutor().map_groups(groups)


class TestKillAndResume:
    def test_resume_executes_only_the_remainder(self, tmp_path):
        sweep = sweep_spec()
        total = len(sweep)
        assert total == 6

        # The uninterrupted reference run, no store involved.
        reference = SweepRunner().run(sweep)

        # First attempt: a checkpoint after every unit of 2 runs; the
        # executor dies after 2 completed units (4 runs), mid-sweep.
        store = ResultStore(tmp_path)
        runner = SweepRunner(store=store, executor=KillAfter(survive=2))
        with pytest.raises(KeyboardInterrupt):
            runner.run(sweep)

        # The manifest checkpoint recorded exactly the completed prefix.
        manifest = store.open_manifest(sweep, sweep.expand())
        assert len(manifest.done) == 4
        assert not manifest.complete

        # Restart on a fresh store object over the same directory (a new
        # process would see exactly this state).
        store2 = ResultStore(tmp_path)
        counting = CountingExecutor()
        resumed = SweepRunner(store=store2, executor=counting).run(sweep)
        assert counting.executed == total - 4  # only the remainder ran
        assert store2.hits == 4  # the completed prefix came from the cache

        # The merged result is record-identical to the uninterrupted run.
        assert resumed.records == reference.records
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in reference.records
        ]

        # And the manifest now reads complete.
        final = store2.open_manifest(sweep, sweep.expand())
        assert final.complete

    def test_interrupt_during_first_chunk_loses_nothing_stored(self, tmp_path):
        """Killed before any chunk completes: resume recomputes everything,
        still matching the reference."""
        sweep = sweep_spec()
        store = ResultStore(tmp_path)
        runner = SweepRunner(store=store, executor=KillAfter(survive=0))
        with pytest.raises(KeyboardInterrupt):
            runner.run(sweep)
        assert store.loaded == 0

        resumed = SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        assert resumed.records == SweepRunner().run(sweep).records

    def test_double_resume_is_idempotent(self, tmp_path):
        """Resuming an already-complete sweep executes nothing at all."""
        sweep = sweep_spec()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)

        counting = CountingExecutor()
        again = SweepRunner(store=ResultStore(tmp_path), executor=counting).run(sweep)
        assert counting.executed == 0
        assert again.records == SweepRunner().run(sweep).records

    def test_resume_streams_cached_then_fresh(self, tmp_path):
        """run_iter marks resumed-prefix records as cached, remainder as fresh."""
        sweep = sweep_spec()
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(store=store, executor=KillAfter(survive=1)).run(sweep)

        events = list(SweepRunner(store=ResultStore(tmp_path)).run_iter(sweep))
        assert len(events) == len(sweep)
        cached_flags = [cached for _index, _record, cached in events]
        assert cached_flags.count(True) == 2
        assert sorted(index for index, _r, _c in events) == list(range(len(sweep)))


    def test_resume_on_the_same_store_streams_cached_then_fresh(self, tmp_path):
        """The store holds the killed sweep's manifest; the resume walks its
        run SHAs, then expands the sweep once for the pending runs."""
        sweep = sweep_spec()
        store = ResultStore(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(store=store, executor=KillAfter(survive=1)).run(sweep)
        assert store.held_manifest(sweep) is not None
        hits = store.hits

        counting = CountingExecutor()
        batches = list(SweepRunner(store=store, executor=counting).run_batches(sweep))
        cached = [(index, flag) for batch in batches for index, _record, flag in batch]
        assert all(flag for _index, _record, flag in batches[0])
        assert [index for index, flag in cached if flag] == [0, 1]
        assert sorted(index for index, flag in cached if not flag) == [2, 3, 4, 5]
        assert counting.executed == 4
        assert store.hits - hits == 2
        assert store.held_manifest(sweep).complete
        records = {index: record for batch in batches for index, record, _ in batch}
        assert [records[i] for i in range(len(sweep))] == SweepRunner().run(sweep).records


class TestEpochFiveStore:
    def test_a_store_written_before_epoch_six_is_recomputed(self, tmp_path):
        """Epoch-5 lines carried a ``compiled: null`` key in every spec and
        were filed under that spec's SHA.  A restart on such a store finds
        its manifest, counts every line stale (none corrupt), serves none
        and recomputes the whole sweep."""
        sweep = sweep_spec()
        reference = SweepRunner().run(sweep)
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        shards = tmp_path / "shards"
        old_shas = []
        for shard in list(shards.glob("*.jsonl")):
            lines = shard.read_text(encoding="utf-8").splitlines()
            shard.unlink()
            for line in lines:
                record = json.loads(line)["record"]
                record["spec"]["compiled"] = None
                sha = sha_of(record["spec"])
                old_shas.append(sha)
                entry = {
                    "sha": sha,
                    "epoch": 5,
                    "checksum": ResultStore.record_checksum(record),
                    "record": record,
                }
                with open(shards / f"{sha[:2]}.jsonl", "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry) + "\n")
        assert len(old_shas) == len(sweep)

        store = ResultStore(tmp_path)
        counting = CountingExecutor()
        resumed = SweepRunner(store=store, executor=counting).run(sweep)
        assert counting.executed == len(sweep)
        assert resumed.records == reference.records
        assert all(store.get(sha) is None for sha in old_shas)
        assert (store.hits, store.stale, store.corrupt) == (0, len(sweep), 0)


class TestEpochSevenStore:
    def test_a_store_written_before_epoch_eight_is_recomputed(self, tmp_path):
        """Epoch-7 lines carried a ``runner`` key in every spec, were filed
        under that spec's SHA, and restated the spec's seed, population size
        and engine in the record.  A restart on such a store counts every
        line stale (none corrupt), serves none and recomputes records equal
        to a storeless run.  Were the epoch still 7, the lines would pass the
        epoch check and fail to decode, as corrupt."""
        sweep = sweep_spec()
        reference = SweepRunner().run(sweep)
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        shards = tmp_path / "shards"
        old_shas = []
        for shard in list(shards.glob("*.jsonl")):
            lines = shard.read_text(encoding="utf-8").splitlines()
            shard.unlink()
            for line in lines:
                record = json.loads(line)["record"]
                spec = {**record["spec"], "runner": "protocol"}
                record = {
                    **record,
                    "spec": spec,
                    "seed": spec["seed"],
                    "num_agents": spec["n"],
                    "engine": spec["engine"],
                }
                sha = sha_of(spec)
                old_shas.append(sha)
                entry = {
                    "sha": sha,
                    "epoch": 7,
                    "checksum": ResultStore.record_checksum(record),
                    "record": record,
                }
                with open(shards / f"{sha[:2]}.jsonl", "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry) + "\n")
        assert len(old_shas) == len(sweep)

        store = ResultStore(tmp_path)
        counting = CountingExecutor()
        resumed = SweepRunner(store=store, executor=counting).run(sweep)
        assert counting.executed == len(sweep)
        assert resumed.records == reference.records
        assert all(store.get(sha) is None for sha in old_shas)
        assert (store.hits, store.stale, store.corrupt) == (0, len(sweep), 0)


class TestStaleLinesAreDropped:
    """A shard's stale lines are parsed by one restart, not by every one."""

    @staticmethod
    def age_store(root) -> None:
        """File every stored line under the previous record epoch."""
        for shard in (root / "shards").glob("*.jsonl"):
            lines = [json.loads(line) for line in shard.read_text(encoding="utf-8").splitlines()]
            shard.write_text(
                "".join(json.dumps({**entry, "epoch": RECORD_EPOCH - 1}) + "\n" for entry in lines),
                encoding="utf-8",
            )

    def test_the_first_put_rewrites_a_stale_shard_without_its_stale_lines(self, tmp_path):
        sweep = sweep_spec()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        self.age_store(tmp_path)

        store = ResultStore(tmp_path)
        counting = CountingExecutor()
        SweepRunner(store=store, executor=counting).run(sweep)
        assert (counting.executed, store.stale) == (len(sweep), len(sweep))
        lines = [
            json.loads(line)
            for shard in (tmp_path / "shards").glob("*.jsonl")
            for line in shard.read_text(encoding="utf-8").splitlines()
        ]
        assert len(lines) == len(sweep)
        assert {entry["epoch"] for entry in lines} == {RECORD_EPOCH}

        restarted = ResultStore(tmp_path)
        counting = CountingExecutor()
        SweepRunner(store=restarted, executor=counting).run(sweep)
        assert counting.executed == 0
        assert (restarted.hits, restarted.stale, restarted.corrupt) == (len(sweep), 0, 0)

    def test_a_store_that_is_only_read_is_not_rewritten(self, tmp_path):
        sweep = sweep_spec()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        self.age_store(tmp_path)
        before = {
            shard.name: shard.read_bytes() for shard in (tmp_path / "shards").glob("*.jsonl")
        }
        store = ResultStore(tmp_path)
        assert all(store.get(spec) is None for spec in sweep.expand())
        assert store.stale == len(sweep)
        after = {
            shard.name: shard.read_bytes() for shard in (tmp_path / "shards").glob("*.jsonl")
        }
        assert after == before


class TestAdaptiveKillAndResume:
    """The sequential-sampling layer composes with the store/manifest
    checkpointing: a killed adaptive sweep resumes from the checkpointed
    trial count and finishes bit-identical to an uninterrupted run."""

    def test_resumed_cell_continues_from_checkpointed_trials(self, tmp_path):
        sweep = adaptive_sweep_spec()
        reference = SweepRunner().run(sweep)
        total = len(reference.records)
        assert total == 8  # 2 cells x 4 trials, well under the 16-trial budget

        # A store checkpoint after every unit (a cell's batch of 2 trials);
        # the crash lands mid-way through the first round.
        store = ResultStore(tmp_path)
        killed = SweepRunner(store=store, executor=KillAfter(survive=1))
        with pytest.raises(KeyboardInterrupt):
            killed.run(sweep)
        assert store.loaded == 2

        store2 = ResultStore(tmp_path)
        counting = CountingExecutor()
        resumed = SweepRunner(store=store2, executor=counting).run(sweep)
        # Only the remaining trials ran; the checkpointed prefix was served.
        assert counting.executed == total - 2
        assert store2.hits == 2
        assert resumed.records == reference.records
        assert resumed.extras["stopping"] == reference.extras["stopping"]

    def test_adaptive_double_resume_executes_nothing(self, tmp_path):
        sweep = adaptive_sweep_spec()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        counting = CountingExecutor()
        again = SweepRunner(store=ResultStore(tmp_path), executor=counting).run(sweep)
        assert counting.executed == 0
        assert again.records == SweepRunner().run(sweep).records

    def test_adaptive_sweep_reuses_fixed_sweep_store_entries(self, tmp_path):
        """Prefix identity through the store: trials run by a fixed trials=4
        sweep are the exact entries the auto sweep would execute, so on a
        shared store the adaptive pass is pure cache hits."""
        sweep = adaptive_sweep_spec()
        fixed = dataclasses.replace(sweep, trials=4, stopping=None)
        SweepRunner(store=ResultStore(tmp_path)).run(fixed)

        store = ResultStore(tmp_path)
        counting = CountingExecutor()
        auto = SweepRunner(store=store, executor=counting).run(sweep)
        assert counting.executed == 0
        assert store.hits == len(auto.records) == 8
