"""SweepManifest: progress ledger semantics and atomic persistence."""

import json
import sys
import threading
import time

import pytest

from repro.api.executor import SweepRunner
from repro.api.spec import SweepSpec
from repro.api.stopping import StoppingRule
import repro.service.manifest as manifest_module
from repro.service.manifest import SweepManifest
from repro.service.store import ResultStore


def small_sweep(seed: int = 7) -> SweepSpec:
    return SweepSpec(
        protocols=("circles",), populations=(8,), ks=(2,), engines=("batch",),
        trials=3, seed=seed, max_steps_quadratic=200,
    )


class TestManifestSemantics:
    def test_progress_lifecycle(self):
        manifest = SweepManifest(sweep_sha="s" * 64, name="demo", run_shas=["a", "b", "c"])
        assert manifest.total == 3
        assert manifest.pending() == [0, 1, 2]
        assert not manifest.complete
        manifest.mark_done(1)
        assert manifest.pending() == [0, 2]
        manifest.mark_pending(1)
        assert manifest.pending() == [0, 1, 2]
        for index in range(3):
            manifest.mark_done(index)
        assert manifest.complete
        assert manifest.progress()["done"] == 3

    def test_index_bounds_are_checked(self):
        manifest = SweepManifest(sweep_sha="s", name="", run_shas=["a"])
        with pytest.raises(IndexError):
            manifest.mark_done(1)
        with pytest.raises(IndexError):
            manifest.mark_pending(-1)

    def test_json_round_trip(self):
        manifest = SweepManifest(sweep_sha="s" * 64, name="demo", run_shas=["a", "b"])
        manifest.mark_done(1)
        clone = SweepManifest.from_json(manifest.to_json())
        assert clone.sweep_sha == manifest.sweep_sha
        assert list(clone.run_shas) == list(manifest.run_shas)
        assert clone.done == {1}

    def test_save_is_atomic_and_loadable(self, tmp_path):
        manifest = SweepManifest(sweep_sha="s" * 64, name="demo", run_shas=["a", "b"])
        path = tmp_path / "deep" / "manifest.json"
        manifest.save(path)
        assert SweepManifest.load(path).to_dict() == manifest.to_dict()
        # No temp droppings next to the target.
        assert [p.name for p in path.parent.iterdir()] == [path.name]


    def test_unchanged_manifest_is_not_rewritten(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = SweepManifest(sweep_sha="s" * 64, name="demo", run_shas=["a", "b"])
        assert manifest.save(path)  # never on disk: written
        assert not manifest.save(path)  # unchanged: skipped
        loaded = SweepManifest.load(path)
        assert not loaded.save(path)  # loaded and unchanged: skipped
        assert loaded.save(tmp_path / "elsewhere.json")  # another path: written
        loaded.mark_done(0)
        assert loaded.save(path)  # changed: written
        assert SweepManifest.load(path).done == {0}
        path.unlink()
        assert loaded.save(path)  # file gone: written again
        assert SweepManifest.load(path).done == {0}


class TestStoreManifests:
    def test_open_manifest_creates_then_resumes(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        specs = sweep.expand()
        manifest = store.open_manifest(sweep, specs)
        assert manifest.total == len(specs)
        assert manifest.sweep_sha == sweep.sha()
        manifest.mark_done(0)
        store.save_manifest(manifest)

        resumed = store.open_manifest(sweep, specs)
        assert resumed.done == {0}

    def test_stale_manifest_is_discarded(self, tmp_path):
        """Same path, different run SHAs -> fresh manifest, not a wrong resume."""
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        specs = sweep.expand()
        manifest = store.open_manifest(sweep, specs)
        manifest.mark_done(0)
        # Corrupt the ledger: rewrite it with foreign run SHAs.
        manifest.run_shas = ("x", "y", "z")
        store.save_manifest(manifest)

        fresh = store.open_manifest(sweep, specs)
        assert fresh.done == set()
        assert list(fresh.run_shas) == [spec.sha() for spec in specs]

    def test_unreadable_manifest_is_recreated(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        specs = sweep.expand()
        store.manifest_path(sweep.sha()).write_text("{not json")
        fresh = store.open_manifest(sweep, specs)
        assert fresh.done == set()

    def test_manifests_listing_skips_broken_files(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        store.save_manifest(store.open_manifest(sweep, sweep.expand()))
        (store.manifests_dir / "broken.json").write_text("{not json")
        listed = store.manifests()
        assert len(listed) == 1
        assert listed[0].sweep_sha == sweep.sha()

    def test_manifest_file_is_valid_json_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        manifest = store.open_manifest(sweep, sweep.expand())
        store.save_manifest(manifest)
        on_disk = json.loads(store.manifest_path(sweep.sha()).read_text())
        assert on_disk["sweep_sha"] == sweep.sha()
        assert on_disk["done"] == []


class TestHeldManifests:
    """A store serves a sweep it has seen from the manifest it holds."""

    def test_open_manifest_reads_disk_once_per_store(self, tmp_path, monkeypatch):
        sweep = small_sweep()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        loads = []
        load = SweepManifest.load.__func__
        monkeypatch.setattr(
            SweepManifest, "load", classmethod(lambda cls, path: loads.append(1) or load(cls, path))
        )
        store = ResultStore(tmp_path)
        first = store.open_manifest(sweep, sweep.expand())
        assert first.complete and len(loads) == 1
        assert store.open_manifest(sweep, sweep.expand()) is first
        assert store.held_manifest(sweep) is first
        assert len(loads) == 1

    def test_warm_sweep_is_walked_by_run_shas_not_expanded(self, tmp_path, monkeypatch):
        sweep = small_sweep()
        store = ResultStore(tmp_path)
        cold = SweepRunner(store=store).run(sweep)
        expansions = []
        expand = SweepSpec.expand
        monkeypatch.setattr(
            SweepSpec, "expand", lambda self: expansions.append(1) or expand(self)
        )
        warm = SweepRunner(store=store).run(SweepSpec.from_json(sweep.to_json()))
        assert warm.records == cold.records
        assert expansions == []
        # A store new to the sweep expands it once.
        fresh = ResultStore(tmp_path)
        assert SweepRunner(store=fresh).run(sweep).records == cold.records
        assert len(expansions) == 1

    def test_concurrent_checkpoints_of_a_held_manifest_lose_no_update(
        self, tmp_path, monkeypatch
    ):
        """Threads marking and saving one shared manifest: whenever the store
        lock is free, the file holds the snapshot a later save compares
        against, so no save is skipped against a stale snapshot."""
        sweep = SweepSpec(**{**small_sweep().to_dict(), "trials": 24})
        store = ResultStore(tmp_path)
        manifest = store.open_manifest(sweep, sweep.expand())
        path = store.manifest_path(sweep.sha())
        workers = 4
        errors = []
        mismatches = []
        write = manifest_module.atomic_write_text

        def slow_write(target, text):
            # Yield between the rename and the snapshot bookkeeping, where an
            # unlocked save lets other threads see (and write) in between.
            write(target, text)
            time.sleep(0.0005)

        monkeypatch.setattr(manifest_module, "atomic_write_text", slow_write)

        def checkpoint(first):
            try:
                for index in range(first, manifest.total, workers):
                    store.save_manifest(manifest, [index])
                    store.scan(manifest)  # nothing is stored: demotes every run
                    store.save_manifest(manifest, range(first, index + 1, workers))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=checkpoint, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                with store._lock:
                    if manifest._on_disk is not None:
                        on_disk = (str(path), SweepManifest.load(path).to_dict())
                        if manifest._on_disk != on_disk:
                            mismatches.append(on_disk)
                time.sleep(0.0002)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        store.save_manifest(manifest)
        assert SweepManifest.load(path).to_dict() == manifest.to_dict()

    def test_held_manifest_with_foreign_run_shas_is_not_trusted_by_open(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = small_sweep()
        specs = sweep.expand()
        held = store.open_manifest(sweep, specs)
        held.run_shas = ("x", "y", "z")
        fresh = store.open_manifest(sweep, specs)
        assert fresh is not held
        assert list(fresh.run_shas) == [spec.sha() for spec in specs]
        assert store.held_manifest(sweep) is fresh


def adaptive_sweep() -> SweepSpec:
    return SweepSpec(
        protocols=("circles",), populations=(8,), ks=(2,), engines=("batch",),
        trials="auto", seed=23, max_steps_quadratic=200,
        stopping=StoppingRule(
            metric="correct", proportion=True, target_half_width=0.3,
            min_trials=2, batch_size=2, max_trials=8,
        ),
    )


def file_identity(path):
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns


class TestManifestRewrites:
    """A fully cached resubmission leaves its manifest file alone."""

    @pytest.mark.parametrize("make_sweep", [small_sweep, adaptive_sweep])
    def test_cached_resubmission_leaves_the_manifest_untouched(self, tmp_path, make_sweep):
        sweep = make_sweep()
        cold = SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        path = ResultStore(tmp_path).manifest_path(sweep.sha())
        before = file_identity(path)
        text = path.read_text()

        for store in (ResultStore(tmp_path), ResultStore(tmp_path)):
            warm = SweepRunner(store=store).run(sweep)
            assert warm.records == cold.records
            assert store.hits == len(cold.records) and store.misses == 0
            assert file_identity(path) == before
            assert path.read_text() == text

    def test_resubmission_after_a_corrupt_line_rewrites_the_manifest(self, tmp_path):
        sweep = small_sweep()
        SweepRunner(store=ResultStore(tmp_path)).run(sweep)
        path = ResultStore(tmp_path).manifest_path(sweep.sha())
        before = file_identity(path)
        shard = sorted((tmp_path / "shards").glob("*.jsonl"))[0]
        lines = shard.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace('"steps": ', '"steps": 9', 1)
        shard.write_text("".join(lines))

        store = ResultStore(tmp_path)
        SweepRunner(store=store).run(sweep)
        assert store.corrupt == 1 and store.misses == 1
        assert file_identity(path) != before
        manifest = SweepManifest.load(path)
        assert manifest.complete
        assert manifest.done == set(range(len(sweep)))
