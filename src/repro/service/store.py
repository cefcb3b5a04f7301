"""Content-addressed result store: simulate once, serve forever.

Execution is a pure function of a :class:`~repro.api.spec.RunSpec` (all
randomness flows from the spec's seeds), so a completed
:class:`~repro.api.records.RunRecord` can be keyed by the spec's content
address (:meth:`~repro.api.spec.RunSpec.sha` — SHA-256 of the canonical spec
JSON) and served to every later request for the same spec without
re-simulating.  Any field difference — seed, observers, the criterion —
changes the SHA and misses the cache, which is exactly the soundness
condition.

Layout (all paths under the store root)::

    shards/<sha-prefix>.jsonl   one line per record: {"sha", "epoch", "checksum", "record"}
    manifests/<sweep-sha>.json  per-sweep checkpoint ledger (SweepManifest)

Records are appended to JSONL shards named by the first two hex digits of
the spec SHA (256 shards max, so no directory ever holds millions of files).
Appends are single ``write`` calls of one line; a crash can at worst tear
the final line, and every line carries a SHA-256 checksum of its canonical
record JSON — a torn or bit-rotted line fails to parse or fails its
checksum, is counted as corrupt and treated as a miss, so corruption is
*recomputed, never served*.  A line whose ``epoch`` is missing or differs
from :data:`~repro.api.records.RECORD_EPOCH` was written by engines that
sampled differently; it is counted as ``stale`` (not corrupt), treated as a
miss and recomputed.  The first ``put`` into a shard that held stale lines
rewrites the shard atomically without them before it appends, so a restart
parses each stale line once, not on every load; a store that is only read
is never written.

The in-memory index maps a spec SHA to a decoded
:class:`~repro.api.records.RunRecord`: each line is decoded once, when its
shard is first loaded, and a ``put`` indexes the record it was given.  A
hit is therefore one dict lookup that returns the same record object every
time — nothing is parsed or hashed again.  Every entry is checked where it
enters the index, never per hit: a loaded line must decode to a record whose
own spec hashes to the line's ``sha``, and ``put`` refuses a record whose
spec is not the spec it is filed under.  A line that passes its checksum but fails either check (a field this
version does not know, a ``sha`` that names another spec) is counted as
corrupt like any other bad line and recomputed.  Served records are shared
between callers; like specs, they are immutable values.

The store also holds every :class:`~repro.service.manifest.SweepManifest` it
opened in this process, keyed by sweep SHA.  A held manifest's run
SHAs came from an in-process expansion, so they are trusted as they are: a
resubmitted sweep is served by walking those SHAs, without expanding the
sweep, hashing its runs or re-reading the manifest file.  Held manifests are
shared by concurrent requests, so they are only marked and saved under the
store lock (:meth:`ResultStore.scan`, :meth:`ResultStore.save_manifest`).
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from repro.api.records import RECORD_EPOCH, RunRecord
from repro.api.spec import RunSpec, SweepSpec, sha_of
from repro.service.manifest import SweepManifest
from repro.utils.atomic import atomic_write_text

#: Hex digits of the spec SHA used as the shard name.
_SHARD_PREFIX = 2


class ResultStore:
    """A directory of content-addressed :class:`RunRecord`\\ s.

    Safe for concurrent use from multiple threads (one lock around the in-memory
    shard index, the shard appends and the held manifests); multiple
    *processes* may share a store directory read-only, but should not append
    to it concurrently.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.shards_dir = self.root / "shards"
        self.manifests_dir = self.root / "manifests"
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.manifests_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: shard prefix -> {spec sha -> decoded record}, loaded lazily per shard.
        self._shards: dict[str, dict[str, RunRecord]] = {}
        #: shard prefix -> its lines other than the stale ones, for a loaded
        #: shard that held stale lines and has not been rewritten yet.
        self._stale_shards: dict[str, list[str]] = {}
        #: sweep sha -> the manifest this store opened for it (held manifests).
        self._manifests: dict[str, SweepManifest] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stale = 0

    # -- content addressing ------------------------------------------------------

    @staticmethod
    def record_checksum(record_dict: dict[str, Any]) -> str:
        """SHA-256 of the record's canonical JSON (the per-line checksum)."""
        return sha_of(record_dict)

    def _shard_path(self, sha: str) -> Path:
        return self.shards_dir / f"{sha[:_SHARD_PREFIX]}.jsonl"

    # -- shard loading -----------------------------------------------------------

    def _load_shard(self, prefix: str) -> dict[str, RunRecord]:
        """Parse and decode one shard file, dropping (and counting) corrupt
        and stale lines; a shard with stale lines is noted for rewriting."""
        index: dict[str, RunRecord] = {}
        path = self.shards_dir / f"{prefix}.jsonl"
        if not path.exists():
            return index
        stale = self.stale
        current: list[str] = []
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            current.append(line)
            try:
                entry = json.loads(line)
                sha, epoch, checksum = entry["sha"], entry.get("epoch"), entry["checksum"]
                record_dict = entry["record"]
            except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
                self.corrupt += 1
                continue
            if epoch != RECORD_EPOCH:
                self.stale += 1
                current.pop()
                continue
            if self.record_checksum(record_dict) != checksum:
                self.corrupt += 1
                continue
            try:
                record = RunRecord.from_dict(record_dict)
            except (KeyError, TypeError, ValueError, AttributeError):
                self.corrupt += 1
                continue
            if record.spec.sha() != sha:
                # A well-formed line filed under another spec's address.
                self.corrupt += 1
                continue
            index[sha] = record
        if self.stale != stale:
            self._stale_shards[prefix] = current
        return index

    def _shard_index(self, sha: str) -> dict[str, RunRecord]:
        prefix = sha[:_SHARD_PREFIX]
        if prefix not in self._shards:
            self._shards[prefix] = self._load_shard(prefix)
        return self._shards[prefix]

    # -- the cache API -----------------------------------------------------------

    def get(self, spec: RunSpec | str) -> RunRecord | None:
        """The stored record for ``spec`` (a spec or its SHA), or ``None`` (a miss).

        One index lookup: every indexed record's own spec hashes to its key
        (checked when the entry entered the index), so a hit is the record of
        exactly the requested spec.
        """
        sha = spec if isinstance(spec, str) else spec.sha()
        with self._lock:
            record = self._shard_index(sha).get(sha)
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
            return record

    def put(self, spec: RunSpec, record: RunRecord) -> str:
        """Persist ``record`` under ``spec``'s SHA; returns the SHA.

        Appends one self-checking JSONL line.  Re-putting the same spec is
        idempotent in effect: the newest line wins in the index, and both
        lines decode to the identical record (execution is deterministic).
        Raises :class:`ValueError` when ``record`` is not a record of
        ``spec``.
        """
        if record.spec != spec:
            raise ValueError(
                f"record of spec {record.spec.sha()} cannot be stored under spec {spec.sha()}"
            )
        sha = spec.sha()
        record_dict = record.to_dict()
        line = json.dumps(
            {
                "sha": sha,
                "epoch": RECORD_EPOCH,
                "checksum": self.record_checksum(record_dict),
                "record": record_dict,
            }
        )
        with self._lock:
            index = self._shard_index(sha)
            current = self._stale_shards.pop(sha[:_SHARD_PREFIX], None)
            if current is not None:
                atomic_write_text(self._shard_path(sha), "".join(f"{kept}\n" for kept in current))
            with open(self._shard_path(sha), "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
            index[sha] = record
        return sha

    def count_hits(self, count: int) -> None:
        """Count ``count`` lookups served without :meth:`get` as hits."""
        with self._lock:
            self.hits += count

    def __contains__(self, spec: RunSpec) -> bool:
        sha = spec.sha()
        with self._lock:
            return sha in self._shard_index(sha)

    # -- manifests ---------------------------------------------------------------

    def manifest_path(self, sweep_sha: str) -> Path:
        return self.manifests_dir / f"{sweep_sha}.json"

    def held_manifest(self, sweep: SweepSpec) -> SweepManifest | None:
        """The manifest this store opened for ``sweep``, if any."""
        with self._lock:
            return self._manifests.get(sweep.sha())

    def open_manifest(self, sweep: SweepSpec, specs: Sequence[RunSpec]) -> SweepManifest:
        """The sweep's manifest: held, loaded from disk, or fresh.

        ``specs`` is the sweep's expansion.  A held manifest with the same
        run SHAs is returned as it is, without touching disk.  A manifest
        file with different run SHAs (e.g. the sweep definition of an old
        library version expanded differently) is discarded rather than
        trusted.  The result is held from now on.
        """
        sweep_sha = sweep.sha()
        run_shas = tuple(spec.sha() for spec in specs)
        with self._lock:
            held = self._manifests.get(sweep_sha)
            if held is not None and held.run_shas == run_shas:
                return held
            path = self.manifest_path(sweep_sha)
            manifest = None
            if path.exists():
                try:
                    manifest = SweepManifest.load(path)
                except (json.JSONDecodeError, KeyError):
                    manifest = None
            if manifest is None or manifest.run_shas != run_shas:
                manifest = SweepManifest(sweep_sha=sweep_sha, name=sweep.name, run_shas=run_shas)
            self._manifests[sweep_sha] = manifest
            return manifest

    def scan(self, manifest: SweepManifest) -> tuple[list[tuple[int, RunRecord]], list[int]]:
        """Look up every run of ``manifest``: ``(hits, pending)``.

        ``hits`` pairs each stored run's index with its record, ``pending``
        lists the indices to execute; both in run order.  Marks the ledger
        to match (under the lock — a held manifest is shared) without
        saving it.
        """
        hits: list[tuple[int, RunRecord]] = []
        pending: list[int] = []
        with self._lock:
            for index, sha in enumerate(manifest.run_shas):
                record = self.get(sha)
                if record is None:
                    manifest.mark_pending(index)
                    pending.append(index)
                else:
                    manifest.mark_done(index)
                    hits.append((index, record))
        return hits, pending

    def save_manifest(self, manifest: SweepManifest, done: Iterable[int] = ()) -> None:
        """Mark ``done`` runs and checkpoint the manifest atomically.

        Runs under the lock, since held manifests are shared between
        requests (see :mod:`repro.utils.atomic` for the atomic write).  An
        unchanged manifest already on disk is not rewritten (see
        :meth:`SweepManifest.save`).
        """
        with self._lock:
            for index in done:
                manifest.mark_done(index)
            manifest.save(self.manifest_path(manifest.sweep_sha))

    def manifests(self) -> list[SweepManifest]:
        """Every manifest in the store (unreadable files skipped)."""
        loaded = []
        for path in sorted(self.manifests_dir.glob("*.json")):
            try:
                loaded.append(SweepManifest.load(path))
            except (json.JSONDecodeError, KeyError):
                continue
        return loaded

    # -- introspection -----------------------------------------------------------

    @property
    def loaded(self) -> int:
        """Distinct records in memory: those of the shards loaded so far and
        those put since.  Records on disk in shards not yet loaded are not
        counted, so a fresh store reads 0."""
        with self._lock:
            return sum(len(index) for index in self._shards.values())

    @property
    def hit_rate(self) -> float | None:
        """Fraction of lookups served from the store (``None`` before any)."""
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total

    def stats(self) -> dict[str, Any]:
        """JSON-native cache statistics (the ``/status`` payload's core)."""
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "loaded": self.loaded,
            "hit_rate": self.hit_rate,
        }
