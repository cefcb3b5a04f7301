"""Content-addressed result store: simulate once, serve forever.

Execution is a pure function of a :class:`~repro.api.spec.RunSpec` (all
randomness flows from the spec's seeds), so a completed
:class:`~repro.api.records.RunRecord` can be keyed by the spec's content
address (:meth:`~repro.api.spec.RunSpec.sha` — SHA-256 of the canonical spec
JSON) and served to every later request for the same spec without
re-simulating.  Any field difference — seed, observers, the ``compiled``
knob — changes the SHA and misses the cache, which is exactly the soundness
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
miss and recomputed.

The in-memory index holds decoded records
(:class:`~repro.api.records.RunRecord` objects): each line is decoded once,
when its shard is first loaded (or, for a ``put``, from the record dict the
line was written from), and a hit returns that record without parsing
anything.  A line that passes its checksum but does not decode to a record
(say, a field this version does not know) is counted as corrupt like any
other bad line and recomputed.  Served records are shared between callers;
like specs, they are immutable values.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.api.records import RECORD_EPOCH, RunRecord
from repro.api.spec import RunSpec, SweepSpec, sha_of
from repro.service.manifest import SweepManifest

#: Hex digits of the spec SHA used as the shard name.
_SHARD_PREFIX = 2


class ResultStore:
    """A directory of content-addressed :class:`RunRecord`\\ s.

    Safe for concurrent use from multiple threads (one lock around the in-memory
    shard index and the shard appends); multiple *processes* may share a
    store directory read-only, but should not append to it concurrently.
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
        and stale lines."""
        index: dict[str, RunRecord] = {}
        path = self.shards_dir / f"{prefix}.jsonl"
        if not path.exists():
            return index
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                sha = entry["sha"]
                record_dict = entry["record"]
                checksum = entry["checksum"]
            except (json.JSONDecodeError, KeyError, TypeError):
                self.corrupt += 1
                continue
            if entry.get("epoch") != RECORD_EPOCH:
                self.stale += 1
                continue
            if self.record_checksum(record_dict) != checksum:
                self.corrupt += 1
                continue
            try:
                index[sha] = RunRecord.from_dict(record_dict)
            except (KeyError, TypeError, ValueError):
                self.corrupt += 1
        return index

    def _shard_index(self, sha: str) -> dict[str, RunRecord]:
        prefix = sha[:_SHARD_PREFIX]
        if prefix not in self._shards:
            self._shards[prefix] = self._load_shard(prefix)
        return self._shards[prefix]

    # -- the cache API -----------------------------------------------------------

    def get(self, spec: RunSpec) -> RunRecord | None:
        """The stored record for ``spec``, or ``None`` (a miss).

        Verifies that the stored record's own spec equals the requested one
        (defense in depth beyond the SHA) before serving it.
        """
        sha = spec.sha()
        with self._lock:
            record = self._shard_index(sha).get(sha)
            if record is None:
                self.misses += 1
                return None
            if record.spec != spec:
                # A content-address collision would be required to get here;
                # treat it as corruption and recompute rather than serve.
                self.corrupt += 1
                self.misses += 1
                return None
            self.hits += 1
            return record

    def put(self, spec: RunSpec, record: RunRecord) -> str:
        """Persist ``record`` under ``spec``'s SHA; returns the SHA.

        Appends one self-checking JSONL line.  Re-putting the same spec is
        idempotent in effect: the newest line wins in the index, and both
        lines decode to the identical record (execution is deterministic).
        """
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
        decoded = RunRecord.from_dict(record_dict)
        with self._lock:
            index = self._shard_index(sha)
            with open(self._shard_path(sha), "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
            index[sha] = decoded
        return sha

    def __contains__(self, spec: RunSpec) -> bool:
        sha = spec.sha()
        with self._lock:
            return sha in self._shard_index(sha)

    # -- manifests ---------------------------------------------------------------

    def manifest_path(self, sweep_sha: str) -> Path:
        return self.manifests_dir / f"{sweep_sha}.json"

    def open_manifest(self, sweep: SweepSpec, specs: Sequence[RunSpec]) -> SweepManifest:
        """Load the sweep's manifest, or create a fresh one.

        A stale manifest (same path but different run SHAs — e.g. the sweep
        definition of an old library version expanded differently) is
        discarded rather than trusted.
        """
        sweep_sha = sweep.sha()
        run_shas = [spec.sha() for spec in specs]
        path = self.manifest_path(sweep_sha)
        if path.exists():
            try:
                manifest = SweepManifest.load(path)
            except (json.JSONDecodeError, KeyError):
                manifest = None
            if manifest is not None and list(manifest.run_shas) == run_shas:
                return manifest
        return SweepManifest(sweep_sha=sweep_sha, name=sweep.name, run_shas=run_shas)

    def save_manifest(self, manifest: SweepManifest) -> None:
        """Checkpoint the manifest atomically (see :mod:`repro.utils.atomic`).

        An unchanged manifest already on disk is not rewritten (see
        :meth:`SweepManifest.save`).
        """
        with self._lock:
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
    def stored(self) -> int:
        """Distinct records currently indexed (loaded shards only)."""
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
            "stored": self.stored,
            "hit_rate": self.hit_rate,
        }
