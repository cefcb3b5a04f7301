"""Sweep-service benchmark — the warm cache must embarrass the cold path.

The content-addressed store exists so that a sweep is only ever simulated
once: the second submission of an identical :class:`SweepSpec` should be
served entirely from the JSONL shards (a handful of SHA lookups and record
deserializations) instead of re-running thousands of interactions per spec.
The ``--perf`` assertion pins that contract at **≥20×**: a warm run of the
benchmark sweep must be at least twenty times faster than the cold run that
populated the store.

A second pair covers the warm path through the HTTP service, the shape of
the repository benchmark's ``service-cache`` workload: one client POSTs a
sweep cold, then the identical sweep warm.  The smoke checks that every warm
envelope is served from the cache and carries the cold record byte for byte;
the ``--perf`` test records the median warm POST as ``service-warm-post``.
The POST that leaves the sweep complete in the store keeps the sweep's
all-cached body, built from the record texts it encoded; a warm POST is
those bytes in one write, with a ``Content-Length``.  It neither expands the
sweep nor looks up its runs, and the manifest file is neither re-read nor,
unchanged, rewritten.  A sweep whose body is not kept (kept bodies hold 512
runs together) walks the run SHAs of the manifest the store holds instead,
taking each record from the index by SHA.  A third smoke sends two identical
POSTs at once, cold and then warm, through the shared held manifest, and a
third POST served from the kept body.

Marker-free smoke tests keep the store path exercised — correct and
importable — in the default suite and in the CI bench-smoke job.
"""

import contextlib
import http.client
import io
import json
import statistics
import threading
import time

import pytest

from repro.api.executor import SweepRunner
from repro.api.spec import SweepSpec
from repro.service.serve import SweepService, serve
from repro.service.store import ResultStore

#: Big enough that simulation dominates store overhead by a wide margin.
SWEEP = SweepSpec(
    name="bench-service",
    protocols=("circles", "cancellation-plurality"),
    populations=(64, 128),
    ks=(3,),
    engines=("batch",),
    trials=4,
    seed=97,
    max_steps_quadratic=200,
)


def _timed_run(store: ResultStore) -> tuple[float, int]:
    start = time.perf_counter()
    result = SweepRunner(store=store).run(SWEEP)
    return time.perf_counter() - start, len(result.records)


def test_store_round_trip_smoke(tmp_path):
    """Smoke (default suite): cold populates, warm serves, records agree."""
    tiny = SweepSpec(**{**SWEEP.to_dict(), "populations": (8,), "trials": 1})
    cold = SweepRunner(store=ResultStore(tmp_path)).run(tiny)
    warm_store = ResultStore(tmp_path)
    warm = SweepRunner(store=warm_store).run(tiny)
    assert warm.records == cold.records
    assert warm_store.hits == len(tiny)


@pytest.mark.perf
def test_warm_cache_is_20x_faster_than_cold(tmp_path, record_perf):
    """The issue's acceptance bar: warm ≥20× cold on the benchmark sweep."""
    cold_time, total = _timed_run(ResultStore(tmp_path))

    # A fresh store object over the same directory: every record must come
    # off disk (shard parse + checksum verify), none from simulation.
    warm_store = ResultStore(tmp_path)
    warm_time, warm_total = _timed_run(warm_store)
    assert warm_total == total
    assert warm_store.hits == total

    speedup = cold_time / warm_time
    print(
        f"\ncold sweep: {cold_time:.3f}s, warm sweep: {warm_time:.4f}s "
        f"({total} runs, speedup {speedup:.0f}x)"
    )
    record_perf(
        "service-warm-cache-vs-cold",
        n=max(SWEEP.populations),
        engine="batch",
        seconds=warm_time,
        speedup=speedup,
        baseline_seconds=cold_time,
    )
    assert warm_time * 20 <= cold_time, (
        f"warm cache only {speedup:.1f}x faster than cold "
        f"({warm_time:.3f}s vs {cold_time:.3f}s for {total} runs)"
    )


#: The ``service-cache`` benchmark's sweep: 64 circles runs on the vector engine.
WARM_SWEEP = SweepSpec(
    protocols=("circles",),
    populations=(16, 32),
    ks=(3,),
    engines=("vector",),
    trials=32,
    seed=5,
)

#: Median warm POST of ``WARM_SWEEP`` before warm hits were served without
#: re-hashing, re-decoding and re-writing (same test, 2-vCPU Xeon VM,
#: Python 3.11.7); the baseline of the ``service-warm-post`` entry.
BASELINE_WARM_POST_S = 0.0215

_RECORD_KEY = b', "record": '


@contextlib.contextmanager
def running_service(store: ResultStore):
    """A :class:`SweepService` over ``store`` behind ``serve()`` on a free port."""
    httpd = serve(SweepService(store, workers=2), "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        # The handler logs every request to stderr.
        with contextlib.redirect_stderr(io.StringIO()):
            yield httpd.server_address[:2]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def post_sweep(address, sweep: SweepSpec) -> list[bytes]:
    """One POST /sweep round trip; the streamed NDJSON lines."""
    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        connection.request(
            "POST",
            "/sweep",
            body=sweep.to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return connection.getresponse().read().splitlines()
    finally:
        connection.close()


def envelopes(lines: list[bytes], *, cached: bool) -> dict[int, bytes]:
    """index -> the exact bytes of each envelope's record; checks ``cached``."""
    records = {}
    for line in lines:
        head, record = line.split(_RECORD_KEY, 1)
        envelope = json.loads(head + b"}")
        assert envelope["cached"] is cached, line[:120]
        records[envelope["index"]] = record
    return records


def test_service_warm_post_smoke(tmp_path):
    """Smoke (default suite): a warm POST is all cache, byte-identical to cold."""
    sweep = SweepSpec(**{**WARM_SWEEP.to_dict(), "populations": (8,), "trials": 3})
    with running_service(ResultStore(tmp_path)) as address:
        cold = envelopes(post_sweep(address, sweep), cached=False)
        assert sorted(cold) == list(range(len(sweep)))
        for _ in range(2):
            assert envelopes(post_sweep(address, sweep), cached=True) == cold


class MeetingStore(ResultStore):
    """A store whose cache scans wait for each other, two at a time, so two
    requests for one sweep are sure to be in flight together."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.meet = threading.Barrier(2, timeout=60)

    def scan(self, manifest):
        self.meet.wait()
        return super().scan(manifest)


def test_service_overlapping_posts_smoke(tmp_path):
    """Smoke (default suite): two identical POSTs in flight at once, cold and
    then warm, each stream every run once, byte-identical to the cold pass,
    while sharing the store's held manifest; a third POST is the kept body,
    which looks up no run (a cache scan would wait at the barrier) but
    counts every run as a hit."""
    sweep = SweepSpec(**{**WARM_SWEEP.to_dict(), "populations": (8,), "trials": 4})
    store = MeetingStore(tmp_path)
    with running_service(store) as address:
        reference = None
        for cached in (False, True):
            streams: list[list[bytes]] = []
            threads = [
                threading.Thread(target=lambda: streams.append(post_sweep(address, sweep)))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert len(streams) == 2
            for lines in streams:
                records = envelopes(lines, cached=cached)
                assert len(lines) == len(records) == len(sweep)
                reference = reference or records
                assert records == reference
        assert envelopes(post_sweep(address, sweep), cached=True) == reference
    assert store.corrupt == 0
    assert store.hits == 3 * len(sweep)
    assert store.held_manifest(sweep).complete


@pytest.mark.perf
def test_warm_post_latency_is_recorded(tmp_path, record_perf):
    """Median warm POST of the 64-run sweep, against the recorded baseline."""
    with running_service(ResultStore(tmp_path)) as address:
        start = time.perf_counter()
        cold = envelopes(post_sweep(address, WARM_SWEEP), cached=False)
        cold_time = time.perf_counter() - start
        samples = []
        for _ in range(40):
            start = time.perf_counter()
            warm = envelopes(post_sweep(address, WARM_SWEEP), cached=True)
            samples.append(time.perf_counter() - start)
            assert warm == cold
    median = statistics.median(samples)
    print(
        f"\ncold POST: {cold_time:.3f}s, warm POST median: {1000 * median:.2f} ms "
        f"({len(cold)} runs, {cold_time / median:.0f}x)"
    )
    record_perf(
        "service-warm-post",
        n=max(WARM_SWEEP.populations),
        engine="vector",
        seconds=median,
        speedup=BASELINE_WARM_POST_S / median,
        baseline_seconds=BASELINE_WARM_POST_S,
    )
    assert median * 20 <= cold_time, (
        f"warm POST only {cold_time / median:.1f}x faster than the cold one "
        f"({1000 * median:.2f} ms vs {cold_time:.3f}s for {len(cold)} runs)"
    )
