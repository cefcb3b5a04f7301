"""Simulation-as-a-service: an HTTP front end over the sweep layer.

Run with::

    python -m repro.service.serve --store results/ --port 8731 --workers 4

and the whole repository becomes a durable simulation backend on stdlib
alone (``http.server`` + the ``asyncio`` executor — no new dependencies):

* ``POST /sweep`` — body: :class:`~repro.api.spec.SweepSpec` JSON.  Streams
  newline-delimited JSON, one envelope per run::

      {"index": 3, "cached": false, "sha": "…", "record": {…RunRecord…}}

  Executed runs go to the executor's ``map_groups`` as units — replicate
  groups and single runs.  With a store attached, runs whose spec SHA is
  already stored stream back immediately from cache, fresh units run one
  executor round (``workers`` units) at a time, and each round's records
  are persisted + checkpointed in the sweep's manifest and streamed
  together when the round finishes — resubmitting an identical sweep is
  pure cache, and resubmitting after a crash finishes only the remainder.
  Without a store the whole sweep is one executor call, streamed when it
  finishes.  Each batch of ready envelopes (the cached runs, then each
  executed round) goes out in one write and one flush.  When a response
  leaves a fixed sweep complete in the store, the service keeps that
  sweep's all-cached body, built from the record texts the response just
  encoded; a later POST of the sweep is those bytes in one write, with a
  ``Content-Length`` (:meth:`SweepService.kept_body`).  Kept bodies share a
  budget of :data:`KEPT_RUNS` runs, least recently served out first.  Adaptive
  sweeps (``trials="auto"``) additionally stream one trailing envelope
  ``{"stopping": [...]}`` with the per-cell stopping diagnostics; fixed
  sweeps stream record envelopes only.
* ``POST /run`` — body: :class:`~repro.api.spec.RunSpec` JSON; one envelope.
* ``GET /status`` — queue depth (runs accepted but not yet finished), cache
  hit rate, and per-sweep progress for active and stored sweeps.

A POST body that does not parse as its spec (a missing or unknown field,
such as ``runner``, included) or names an unknown protocol, workload,
engine, scheduler, criterion or observer is answered 400 before any run
starts; failures past that point arrive in-band, as an ``{"error": …}`` line.

Streaming uses HTTP/1.0 close-delimited bodies: the response has no
``Content-Length`` and the connection closes when the sweep does, which every
stdlib client (``urllib``) and ``curl`` consumes incrementally.  A kept body
is the one response of a sweep that carries a ``Content-Length``; its
connection closes after it all the same.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterator
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api.executor import SweepRunner, build_executor, check_names
from repro.api.records import RunRecord
from repro.api.spec import RunSpec, SweepSpec
from repro.service.store import ResultStore


#: How many runs the kept sweep bodies may hold together (about 0.7 KB of
#: envelope each for a circles run); a larger sweep is never kept.
KEPT_RUNS = 512


class SweepService:
    """The state behind the HTTP handlers: store, executor, progress.

    Thread-safe: ``ThreadingHTTPServer`` dispatches each request on its own
    thread, so sweep submissions run (and stream) concurrently while
    ``/status`` reads a locked snapshot.  The executor is built once, here,
    so bad settings fail construction; it holds only those settings between
    calls, so every submission shares it.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        executor: str = "asyncio",
        workers: int | None = None,
        timeout: float | None = None,
        retries: int = 2,
    ) -> None:
        params: dict[str, Any] = {}
        if executor == "asyncio":
            params = {"timeout": timeout, "retries": retries}
        self.executor = build_executor(executor, workers=workers, **params)
        self.store = store
        self.executor_name = executor
        self.workers = workers
        self._lock = threading.Lock()
        #: submission number -> live progress counters of an in-flight sweep.
        self._active: dict[int, dict[str, Any]] = {}
        self._submissions = itertools.count()
        self._completed_sweeps = 0
        self._completed_runs = 0
        #: sweep sha -> (its all-cached NDJSON body, its run count), least
        #: recently served first.
        self._bodies: OrderedDict[str, tuple[bytes, int]] = OrderedDict()

    # -- submissions -------------------------------------------------------------

    def stream_batches(
        self, sweep: SweepSpec, diagnostics: list[dict[str, Any]] | None = None
    ):
        """Execute ``sweep``, yielding lists of ``(index, record, cached)``.

        Each list holds the runs that became ready together (see
        :meth:`SweepRunner.run_batches`).  Progress is kept per submission,
        so identical sweeps submitted concurrently count separately.

        For adaptive sweeps (``trials="auto"``) the progress ``total`` is the
        ``max_trials`` upper bound (cells that stop early never ship their
        remaining trials), and the per-cell stopping diagnostics are appended
        to the caller-supplied ``diagnostics`` list once the sweep finishes —
        :meth:`sweep_body` turns them into a trailing ``{"stopping": [...]}``
        envelope on the NDJSON stream.
        """
        runner = SweepRunner(executor=self.executor, store=self.store)
        progress = {
            "sweep_sha": sweep.sha(),
            "name": sweep.name,
            "total": len(sweep),
            "done": 0,
            "cached": 0,
        }
        with self._lock:
            submission = next(self._submissions)
            self._active[submission] = progress
        try:
            for batch in runner.run_batches(sweep):
                with self._lock:
                    progress["done"] += len(batch)
                    progress["cached"] += sum(cached for _index, _record, cached in batch)
                    self._completed_runs += len(batch)
                yield batch
            if diagnostics is not None and runner.last_stopping:
                diagnostics.extend(runner.last_stopping)
        finally:
            with self._lock:
                del self._active[submission]
                self._completed_sweeps += 1

    def execute_single(self, spec: RunSpec) -> tuple[RunRecord, bool]:
        """One run through the same cache: ``(record, served_from_cache)``."""
        if self.store is not None:
            cached = self.store.get(spec)
            if cached is not None:
                with self._lock:
                    self._completed_runs += 1
                return cached, True
        [[record]] = self.executor.map_groups([[spec]])
        if self.store is not None:
            self.store.put(spec, record)
        with self._lock:
            self._completed_runs += 1
        return record, False

    def sweep_body(self, sweep: SweepSpec) -> Iterator[bytes]:
        """Execute ``sweep``, yielding its NDJSON body one batch at a time.

        Each batch of :meth:`stream_batches` is one chunk of envelopes; an
        adaptive sweep ends with its ``{"stopping": [...]}`` line.  When the
        body leaves a fixed sweep complete in the store, the sweep's
        all-cached body is built from the record texts encoded here and kept
        for :meth:`kept_body`.
        """
        # The store a kept body would be served beside, if this sweep can be kept.
        keeper = self.store if not sweep.is_adaptive and len(sweep) <= KEPT_RUNS else None
        texts: dict[int, tuple[str, str]] = {}
        diagnostics: list[dict[str, Any]] = []
        for batch in self.stream_batches(sweep, diagnostics):
            lines = []
            for index, record, cached in batch:
                sha, text = record.spec.sha(), record.to_json()
                if keeper is not None:
                    texts[index] = (sha, text)
                lines.append(envelope_line(index, cached, sha, text))
            yield "".join(lines).encode("utf-8")
        if diagnostics:
            yield (json.dumps({"stopping": diagnostics}) + "\n").encode("utf-8")
        if keeper is not None:
            manifest = keeper.held_manifest(sweep)
            if manifest is not None and manifest.complete and len(texts) == manifest.total:
                body = "".join(
                    envelope_line(index, True, *texts[index]) for index in range(len(texts))
                )
                with self._lock:
                    self._bodies[sweep.sha()] = (body.encode("utf-8"), len(texts))
                    self._bodies.move_to_end(sweep.sha())
                    while sum(runs for _body, runs in self._bodies.values()) > KEPT_RUNS:
                        self._bodies.popitem(last=False)

    def kept_body(self, sweep: SweepSpec) -> bytes | None:
        """The kept all-cached body of ``sweep``, served, or ``None``.

        Only a sweep whose held manifest is complete is served this way.
        Serving it does what a streamed warm response does besides: the
        manifest is checkpointed, every run counts as a store hit, and the
        sweep and its runs count as completed.
        """
        if self.store is None:
            return None
        sweep_sha = sweep.sha()
        with self._lock:
            kept = self._bodies.get(sweep_sha)
        if kept is None:
            return None
        manifest = self.store.held_manifest(sweep)
        if manifest is None or not manifest.complete:
            return None
        body, runs = kept
        self.store.save_manifest(manifest)
        self.store.count_hits(runs)
        with self._lock:
            if sweep_sha in self._bodies:
                self._bodies.move_to_end(sweep_sha)
            self._completed_runs += runs
            self._completed_sweeps += 1
        return body

    # -- status ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Runs accepted (across active sweeps) but not yet finished."""
        with self._lock:
            return sum(entry["total"] - entry["done"] for entry in self._active.values())

    def status(self) -> dict[str, Any]:
        """The ``/status`` payload; ``active_sweeps`` sums the in-flight
        submissions of each sweep under its SHA."""
        active: dict[str, dict[str, Any]] = {}
        with self._lock:
            for entry in self._active.values():
                summed = active.setdefault(
                    entry["sweep_sha"],
                    {"name": entry["name"], "total": 0, "done": 0, "cached": 0, "submissions": 0},
                )
                for key in ("total", "done", "cached"):
                    summed[key] += entry[key]
                summed["submissions"] += 1
            completed_sweeps = self._completed_sweeps
            completed_runs = self._completed_runs
        payload: dict[str, Any] = {
            "queue_depth": sum(e["total"] - e["done"] for e in active.values()),
            "active_sweeps": active,
            "completed_sweeps": completed_sweeps,
            "completed_runs": completed_runs,
            "executor": self.executor_name,
            "workers": self.workers,
            "cache": None,
            "sweeps": [],
        }
        if self.store is not None:
            payload["cache"] = self.store.stats()
            payload["sweeps"] = [manifest.progress() for manifest in self.store.manifests()]
        return payload


def envelope_line(index: int, cached: bool, sha: str, record_json: str) -> str:
    """One NDJSON envelope, ``json.dumps({"index", "cached", "sha", "record"})``
    and a newline, spelled out around the record's JSON text."""
    return (
        f'{{"index": {index}, "cached": {"true" if cached else "false"}, '
        f'"sha": "{sha}", "record": {record_json}}}\n'
    )


def make_handler(service: SweepService) -> type[BaseHTTPRequestHandler]:
    """The request handler class, closed over one :class:`SweepService`."""

    class SweepServiceHandler(BaseHTTPRequestHandler):
        # HTTP/1.0: close-delimited streaming bodies, no chunked framing needed.
        protocol_version = "HTTP/1.0"
        server_version = "repro-sweep-service/1.0"

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )

        # -- helpers -------------------------------------------------------------

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(f"Content-Length must be non-negative, got {length}")
            return self.rfile.read(length) if length else b""

        def _send_json(self, payload: dict[str, Any], status: int = 200) -> None:
            body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_error_json(self, status: int, message: str) -> None:
            self._send_json({"error": message}, status=status)

        # -- routes --------------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
            if self.path.split("?", 1)[0] == "/status":
                self._send_json(service.status())
            else:
                self._send_error_json(404, f"unknown path {self.path!r}; try /status")

        def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
            path = self.path.split("?", 1)[0]
            if path not in ("/sweep", "/run"):
                self._send_error_json(404, f"unknown path {self.path!r}; try /sweep or /run")
                return
            try:
                payload = json.loads(self._read_body().decode("utf-8"))
                if path == "/sweep":
                    submission = SweepSpec.from_dict(payload)
                else:
                    submission = RunSpec.from_dict(payload)
                check_names(submission)
            except (json.JSONDecodeError, TypeError, KeyError, ValueError) as error:
                self._send_error_json(400, f"bad spec: {error}")
                return
            kept = service.kept_body(submission) if isinstance(submission, SweepSpec) else None
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            if kept is not None:
                self.send_header("Content-Length", str(len(kept)))
            self.end_headers()
            try:
                if kept is not None:
                    self.wfile.write(kept)
                elif isinstance(submission, SweepSpec):
                    for chunk in service.sweep_body(submission):
                        self.wfile.write(chunk)
                        self.wfile.flush()
                else:
                    record, cached = service.execute_single(submission)
                    line = envelope_line(0, cached, record.spec.sha(), record.to_json())
                    self.wfile.write(line.encode("utf-8"))
            except BrokenPipeError:
                pass  # client went away mid-stream; the store keeps the progress
            except Exception as error:  # noqa: BLE001 - headers already sent
                # The stream is already open, so surface the failure in-band.
                line = json.dumps({"error": f"{type(error).__name__}: {error}"}) + "\n"
                try:
                    self.wfile.write(line.encode("utf-8"))
                except BrokenPipeError:
                    pass

    return SweepServiceHandler


def serve(service: SweepService, host: str, port: int) -> ThreadingHTTPServer:
    """Bind the service; the caller decides between ``serve_forever`` and tests."""
    return ThreadingHTTPServer((host, port), make_handler(service))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.serve",
        description="Serve SweepSpec/RunSpec JSON over HTTP, streaming RunRecord JSONL.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731)
    parser.add_argument(
        "--store",
        default=None,
        help="result-store directory (content-addressed cache + manifests); "
        "omit to recompute every submission",
    )
    parser.add_argument(
        "--executor",
        default="asyncio",
        help="executor registry name for submissions (default: asyncio)",
    )
    parser.add_argument("--workers", type=int, default=None, help="executor worker count")
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run timeout in seconds (a replicate group gets timeout × rows)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, help="retry budget per failed run or group (default: 2)"
    )
    args = parser.parse_args(argv)

    store = ResultStore(args.store) if args.store else None
    try:
        service = SweepService(
            store,
            executor=args.executor,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
        )
    except (KeyError, ValueError) as error:
        parser.error(error.args[0])
    server = serve(service, args.host, args.port)
    location = f"http://{args.host}:{server.server_address[1]}"
    print(f"sweep service listening on {location} "
          f"(store: {args.store or 'none — recompute everything'})")
    print(f"  submit: python -m repro.service.submit spec.json --url {location}")
    print(f"  status: {location}/status")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
