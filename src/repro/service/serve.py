"""Simulation-as-a-service: an HTTP front end over the sweep layer.

Run with::

    python -m repro.service.serve --store results/ --port 8731 --workers 4

and the whole repository becomes a durable simulation backend on stdlib
alone (``http.server`` + the ``asyncio`` executor — no new dependencies):

* ``POST /sweep`` — body: :class:`~repro.api.spec.SweepSpec` JSON.  Streams
  newline-delimited JSON, one envelope per run::

      {"index": 3, "cached": false, "sha": "…", "record": {…RunRecord…}}

  Executed runs go to the executor in chunks of units — single runs and
  replicate groups, one executor round each — and their envelopes arrive
  together when their chunk finishes, not run by run.  With a store
  attached, runs whose spec SHA is already stored stream back
  immediately from cache and fresh records are persisted + checkpointed in
  the sweep's manifest — resubmitting an identical sweep is pure cache, and
  resubmitting after a crash finishes only the remainder.  Adaptive sweeps
  (``trials="auto"``) additionally stream one trailing envelope
  ``{"stopping": [...]}`` with the per-cell stopping diagnostics; fixed
  sweeps stream record envelopes only.
* ``POST /run`` — body: :class:`~repro.api.spec.RunSpec` JSON; one envelope.
* ``GET /status`` — queue depth (runs accepted but not yet finished), cache
  hit rate, and per-sweep progress for active and stored sweeps.

Streaming uses HTTP/1.0 close-delimited bodies: the response has no
``Content-Length`` and the connection closes when the sweep does, which every
stdlib client (``urllib``) and ``curl`` consumes incrementally.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api.executor import SweepRunner, build_executor
from repro.api.records import RunRecord
from repro.api.spec import RunSpec, SweepSpec
from repro.service.store import ResultStore


class SweepService:
    """The state behind the HTTP handlers: store, executor policy, progress.

    Thread-safe: ``ThreadingHTTPServer`` dispatches each request on its own
    thread, so sweep submissions run (and stream) concurrently while
    ``/status`` reads a locked snapshot.
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
        self.store = store
        self.executor_name = executor
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self._lock = threading.Lock()
        #: sweep sha -> live progress counters for in-flight submissions.
        self._active: dict[str, dict[str, Any]] = {}
        self._completed_sweeps = 0
        self._completed_runs = 0

    def _make_executor(self):
        params: dict[str, Any] = {}
        if self.executor_name == "asyncio":
            params = {"timeout": self.timeout, "retries": self.retries}
        return build_executor(self.executor_name, workers=self.workers, **params)

    # -- submissions -------------------------------------------------------------

    def stream_sweep(self, sweep: SweepSpec, diagnostics: list[dict[str, Any]] | None = None):
        """Execute ``sweep``, yielding ``(index, record, cached)`` as runs finish.

        For adaptive sweeps (``trials="auto"``) the progress ``total`` is the
        ``max_trials`` upper bound (cells that stop early never ship their
        remaining trials), and the per-cell stopping diagnostics are appended
        to the caller-supplied ``diagnostics`` list once the sweep finishes —
        the handler turns them into a trailing ``{"stopping": [...]}``
        envelope on the NDJSON stream.
        """
        runner = SweepRunner(
            workers=self.workers, executor=self._make_executor(), store=self.store
        )
        sweep_sha = sweep.sha()
        total = len(sweep)
        with self._lock:
            self._active[sweep_sha] = {
                "name": sweep.name,
                "total": total,
                "done": 0,
                "cached": 0,
            }
        try:
            for index, record, cached in runner.run_iter(sweep):
                with self._lock:
                    progress = self._active[sweep_sha]
                    progress["done"] += 1
                    progress["cached"] += bool(cached)
                    self._completed_runs += 1
                yield index, record, cached
            if diagnostics is not None and runner.last_stopping:
                diagnostics.extend(runner.last_stopping)
        finally:
            with self._lock:
                self._active.pop(sweep_sha, None)
                self._completed_sweeps += 1

    def execute_single(self, spec: RunSpec) -> tuple[RunRecord, bool]:
        """One run through the same cache: ``(record, served_from_cache)``."""
        if self.store is not None:
            cached = self.store.get(spec)
            if cached is not None:
                with self._lock:
                    self._completed_runs += 1
                return cached, True
        [record] = self._make_executor().map([spec])
        if self.store is not None:
            self.store.put(spec, record)
        with self._lock:
            self._completed_runs += 1
        return record, False

    # -- status ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Runs accepted (across active sweeps) but not yet finished."""
        with self._lock:
            return sum(entry["total"] - entry["done"] for entry in self._active.values())

    def status(self) -> dict[str, Any]:
        with self._lock:
            active = {sha: dict(entry) for sha, entry in self._active.items()}
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

        def _write_envelope(self, index: int, record: RunRecord, cached: bool) -> None:
            envelope = {
                "index": index,
                "cached": bool(cached),
                "sha": record.spec.sha(),
                "record": record.to_dict(),
            }
            self.wfile.write((json.dumps(envelope) + "\n").encode("utf-8"))
            self.wfile.flush()

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
            except (json.JSONDecodeError, TypeError, KeyError, ValueError) as error:
                self._send_error_json(400, f"bad spec: {error}")
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            try:
                if isinstance(submission, SweepSpec):
                    diagnostics: list[dict[str, Any]] = []
                    for index, record, cached in service.stream_sweep(
                        submission, diagnostics
                    ):
                        self._write_envelope(index, record, cached)
                    if diagnostics:
                        line = json.dumps({"stopping": diagnostics}) + "\n"
                        self.wfile.write(line.encode("utf-8"))
                        self.wfile.flush()
                else:
                    record, cached = service.execute_single(submission)
                    self._write_envelope(0, record, cached)
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
    service = SweepService(
        store,
        executor=args.executor,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
    )
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
