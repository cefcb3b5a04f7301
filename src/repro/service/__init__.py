"""repro.service — the durable sweep service (queue, cache, resume).

:mod:`repro.api` describes and executes sweeps; this package makes that
execution *durable* and turns it into a backend:

* :class:`~repro.service.store.ResultStore` — a content-addressed cache of
  completed :class:`~repro.api.records.RunRecord`\\ s, keyed by
  :meth:`RunSpec.sha() <repro.api.spec.RunSpec.sha>` and persisted as
  self-checking JSONL shards.  Identical specs are served from the store,
  never re-simulated; corrupted entries are detected by checksum and
  recomputed.
* :class:`~repro.service.queue.AsyncExecutor` — an ``asyncio`` work-stealing
  executor (registry name ``"asyncio"``) whose one method, ``map_groups``,
  runs units — replicate groups and single runs — with a per-unit timeout,
  bounded retry-with-backoff and graceful cancellation; record-identical to
  the serial and multiprocessing executors.
* :class:`~repro.service.manifest.SweepManifest` — the atomically-written
  checkpoint ledger, saved after every executor round (``workers`` units),
  that lets a killed sweep resume and finish only the remainder.
* :class:`~repro.service.serve.SweepService` + the ``serve``/``submit``
  CLIs — an HTTP front end (stdlib only) that accepts spec JSON and streams
  record JSONL as each executed round finishes, with a ``/status`` endpoint;
  it builds its executor once and shares it across submissions.

Quickstart
----------

>>> from repro.api import SweepSpec, SweepRunner
>>> from repro.service import ResultStore
>>> import tempfile
>>> store = ResultStore(tempfile.mkdtemp())
>>> sweep = SweepSpec(protocols=("circles",), populations=(8,), ks=(2,),
...                   engines=("batch",), trials=2, seed=7, max_steps_quadratic=200)
>>> cold = SweepRunner(store=store, executor="asyncio").run(sweep)
>>> warm = SweepRunner(store=store).run(sweep)   # pure cache, no simulation
>>> warm.records == cold.records
True

Or over HTTP::

    python -m repro.service.serve --store results/ --port 8731 &
    python -m repro.service.submit spec.json --url http://127.0.0.1:8731
"""

from repro.service.manifest import SweepManifest
from repro.service.queue import AsyncExecutor, RunFailed
from repro.service.serve import SweepService
from repro.service.store import ResultStore

__all__ = [
    "AsyncExecutor",
    "ResultStore",
    "RunFailed",
    "SweepManifest",
    "SweepService",
]
