"""The ``asyncio`` work-stealing executor: the service's job queue.

A pool of worker coroutines pulls execution units from one shared deque —
the coroutine form of work stealing: there is no up-front partition of units
to workers, so a worker that drew short units keeps stealing the remaining
work from the common pool while a long unit occupies another.  A unit is a
replicate group (:meth:`AsyncExecutor.map_groups`, through
:func:`~repro.api.executor.execute_replicate_group`) or a unit of one run
(through :func:`~repro.api.executor.execute_run`); both go through the same
retry loop.  Each unit executes in a thread (:func:`asyncio.to_thread`),
so the event loop stays responsive for timeout enforcement and cancellation
while the simulation computes.  Below the vector kernel's population gate the
GIL serializes that work; kernel groups release it inside their numpy rounds
and run their row blocks on threads of their own.

Robustness contract (per unit):

* **timeout** — a run exceeding ``timeout`` seconds is abandoned and counts
  as a failed attempt; a replicate group's budget is ``timeout × rows``, the
  sum of its rows' per-run budgets;
* **bounded retry with backoff** — a failed attempt is retried up to
  ``retries`` times, sleeping ``backoff * 2**attempt`` seconds in between;
* **graceful cancellation** — when any unit exhausts its retries (or the
  caller cancels), every in-flight worker is cancelled and awaited before
  ``map_groups`` raises :class:`RunFailed`, so no stray tasks outlive the
  call.  A failed group names its first spec and row count.

Determinism: both unit functions are pure functions of their specs, and
results are collected into input order, so ``map_groups`` is
record-for-record identical to the serial and multiprocessing executors —
the property the parametrized executor-agreement tests pin.  An executor
holds only its settings between calls, so one instance can serve concurrent
callers.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Sequence

from repro.api.executor import execute_replicate_group, execute_run, register_executor
from repro.api.records import RunRecord
from repro.api.spec import RunSpec

#: Default coroutine-pool width.  Units execute in threads: below the kernel
#: gate the GIL serializes their CPU work, so the width mostly bounds queued
#: thread-pool jobs; kernel groups release the GIL in their numpy rounds.
DEFAULT_WORKERS = 4


class RunFailed(RuntimeError):
    """A run (or a replicate group) kept failing after every retry.

    Carries the failing spec — a group's first spec — the group's row count
    (1 for a single run) and the attempt count; the original exception (or
    :class:`TimeoutError` for a timed-out unit) is chained as ``__cause__``.
    """

    def __init__(
        self, spec: RunSpec, attempts: int, cause: BaseException, rows: int = 1
    ) -> None:
        unit = "run" if rows == 1 else f"replicate group of {rows} runs from"
        super().__init__(
            f"{unit} {spec.sha()[:12]} ({spec.protocol}, n={spec.n}, k={spec.k}) "
            f"failed after {attempts} attempt(s): {cause!r}"
        )
        self.spec = spec
        self.rows = rows
        self.attempts = attempts


class AsyncExecutor:
    """Run specs through an ``asyncio`` worker pool over one shared queue.

    Registered as executor ``"asyncio"``; drop-in compatible with
    :class:`~repro.api.executor.SerialExecutor` (same ``map_groups``
    contract, same records).
    """

    name = "asyncio"

    def __init__(
        self,
        workers: int | None = None,
        *,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        workers = DEFAULT_WORKERS if workers is None else workers
        if workers < 1:
            raise ValueError(
                f"workers must be a positive number of workers, got {workers}; "
                f"omit it (or pass None) for the default"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive (seconds), got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be non-negative (seconds), got {backoff}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def map_groups(self, groups: Sequence[Sequence[RunSpec]]) -> list[list[RunRecord]]:
        """Execute units (see :func:`execute_replicate_group`) in order.

        Each unit is one entry of the queue, with a timeout of ``timeout ×
        rows``.  Raises :class:`RunFailed` naming the unit when it exhausts
        its retries; all other in-flight work is cancelled and awaited first.
        """
        units = [list(group) for group in groups]
        if not units:
            return []
        return asyncio.run(self._run_all(units))

    async def _run_all(self, units: list[list[RunSpec]]) -> list[list[RunRecord]]:
        """Execute every unit; results in input order."""
        queue: deque[int] = deque(range(len(units)))
        results: list = [None] * len(units)
        workers = [
            asyncio.create_task(self._worker(queue, units, results))
            for _ in range(min(self.workers, len(units)))
        ]
        try:
            await asyncio.gather(*workers)
        finally:
            # Graceful cancellation: on failure (or external cancellation)
            # bring every sibling worker down before surfacing the cause.
            for task in workers:
                task.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
        assert all(result is not None for result in results)
        return results

    async def _worker(self, queue: deque[int], units: list, results: list) -> None:
        while queue:
            index = queue.popleft()
            results[index] = await self._execute_with_retry(units[index])

    async def _execute_with_retry(self, unit: list[RunSpec]) -> list[RunRecord]:
        rows = len(unit)
        timeout = None if self.timeout is None else self.timeout * rows
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                job = asyncio.to_thread(_execute_unit, unit)
                if timeout is not None:
                    return await asyncio.wait_for(job, timeout=timeout)
                return await job
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 - retry then wrap
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise
                if attempt + 1 >= attempts:
                    raise RunFailed(unit[0], attempts, error, rows) from error
                await asyncio.sleep(self.backoff * (2**attempt))
        raise AssertionError("unreachable: the retry loop returns or raises")


def _execute_unit(unit: list[RunSpec]) -> list[RunRecord]:
    """A unit of one through this module's ``execute_run``, a group through
    ``execute_replicate_group``; ``perfbench/layers.py`` times attempts by
    wrapping the ``execute_run`` name this module looks up."""
    if len(unit) == 1:
        return [execute_run(unit[0])]
    return execute_replicate_group(unit)


register_executor(
    AsyncExecutor.name,
    lambda workers=None, **params: AsyncExecutor(workers, **params),
)
