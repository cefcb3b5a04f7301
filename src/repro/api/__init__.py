"""repro.api — the declarative sweep layer.

Experiments describe *what* to run as plain data and this package decides
*how*: a :class:`RunSpec` names one run (protocol, workload, engine,
scheduler, criterion — all by registry name — plus integer seeds), a
:class:`SweepSpec` expands grids over those axes with deterministic per-run
seed derivation, and :func:`run_sweep` executes the expansion serially or
across a ``multiprocessing`` pool, producing :class:`RunRecord`s collected
into a :class:`SweepResult` with groupby/aggregate helpers and lossless JSON
persistence.

Quickstart
----------

>>> from repro.api import SweepSpec, run_sweep
>>> sweep = SweepSpec(
...     protocols=("circles", "cancellation-plurality"),
...     populations=(12,),
...     ks=(3,),
...     workloads=("planted-majority",),
...     engines=("batch",),
...     trials=2,
...     seed=7,
...     max_steps_quadratic=200,
... )
>>> result = run_sweep(sweep)            # run_sweep(sweep, workers=4) for a pool
>>> len(result.records)
4
>>> rows = result.aggregate(value="steps", by=("protocol",), stats=("mean",))
>>> sorted(row["protocol"] for row in rows)
['cancellation-plurality', 'circles']

Persist and re-load losslessly::

    text = result.to_json()
    assert SweepResult.from_json(text).records == result.records

or from the shell: ``python -m repro.api.sweep spec.json -o result.json``.
"""

from repro.api.aggregate import aggregate_records, group_records, record_value
from repro.api.executor import (
    MultiprocessingExecutor,
    SerialExecutor,
    SweepRunner,
    available_executors,
    build_criterion,
    build_executor,
    build_scheduler,
    exact_anchor_value,
    execute_run,
    register_executor,
    resolve_workload,
    run_sweep,
)
from repro.api.records import RunRecord, SweepResult
from repro.api.spec import RunSpec, SweepCell, SweepSpec, canonical_json, derive_seed, sha_of
from repro.api.stopping import STOP_REASONS, StopDecision, StoppingRule

__all__ = [
    "RunSpec",
    "SweepCell",
    "SweepSpec",
    "StoppingRule",
    "StopDecision",
    "STOP_REASONS",
    "exact_anchor_value",
    "RunRecord",
    "SweepResult",
    "SweepRunner",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "run_sweep",
    "execute_run",
    "register_executor",
    "build_executor",
    "available_executors",
    "resolve_workload",
    "build_scheduler",
    "build_criterion",
    "derive_seed",
    "canonical_json",
    "sha_of",
    "aggregate_records",
    "group_records",
    "record_value",
]
