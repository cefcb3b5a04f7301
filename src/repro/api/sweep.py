"""Run a persisted sweep from the command line.

Usage::

    python -m repro.api.sweep spec.json                 # run, print summary table
    python -m repro.api.sweep spec.json -o result.json  # also persist the SweepResult
    python -m repro.api.sweep spec.json --workers 4     # multiprocessing pool
    python -m repro.api.sweep spec.json --executor asyncio --store results/
    python -m repro.api.sweep spec.json --group protocol n k --value steps

With ``--store`` the sweep runs through the content-addressed result cache
(:mod:`repro.service`): runs already in the store are served instead of
re-simulated, fresh records are persisted, and progress is checkpointed so a
killed invocation resumes where it stopped.

Every run executes as part of a unit through the executor's
``map_groups``: replicate groups (``trials > 1`` on an eligible engine) go
to the vector engine's lockstep driver whole — same records as one spec at
a time, one vectorized pass instead of ``trials`` serial runs — and any
other run is a unit of one.  With a store, progress is checkpointed after
each executor round (``--workers`` units).

Bad arguments (``--trials 0``, ``--workers 0``, an unknown ``--executor``)
are usage errors: exit code 2 with the usage line, before any run starts.

``--trials auto`` switches any spec to adaptive sequential sampling
(:mod:`repro.api.stopping`): each grid cell runs in batches until its
stopping rule is satisfied.  The rule's knobs are exposed as flags
(``--stop-metric``, ``--target-half-width``, ``--min-trials``,
``--max-trials``, ``--batch-size``, ``--confidence``, ``--relative``,
``--exact-anchor``); per-cell diagnostics (trials used, stop reason, final
half-width) are printed after the aggregate table.

``spec.json`` holds a :class:`~repro.api.spec.SweepSpec` in its
``to_dict``/``to_json`` form, e.g.::

    {
      "protocols": [["circles", {}], ["cancellation-plurality", {}]],
      "populations": [16, 32],
      "ks": [3],
      "workloads": [["planted-majority", {}]],
      "engines": ["batch"],
      "trials": 4,
      "seed": 59,
      "max_steps_quadratic": 200
    }

The persisted result (``-o``) round-trips losslessly through
:meth:`~repro.api.records.SweepResult.from_json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.api.executor import available_executors, run_sweep
from repro.api.spec import SweepSpec
from repro.api.stopping import StoppingRule
from repro.utils.tables import format_table


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _trials(text: str) -> int | str:
    return "auto" if text == "auto" else _positive_int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.sweep",
        description="Execute a declarative SweepSpec and print an aggregate table.",
    )
    parser.add_argument("spec", help="path to a SweepSpec JSON file")
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the full SweepResult (lossless JSON) to this path",
    )
    parser.add_argument(
        "-w",
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (overrides the spec's own 'workers' field)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        help="executor registry name (serial, multiprocessing, asyncio)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result-store directory: serve cached runs, persist fresh ones, "
        "checkpoint progress for resume (repro.service)",
    )
    parser.add_argument(
        "--trials",
        type=_trials,
        default=None,
        help="override the spec's trials: a positive integer, or 'auto' for "
        "adaptive sequential sampling",
    )
    stopping_group = parser.add_argument_group(
        "stopping rule", "knobs for --trials auto (each overrides the spec's rule)"
    )
    stopping_group.add_argument("--stop-metric", default=None, metavar="FIELD")
    stopping_group.add_argument("--target-half-width", type=float, default=None)
    stopping_group.add_argument("--confidence", type=float, default=None)
    stopping_group.add_argument("--min-trials", type=int, default=None)
    stopping_group.add_argument("--max-trials", type=int, default=None)
    stopping_group.add_argument("--batch-size", type=int, default=None)
    stopping_group.add_argument("--relative", action="store_true")
    stopping_group.add_argument("--exact-anchor", action="store_true")
    parser.add_argument(
        "--group",
        nargs="+",
        default=("protocol", "workload", "n", "k"),
        metavar="AXIS",
        help="grouping axes for the printed table (default: protocol workload n k)",
    )
    parser.add_argument(
        "--value",
        default="steps",
        help="numeric record field aggregated per group (default: steps)",
    )
    parser.add_argument(
        "--stats",
        nargs="+",
        default=("mean", "median"),
        metavar="STAT",
        help="statistics of --value per group: mean/median/min/max/sum/count/qNN",
    )
    args = parser.parse_args(argv)
    if args.executor is not None and args.executor not in available_executors():
        parser.error(
            f"unknown executor {args.executor!r}; available: "
            f"{', '.join(available_executors())}"
        )

    with open(args.spec, "r", encoding="utf-8") as handle:
        sweep = SweepSpec.from_json(handle.read())

    rule_overrides = {
        field: value
        for field, value in (
            ("metric", args.stop_metric),
            ("target_half_width", args.target_half_width),
            ("confidence", args.confidence),
            ("min_trials", args.min_trials),
            ("max_trials", args.max_trials),
            ("batch_size", args.batch_size),
            ("relative", args.relative or None),
            ("exact_anchor", args.exact_anchor or None),
        )
        if value is not None
    }
    trials: int | str = sweep.trials if args.trials is None else args.trials
    if trials != "auto" and rule_overrides:
        parser.error("stopping-rule flags require --trials auto (or an adaptive spec)")
    if trials != sweep.trials or rule_overrides:
        stopping = None
        if trials == "auto":
            stopping = dataclasses.replace(
                sweep.stopping_rule or StoppingRule(), **rule_overrides
            )
        sweep = dataclasses.replace(sweep, trials=trials, stopping=stopping)

    store = None
    if args.store is not None:
        from repro.service.store import ResultStore

        store = ResultStore(args.store)

    result = run_sweep(sweep, workers=args.workers, store=store, executor=args.executor)

    rows = result.aggregate(value=args.value, by=tuple(args.group), stats=tuple(args.stats))
    if rows:
        headers = list(rows[0])
        print(format_table(headers, [[row[header] for header in headers] for row in rows]))
    print(f"{len(result.records)} runs ({sweep.name or 'unnamed sweep'}, seed={sweep.seed})")

    stopping_diag = result.extras.get("stopping")
    if stopping_diag:
        headers = ["protocol", "workload", "n", "k", "trials", "reason", "half_width"]
        print(
            format_table(
                headers,
                [
                    [
                        entry["protocol"],
                        entry["workload"],
                        entry["n"],
                        entry["k"],
                        entry["trials"],
                        entry["reason"],
                        f"{entry['half_width']:.4f}",
                    ]
                    for entry in stopping_diag
                ],
            )
        )
        rule = sweep.stopping_rule
        assert rule is not None
        budget = len(stopping_diag) * rule.max_trials
        spent = sum(entry["trials"] for entry in stopping_diag)
        print(
            f"adaptive: {spent}/{budget} trials "
            f"({len(stopping_diag)} cells, max_trials={rule.max_trials})"
        )

    if store is not None:
        stats = store.stats()
        print(
            f"store {args.store}: {stats['hits']} cached, {stats['misses']} computed, "
            f"{stats['corrupt']} corrupt, {stats['stale']} stale"
        )
    if args.output:
        result.write_json(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
