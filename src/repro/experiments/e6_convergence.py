"""E6 — Convergence-time and correctness comparison against baselines.

The paper's contribution is state complexity and always-correctness, not
speed; the standard empirical axis of the plurality-consensus literature is
nevertheless the number of interactions to convergence under the uniform
random scheduler.  The experiment compares:

* **Circles** (always correct, ``k^3`` states),
* the **cancellation plurality** heuristic (``2k`` states, fast, *not* always
  correct — its error rate on the adversarial workload is part of the table),
* the **tournament** comparator (always correct, huge state count),
* and, for ``k = 2`` only, the classical **exact majority** and
  **approximate majority** protocols.

The expected *shape* (who wins on which axis): the heuristics converge in the
fewest interactions but lose correctness on adversarial inputs; Circles pays
a polynomial interaction overhead for always-correctness with a small state
footprint; the tournament comparator is always correct but needs orders of
magnitude more states (see E1).

The sweep itself is declarative: :func:`sweep_specs` builds one
:class:`~repro.api.spec.SweepSpec` per color count (the protocol and
workload axes depend on ``k``) and :func:`run` executes them and renders the
table from the aggregated records.  Every trial of every protocol at a sweep
point runs on *identical* input colors (the sweep API derives one workload
seed per (k, n, workload) point), which is what makes the correctness-rate
columns a paired comparison.

For small populations (``n ≤ exact_max_n``) the table also carries the
**exact expected interactions to convergence** from the analytical engine
(:mod:`repro.exact`): the expected first-hitting time of the run's stopping
criterion in the uniform-random-scheduler Markov chain, computed on the very
same workload colors the empirical trials used.  Rows whose configuration
space is too large for the exact solve show "—".

Trials default to adaptive sequential sampling (``trials="auto"``,
:mod:`repro.api.stopping`): each (protocol, workload, n, k) cell runs in
batches until the Wilson interval around its correctness rate is tight
enough — and cells small enough for the exact engine stop as soon as the
analytical correctness probability lies inside that interval (the
``exact_anchor`` mode), so easy cells cost ``min_trials`` while cells near a
decision boundary (the cancellation heuristic on adversarial workloads)
automatically earn up to ``max_trials``.  The "trials (stop)" column reports
what each cell actually used.  Pass a fixed integer ``trials`` for the
classic fixed-budget sweep.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.api.executor import resolve_workload, run_sweep
from repro.api.spec import SweepSpec, derive_seed
from repro.api.stopping import StoppingRule
from repro.exact import ChainTooLarge, SolveTooLarge, exact_expected_convergence
from repro.protocols.registry import get_protocol
from repro.experiments.harness import (
    EXACT_INFEASIBLE,
    EXACT_NOT_ALMOST_SURE,
    ExperimentResult,
)

#: Configuration-space cap for the exact column (keeps the enumeration cheap
#: even for protocols whose δ-closure does not compile, e.g. tournament at
#: k ≥ 4 — those rows degrade to the infeasible sentinel).  With the
#: symmetry quotient on by default the cap counts *orbit representatives*,
#: so symmetric inputs reach populations their raw configuration count would
#: have ruled out.
EXACT_MAX_CONFIGURATIONS = 4_000


def exact_expected_cell(protocol_name: str, k: int, colors: list[int]) -> str:
    """The exact-column cell for one sweep point, or a sentinel.

    Uses the same stopping criterion the empirical runs measured, the
    protocol's :meth:`~repro.protocols.base.PopulationProtocol.default_criterion`
    (:class:`StableCircles` for Circles, :class:`OutputConsensus` otherwise),
    so the column is directly comparable to the empirical mean next to it.
    :data:`EXACT_INFEASIBLE` marks cells whose chain or solve exceeds a cap;
    :data:`EXACT_NOT_ALMOST_SURE` marks cells the analysis *solved* and
    proved the criterion is not almost surely reached — the two must stay
    distinguishable.
    """
    protocol = get_protocol(protocol_name, k)
    try:
        expected = exact_expected_convergence(
            protocol,
            colors,
            protocol.default_criterion(),
            max_configurations=EXACT_MAX_CONFIGURATIONS,
        )
    except (ChainTooLarge, SolveTooLarge):
        return EXACT_INFEASIBLE
    if expected is None:  # criterion not almost surely reached
        return EXACT_NOT_ALMOST_SURE
    return f"{expected:.1f}"


def _protocol_names_for(k: int) -> tuple[str, ...]:
    names = ("circles", "cancellation-plurality", "tournament-plurality")
    if k == 2:
        names += ("exact-majority", "approximate-majority")
    return names


def _workload_names_for(k: int, adversarial: bool) -> tuple[str, ...]:
    workloads = ("planted-majority",)
    if adversarial and k >= 3:
        workloads += ("adversarial-two-block", "near-tie")
    return workloads


#: The default stopping rule for E6's adaptive sweeps: track the Wilson
#: interval of each cell's correctness rate.  The 0.17 target is chosen
#: between the Wilson half-widths of an all-correct cell at 4 trials (≈0.245)
#: and at 8 trials (≈0.162), so a plain cell needs 8 trials — but a cell the
#: exact engine can solve stops at ``min_trials`` the moment the analytical
#: P(correct) falls inside the empirical interval, and a boundary cell (the
#: cancellation heuristic mid-failure) earns up to 16.
E6_STOPPING = StoppingRule(
    metric="correct",
    proportion=True,
    target_half_width=0.17,
    min_trials=4,
    batch_size=4,
    max_trials=16,
    exact_anchor=True,
)


def sweep_specs(
    populations: Iterable[int] = (8, 16, 32, 64),
    ks: Iterable[int] = (2, 4),
    trials: int | str = "auto",
    seed: int = 59,
    adversarial: bool = True,
    engine: str = "batch",
    workers: int | None = None,
    stopping: StoppingRule | None = None,
) -> list[SweepSpec]:
    """The declarative description of the E6 comparison, one sweep per ``k``.

    The protocol roster and the workload list depend on the color count, so
    each ``k`` gets its own grid; everything else (populations, trials, the
    quadratic interaction budget) is shared.  The agent engine does not
    simulate a scheduler implicitly, so it gets the uniform random scheduler
    by name — the same chain the configuration-level engines sample exactly.
    """
    schedulers = ("uniform-random",) if engine == "agent" else (None,)
    return [
        SweepSpec(
            name=f"e6-convergence-k{k}",
            protocols=_protocol_names_for(k),
            populations=tuple(populations),
            ks=(k,),
            workloads=_workload_names_for(k, adversarial),
            engines=(engine,),
            schedulers=schedulers,
            trials=trials,
            stopping=(stopping or E6_STOPPING) if trials == "auto" else None,
            seed=derive_seed(seed, f"e6:k={k}"),
            max_steps_quadratic=200,
            workers=workers,
        )
        for k in ks
    ]


def run(
    populations: Iterable[int] = (8, 16, 32, 64),
    ks: Iterable[int] = (2, 4),
    trials: int | str = "auto",
    seed: int = 59,
    adversarial: bool = True,
    engine: str = "batch",
    workers: int | None = None,
    exact_max_n: int = 12,
    store=None,
    stopping: StoppingRule | None = None,
) -> ExperimentResult:
    """Build the E6 convergence/correctness comparison table.

    Args:
        trials: trials per sweep cell — ``"auto"`` (the default) samples
            sequentially under ``stopping`` (default: :data:`E6_STOPPING`),
            a fixed integer restores the classic fixed-budget sweep.
        stopping: optional :class:`~repro.api.stopping.StoppingRule`
            override for the adaptive path.
        engine: simulation engine (``"agent"``, ``"batch"`` or
            ``"vector"``).  All of them simulate the uniform
            random scheduler — exactly for the configuration-level engines,
            via explicit pair draws for the agent engine — so the measured
            distributions agree; the default is the batched fast path, which
            is what makes the large-``n`` convergence sweeps tractable.  For
            engines with lockstep support (``"batch"``, ``"vector"``) the
            sweep runner additionally routes each point's ``trials``
            replicates through the vector engine's lockstep driver
            (:mod:`repro.api.executor`), with records identical to serial
            execution.
        workers: optional process-pool size for the underlying sweeps.
        exact_max_n: populations up to this size get the analytical
            "exact E[interactions]" column (the expected first-hitting time
            of the stopping criterion in the exact configuration chain,
            :mod:`repro.exact`); larger rows show the infeasible sentinel.
            The default of 12 relies on the engine's symmetry quotient:
            the chain is built over orbit representatives, so symmetric
            inputs stay inside the configuration cap well past the old
            unquotiented ceiling of 8.
        store: optional :class:`repro.service.store.ResultStore` — table
            regeneration becomes incremental, re-simulating only the sweep
            points not already in the store.
    """
    result = ExperimentResult(
        experiment_id="E6",
        title="Interactions to convergence and correctness rate vs. baselines (uniform random scheduler)",
        headers=(
            "protocol",
            "workload",
            "n",
            "k",
            "states",
            "mean interactions",
            "exact E[interactions]",
            "trials (stop)",
            "correct runs",
        ),
    )
    adaptive_cells = 0
    adaptive_spent = 0
    adaptive_budget = 0
    for sweep in sweep_specs(populations, ks, trials, seed, adversarial, engine, stopping=stopping):
        sweep_result = run_sweep(sweep, workers=workers, store=store)
        stop_by_point = {
            (entry["protocol"], entry["workload"], entry["n"], entry["k"]): entry
            for entry in sweep_result.extras.get("stopping", ())
        }
        rows = sweep_result.aggregate(
            value="steps", by=("protocol", "workload", "n", "k"), stats=("mean",)
        )
        specs_by_point = {
            (record.protocol_name, record.spec.workload, record.num_agents, record.num_colors): record.spec
            for record in sweep_result.records
        }
        for row in rows:
            point = (row["protocol"], row["workload"], row["n"], row["k"])
            if row["n"] <= exact_max_n and point in specs_by_point:
                # Trials at a sweep point share one workload seed, so this
                # reproduces the exact colors every empirical trial used.
                colors = resolve_workload(specs_by_point[point])
                exact_cell = exact_expected_cell(row["protocol"], row["k"], colors)
            else:
                exact_cell = EXACT_INFEASIBLE
            stop_entry = stop_by_point.get(point)
            if stop_entry is not None:
                trials_cell = f"{stop_entry['trials']} ({stop_entry['reason']})"
                adaptive_cells += 1
                adaptive_spent += stop_entry["trials"]
            else:
                trials_cell = row["trials"]
            result.add_row(
                row["protocol"],
                row["workload"],
                row["n"],
                row["k"],
                get_protocol(row["protocol"], row["k"]).state_count(),
                row["mean_steps"],
                exact_cell,
                trials_cell,
                f"{row['correct']}/{row['trials']}",
            )
        rule = sweep.stopping_rule
        if rule is not None:
            adaptive_budget += sweep.num_cells() * rule.max_trials
    heuristic_failures = sum(
        1
        for row in result.rows
        if row[0] == "cancellation-plurality"
        and row[-1].split("/")[0] != row[-1].split("/")[1]
    )
    if adaptive_cells:
        result.add_note(
            f"Adaptive sampling (trials='auto'): {adaptive_spent} trials across "
            f"{adaptive_cells} cells (max budget {adaptive_budget}); 'trials (stop)' "
            "shows each cell's spend and stop reason (exact-anchor cells stopped as "
            "soon as the analytical P(correct) entered the empirical Wilson interval)."
        )
    result.add_note(
        "Circles and the tournament comparator are correct in every run; the cancellation "
        f"heuristic failed (or did not converge) in {heuristic_failures} of its sweep points — "
        "the failure mode the paper's problem statement predicts for naive cancellation."
    )
    result.add_note(
        "Interaction counts are reported under the uniform random scheduler with each "
        "protocol's default criterion (StableCircles for Circles, output consensus for the "
        f"baselines), simulated by the {engine!r} engine."
    )
    result.add_note(
        f"'exact E[interactions]' (n ≤ {exact_max_n}) is the analytical expected "
        "first-hitting time of the same criterion in the symmetry-quotiented exact "
        "configuration chain (repro.exact), on the same workload colors; "
        f"{EXACT_INFEASIBLE!r} marks rows whose chain or fundamental-matrix solve "
        f"exceeds the exact-analysis caps, {EXACT_NOT_ALMOST_SURE!r} criteria that "
        "are not almost surely reached."
    )
    return result
