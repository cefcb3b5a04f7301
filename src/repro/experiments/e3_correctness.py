"""E3 — Always-correctness under weakly fair scheduling (Theorem 3.7).

Three complementary checks:

* **Exhaustive model checking** on small populations: every configuration
  reachable from the input can still reach a *correct-closed* configuration
  (and no incorrect trap exists).  See
  :mod:`repro.analysis.verification` for the exact semantics and the
  global-vs-weak fairness caveat.
* **Exact correctness probability** (:mod:`repro.exact`): the probability,
  under the uniform random scheduler, of stabilizing with every agent
  outputting the majority — computed analytically from absorption into the
  chain's stable classes.  Theorem 3.7 predicts exactly 1; unlike the
  engine-vs-engine statistics elsewhere, this column is math, not sampling.
* **Empirical sweeps** on larger populations under several weakly fair
  schedulers — including the adaptive :class:`GreedyStallScheduler`
  adversary — where the correctness rate must be 100%.

The empirical sweeps are declarative (:class:`~repro.api.spec.SweepSpec`
over the scheduler × workload axes, agent engine) and default to adaptive
sequential sampling, ``trials="auto"``: each (scheduler, workload) cell runs
in batches until the Wilson interval around its correctness rate is tight
enough — or, where the configuration chain is small enough to solve, until
the exact engine's analytical P(correct) lies inside that interval (the
``exact_anchor`` mode of :mod:`repro.api.stopping`).  Cells whose early
trials are all correct stop after ``min_trials``; a cell that ever failed
would automatically earn more trials, up to ``max_trials``.  Pass a fixed
integer ``trials`` for the classic fixed-budget sweep.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.verification import verify_always_correct
from repro.api.executor import run_sweep
from repro.api.spec import SweepSpec
from repro.api.stopping import StoppingRule
from repro.core.circles import CirclesProtocol
from repro.exact import ChainTooLarge, SolveTooLarge, exact_correctness_probability
from repro.experiments.harness import EXACT_INFEASIBLE, ExperimentResult


def model_check_rows(inputs: Iterable[tuple[int, ...]]) -> list[tuple[object, ...]]:
    """Exhaustively verify Circles on a list of small inputs.

    Each row also carries the exact correctness probability from the
    configuration-chain analysis — the ground-truth column the empirical
    rates below are anchored to.
    """
    rows = []
    for colors in inputs:
        k = max(colors) + 1
        protocol = CirclesProtocol(k)
        verdict = verify_always_correct(protocol, colors)
        try:
            probability = exact_correctness_probability(protocol, colors)
        except (ChainTooLarge, SolveTooLarge):
            # The model checker tolerates larger inputs (its own cap merely
            # truncates); keep its verdict and degrade only the exact cell.
            probability = None
        rows.append(
            (
                "model-check",
                f"{list(colors)}",
                k,
                verdict.num_configurations,
                f"{probability:.6f}" if probability is not None else EXACT_INFEASIBLE,
                verdict.verified,
            )
        )
    return rows


#: The default stopping rule for E3's adaptive empirical sweeps: track the
#: Wilson interval of the per-cell correctness rate, stop as soon as the
#: exact engine's analytical P(correct) lies inside it (small chains) or the
#: interval's half-width reaches 0.25 — an all-correct cell stops right at
#: ``min_trials`` (Wilson half-width at p̂=1, n=4 is ≈0.245); any failure
#: widens the interval and earns the cell up to ``max_trials``.
E3_STOPPING = StoppingRule(
    metric="correct",
    proportion=True,
    target_half_width=0.25,
    min_trials=4,
    batch_size=2,
    max_trials=12,
    exact_anchor=True,
)


def empirical_sweep(
    schedulers: Iterable[str],
    num_agents: int,
    num_colors: int,
    trials: int | str,
    seed: int,
    stopping: StoppingRule | None = None,
) -> SweepSpec:
    """The declarative description of E3's empirical correctness sweep.

    One grid cell per (scheduler, workload): Circles on the agent engine
    under every named weakly fair scheduler, on a planted-majority and a
    unique-majority uniform workload.  Trials of a cell share one workload
    seed (the sweep API's pairing discipline) and vary only the run seed.
    """
    scheduler_axis = tuple(
        ("round-robin", {"shuffle_once": True}) if name == "round-robin" else name
        for name in schedulers
    )
    return SweepSpec(
        name="e3-correctness",
        protocols=("circles",),
        populations=(num_agents,),
        ks=(num_colors,),
        workloads=(
            "planted-majority",
            ("uniform", {"require_unique_majority": True}),
        ),
        engines=("agent",),
        schedulers=scheduler_axis,
        trials=trials,
        stopping=(stopping or E3_STOPPING) if trials == "auto" else None,
        seed=seed,
    )


def empirical_rows(
    schedulers: Iterable[str],
    num_agents: int,
    num_colors: int,
    trials: int | str,
    seed: int,
    stopping: StoppingRule | None = None,
    store=None,
) -> tuple[list[tuple[object, ...]], list[dict]]:
    """Empirical correctness rate per scheduler, plus stopping diagnostics.

    Returns ``(rows, stopping_diagnostics)``; the diagnostics list is empty
    for fixed-trial sweeps.
    """
    schedulers = tuple(schedulers)
    if not schedulers:
        return [], []
    sweep = empirical_sweep(schedulers, num_agents, num_colors, trials, seed, stopping)
    sweep_result = run_sweep(sweep, store=store)
    rows: list[tuple[object, ...]] = []
    for (scheduler_name,), records in sweep_result.groupby("scheduler").items():
        converged = sum(record.converged for record in records)
        correct = sum(record.correct for record in records)
        rows.append(
            (
                scheduler_name,
                f"n={num_agents}, k={num_colors}, trials={len(records)}",
                num_colors,
                converged,
                EXACT_INFEASIBLE,
                correct == len(records),
            )
        )
    return rows, list(sweep_result.extras.get("stopping", ()))


def run(
    small_inputs: Iterable[tuple[int, ...]] = (
        (0, 0, 1),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 2),
        (0, 0, 1, 2, 2, 2),
    ),
    schedulers: Iterable[str] = (
        "uniform-random",
        "round-robin",
        "random-permutation",
        "greedy-stall",
    ),
    num_agents: int = 18,
    num_colors: int = 4,
    trials: int | str = "auto",
    seed: int = 11,
    stopping: StoppingRule | None = None,
    store=None,
) -> ExperimentResult:
    """Build the E3 correctness table (model checking + empirical sweeps).

    Args:
        trials: trials per (scheduler, workload) cell — ``"auto"`` (the
            default) samples sequentially under ``stopping`` (default:
            :data:`E3_STOPPING`), a fixed integer restores the classic sweep.
        stopping: optional :class:`~repro.api.stopping.StoppingRule`
            override for the adaptive path.
        store: optional :class:`repro.service.store.ResultStore` — the
            empirical sweep serves cached runs and persists fresh ones.
    """
    result = ExperimentResult(
        experiment_id="E3",
        title="Always-correctness under weakly fair schedulers (Theorem 3.7)",
        headers=(
            "check",
            "input / parameters",
            "k",
            "configurations or converged",
            "exact P(correct)",
            "correct",
        ),
    )
    for row in model_check_rows(small_inputs):
        result.add_row(*row)
    rows, stopping_diag = empirical_rows(
        schedulers, num_agents, num_colors, trials, seed, stopping, store
    )
    for row in rows:
        result.add_row(*row)
    if stopping_diag:
        spent = sum(entry["trials"] for entry in stopping_diag)
        reasons = sorted({entry["reason"] for entry in stopping_diag})
        rule = stopping or E3_STOPPING
        result.add_note(
            f"Empirical sweeps used adaptive sampling (trials='auto'): {spent} trials "
            f"across {len(stopping_diag)} (scheduler, workload) cells "
            f"(max budget {len(stopping_diag) * rule.max_trials}), stop reasons: "
            f"{', '.join(reasons)}."
        )
    result.add_note(
        "Model checking uses the global-fairness stabilization check (see "
        "repro.analysis.verification); the adversarial greedy-stall scheduler covers the "
        "weak-fairness side empirically."
    )
    result.add_note(
        "'exact P(correct)' is the analytical absorption probability into correct stable "
        "classes under the uniform random scheduler (repro.exact); Theorem 3.7 predicts "
        "exactly 1.000000 on every unique-majority input."
    )
    return result
