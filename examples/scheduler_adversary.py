#!/usr/bin/env python3
"""Scheduler adversaries: why "always correct under weak fairness" is the interesting claim.

The paper's guarantee is not about average-case speed — it is that Circles
cannot be fooled by *any* weakly fair scheduler (Definition 1.2), however
adversarial.  This example runs the same near-tie input under four schedulers:

* uniform random        — the benign, standard scheduler;
* round-robin           — the canonical deterministic weakly fair scheduler;
* greedy-stall          — an adaptive adversary that prefers useless
                          interactions but is forced to stay weakly fair;
* isolation (UNFAIR)    — a scheduler that silences part of the population,
                          violating Definition 1.2.

Circles is correct under the first three, however long the adversary stalls;
under the unfair scheduler no protocol can be correct, which is exactly why
the model needs the fairness assumption.

Run with:  python examples/scheduler_adversary.py
"""

from repro import CirclesProtocol, predicted_majority, run_circles
from repro.scheduling.adversarial import GreedyStallScheduler, IsolationScheduler
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.utils.tables import format_table
from repro.workloads.distributions import near_tie

NUM_AGENTS = 12
NUM_COLORS = 3
SEED = 3


def build_schedulers(protocol: CirclesProtocol):
    """The four schedulers of the comparison, keyed by a display name."""
    return {
        "uniform random": UniformRandomScheduler(NUM_AGENTS, seed=SEED),
        "round robin": RoundRobinScheduler(NUM_AGENTS, seed=SEED, shuffle_once=True),
        "greedy stall (fair adversary)": GreedyStallScheduler(
            NUM_AGENTS,
            protocol=protocol,
            seed=SEED,
            patience=6,
        ),
        "isolation (UNFAIR)": IsolationScheduler(NUM_AGENTS, isolated={0, 1, 2}, seed=SEED),
    }


def main() -> None:
    colors = near_tie(NUM_AGENTS, NUM_COLORS, seed=SEED)
    majority = predicted_majority(colors)
    print(f"input colors: {colors}")
    print(f"true majority: {majority} (margin of a single agent — the hardest non-tied input)")
    print()

    protocol = CirclesProtocol(NUM_COLORS)
    rows = []
    for name, scheduler in build_schedulers(protocol).items():
        outcome = run_circles(
            colors,
            num_colors=NUM_COLORS,
            scheduler=scheduler,
            max_steps=400 * NUM_AGENTS * NUM_AGENTS,
        )
        rows.append(
            (
                name,
                "yes" if scheduler.is_weakly_fair else "NO",
                outcome.steps,
                outcome.ket_exchanges,
                sorted(set(outcome.outputs)),
                "yes" if outcome.correct else "no",
            )
        )

    print(
        format_table(
            ["scheduler", "weakly fair", "interactions", "ket exchanges", "outputs", "correct"],
            rows,
        )
    )
    print()
    print(
        "The adversary can slow Circles down but not break it; only violating weak fairness\n"
        "(isolating agents) produces a wrong answer — and that is unavoidable for any protocol."
    )


if __name__ == "__main__":
    main()
