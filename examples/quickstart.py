#!/usr/bin/env python3
"""Quickstart: run the Circles protocol on a small population.

The example mirrors the paper's setting: ``n`` agents each hold one of ``k``
input colors; the protocol must make every agent eventually output the color
with the greatest support.  We run Circles under a weakly fair scheduler,
print what happened, and check the final configuration against the paper's
own prediction (Lemma 3.6).

Run with:  python examples/quickstart.py
"""

from repro import (
    CirclesProtocol,
    predicted_majority,
    predicted_stable_brakets,
    run_circles,
)
from repro.utils.multiset import Multiset


def main() -> None:
    # Six agents, three colors: color 0 has the most supporters (3 > 2 > 1).
    colors = [0, 0, 0, 1, 1, 2]
    print(f"input colors      : {colors}")
    print(f"true majority     : {predicted_majority(colors)}")

    protocol = CirclesProtocol(num_colors=3)
    print(f"protocol          : {protocol.name} with {protocol.state_count()} states (k^3 = 27)")

    result = run_circles(colors, seed=2025)

    print(f"scheduler         : {result.scheduler_name} (weakly fair)")
    print(f"interactions      : {result.steps}")
    print(f"ket exchanges     : {result.ket_exchanges}  (Theorem 3.4: always finite)")
    print(f"energy            : {result.initial_energy} -> {result.final_energy}")
    print(f"all agents output : {sorted(set(result.outputs))}")
    print(f"correct           : {result.correct}")

    # The paper predicts the exact multiset of stable bra-kets from the input alone.
    final_brakets = Multiset(state.braket for state in result.final_states)
    predicted = predicted_stable_brakets(colors)
    print(f"final bra-kets    : {sorted(str(b) for b in final_brakets.elements())}")
    print(f"matches Lemma 3.6 : {final_brakets == predicted}")

    # For large populations under the uniform random scheduler, select the
    # batched configuration-level engine: it simulates the same Markov chain
    # (agents are anonymous) on state counts and skips null interactions once
    # few of them change a state, orders of magnitude faster than stepping
    # individual agents through a scheduler.
    big_colors = [0] * 600 + [1] * 250 + [2] * 150
    fast = run_circles(big_colors, seed=2025, engine="batch")
    print(f"\nn={len(big_colors)} via engine='batch':")
    print(f"interactions      : {fast.steps}")
    print(f"converged/correct : {fast.converged}/{fast.correct}")


if __name__ == "__main__":
    main()
