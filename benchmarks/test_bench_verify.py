"""Model-checking benchmark — E3's always-correctness verdict as a closed-class query.

:func:`repro.analysis.verification.verify_always_correct` builds the input's
:class:`~repro.exact.chain.ConfigurationChain` and asks whether every closed
class is all correct (linear in the graph).  The check it replaced explored
the graph with a second BFS, walked ``reachable_from`` once per
configuration (quadratic) and iterated a fixed point.  Checks:

* smoke (default suite): on E3's four default model-check inputs, the
  checker's ``verified`` equals the exact engine's ``always_correct``;
* ``--perf``: circles ``k = 3`` on ``(0⁴, 1³, 2²)`` (4138 configurations)
  model-checks in at most 3 s, against the 14.6 s the quadratic checker
  took.  Recorded in ``BENCH_results.json`` as ``verify-always-correct``.
"""

import inspect
import time

import pytest

from repro.analysis.verification import verify_always_correct
from repro.core.circles import CirclesProtocol
from repro.exact import ExactMarkovEngine
from repro.experiments import e3_correctness

#: E3's default model-check inputs.
SMALL_INPUTS = inspect.signature(e3_correctness.run).parameters["small_inputs"].default

#: The perf input: circles k=3 with counts 4/3/2, 4138 configurations.
PERF_COLORS = (0, 0, 0, 0, 1, 1, 1, 2, 2)

#: Seconds the quadratic reachability checker took on :data:`PERF_COLORS`,
#: measured on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6); repeat runs on
#: the same VM ranged from 8 s to 15 s.
QUADRATIC_CHECKER_SECONDS = 14.6


@pytest.mark.parametrize("colors", SMALL_INPUTS, ids=str)
def test_checker_agrees_with_the_exact_engine_on_e3_inputs(colors):
    """Smoke (default suite): verified == the exact engine's always_correct."""
    protocol = CirclesProtocol(max(colors) + 1)
    verdict = verify_always_correct(protocol, colors)
    engine = ExactMarkovEngine.from_colors(protocol, colors)
    engine.run(0)
    assert verdict.verified == engine.distribution_result.always_correct


@pytest.mark.perf
def test_verify_always_correct_on_circles_k3(record_perf):
    """≤ 3 s for the model check of circles k=3 ``(0⁴, 1³, 2²)``."""
    start = time.perf_counter()
    verdict = verify_always_correct(CirclesProtocol(3), PERF_COLORS)
    seconds = time.perf_counter() - start
    assert verdict.verified
    assert verdict.num_configurations == 4138
    print(
        f"\nverify_always_correct, circles k=3 {PERF_COLORS}: "
        f"{verdict.num_configurations} configurations in {seconds:.2f}s "
        f"(quadratic checker: {QUADRATIC_CHECKER_SECONDS:.1f}s)"
    )
    record_perf(
        "verify-always-correct",
        n=len(PERF_COLORS),
        engine="model-check",
        seconds=seconds,
        speedup=QUADRATIC_CHECKER_SECONDS / seconds,
        baseline_seconds=QUADRATIC_CHECKER_SECONDS,
    )
    assert seconds <= 3.0, f"model check took {seconds:.2f}s (> 3s)"
