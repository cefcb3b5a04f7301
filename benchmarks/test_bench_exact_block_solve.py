"""Block-solve benchmark — absorption systems one SCC at a time.

Every state-changing Circles interaction lowers the energy (Theorem 3.4), so
the transient chain's strongly connected components are small plateaus and
:func:`repro.exact.solve.solve_transient_systems` solves for the expected
visits ``π = e_initᵀ (I - Q)⁻¹`` block by block over them, in both
arithmetics.  The in-repo rational baseline is the whole-matrix solve: one
``Fraction`` Gaussian elimination over the full ``(I - Q)ᵀ`` (the
``whole_matrix_solve`` fixture of the root ``conftest.py``, shared with
``tests/exact/test_solve.py``).  It stands in for every real solve, so a
solve the analyses share is shared by the baseline too.  Checks:

* smoke (default suite): on every system the tied circles ``k = 3`` input
  solves, the block solve returns the same ``Fraction`` visits as the
  whole-matrix solve (the golden cases are pinned byte for byte by
  ``tests/integration/test_exact_golden.py``), and the float block solve
  equals those rationals within ``rel_tol = 1e-12``;
* ``--perf``: over every golden case plus the tied input, the rational suite
  runs at least **5× faster** with the block solve than with the
  whole-matrix baseline; and the float hitting analysis of the unquotiented
  circles ``k = 3`` input ``(0⁴, 1³, 2³)`` (14635 transient states) finishes
  in at most 15 s, against the ~97 s the whole-matrix float solves took.
  Both are recorded in ``BENCH_results.json``.
"""

import math
import time
from fractions import Fraction

import pytest

import repro  # noqa: F401  (populates the protocol registry)
import repro.exact.absorption as absorption
from repro.exact import ExactMarkovEngine, exact_expected_convergence
from repro.exact.golden import GOLDEN_CASES, case_criterion
from repro.exact.solve import solve_transient_systems
from repro.protocols.registry import get_protocol
from repro.simulation.convergence import StableCircles

#: The tied circles k=3 input: 192 orbits, a 156-state transient system
#: whose largest component has 11 states.
TIED_K3 = ("circles", 3, (0, 0, 1, 1, 2, 2))
CASES = (*GOLDEN_CASES, TIED_K3)

#: The float workload: circles k=3 ``(0⁴, 1³, 2³)`` without the quotient,
#: whose hitting system has 14635 transient states.
FLOAT_K3 = (0, 0, 0, 0, 1, 1, 1, 2, 2, 2)

#: Seconds the float hitting analysis of :data:`FLOAT_K3` took with the
#: whole-matrix float solves (numpy dense LU up to 1500 states, scipy sparse
#: LU past it, size cap lifted) that the block solve replaced, measured on a
#: 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
WHOLE_MATRIX_FLOAT_SECONDS = 97.2


def _suite_time(cases=CASES) -> float:
    start = time.perf_counter()
    for protocol_name, k, colors in cases:
        engine = ExactMarkovEngine.from_colors(
            get_protocol(protocol_name, k), colors, arithmetic="exact"
        )
        engine.run(0, criterion=case_criterion(protocol_name))
    return time.perf_counter() - start


def _tied_systems(monkeypatch):
    """Every ``(weights, transient, start, denominator, visits)`` the tied input solves."""
    systems = []

    def recording(weights, transient, start, **kwargs):
        visits = solve_transient_systems(weights, transient, start, **kwargs)
        systems.append((weights, transient, start, kwargs["denominator"], visits))
        return visits

    monkeypatch.setattr(absorption, "solve_transient_systems", recording)
    _suite_time([TIED_K3])
    assert systems
    return systems


def test_block_solve_matches_the_whole_matrix_solve(monkeypatch, whole_matrix_solve):
    """Smoke (default suite): identical Fractions on every system of the tied input."""
    for weights, transient, start, denominator, visits in _tied_systems(monkeypatch):
        assert all(isinstance(value, Fraction) for value in visits)
        assert visits == whole_matrix_solve(weights, transient, start, denominator=denominator)


def test_float_block_solve_matches_the_rational_solve(monkeypatch):
    """Smoke (default suite): float block solve ≈ rationals on every tied system."""
    for weights, transient, start, denominator, visits in _tied_systems(monkeypatch):
        floats = solve_transient_systems(
            weights, transient, start, denominator=denominator, exact=False
        )
        for a, b in zip(floats, visits, strict=True):
            assert math.isclose(a, float(b), rel_tol=1e-12, abs_tol=1e-15), (a, b)


@pytest.mark.perf
def test_block_solve_speeds_up_the_rational_suite(
    record_perf, monkeypatch, whole_matrix_solve
):
    """≥5× on the rational golden suite plus the tied k=3 input."""
    block_time = _suite_time()
    monkeypatch.setattr(absorption, "solve_transient_systems", whole_matrix_solve)
    whole_time = _suite_time()
    print(
        f"\nrational golden suite + tied k=3: block solve {block_time:.2f}s, "
        f"whole-matrix solve {whole_time:.2f}s, speedup {whole_time / block_time:.1f}x"
    )
    record_perf(
        "exact-rational-block-solve",
        n=max(len(colors) for _, _, colors in CASES),
        engine="exact",
        seconds=block_time,
        speedup=whole_time / block_time,
        baseline_seconds=whole_time,
    )
    assert block_time * 5 <= whole_time, (
        f"block solve only {whole_time / block_time:.1f}x faster "
        f"({block_time:.2f}s vs {whole_time:.2f}s)"
    )


@pytest.mark.perf
def test_float_block_solve_of_the_unquotiented_k3_input(record_perf):
    """≤ 15 s for the float hitting analysis of circles k=3 ``(0⁴, 1³, 2³)``."""
    start = time.perf_counter()
    expected = exact_expected_convergence(
        get_protocol("circles", 3), FLOAT_K3, StableCircles(), quotient=False
    )
    seconds = time.perf_counter() - start
    assert expected is not None
    print(
        f"\nfloat hitting analysis, circles k=3 {FLOAT_K3}, quotient off: "
        f"E = {expected:.6f} in {seconds:.2f}s "
        f"(whole-matrix float solves: {WHOLE_MATRIX_FLOAT_SECONDS:.1f}s)"
    )
    record_perf(
        "exact-float-block-solve",
        n=len(FLOAT_K3),
        engine="exact",
        seconds=seconds,
        speedup=WHOLE_MATRIX_FLOAT_SECONDS / seconds,
        baseline_seconds=WHOLE_MATRIX_FLOAT_SECONDS,
    )
    assert seconds <= 15.0, f"float block solve took {seconds:.2f}s (> 15s)"
