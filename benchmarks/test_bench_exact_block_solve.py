"""Block-solve benchmark — rational absorption systems one SCC at a time.

Every state-changing Circles interaction lowers the energy (Theorem 3.4), so
the transient chain's strongly connected components are small plateaus and
the pure-python backend of :func:`repro.exact.solve.solve_transient_systems`
solves ``(I - Q)·x = b`` block by block over them.  The in-repo baseline is
the whole-matrix solve it replaced: one :func:`~repro.exact.solve.gaussian_solve`
over the full ``(I - Q)`` (the ``whole_matrix_solve`` fixture of the root
``conftest.py``, shared with ``tests/exact/test_solve.py``).  Checks, over
every golden case plus the tied circles ``k = 3`` input, all in exact
rationals:

* smoke (default suite): on every system the tied input solves, the block
  solve returns the same ``Fraction`` values as the whole-matrix solve (the
  golden cases are pinned byte for byte by
  ``tests/integration/test_exact_golden.py``);
* ``--perf``: the suite runs at least **5× faster** with the block solve than
  with the whole-matrix baseline (the whole-matrix solve dominates it at the
  parent commit), recorded in ``BENCH_results.json``.
"""

import time
from fractions import Fraction

import pytest

import repro  # noqa: F401  (populates the protocol registry)
import repro.exact.absorption as absorption
from repro.exact import ExactMarkovEngine
from repro.exact.golden import GOLDEN_CASES, case_criterion
from repro.exact.solve import solve_transient_systems
from repro.protocols.registry import get_protocol

#: The tied circles k=3 input: 192 orbits, a 156-state transient system
#: whose largest component has 11 states.
TIED_K3 = ("circles", 3, (0, 0, 1, 1, 2, 2))
CASES = (*GOLDEN_CASES, TIED_K3)


def _suite_time(cases=CASES) -> float:
    start = time.perf_counter()
    for protocol_name, k, colors in cases:
        engine = ExactMarkovEngine.from_colors(
            get_protocol(protocol_name, k), colors, arithmetic="exact"
        )
        engine.run(0, criterion=case_criterion(protocol_name))
    return time.perf_counter() - start


def test_block_solve_matches_the_whole_matrix_solve(monkeypatch, whole_matrix_solve):
    """Smoke (default suite): identical Fractions on every system of the tied input."""
    systems = []

    def recording(rows, transient, rhs_columns, **kwargs):
        solved = solve_transient_systems(rows, transient, rhs_columns, **kwargs)
        systems.append((rows, transient, rhs_columns, solved))
        return solved

    monkeypatch.setattr(absorption, "solve_transient_systems", recording)
    _suite_time([TIED_K3])
    assert systems
    for rows, transient, rhs_columns, solved in systems:
        assert all(isinstance(value, Fraction) for column in solved for value in column)
        assert solved == whole_matrix_solve(rows, transient, rhs_columns, exact=True)


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
