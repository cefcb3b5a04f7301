"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been pip-installed
(useful on offline machines where editable installs are unavailable); an
installed ``repro`` package, if present, still takes precedence only if it is
the same source tree thanks to the editable install pointing here.

Markers
-------

* ``bench`` — automatically applied to everything under ``benchmarks/``
  (the pytest-benchmark experiment regenerations, which dominate the suite's
  runtime).  Skip them for a fast signal with ``pytest -m "not bench"``; run
  only them with ``pytest -m bench benchmarks/``.
* ``perf`` — wall-clock performance comparisons with timing assertions.
  These are skipped unless ``--perf`` is passed, so an otherwise-loaded
  machine cannot flake the default suite: ``pytest --perf benchmarks/``.

Fixtures
--------

* ``whole_matrix_solve`` — the reference rational visit row
  ``π = e_startᵀ (I - Q)⁻¹``: one Gaussian elimination over the whole
  transposed matrix ``(I - Q)ᵀ``.  The unit tests check the block-triangular
  solve against it and the block-solve bench times it as the baseline.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--perf",
        action="store_true",
        default=False,
        help="run wall-clock performance comparison tests (marker: perf)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench: pytest-benchmark experiment regeneration (deselect with -m 'not bench')",
    )
    config.addinivalue_line(
        "markers",
        "perf: wall-clock performance comparison; skipped unless --perf is given",
    )


def pytest_collection_modifyitems(config, items):
    benchmarks_dir = _ROOT / "benchmarks"
    skip_perf = pytest.mark.skip(reason="performance comparison; run with --perf")
    run_perf = config.getoption("--perf")
    for item in items:
        if Path(str(item.fspath)).is_relative_to(benchmarks_dir):
            item.add_marker(pytest.mark.bench)
        if not run_perf and "perf" in item.keywords:
            item.add_marker(skip_perf)


def _whole_matrix_solve(rows, transient, start, *, exact=True):
    """``solve_transient_systems`` as one rational elimination over ``(I - Q)ᵀ``."""
    from repro.exact.solve import gaussian_solve

    assert exact
    local = {index: i for i, index in enumerate(transient)}
    size = len(transient)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for index in transient:
        i = local[index]
        matrix[i][i] += 1
        for target, probability in rows[index].items():
            if target in local:
                matrix[local[target]][i] -= probability
    unit = [Fraction(0)] * size
    unit[local[start]] = Fraction(1)
    return gaussian_solve(matrix, unit, exact=True)


@pytest.fixture(scope="session")
def whole_matrix_solve():
    """The whole-matrix reference with ``solve_transient_systems``'s signature."""
    return _whole_matrix_solve
