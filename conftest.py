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
  ``π = e_startᵀ (I - Q)⁻¹``: one ``Fraction`` Gaussian elimination over the
  whole transposed matrix ``(I - Q)ᵀ``.  The unit tests check the
  block-triangular solve against it and the block-solve bench times it as
  the baseline.  Its elimination is its own (:func:`_fraction_gaussian_solve`),
  so the oracle shares no code with the integer kernel it checks.
* ``bfs_lift`` — the reference lift of one quotient closed class: the
  source classes of its whole preimage, each rebuilt by its own BFS over
  the source transition relation.  ``QuotientChain.lift_class_counts``
  walks one source class and takes its stabilizer images; the tests check
  it against this walk.
* ``force_uncompiled`` — every engine and exact chain built while the
  fixture is active runs on a lazy interner (states numbered on first
  sight, δ through Python dispatch once per code pair), exactly as for a
  protocol whose δ-closure exceeds the compile cap.  Tests and benches use
  it as the reference and baseline of the compiled paths; it lives here so
  that both ``tests/`` and ``benchmarks/`` see it.
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


def _fraction_gaussian_solve(matrix, rhs):
    """Solve ``matrix · x = rhs`` by Gaussian elimination over ``Fraction``.

    In place on copies, taking the first nonzero pivot of each column (exact
    over ``Fraction``, so no magnitude pivoting); raises
    ``ZeroDivisionError`` on a singular matrix.
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    x = list(rhs)
    for pivot_row in range(size):
        pivot = next(
            (r for r in range(pivot_row, size) if a[r][pivot_row]), pivot_row
        )
        if pivot != pivot_row:
            a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
            x[pivot_row], x[pivot] = x[pivot], x[pivot_row]
        head = a[pivot_row][pivot_row]
        for row in range(pivot_row + 1, size):
            factor = a[row][pivot_row] / head
            if not factor:
                continue
            row_values = a[row]
            pivot_values = a[pivot_row]
            for column_index in range(pivot_row, size):
                row_values[column_index] -= factor * pivot_values[column_index]
            x[row] -= factor * x[pivot_row]
    for row in range(size - 1, -1, -1):
        total = x[row]
        row_values = a[row]
        for column_index in range(row + 1, size):
            total -= row_values[column_index] * x[column_index]
        x[row] = total / row_values[row]
    return x


def _whole_matrix_solve(weights, transient, start, *, denominator, exact=True, components=None):
    """``solve_transient_systems`` as one rational elimination over ``(I - Q)ᵀ``.

    ``Q`` is built entry by entry as ``Fraction(weight, denominator)``; the
    whole matrix is one block, so ``components`` is ignored.
    """
    assert exact
    local = {index: i for i, index in enumerate(transient)}
    size = len(transient)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for index in transient:
        i = local[index]
        matrix[i][i] += 1
        for target, weight in weights[index].items():
            if target in local:
                matrix[local[target]][i] -= Fraction(weight, denominator)
    unit = [Fraction(0)] * size
    unit[local[start]] = Fraction(1)
    return _fraction_gaussian_solve(matrix, unit)


@pytest.fixture(scope="session")
def fraction_gaussian_solve():
    """The reference ``Fraction`` elimination ``whole_matrix_solve`` runs on."""
    return _fraction_gaussian_solve


@pytest.fixture(scope="session")
def whole_matrix_solve():
    """The whole-matrix reference with ``solve_transient_systems``'s signature."""
    return _whole_matrix_solve


def _bfs_lift(chain, members):
    """The source classes covering a quotient closed class, by walking its whole preimage."""
    pending = set()
    for member in members:
        pending.update(chain.orbit_keys(member))
    classes = []
    while pending:
        seed = min(pending)
        component = {seed}
        frontier = [seed]
        while frontier:
            for successor in chain.successors(frontier.pop()):
                if successor not in component:
                    component.add(successor)
                    frontier.append(successor)
        assert component <= pending, "the walk left the preimage: not a closed class"
        pending -= component
        classes.append(sorted(component, key=chain.rank))
    classes.sort(key=lambda conf_class: chain.rank(conf_class[0]))
    return classes


@pytest.fixture(scope="session")
def bfs_lift():
    """The whole-preimage BFS lift with ``lift_class_counts``'s signature (chain first)."""
    return _bfs_lift


def _intern_only(protocol, seed_states):
    from repro.compile import LazyInterner

    return LazyInterner(protocol, seed_states)


@pytest.fixture
def force_uncompiled(monkeypatch):
    """Make the compile-or-intern decision intern every protocol for the rest of the test.

    Engines and chains take their codes from
    :func:`repro.compile.compile_or_intern`, so objects built after this
    fixture is requested run on a :class:`~repro.compile.LazyInterner`;
    objects built before keep their codes.
    """
    import repro.compile

    monkeypatch.setattr(repro.compile, "compile_or_intern", _intern_only)
