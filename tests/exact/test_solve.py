"""Tests for the block-triangular linear solve behind the exact analyses."""

import math
import random
from fractions import Fraction

import pytest

from repro.exact import solve as solve_module
from repro.exact.solve import (
    NUMPY_MAX_COMPONENT,
    PURE_PYTHON_MAX_COMPONENT,
    SolveTooLarge,
    gaussian_solve,
    solve_transient_systems,
    strongly_connected_components,
)


class TestGaussianPivoting:
    def test_float_mode_pivots_by_magnitude(self):
        # The textbook partial-pivoting example: a leading pivot below float
        # epsilon.  Naive (first-nonzero) elimination divides by it and
        # returns x ≈ (0, 1); max-magnitude pivoting recovers the true
        # solution x ≈ (1, 1).  Regression for the float pivot rule.
        tiny = 1e-17
        matrix = [[tiny, 1.0], [1.0, 1.0]]
        [solution] = gaussian_solve(matrix, [[1.0, 2.0]])
        assert math.isclose(solution[0], 1.0, rel_tol=1e-9)
        assert math.isclose(solution[1], 1.0, rel_tol=1e-9)

    def test_float_mode_matches_numpy_on_an_ill_conditioned_system(self):
        numpy = solve_module._numpy()
        if numpy is None:
            pytest.skip("numpy not available")
        matrix = [
            [1e-12, 2.0, 3.0],
            [4.0, 5.0, 6.0],
            [7.0, 8.0, 10.0],
        ]
        rhs = [1.0, 2.0, 3.0]
        [solution] = gaussian_solve([list(row) for row in matrix], [list(rhs)])
        reference = numpy.linalg.solve(numpy.array(matrix), numpy.array(rhs))
        for ours, theirs in zip(solution, reference):
            assert math.isclose(ours, float(theirs), rel_tol=1e-9, abs_tol=1e-12)

    def test_exact_mode_swaps_through_a_zero_pivot(self):
        # Rational elimination takes the first *nonzero* pivot: a zero head
        # must trigger a row swap, not a ZeroDivisionError.
        matrix = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]
        [solution] = gaussian_solve(matrix, [[Fraction(3), Fraction(4)]], exact=True)
        assert solution == [Fraction(2), Fraction(3)]
        assert all(isinstance(value, Fraction) for value in solution)

    def test_exact_mode_stays_rational(self):
        matrix = [
            [Fraction(2), Fraction(1)],
            [Fraction(1), Fraction(3)],
        ]
        [solution] = gaussian_solve(matrix, [[Fraction(1), Fraction(1)]], exact=True)
        assert solution == [Fraction(2, 5), Fraction(1, 5)]

    def test_singular_matrix_raises(self):
        matrix = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ZeroDivisionError):
            gaussian_solve(matrix, [[1.0, 2.0]])


#: A three-state absorbing chain with known hitting times: from state 0 the
#: expected steps to absorption (state 2) solve to exactly 3.0, from state 1
#: to exactly 2.0.
HITTING_ROWS = [
    {0: 0.5, 1: 0.25, 2: 0.25},
    {1: 0.5, 2: 0.5},
    {2: 1.0},
]


class TestTransientSystems:
    def test_dense_float_solution_is_the_analytic_hitting_time(self):
        [solution] = solve_transient_systems(
            HITTING_ROWS, [0, 1], [[1.0, 1.0]], exact=False
        )
        assert math.isclose(solution[0], 3.0, rel_tol=1e-12)
        assert math.isclose(solution[1], 2.0, rel_tol=1e-12)

    def test_exact_solution_is_rational_and_matches(self):
        rows = [
            {key: Fraction(value).limit_denominator() for key, value in row.items()}
            for row in HITTING_ROWS
        ]
        [solution] = solve_transient_systems(
            rows, [0, 1], [[Fraction(1), Fraction(1)]], exact=True
        )
        assert solution == [Fraction(3), Fraction(2)]


def _cycles(cycle_sizes, exact=False):
    """Transient cycles over one absorbing state: each cycle is one component.

    Every state steps to the next state of its cycle (itself, in a cycle of
    one) with probability 1/2 and into the absorbing state otherwise.
    """
    half = Fraction(1, 2) if exact else 0.5
    total = sum(cycle_sizes)
    rows: list[dict] = []
    start = 0
    for size in cycle_sizes:
        for offset in range(size):
            rows.append({start + (offset + 1) % size: half, total: half})
        start += size
    rows.append({total: 2 * half})
    return rows, list(range(total))


class TestComponentCap:
    """One cap, on the largest strongly connected component, not the system."""

    @pytest.fixture
    def caps(self, monkeypatch):
        monkeypatch.setattr(solve_module, "NUMPY_MAX_COMPONENT", 4)
        monkeypatch.setattr(solve_module, "PURE_PYTHON_MAX_COMPONENT", 3)

    @staticmethod
    def _solve(rows, system, mode, monkeypatch):
        if mode == "numpy":
            if solve_module._numpy() is None:
                pytest.skip("numpy not available")
        elif mode == "float":
            monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        exact = mode == "exact"
        return solve_transient_systems(
            rows, system, [[Fraction(1) if exact else 1.0] * len(system)], exact=exact
        )

    @pytest.mark.parametrize("mode", ["numpy", "float", "exact"])
    def test_a_system_past_the_cap_of_small_components_solves(self, caps, monkeypatch, mode):
        rows, system = _cycles([3, 1, 2, 3, 3, 1], exact=mode == "exact")
        [solution] = self._solve(rows, system, mode, monkeypatch)
        assert len(system) > 4
        assert all(value > 0 for value in solution)

    @pytest.mark.parametrize(
        "mode, cap", [("numpy", 4), ("float", 3), ("exact", 3)]
    )
    def test_one_component_past_the_cap_raises(self, caps, monkeypatch, mode, cap):
        rows, system = _cycles([1, cap, 2], exact=mode == "exact")
        self._solve(rows, system, mode, monkeypatch)
        rows, system = _cycles([1, cap + 1, 2], exact=mode == "exact")
        with pytest.raises(SolveTooLarge, match=f"{cap + 1} states"):
            self._solve(rows, system, mode, monkeypatch)

    def test_cap_values(self):
        assert (PURE_PYTHON_MAX_COMPONENT, NUMPY_MAX_COMPONENT) == (300, 1500)


def _random_chain(rng, size):
    """A random stochastic chain: transient states ``0..t-1``, absorbing the rest.

    Every transient state has at least one edge to a higher index, so the
    largest member of any strongly connected component leaves it and
    ``(I - Q)`` over the transient states is nonsingular.  On top of that:
    self-loops, backward edges and planted cycles through several states,
    which make multi-state components.
    """
    num_transient = rng.randint(1, size - 1)
    edges = [dict() for _ in range(size)]
    for i in range(num_transient):
        for _ in range(rng.randint(1, 3)):
            edges[i][rng.randint(i + 1, size - 1)] = rng.randint(1, 9)
        if rng.random() < 0.5:
            edges[i][i] = rng.randint(1, 9)
        if i and rng.random() < 0.2:
            edges[i][rng.randrange(i)] = rng.randint(1, 9)
    for _ in range(rng.randint(0, 3)):
        cycle = rng.sample(range(num_transient), min(num_transient, rng.randint(2, 6)))
        for source, target in zip(cycle, cycle[1:] + cycle[:1]):
            edges[source][target] = rng.randint(1, 9)
    for i in range(num_transient, size):
        edges[i][i] = 1
    rows = []
    for weights in edges:
        total = sum(weights.values())
        rows.append({target: Fraction(w, total) for target, w in weights.items()})
    system = list(range(num_transient))
    rng.shuffle(system)
    return rows, system


def _random_rhs(rng, length):
    return [
        [Fraction(1)] * length,
        [Fraction(rng.randint(0, 5), rng.randint(1, 7)) for _ in range(length)],
        [Fraction(1 if rng.random() < 0.2 else 0) for _ in range(length)],
    ]


SEEDS = range(60)


class TestBlockTriangularSolve:
    def test_random_chains_plant_multi_state_components(self):
        largest = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            rows, system = _random_chain(rng, rng.randint(2, 40))
            restricted = [
                {target: p for target, p in rows[index].items() if target in system}
                for index in range(len(rows))
            ]
            components = strongly_connected_components(restricted)
            largest = max(largest, *(len(c) for c in components if c[0] in system))
        assert largest >= 4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_block_solve_equals_the_whole_matrix_solve(self, seed, whole_matrix_solve):
        rng = random.Random(seed)
        rows, system = _random_chain(rng, rng.randint(2, 40))
        rhs = _random_rhs(rng, len(system))
        block = solve_transient_systems(rows, system, rhs, exact=True)
        assert block == whole_matrix_solve(rows, system, rhs)
        assert all(isinstance(value, Fraction) for column in block for value in column)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", ["numpy", "pure"])
    def test_float_block_solve_equals_the_rational_solve(self, seed, kernel, monkeypatch):
        if kernel == "numpy" and solve_module._numpy() is None:
            pytest.skip("numpy not available")
        if kernel == "pure":
            monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        rng = random.Random(seed)
        rows, system = _random_chain(rng, rng.randint(2, 40))
        rhs = _random_rhs(rng, len(system))
        rational = solve_transient_systems(rows, system, rhs, exact=True)
        float_rows = [{target: float(p) for target, p in row.items()} for row in rows]
        float_rhs = [[float(value) for value in column] for column in rhs]
        floats = solve_transient_systems(float_rows, system, float_rhs, exact=False)
        # abs_tol: where the exact solution is 0, elimination leaves ~1e-18.
        for ours, exact_column in zip(floats, rational):
            for a, b in zip(ours, exact_column):
                assert isinstance(a, float)
                assert math.isclose(a, float(b), rel_tol=1e-12, abs_tol=1e-15), (a, b)
