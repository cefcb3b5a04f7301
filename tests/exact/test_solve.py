"""Tests for the linear-solve backends behind the exact analyses."""

import math
import random
from fractions import Fraction

import pytest

from repro.exact import solve as solve_module
from repro.exact.solve import (
    DEFAULT_MAX_TRANSIENT,
    PURE_PYTHON_MAX_TRANSIENT,
    SPARSE_MAX_TRANSIENT,
    SolveTooLarge,
    gaussian_solve,
    practical_max_transient,
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

    def test_sparse_backend_matches_the_dense_solution(self, monkeypatch):
        if solve_module._scipy_splu() is None:
            pytest.skip("scipy not available")
        dense = solve_transient_systems(
            HITTING_ROWS, [0, 1], [[1.0, 1.0]], exact=False
        )
        # Drop the crossover to zero so the same tiny system routes through
        # the sparse LU factorization.
        monkeypatch.setattr(solve_module, "DEFAULT_MAX_TRANSIENT", 0)
        sparse = solve_transient_systems(
            HITTING_ROWS, [0, 1], [[1.0, 1.0]], exact=False
        )
        for dense_value, sparse_value in zip(dense[0], sparse[0]):
            assert math.isclose(dense_value, sparse_value, rel_tol=1e-12)

    def test_exact_solution_is_rational_and_matches(self):
        rows = [
            {key: Fraction(value).limit_denominator() for key, value in row.items()}
            for row in HITTING_ROWS
        ]
        [solution] = solve_transient_systems(
            rows, [0, 1], [[Fraction(1), Fraction(1)]], exact=True
        )
        assert solution == [Fraction(3), Fraction(2)]

    def test_cap_raises_and_none_disables_it(self):
        with pytest.raises(SolveTooLarge):
            solve_transient_systems(
                HITTING_ROWS, [0, 1], [[1.0, 1.0]], exact=False, max_transient=1
            )
        [solution] = solve_transient_systems(
            HITTING_ROWS, [0, 1], [[1.0, 1.0]], exact=False, max_transient=None
        )
        assert math.isclose(solution[0], 3.0, rel_tol=1e-12)


class TestPracticalCap:
    def test_three_way_backend_awareness(self, monkeypatch):
        monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        assert practical_max_transient() == PURE_PYTHON_MAX_TRANSIENT
        monkeypatch.setattr(solve_module, "_numpy", lambda: object())
        monkeypatch.setattr(solve_module, "_scipy_splu", lambda: None)
        assert practical_max_transient() == DEFAULT_MAX_TRANSIENT
        monkeypatch.setattr(solve_module, "_scipy_splu", lambda: object())
        assert practical_max_transient() == SPARSE_MAX_TRANSIENT

    def test_caps_are_ordered(self):
        assert PURE_PYTHON_MAX_TRANSIENT < DEFAULT_MAX_TRANSIENT < SPARSE_MAX_TRANSIENT


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
        block = solve_transient_systems(rows, system, rhs, exact=True, max_transient=None)
        assert block == whole_matrix_solve(rows, system, rhs)
        assert all(isinstance(value, Fraction) for column in block for value in column)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_less_float_solve_agrees_with_numpy(self, seed, monkeypatch):
        if solve_module._numpy() is None:
            pytest.skip("numpy not available")
        rng = random.Random(seed)
        rows, system = _random_chain(rng, rng.randint(2, 40))
        rows = [{target: float(p) for target, p in row.items()} for row in rows]
        rhs = [[float(value) for value in column] for column in _random_rhs(rng, len(system))]
        with_numpy = solve_transient_systems(rows, system, rhs, exact=False)
        monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        pure = solve_transient_systems(rows, system, rhs, exact=False)
        # abs_tol: where the exact solution is 0, LU leaves ~1e-18 residue.
        for ours, theirs in zip(pure, with_numpy):
            for a, b in zip(ours, theirs):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15), (a, b)
