"""Tests for the block-triangular linear solve behind the exact analyses."""

import math
import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from repro.core.circles import CirclesProtocol
from repro.exact import QuotientChain
from repro.exact import solve as solve_module
from repro.exact.absorption import (
    analyze_absorption,
    closed_classes,
    communicating_classes,
    hitting_analysis,
)
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
        solution = gaussian_solve(matrix, [1.0, 2.0])
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
        solution = gaussian_solve([list(row) for row in matrix], list(rhs))
        reference = numpy.linalg.solve(numpy.array(matrix), numpy.array(rhs))
        for ours, theirs in zip(solution, reference):
            assert math.isclose(ours, float(theirs), rel_tol=1e-9, abs_tol=1e-12)

    def test_fraction_entries_stay_exact(self):
        matrix = [
            [Fraction(2), Fraction(1)],
            [Fraction(1), Fraction(3)],
        ]
        solution = gaussian_solve(matrix, [Fraction(1), Fraction(1)])
        assert solution == [Fraction(2, 5), Fraction(1, 5)]
        assert all(isinstance(value, Fraction) for value in solution)

    def test_singular_matrix_raises(self):
        matrix = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ZeroDivisionError):
            gaussian_solve(matrix, [1.0, 2.0])


def _integer_solve(matrix, rhs):
    """The integer kernel on ``matrix · x = rhs``, read back as one ``Fraction`` per unknown."""
    scaled, determinant = solve_module._bareiss(
        [list(row) + [value] for row, value in zip(matrix, rhs)]
    )
    return [Fraction(value, determinant) for value in scaled]


def _random_integer_system(rng, size, reference):
    """A random nonsingular integer system: ``(matrix, rhs, reference solution)``.

    Entries are signed, about a third zeros; every other system has a zero
    leading pivot, and a zero diagonal entry further down, so elimination
    must swap rows.  Singular draws (on which ``reference`` raises) are
    redrawn.
    """

    def entry():
        if rng.random() < 0.3:
            return 0
        return rng.randint(-40, 40)

    while True:
        matrix = [[entry() for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.5:
            matrix[0][0] = 0
            if size > 2:
                matrix[size // 2][size // 2] = 0
        rhs = [entry() for _ in range(size)]
        try:
            return matrix, rhs, reference([[Fraction(v) for v in row] for row in matrix], rhs)
        except ZeroDivisionError:
            continue


class TestIntegerElimination:
    """The fraction-free integer kernel (Bareiss) against the ``Fraction`` reference."""

    @pytest.mark.parametrize("size", range(1, 13))
    def test_equals_the_fraction_elimination(self, size, fraction_gaussian_solve):
        for seed in range(8):
            rng = random.Random(size * 100 + seed)
            matrix, rhs, expected = _random_integer_system(rng, size, fraction_gaussian_solve)
            assert _integer_solve(matrix, rhs) == expected

    def test_random_systems_force_row_swaps(self, fraction_gaussian_solve):
        swaps = 0
        for size in range(2, 13):
            for seed in range(8):
                rng = random.Random(size * 100 + seed)
                matrix, _, _ = _random_integer_system(rng, size, fraction_gaussian_solve)
                swaps += not matrix[0][0]
        assert swaps >= 20

    def test_swaps_through_a_zero_pivot(self):
        # The kernel takes the first *nonzero* pivot: a zero head must
        # trigger a row swap, not a ZeroDivisionError.
        assert _integer_solve([[0, 1], [2, 0]], [3, 4]) == [2, 3]

    def test_integer_entries_and_zero_right_hand_side(self):
        matrix = [[0, 3, -1], [2, 0, 0], [1, 1, 1]]
        assert _integer_solve(matrix, [0, 0, 0]) == [0, 0, 0]
        assert _integer_solve(matrix, [1, 2, 3]) == [
            Fraction(1),
            Fraction(3, 4),
            Fraction(5, 4),
        ]

    def test_singular_matrix_raises(self):
        with pytest.raises(ZeroDivisionError):
            _integer_solve([[3, 2], [9, 6]], [6, 12])


#: A three-state absorbing chain with known visits, as weights over 4: from
#: state 0 the chain spends 2 steps in state 0 and 1 in state 1 before
#: absorption (state 2), so the expected hitting time is exactly 3.0; from
#: state 1 it spends 2 steps in state 1.
HITTING_WEIGHTS = [
    {0: 2, 1: 1, 2: 1},
    {1: 2, 2: 2},
    {2: 4},
]


class TestTransientSystems:
    def test_float_visits_sum_to_the_analytic_hitting_time(self):
        visits = solve_transient_systems(HITTING_WEIGHTS, [0, 1], 0, denominator=4, exact=False)
        assert visits == [2.0, 1.0]
        assert math.isclose(sum(visits), 3.0, rel_tol=1e-12)
        assert solve_transient_systems(
            HITTING_WEIGHTS, [0, 1], 1, denominator=4, exact=False
        ) == [0.0, 2.0]

    def test_exact_visits_are_rational_and_match(self):
        visits = solve_transient_systems(HITTING_WEIGHTS, [1, 0], 0, denominator=4, exact=True)
        assert visits == [Fraction(1), Fraction(2)]
        assert all(isinstance(value, Fraction) for value in visits)


def _cycles(cycle_sizes):
    """Transient cycles over one absorbing state, as weights over 2: each cycle is one component.

    Every state steps to the next state of its cycle (itself, in a cycle of
    one) with probability 1/2 and into the absorbing state otherwise.
    """
    total = sum(cycle_sizes)
    weights: list[dict] = []
    start = 0
    for size in cycle_sizes:
        for offset in range(size):
            weights.append({start + (offset + 1) % size: 1, total: 1})
        start += size
    weights.append({total: 2})
    return weights, list(range(total))


class TestComponentCap:
    """One cap, on the largest strongly connected component, not the system."""

    @pytest.fixture
    def caps(self, monkeypatch):
        monkeypatch.setattr(solve_module, "NUMPY_MAX_COMPONENT", 4)
        monkeypatch.setattr(solve_module, "PURE_PYTHON_MAX_COMPONENT", 3)

    @staticmethod
    def _solve(weights, system, mode, monkeypatch):
        if mode == "numpy":
            if solve_module._numpy() is None:
                pytest.skip("numpy not available")
        elif mode == "float":
            monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        return solve_transient_systems(
            weights, system, system[-1], denominator=2, exact=mode == "exact"
        )

    @pytest.mark.parametrize("mode", ["numpy", "float", "exact"])
    def test_a_system_past_the_cap_of_small_components_solves(self, caps, monkeypatch, mode):
        rows, system = _cycles([3, 1, 2, 3, 3, 3])
        visits = self._solve(rows, system, mode, monkeypatch)
        assert len(system) > 4
        # The start's 3-cycle holds all the mass: 8/7 visits to the start,
        # 4/7 to its successor and 2/7 to the state after.
        assert visits[:-3] == [0] * (len(system) - 3)
        expected = [Fraction(4, 7), Fraction(2, 7), Fraction(8, 7)]
        for value, exact in zip(visits[-3:], expected):
            assert math.isclose(value, exact, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "mode, cap", [("numpy", 4), ("float", 3), ("exact", 3)]
    )
    def test_one_component_past_the_cap_raises(self, caps, monkeypatch, mode, cap):
        rows, system = _cycles([1, cap, 2])
        self._solve(rows, system, mode, monkeypatch)
        # The oversized cycle is unreachable from the start: the cap covers
        # every component, checked before any elimination.
        rows, system = _cycles([1, cap + 1, 2])
        with pytest.raises(SolveTooLarge, match=f"{cap + 1} states"):
            self._solve(rows, system, mode, monkeypatch)

    def test_cap_values(self):
        assert (PURE_PYTHON_MAX_COMPONENT, NUMPY_MAX_COMPONENT) == (300, 1500)


def _random_chain(rng, size):
    """A random stochastic chain: ``(weights, denominator, system)``.

    Transient states ``0..t-1``, absorbing the rest, as integer weights over
    one common denominator.  Every transient state has at least one edge to
    a higher index, so the largest member of any strongly connected
    component leaves it and ``(I - Q)`` over the transient states is
    nonsingular.  On top of that: self-loops, backward edges and planted
    cycles through several states, which make multi-state components.  Each
    row's weights are drawn with their own total, so the common denominator
    is the lcm of the row totals.
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
    denominator = lcm(*(sum(row.values()) for row in edges))
    weights = []
    for row in edges:
        scale = denominator // sum(row.values())
        weights.append({target: w * scale for target, w in row.items()})
    system = list(range(num_transient))
    rng.shuffle(system)
    return weights, denominator, system


#: A multiple of every change-probability denominator the random analysis
#: chains draw (5..9), so their change weights are integers.
CHANGE_SCALE = lcm(*range(5, 10))


def _random_analysis_chain(rng):
    """A random chain as the analyses read it, starting from a transient state."""
    weights, denominator, system = _random_chain(rng, rng.randint(2, 40))
    denominator *= CHANGE_SCALE
    weights = [{target: w * CHANGE_SCALE for target, w in row.items()} for row in weights]
    initial_index = rng.choice(system)
    changes = [Fraction(rng.randint(0, 5), rng.randint(5, 9)) for _ in weights]
    return SimpleNamespace(
        arithmetic="exact",
        weights=weights,
        denominator=denominator,
        num_configurations=len(weights),
        initial_index=initial_index,
        change_weights=[int(change * denominator) for change in changes],
        predecessors=[
            [index for index, row in enumerate(weights) if target in row]
            for target in range(len(weights))
        ],
    )


def _fraction_rows(weights, denominator):
    return [{target: Fraction(w, denominator) for target, w in row.items()} for row in weights]


def _multi_column_solve(rows, system, columns, start):
    """The multi-column reference: ``(I - Q)·x = b`` over the whole system for
    every column ``b``, each read at ``start``."""
    local = {index: i for i, index in enumerate(system)}
    matrix = []
    for index in system:
        row = [Fraction(0)] * len(system)
        row[local[index]] += 1
        for target, probability in rows[index].items():
            if target in local:
                row[local[target]] -= probability
        matrix.append(row)
    return [gaussian_solve(matrix, column)[local[start]] for column in columns]


def _mass_into(rows, system, members):
    """Per system state, the one-step probability of entering ``members``."""
    return [
        sum((q for target, q in rows[index].items() if target in members), Fraction(0))
        for index in system
    ]


def _changes(chain, system):
    return [Fraction(chain.change_weights[index], chain.denominator) for index in system]


def _reference_absorption(chain):
    """``(E[interactions], E[changed], *class probabilities)``, one column each."""
    rows = _fraction_rows(chain.weights, chain.denominator)
    classes = closed_classes(rows)
    absorbing = {member for members in classes for member in members}
    transient = [i for i in range(chain.num_configurations) if i not in absorbing]
    columns = [
        [Fraction(1)] * len(transient),
        _changes(chain, transient),
        *(_mass_into(rows, transient, set(members)) for members in classes),
    ]
    return _multi_column_solve(rows, transient, columns, chain.initial_index)


def _reference_hitting(chain, target):
    """``(P(hit), E[interactions], E[changed])`` over the non-target states that
    can reach ``target``, or None when the initial state cannot."""
    rows = _fraction_rows(chain.weights, chain.denominator)
    can_reach = set()
    frontier = list(target)
    while frontier:
        node = frontier.pop()
        for index, row in enumerate(rows):
            if node in row and index not in target and index not in can_reach:
                can_reach.add(index)
                frontier.append(index)
    if chain.initial_index not in can_reach:
        return None
    system = sorted(can_reach)
    columns = [
        _mass_into(rows, system, target),
        [Fraction(1)] * len(system),
        _changes(chain, system),
    ]
    return _multi_column_solve(rows, system, columns, chain.initial_index)


def _random_target(rng, chain):
    return {
        index
        for index in range(chain.num_configurations)
        if index != chain.initial_index and rng.random() < 0.3
    }


SEEDS = range(60)


class TestBlockTriangularSolve:
    def test_random_chains_plant_multi_state_components(self):
        largest = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            weights, _, system = _random_chain(rng, rng.randint(2, 40))
            restricted = [
                {target: w for target, w in weights[index].items() if target in system}
                for index in range(len(weights))
            ]
            components = strongly_connected_components(restricted)
            largest = max(largest, *(len(c) for c in components if c[0] in system))
        assert largest >= 4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_visit_row_equals_the_whole_matrix_solve(self, seed, whole_matrix_solve):
        rng = random.Random(seed)
        weights, denominator, system = _random_chain(rng, rng.randint(2, 40))
        start = rng.choice(system)
        visits = solve_transient_systems(
            weights, system, start, denominator=denominator, exact=True
        )
        assert visits == whole_matrix_solve(weights, system, start, denominator=denominator)
        assert all(isinstance(value, Fraction) for value in visits)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", ["numpy", "pure"])
    def test_float_visit_row_equals_the_rational_one(self, seed, kernel, monkeypatch):
        if kernel == "numpy" and solve_module._numpy() is None:
            pytest.skip("numpy not available")
        if kernel == "pure":
            monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        rng = random.Random(seed)
        weights, denominator, system = _random_chain(rng, rng.randint(2, 40))
        start = rng.choice(system)
        rational = solve_transient_systems(
            weights, system, start, denominator=denominator, exact=True
        )
        floats = solve_transient_systems(
            weights, system, start, denominator=denominator, exact=False
        )
        # abs_tol: where the exact solution is 0, elimination leaves ~1e-18.
        for a, b in zip(floats, rational, strict=True):
            assert isinstance(a, float)
            assert math.isclose(a, float(b), rel_tol=1e-12, abs_tol=1e-15), (a, b)


class TestPassedComponents:
    """A solve handed the whole chain's non-closed components equals one that finds its own."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", ["numpy", "pure", "rational"])
    def test_visit_rows_are_identical(self, seed, kernel, monkeypatch):
        if kernel == "numpy" and solve_module._numpy() is None:
            pytest.skip("numpy not available")
        if kernel == "pure":
            monkeypatch.setattr(solve_module, "_numpy", lambda: None)
        rng = random.Random(seed)
        weights, denominator, system = _random_chain(rng, rng.randint(2, 40))
        # The absorption system: every non-closed state, ascending.
        system.sort()
        start = rng.choice(system)
        _classes, components = communicating_classes(weights)
        assert sorted(member for component in components for member in component) == system
        exact = kernel == "rational"
        own = solve_transient_systems(
            weights, system, start, denominator=denominator, exact=exact
        )
        passed = solve_transient_systems(
            weights, system, start, denominator=denominator, exact=exact, components=components
        )
        assert passed == own
        assert all(type(a) is type(b) for a, b in zip(passed, own, strict=True))


class TestAnalysesOnRandomChains:
    """The one-row analyses equal the multi-column solve they replaced."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_absorption_equals_the_multi_column_reference(self, seed):
        chain = _random_analysis_chain(random.Random(seed))
        analysis = analyze_absorption(chain)
        expected, changed, *probabilities = _reference_absorption(chain)
        assert analysis.expected_interactions == expected
        assert analysis.expected_changed_interactions == changed
        assert analysis.class_probabilities == probabilities
        assert sum(analysis.class_probabilities) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hitting_equals_the_multi_column_reference(self, seed):
        rng = random.Random(seed)
        chain = _random_analysis_chain(rng)
        target = _random_target(rng, chain)
        analysis = hitting_analysis(chain, target.__contains__)
        reference = _reference_hitting(chain, target)
        if reference is None:
            assert (analysis.almost_sure, analysis.probability) == (False, 0)
            return
        probability, expected, changed = reference
        if analysis.almost_sure:
            assert probability == 1
            assert analysis.probability == 1
            assert analysis.expected_interactions == expected
            assert analysis.expected_changed_interactions == changed
        else:
            assert probability < 1
            assert analysis.probability == probability
            assert analysis.expected_interactions is None

    def test_random_targets_cover_every_verdict(self):
        verdicts = set()
        for seed in SEEDS:
            rng = random.Random(seed)
            chain = _random_analysis_chain(rng)
            target = _random_target(rng, chain)
            if _reference_hitting(chain, target) is None:
                verdicts.add("unreachable")
            else:
                verdicts.add(hitting_analysis(chain, target.__contains__).almost_sure)
        assert verdicts == {"unreachable", True, False}


def _odd_primes(count):
    primes: list[int] = []
    candidate = 3
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 2
    return primes


def _prime_ladder(count):
    """``(weights, denominator)``: ``count`` transient singletons over one absorbing state.

    State ``i`` keeps ``D - p_i`` of its ``D = 2¹¹`` ordered pairs on itself,
    with ``p_i`` the odd primes in descending order, so the singleton blocks
    ``D - w_ii`` are pairwise coprime and the visit denominators multiply
    down the ladder.  Each state steps to ``i + 1`` and ``i + 2``, so most
    states receive mass from two components; every third forward weight is
    the next block's prime, which the per-component gcd then cancels.
    """
    primes = sorted(_odd_primes(count), reverse=True)
    denominator = 2**11
    assert primes[0] < denominator
    absorbing = count
    weights = []
    for i, prime in enumerate(primes):
        row = {i: denominator - prime}
        if i + 1 < count:
            row[i + 1] = primes[i + 1] if i % 3 == 0 else 1
        if i + 2 < count:
            row[i + 2] = 1
        leaving = prime - sum(w for target, w in row.items() if target != i)
        assert leaving > 0
        row[absorbing] = leaving
        weights.append(row)
    weights.append({absorbing: denominator})
    return weights, denominator


class TestIntegerSolveOracles:
    """The integer sweep's visits equal the whole-matrix ``Fraction`` solve."""

    def test_a_ladder_of_coprime_singletons(self, whole_matrix_solve):
        weights, denominator = _prime_ladder(210)
        system = list(range(210))
        # Every state is its own component, the absorbing one included.
        assert len(strongly_connected_components(weights)) == 211
        visits = solve_transient_systems(weights, system, 0, denominator=denominator, exact=True)
        assert visits == whole_matrix_solve(weights, system, 0, denominator=denominator)
        assert all(isinstance(value, Fraction) and value > 0 for value in visits)
        # The denominators grow to a product of most of the 210 primes.
        assert visits[-1].denominator.bit_length() > 1000

    def test_a_quotiented_chain(self, whole_matrix_solve):
        chain = QuotientChain.from_colors(CirclesProtocol(2), (0, 0, 1, 1), arithmetic="exact")
        assert chain.is_quotiented
        absorbing = {member for members in closed_classes(chain.weights) for member in members}
        system = [i for i in range(chain.num_configurations) if i not in absorbing]
        start = chain.initial_index
        visits = solve_transient_systems(
            chain.weights, system, start, denominator=chain.denominator, exact=True
        )
        assert visits == whole_matrix_solve(
            chain.weights, system, start, denominator=chain.denominator
        )
        assert visits[system.index(start)] >= 1
