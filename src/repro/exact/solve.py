"""Linear solves for the exact Markov-chain analyses.

Every quantity :mod:`repro.exact.absorption` computes — absorption
probabilities, expected interactions to convergence, expected changed
interactions — is a weighted sum over one row of the fundamental matrix
``(I - Q)⁻¹`` of the transient (or non-target) configurations: the row of
the initial configuration, ``π = e_initᵀ (I - Q)⁻¹``, the expected number of
visits to each configuration before the chain leaves the system (Kemeny &
Snell, *Finite Markov Chains*).  So one linear system is solved per
analysis, whatever the number of closed classes.

The system arrives as the chain's integer weights over its one denominator
``D = n·(n-1)`` (``Q = W / D``), and one algorithm solves it in both
arithmetics: a block-triangular solve over the strongly connected
components of ``Q``.  Every state-changing Circles interaction strictly
lowers the energy (Theorem 3.4), so the transient chain is nearly acyclic:
its components are the small energy-neutral plateaus.  Components are
solved sources first, each block transposed, with the mass its predecessors
pushed into it as the right-hand side; components the initial configuration
cannot reach carry no mass and are skipped.  The cost is cubic only in the
largest component (11 states on the tied circles ``k = 3`` input, against
156 in the system) and memory is linear in the nonzeros of ``Q`` plus one
dense block.

Float mode divides each weight by ``D`` once and runs on float64:

* a **singleton** is one division by ``1 - q_ii``;
* a **larger block** goes through ``numpy.linalg.solve`` when numpy is
  importable and through :func:`gaussian_solve` otherwise, which pivots on
  the max-magnitude column entry (partial pivoting — near-singular blocks
  amplify roundoff under naive pivoting).

Rational mode never leaves the integers until the end.  A component's
visits are integer numerators over one common denominator; the mass it
pushes forward is summed on integers per source component, and a target
component brings its incoming mass to one denominator with one ``lcm``.
Scaled by ``D``, the block is the integer matrix ``D·I - Wᵀ``:

* a **singleton** divides by ``D - w_ii``;
* a **larger block** goes through fraction-free (Bareiss) elimination with
  exact integer divisions, which yields the visits as integers over the
  block's determinant.

Each component's numerators and denominator are reduced by a single
``gcd``, and one ``Fraction`` per transient configuration is built from
them — so the golden results are exact without a ``Fraction`` per edge or
per arithmetic step.

One cap: the solve refuses, with :class:`SolveTooLarge`, any system whose
largest component exceeds :data:`NUMPY_MAX_COMPONENT` (float mode with
numpy) or :data:`PURE_PYTHON_MAX_COMPONENT` (rational mode, or float
without numpy).  It is checked right after the SCC pass, before any
elimination, and it is the only cap: the cost depends on the largest
component, not on the system, and the chain's own configuration cap
already bounds the system.  A protocol whose whole system is one component
(no energy argument) still meets it.  Callers degrade gracefully.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from repro.utils.optional import numpy_module

#: The largest component a float solve takes on with numpy: one LAPACK
#: factorization of a block this size runs in a fraction of a second.
NUMPY_MAX_COMPONENT = 1500

#: The largest component an interpreted elimination takes on — rational
#: mode, or float mode without numpy.  The cost grows at least cubically in
#: the block: on a 2-vCPU Xeon VM (Python 3.11), a dense 300-state chain
#: block took 16 s in integer elimination (0.7 s at 150 states, 0.13 s at
#: 100, where ``Fraction`` elimination took 1.1 s), and a 496-state float
#: block about 1 s.
PURE_PYTHON_MAX_COMPONENT = 300


Number = Fraction | float


class SolveTooLarge(RuntimeError):
    """The system's largest strongly connected component exceeded the solve cap."""


#: The float block kernel's numpy, imported on the first float solve (a
#: module attribute, so tests can stand in a numpy-free install).
_numpy = numpy_module


def gaussian_solve(matrix: list[list[Number]], rhs: list[Number]) -> list[Number]:
    """Solve ``matrix · x = rhs`` by Gaussian elimination with partial pivoting.

    In place on copies, pivoting on the max-magnitude entry of each column,
    which keeps near-singular transient blocks from amplifying roundoff.
    The float block kernel when numpy is not importable; rational blocks
    are eliminated on integers (:func:`_bareiss`).

    Raises:
        ZeroDivisionError: when the matrix is singular (callers prevent this
            structurally: every transient configuration leaves the transient
            set with positive probability).
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    x = list(rhs)
    for pivot_row in range(size):
        pivot = max(range(pivot_row, size), key=lambda r: abs(a[r][pivot_row]))
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


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free elimination of an augmented integer system, in place (Bareiss 1968).

    ``a`` holds the rows of ``[A | b]``.  Each column takes the first
    nonzero pivot, swapping rows when needed, and every update
    ``(head·a_ij - a_ik·a_kj) / previous head`` divides exactly (Sylvester's
    identity), so every entry stays an integer: a minor of ``A``.  Returns
    ``(det·x, det)``: the solution of ``A·x = b`` scaled by the determinant
    of the row-swapped ``A`` (an integer vector, by Cramer's rule, found by
    back-substitution) and that determinant.

    Raises:
        ZeroDivisionError: when ``A`` is singular.
    """
    size = len(a)
    previous = 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if a[r][k]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
        head = a[k][k]
        top = a[k][k + 1 :]
        for row in a[k + 1 :]:
            factor = row[k]
            if factor:
                row[k + 1 :] = [
                    (head * value - factor * above) // previous
                    for value, above in zip(row[k + 1 :], top)
                ]
            else:
                row[k + 1 :] = [head * value // previous for value in row[k + 1 :]]
        previous = head
    determinant = previous
    scaled = [0] * size
    for i in range(size - 1, -1, -1):
        row = a[i]
        total = determinant * row[size]
        for j in range(i + 1, size):
            total -= row[j] * scaled[j]
        scaled[i] = total // row[i]
    return scaled, determinant


def rational_rref(
    matrix: list[list[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form over exact rationals.

    The companion of :func:`gaussian_solve` for *singular* systems: instead
    of solving ``A·x = b`` it normalizes ``A`` itself, which is what the
    static verifier's conservation-law discovery needs (the null space of
    the transition effect matrix).  Plain Gauss-Jordan elimination on a
    copy; pivoting by first nonzero entry is exact over ``Fraction``, so no
    partial pivoting is required.

    Returns:
        ``(reduced, pivots)`` — the nonzero rows of the reduced form and the
        pivot column of each, in order.  ``len(pivots)`` is the rank.
    """
    rows = [list(row) for row in matrix]
    num_rows = len(rows)
    num_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(num_cols):
        pivot_row = next(
            (i for i in range(rank, num_rows) if rows[i][col]), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        head = rows[rank][col]
        rows[rank] = [value / head for value in rows[rank]]
        lead = rows[rank]
        for i in range(num_rows):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [value - factor * top for value, top in zip(rows[i], lead)]
        pivots.append(col)
        rank += 1
        if rank == num_rows:
            break
    return rows[:rank], pivots


def rational_nullspace(
    rows: Sequence[Sequence[int | Fraction]], dimension: int
) -> list[tuple[Fraction, ...]]:
    """A basis of ``{x : row · x = 0 for every row}`` over the rationals.

    Exact ``Fraction`` arithmetic throughout, so membership is *certified*
    (``row · x`` is identically zero, not numerically small).  The basis is
    the standard free-column construction from the reduced row-echelon form
    and is deterministic for a given row order.  With no rows (or all-zero
    rows) the result is the standard basis of the full space.
    """
    matrix = [[Fraction(value) for value in row] for row in rows]
    for row in matrix:
        if len(row) != dimension:
            raise ValueError(
                f"effect row of length {len(row)} does not match dimension {dimension}"
            )
    reduced, pivots = rational_rref(matrix)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(dimension):
        if free in pivot_set:
            continue
        vector = [Fraction(0)] * dimension
        vector[free] = Fraction(1)
        for i, pivot in enumerate(pivots):
            vector[pivot] = -reduced[i][free]
        basis.append(tuple(vector))
    return basis


def strongly_connected_components(
    rows: Sequence[Mapping[int, object]],
) -> list[list[int]]:
    """Tarjan's SCC algorithm, iteratively (chains can be deep), over sparse rows.

    Returns the components in reverse topological order (every edge goes from
    a later component to an earlier one or stays inside its component), each
    component sorted ascending.
    """
    size = len(rows)
    index_of = [-1] * size
    low_link = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index_of[root] != -1:
            continue
        index_of[root] = low_link[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # (node, iterator over its successors): a node's iterator resumes
        # where it stopped when the walk returns from a child.
        work: list[tuple[int, Iterator[int]]] = [(root, iter(rows[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if index_of[successor] == -1:
                    index_of[successor] = low_link[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(rows[successor])))
                    break
                if on_stack[successor] and index_of[successor] < low_link[node]:
                    low_link[node] = index_of[successor]
            else:
                work.pop()
                low = low_link[node]
                if low == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    component.sort()
                    components.append(component)
                elif low < low_link[work[-1][0]]:
                    # Returning to the parent: fold our low-link into its own.
                    low_link[work[-1][0]] = low
    return components


def solve_transient_systems(
    weights: Sequence[Mapping[int, int]],
    transient: Sequence[int],
    start: int,
    *,
    denominator: int,
    exact: bool,
    components: Sequence[Sequence[int]] | None = None,
) -> list[Number]:
    """The expected visits ``π = e_startᵀ (I - Q)⁻¹`` to each ``transient`` index.

    ``π_j`` is the expected number of steps the chain spends in ``j`` before
    it leaves the system, counted from ``start``: row ``start`` of the
    fundamental matrix.  It solves ``π·(I - Q) = e_start``, a block-triangular
    system once the strongly connected components of ``Q`` are ordered
    topologically.  :func:`strongly_connected_components` yields successors
    first, so the sweep runs in reverse, sources first: a component's
    incoming mass ``Σ π_i·q_ij`` is complete when its turn comes, its block
    is solved transposed, and its own ``π_i·q_ij`` is pushed forward along
    the edges leaving it.  Components that receive no mass are skipped.

    Args:
        weights: the chain's sparse integer transition rows (global indices),
            each entry a probability times ``denominator``.
        transient: the global indices forming the system, in order; ``Q`` is
            ``weights / denominator`` restricted to ``transient × transient``.
        start: the global index the chain starts from; one of ``transient``.
        denominator: the common denominator of every row.
        exact: True for exact rationals (integer arithmetic, one ``Fraction``
            per visit), False for float64.
        components: the strongly connected components of ``Q`` as global
            indices, each ascending, in reverse topological order — for an
            ascending ``transient``, the order
            :func:`strongly_connected_components` finds them on the
            restriction.  The absorption analysis passes the non-closed
            components of its one SCC pass over the whole chain
            (:func:`repro.exact.absorption.communicating_classes`), which are
            exactly these, so the sweep adds in the same order either way.
            ``None`` (any other system): computed here.

    Returns:
        The expected visits, indexed like ``transient``.

    Raises:
        SolveTooLarge: when the largest component exceeds the cap of the
            kernel that would eliminate it (see the module docstring).
    """
    numpy = None if exact else _numpy()
    local = {global_index: i for i, global_index in enumerate(transient)}
    restricted: list[dict[int, int]] = []
    for global_index in transient:
        row: dict[int, int] = {}
        for target, weight in weights[global_index].items():
            j = local.get(target)
            if j is not None:
                row[j] = weight
        restricted.append(row)
    if components is None:
        local_components = strongly_connected_components(restricted)
    else:
        local_components = [[local[member] for member in component] for component in components]
    cap = PURE_PYTHON_MAX_COMPONENT if numpy is None else NUMPY_MAX_COMPONENT
    largest = max(map(len, local_components), default=0)
    if largest > cap:
        raise SolveTooLarge(
            f"a strongly connected component of {largest} states (system of "
            f"{len(transient)}) exceeds the solve cap of {cap}"
        )
    if exact:
        return _rational_sweep(restricted, local_components, local[start], denominator)
    return _float_sweep(restricted, local_components, local[start], denominator, numpy)


def _float_sweep(
    restricted: list[dict[int, int]],
    components: list[list[int]],
    start: int,
    denominator: int,
    numpy,
) -> list[Number]:
    """The component sweep on float64, each probability ``weight / denominator``."""
    zero: Number = 0.0
    # Starts as the incoming mass (e_start plus what was pushed forward) and
    # is overwritten with π component by component.
    visits = [zero] * len(restricted)
    visits[start] = 1.0
    for component in reversed(components):
        incoming = [visits[member] for member in component]
        if not any(incoming):
            continue
        size = len(component)
        position = {member: p for p, member in enumerate(component)}
        # (row, column, q) for every transition inside the component.
        inside = [
            (i, position[j], weight / denominator)
            for i, member in enumerate(component)
            for j, weight in restricted[member].items()
            if j in position
        ]
        solved: list[Number]
        if size == 1:
            diagonal = 1.0 - inside[0][2] if inside else 1.0
            solved = [incoming[0] / diagonal]
        elif numpy is not None:
            # Filled in place, transposed: a block near the cap is millions
            # of entries, too many to build as Python lists first.
            a = numpy.identity(size)
            for i, p, probability in inside:
                a[p, i] -= probability
            solved = numpy.linalg.solve(a, numpy.array(incoming)).tolist()
        else:
            matrix = [[zero] * size for _ in range(size)]
            for i in range(size):
                matrix[i][i] = 1.0
            for i, p, probability in inside:
                matrix[p][i] -= probability
            solved = gaussian_solve(matrix, incoming)
        for member, value in zip(component, solved):
            visits[member] = value
            for j, weight in restricted[member].items():
                if j not in position:
                    visits[j] += value * (weight / denominator)
    return visits


def _rational_sweep(
    restricted: list[dict[int, int]],
    components: list[list[int]],
    start: int,
    denominator: int,
) -> list[Number]:
    """The component sweep on integer weights: one ``Fraction`` per visit, built last.

    ``incoming[j]`` holds ``D·(mass pushed into j)`` as integer numerators
    keyed by the denominator of the component that pushed them; the start
    receives ``D`` over 1.
    """
    zero: Number = Fraction(0)
    visits = [zero] * len(restricted)
    incoming: list[dict[int, int]] = [{} for _ in restricted]
    incoming[start][1] = denominator
    for component in reversed(components):
        sources = [incoming[member] for member in component]
        if not any(sources):
            continue
        common = lcm(*{den for source in sources for den in source})
        numerators = [
            sum(numerator * (common // den) for den, numerator in source.items())
            for source in sources
        ]
        position = {member: p for p, member in enumerate(component)}
        if len(component) == 1:
            [member] = component
            divisor = common * (denominator - restricted[member].get(member, 0))
        else:
            # Augmented rows of D·I - Wᵀ (the block transposed) and the
            # right-hand side.
            size = len(component)
            block = [[0] * size + [value] for value in numerators]
            for i, member in enumerate(component):
                block[i][i] += denominator
                for j, weight in restricted[member].items():
                    p = position.get(j)
                    if p is not None:
                        block[p][i] -= weight
            numerators, determinant = _bareiss(block)
            divisor = common * determinant
        reduce = gcd(divisor, *numerators)
        if divisor < 0:
            reduce = -reduce
        divisor //= reduce
        for member, numerator in zip(component, numerators):
            if not numerator:
                continue
            numerator //= reduce
            visits[member] = Fraction(numerator, divisor)
            for j, weight in restricted[member].items():
                if j not in position:
                    pushed = incoming[j]
                    pushed[divisor] = pushed.get(divisor, 0) + numerator * weight
    return visits
