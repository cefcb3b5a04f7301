"""Linear solves for the exact Markov-chain analyses.

Every quantity :mod:`repro.exact.absorption` computes — absorption
probabilities, expected interactions to convergence, expected changed
interactions — is the solution of one linear system ``(I - Q)·x = b`` over
the transient (or non-target) configurations, with a handful of right-hand
sides sharing the same matrix (the classic fundamental-matrix solve).

One algorithm solves all of them, in both arithmetics: a block-triangular
solve over the strongly connected components of ``Q``.  Every
state-changing Circles interaction strictly lowers the energy (Theorem
3.4), so the transient chain is nearly acyclic: its components are the
small energy-neutral plateaus.  Components are solved successors first,
with the already-known terms folded into each block's right-hand side, so
the cost is cubic only in the largest component (11 states on the tied
circles ``k = 3`` input, against 156 in the system) and memory is linear in
the nonzeros of ``Q`` plus one dense block.

Two block kernels:

* a **singleton** is one division by ``1 - q_ii``, in either arithmetic;
* a **larger block** goes through ``numpy.linalg.solve`` in float mode when
  numpy is importable, and through :func:`gaussian_solve` otherwise — always
  in rational mode (``fractions.Fraction`` values stay ``Fraction``
  throughout, so golden results are exact).  Float elimination pivots on
  the max-magnitude column entry (partial pivoting — near-singular blocks
  amplify roundoff under naive pivoting); rational elimination takes the
  first nonzero pivot, which is exact and skips ``Fraction`` magnitude
  comparisons.

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

from collections.abc import Sequence
from fractions import Fraction

#: The largest component a float solve takes on with numpy: one LAPACK
#: factorization of a block this size runs in a fraction of a second.
NUMPY_MAX_COMPONENT = 1500

#: The largest component an interpreted elimination takes on — rational
#: mode, or float mode without numpy.  The cost is cubic in the block (a
#: 496-state float block already takes seconds).
PURE_PYTHON_MAX_COMPONENT = 300


Number = Fraction | float


class SolveTooLarge(RuntimeError):
    """The system's largest strongly connected component exceeded the solve cap."""


def _numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-less CI only
        return None
    return numpy


def gaussian_solve(
    matrix: list[list[Fraction | float]],
    rhs_columns: list[list[Fraction | float]],
    *,
    exact: bool = False,
) -> list[list[Fraction | float]]:
    """Solve ``matrix · x = b`` for every column in ``rhs_columns``.

    Plain Gaussian elimination, in place on copies.  Pivot selection is
    mode-dependent: float mode (``exact=False``) takes the max-magnitude
    entry of the column — partial pivoting, which keeps near-singular
    transient blocks from amplifying roundoff; rational mode takes the first
    nonzero entry, which is exact over ``Fraction`` and skips the magnitude
    comparisons (``abs`` on ``Fraction`` allocates).

    Raises:
        ZeroDivisionError: when the matrix is singular (callers prevent this
            structurally: every transient configuration leaves the transient
            set with positive probability).
    """
    size = len(matrix)
    a = [list(row) for row in matrix]
    b = [list(column) for column in rhs_columns]
    for pivot_row in range(size):
        if exact:
            pivot = next(
                (r for r in range(pivot_row, size) if a[r][pivot_row]), pivot_row
            )
        else:
            pivot = max(range(pivot_row, size), key=lambda r: abs(a[r][pivot_row]))
        if pivot != pivot_row:
            a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
            for column in b:
                column[pivot_row], column[pivot] = column[pivot], column[pivot_row]
        head = a[pivot_row][pivot_row]
        for row in range(pivot_row + 1, size):
            factor = a[row][pivot_row] / head
            if not factor:
                continue
            row_values = a[row]
            pivot_values = a[pivot_row]
            for column_index in range(pivot_row, size):
                row_values[column_index] -= factor * pivot_values[column_index]
            for column in b:
                column[row] -= factor * column[pivot_row]
    solutions = []
    for column in b:
        x = [column[i] for i in range(size)]
        for row in range(size - 1, -1, -1):
            total = x[row]
            row_values = a[row]
            for column_index in range(row + 1, size):
                total -= row_values[column_index] * x[column_index]
            x[row] = total / row_values[row]
        solutions.append(x)
    return solutions


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
    rows: Sequence[dict[int, Number]],
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
        work: list[tuple[int, list[int], int]] = [(root, list(rows[root]), 0)]
        while work:
            node, successors, position = work.pop()
            if position == 0:
                index_of[node] = low_link[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            else:
                # Returning from a child: fold its low-link into ours.
                child = successors[position - 1]
                low_link[node] = min(low_link[node], low_link[child])
            advanced = False
            while position < len(successors):
                successor = successors[position]
                position += 1
                if index_of[successor] == -1:
                    work.append((node, successors, position))
                    work.append((successor, list(rows[successor]), 0))
                    advanced = True
                    break
                if on_stack[successor]:
                    low_link[node] = min(low_link[node], index_of[successor])
            if advanced:
                continue
            if low_link[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                component.sort()
                components.append(component)
    return components


def solve_transient_systems(
    rows: Sequence[dict[int, Number]],
    transient: Sequence[int],
    rhs_columns: Sequence[Sequence[Number]],
    *,
    exact: bool,
) -> list[list[Number]]:
    """Solve ``(I - Q)·x = b`` over the ``transient`` configuration indices.

    ``Q`` restricted to the system is block triangular once its strongly
    connected components are ordered topologically, so each component's
    unknowns depend only on its own block and on components it reaches.
    :func:`strongly_connected_components` yields successors first; every
    component is solved as soon as they are known, with the known terms
    ``Σ q_ij·x_j`` folded into its right-hand side.

    Args:
        rows: the chain's sparse transition rows (global indices).
        transient: the global indices forming the system, in order; ``Q`` is
            ``rows`` restricted to ``transient × transient``.
        rhs_columns: right-hand sides, one vector per requested solve, each
            indexed like ``transient``.
        exact: True for ``Fraction`` arithmetic, False for float64.

    Returns:
        One solution vector per right-hand side, indexed like ``transient``.

    Raises:
        SolveTooLarge: when the largest component exceeds the cap of the
            kernel that would eliminate it (see the module docstring).
    """
    zero: Number = Fraction(0) if exact else 0.0
    one: Number = Fraction(1) if exact else 1.0
    numpy = None if exact else _numpy()
    local = {global_index: i for i, global_index in enumerate(transient)}
    restricted: list[dict[int, Number]] = []
    for global_index in transient:
        row: dict[int, Number] = {}
        for target, probability in rows[global_index].items():
            j = local.get(target)
            if j is not None:
                row[j] = probability
        restricted.append(row)
    components = strongly_connected_components(restricted)
    cap = PURE_PYTHON_MAX_COMPONENT if numpy is None else NUMPY_MAX_COMPONENT
    largest = max(map(len, components), default=0)
    if largest > cap:
        raise SolveTooLarge(
            f"a strongly connected component of {largest} states (system of "
            f"{len(transient)}) exceeds the solve cap of {cap}"
        )
    # Each column starts as b and is overwritten with x component by component.
    solutions = [list(column) for column in rhs_columns]
    for component in components:
        size = len(component)
        position = {member: p for p, member in enumerate(component)}
        # (row, column, q) for every transition inside the component.
        inside: list[tuple[int, int, Number]] = []
        block_rhs: list[list[Number]] = [[] for _ in solutions]
        for i, member in enumerate(component):
            known: list[tuple[int, Number]] = []
            for j, probability in restricted[member].items():
                p = position.get(j)
                if p is None:
                    known.append((j, probability))
                else:
                    inside.append((i, p, probability))
            for x, column in zip(solutions, block_rhs):
                total = x[member]
                for j, probability in known:
                    # Skipping zeros pays: absorption into one class is zero
                    # from most states, and Fraction products are costly.
                    if x[j]:
                        total += probability * x[j]
                column.append(total)
        if size == 1:
            diagonal = one - inside[0][2] if inside else one
            solved = [[column[0] / diagonal] for column in block_rhs]
        elif numpy is not None:
            # Filled in place: a block near the cap is millions of entries,
            # too many to build as Python lists first.
            a = numpy.identity(size)
            for i, p, probability in inside:
                a[i, p] -= probability
            solved = numpy.linalg.solve(a, numpy.array(block_rhs).T).T.tolist()
        else:
            matrix = [[zero] * size for _ in range(size)]
            for i in range(size):
                matrix[i][i] = one
            for i, p, probability in inside:
                matrix[i][p] -= probability
            solved = gaussian_solve(matrix, block_rhs, exact=exact)
        for x, values in zip(solutions, solved):
            for member, value in zip(component, values):
                x[member] = value
    return solutions
