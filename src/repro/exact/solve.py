"""Linear solves for the exact Markov-chain analyses.

Every quantity :mod:`repro.exact.absorption` computes — absorption
probabilities, expected interactions to convergence, expected changed
interactions — is a weighted sum over one row of the fundamental matrix
``(I - Q)⁻¹`` of the transient (or non-target) configurations: the row of
the initial configuration, ``π = e_initᵀ (I - Q)⁻¹``, the expected number of
visits to each configuration before the chain leaves the system (Kemeny &
Snell, *Finite Markov Chains*).  So one linear system is solved per
analysis, whatever the number of closed classes.

One algorithm solves it, in both arithmetics: a block-triangular solve over
the strongly connected components of ``Q``.  Every state-changing Circles
interaction strictly lowers the energy (Theorem 3.4), so the transient chain
is nearly acyclic: its components are the small energy-neutral plateaus.
Components are solved sources first, each block transposed, with the mass
its predecessors pushed into it as the right-hand side; components the
initial configuration cannot reach carry no mass and are skipped.  The cost
is cubic only in the largest component (11 states on the tied circles
``k = 3`` input, against 156 in the system) and memory is linear in the
nonzeros of ``Q`` plus one dense block.

Two block kernels:

* a **singleton** is one division by ``1 - q_ii``, in either arithmetic;
* a **larger block** goes through ``numpy.linalg.solve`` in float mode when
  numpy is importable, and through :func:`gaussian_solve` otherwise — always
  in rational mode.  Float elimination pivots on the max-magnitude column
  entry (partial pivoting — near-singular blocks amplify roundoff under
  naive pivoting).  Rational elimination is fraction-free (Bareiss): the
  block is scaled to integers, eliminated with exact integer divisions on
  the first nonzero pivot, and turned back into one ``Fraction`` per
  unknown, so golden results are exact without a ``Fraction`` per
  arithmetic step.

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
from math import lcm

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


def _numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-less CI only
        return None
    return numpy


def gaussian_solve(
    matrix: list[list[Fraction | float]],
    rhs: list[Fraction | float],
    *,
    exact: bool = False,
) -> list[Fraction | float]:
    """Solve ``matrix · x = rhs``.

    Float mode (``exact=False``): Gaussian elimination in place on copies,
    pivoting on the max-magnitude entry of each column — partial pivoting,
    which keeps near-singular transient blocks from amplifying roundoff.

    Rational mode (``exact=True``): fraction-free elimination on integers
    (Bareiss 1968).  The matrix is scaled by the lcm of its entry
    denominators (on chain rows they all divide ``n(n-1)``) and the
    right-hand side by the lcm of its own; each column takes the first
    nonzero pivot, swapping rows when needed, and every update
    ``(head·a_ij - a_ik·a_kj) / previous head`` divides exactly (Sylvester's
    identity), so every entry stays an integer: a minor of the scaled block.
    Back-substitution runs on the solution scaled by the determinant (an
    integer vector, by Cramer's rule), and one ``Fraction`` per unknown is
    built at the end.  The result equals rational Gaussian elimination's,
    without a gcd per arithmetic step.

    Raises:
        ZeroDivisionError: when the matrix is singular (callers prevent this
            structurally: every transient configuration leaves the transient
            set with positive probability).
    """
    if exact:
        return _bareiss_solve(matrix, rhs)  # type: ignore[arg-type]  # no floats in rational mode
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


def _bareiss_solve(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction | float]:
    """The rational branch of :func:`gaussian_solve`: fraction-free elimination."""
    size = len(matrix)
    scale = lcm(*(value.denominator for row in matrix for value in row))
    rhs_scale = lcm(*(value.denominator for value in rhs))
    # Augmented rows: the scaled right-hand side is column ``size``.
    a = [
        [value.numerator * (scale // value.denominator) for value in row]
        + [value.numerator * (rhs_scale // value.denominator)]
        for row, value in zip(matrix, rhs)
    ]
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
    # ``previous`` is now the determinant of the row-swapped scaled matrix;
    # ``scaled[i]`` is the determinant times unknown i, an integer.
    determinant = previous
    scaled = [0] * size
    for i in range(size - 1, -1, -1):
        row = a[i]
        total = determinant * row[size]
        for j in range(i + 1, size):
            total -= row[j] * scaled[j]
        scaled[i] = total // row[i]
    denominator = rhs_scale * determinant
    return [Fraction(scale * value, denominator) for value in scaled]


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
    start: int,
    *,
    exact: bool,
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
        rows: the chain's sparse transition rows (global indices).
        transient: the global indices forming the system, in order; ``Q`` is
            ``rows`` restricted to ``transient × transient``.
        start: the global index the chain starts from; one of ``transient``.
        exact: True for ``Fraction`` arithmetic, False for float64.

    Returns:
        The expected visits, indexed like ``transient``.

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
    # Starts as the incoming mass (e_start plus what was pushed forward) and
    # is overwritten with π component by component.
    visits: list[Number] = [zero] * len(transient)
    visits[local[start]] = one
    for component in reversed(components):
        incoming = [visits[member] for member in component]
        if not any(incoming):
            continue
        size = len(component)
        position = {member: p for p, member in enumerate(component)}
        # (row, column, q) for every transition inside the component.
        inside = [
            (i, position[j], probability)
            for i, member in enumerate(component)
            for j, probability in restricted[member].items()
            if j in position
        ]
        if size == 1:
            diagonal = one - inside[0][2] if inside else one
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
                matrix[i][i] = one
            for i, p, probability in inside:
                matrix[p][i] -= probability
            solved = gaussian_solve(matrix, incoming, exact=exact)
        for member, value in zip(component, solved):
            visits[member] = value
            for j, probability in restricted[member].items():
                if j not in position:
                    visits[j] += value * probability
    return visits
