"""Shared fixtures, statistical helpers and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core.braket import BraKet
from repro.core.circles import CirclesProtocol

# 99.9th percentiles of the chi-squared distribution by degrees of freedom;
# generous so seeded distributional-agreement tests are meaningful but not
# knife-edged.
_CHI2_999 = {
    1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 6: 22.46, 7: 24.32,
    8: 26.12, 9: 27.88, 10: 29.59, 11: 31.26, 12: 32.91, 13: 34.53,
    14: 36.12, 15: 37.70, 16: 39.25, 17: 40.79, 18: 42.31, 19: 43.82,
    20: 45.31,
}


def _chi_squared(first: dict, second: dict) -> tuple[float, float]:
    """The two-sample chi-squared statistic and its 99.9% critical value.

    Bins observed fewer than 10 times in total are pooled (standard practice
    for validity of the chi-squared approximation).
    """
    keys = sorted(set(first) | set(second))
    bins: list[tuple[int, int]] = []
    acc_first = acc_second = 0
    for key in keys:
        acc_first += first.get(key, 0)
        acc_second += second.get(key, 0)
        if acc_first + acc_second >= 10:
            bins.append((acc_first, acc_second))
            acc_first = acc_second = 0
    if acc_first + acc_second:
        if bins:
            last_first, last_second = bins.pop()
            bins.append((last_first + acc_first, last_second + acc_second))
        else:
            bins.append((acc_first, acc_second))
    total_first = sum(count for count, _ in bins)
    total_second = sum(count for _, count in bins)
    total = total_first + total_second
    statistic = 0.0
    for count_first, count_second in bins:
        row = count_first + count_second
        expected_first = row * total_first / total
        expected_second = row * total_second / total
        statistic += (count_first - expected_first) ** 2 / expected_first
        statistic += (count_second - expected_second) ** 2 / expected_second
    df = max(1, len(bins) - 1)
    return statistic, _CHI2_999[min(df, max(_CHI2_999))]


@pytest.fixture(scope="session")
def two_sample_chi_squared():
    """``(histogram, histogram) -> (statistic, 99.9% critical value)``."""
    return _chi_squared


def _chi_squared_against_exact(
    observed: dict, probabilities: dict, trials: int
) -> tuple[float, float]:
    """One-sample chi-squared of an empirical histogram against exact probabilities.

    Unlike :func:`_chi_squared` the reference here is a *known* distribution
    (from the exact Markov-chain engine), so expected counts are
    ``trials · p`` and the statistic has ``bins - 1`` degrees of freedom with
    no estimation correction.  Bins with expected count below 5 are pooled
    (in sorted key order) for the validity of the approximation.
    """
    assert set(observed) <= set(probabilities), (
        "an outcome with exact probability 0 was observed: "
        f"{sorted(set(observed) - set(probabilities))}"
    )
    keys = sorted(probabilities)
    bins: list[tuple[int, float]] = []
    acc_count, acc_expected = 0, 0.0
    for key in keys:
        acc_count += observed.get(key, 0)
        acc_expected += trials * float(probabilities[key])
        if acc_expected >= 5.0:
            bins.append((acc_count, acc_expected))
            acc_count, acc_expected = 0, 0.0
    if acc_count or acc_expected:
        if bins:
            last_count, last_expected = bins.pop()
            bins.append((last_count + acc_count, last_expected + acc_expected))
        else:
            bins.append((acc_count, acc_expected))
    statistic = sum(
        (count - expected) ** 2 / expected for count, expected in bins if expected
    )
    df = max(1, len(bins) - 1)
    return statistic, _CHI2_999[min(df, max(_CHI2_999))]


@pytest.fixture(scope="session")
def one_sample_chi_squared():
    """``(observed histogram, exact probabilities, trials) -> (stat, critical)``."""
    return _chi_squared_against_exact


def _registry_protocol(name: str):
    """Instantiate a registry protocol with a color count it accepts."""
    from repro.protocols.registry import DEFAULT_REGISTRY

    for k in (2, 3, 1):
        try:
            return DEFAULT_REGISTRY.create(name, k)
        except ValueError:
            continue
    pytest.skip(f"no supported color count found for protocol {name!r}")


@pytest.fixture(scope="session")
def make_registry_protocol():
    """``name -> protocol`` for registry-wide parametrized suites."""
    return _registry_protocol


def _pin_batch_path(request, name: str) -> str:
    """The registry engine name for an engine name or a batch path.

    ``batch-dense`` and ``batch-sparse`` hold the batch engine in one pool
    regime for the whole run; ``batch-uncompiled`` runs its pool of lazily
    interned codes through ``force_uncompiled``, so every engine and chain
    built after the call is uncompiled.  Any other name is a registry engine name,
    passed through.
    """
    import repro.simulation.batch_engine as batch_engine

    if name in ("batch-dense", "batch-sparse"):
        monkeypatch = request.getfixturevalue("monkeypatch")
        load = -1.0 if name == "batch-dense" else float("inf")
        monkeypatch.setattr(batch_engine, "SPARSE_ENTER_LOAD", load)
        monkeypatch.setattr(batch_engine, "SPARSE_LEAVE_LOAD", load)
        return "batch"
    if name == "batch-uncompiled":
        request.getfixturevalue("force_uncompiled")
        return "batch"
    return name


@pytest.fixture
def pin_batch_path(request):
    """``name -> registry engine name``, pinning a batch path."""
    return lambda name: _pin_batch_path(request, name)


def _per_spec_sweep(sweep):
    """The :class:`SweepResult` a sweep must produce, every run through
    :func:`execute_run` alone — no units, no executor, no store.

    An adaptive sweep grows each cell to the stopping rule's checkpoints in
    turn and stops it where the rule does; its diagnostics land in
    ``extras["stopping"]`` as :meth:`SweepRunner.run` reports them.
    """
    from repro.api.aggregate import record_value
    from repro.api.executor import exact_anchor_value, execute_run
    from repro.api.records import SweepResult

    if not sweep.is_adaptive:
        return SweepResult(spec=sweep, records=[execute_run(spec) for spec in sweep.expand()])
    rule = sweep.stopping_rule
    records, stopping = [], []
    for cell in sweep.expand_cells():
        anchor = exact_anchor_value(cell.spec(0), rule.metric) if rule.exact_anchor else None
        cell_records = []
        decision = None
        while decision is None:
            target = rule.next_target(len(cell_records))
            cell_records += [execute_run(cell.spec(t)) for t in range(len(cell_records), target)]
            values = [float(record_value(record, rule.metric)) for record in cell_records]
            decision = rule.evaluate(values, anchor=anchor)
        records += cell_records
        stopping.append({**cell.describe(), **decision.to_dict()})
    return SweepResult(spec=sweep, records=records, extras={"stopping": stopping})


@pytest.fixture(scope="session")
def per_spec_sweep():
    """``sweep -> SweepResult`` executed one spec at a time (the reference)."""
    return _per_spec_sweep


@pytest.fixture
def circles_k3() -> CirclesProtocol:
    """A Circles protocol instance with three colors."""
    return CirclesProtocol(3)


@pytest.fixture
def circles_k5() -> CirclesProtocol:
    """A Circles protocol instance with five colors."""
    return CirclesProtocol(5)


def color_lists(
    min_agents: int = 2,
    max_agents: int = 12,
    max_colors: int = 5,
    unique_majority: bool = False,
):
    """A hypothesis strategy producing input color assignments.

    Colors are drawn in ``[0, max_colors - 1]``; when ``unique_majority`` is
    set, assignments whose top count is shared are filtered out.
    """
    base = st.lists(
        st.integers(min_value=0, max_value=max_colors - 1),
        min_size=min_agents,
        max_size=max_agents,
    )
    if not unique_majority:
        return base

    def has_unique_top(colors: list[int]) -> bool:
        counts: dict[int, int] = {}
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
        top = max(counts.values())
        return sum(1 for value in counts.values() if value == top) == 1

    return base.filter(has_unique_top)


def brakets(max_colors: int = 6):
    """A hypothesis strategy producing a bra-ket together with its ``k``."""
    return st.integers(min_value=2, max_value=max_colors).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.builds(
                BraKet,
                st.integers(min_value=0, max_value=k - 1),
                st.integers(min_value=0, max_value=k - 1),
            ),
        )
    )
