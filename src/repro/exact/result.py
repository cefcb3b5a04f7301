"""The JSON-native result of an exact Markov-chain analysis.

A :class:`DistributionResult` is to the exact engine what a
:class:`~repro.simulation.runner.RunResult` is to the stochastic engines: the
serializable summary a run produces.  Every field is JSON-native (numbers,
strings, lists, ``None``) so the whole object survives the
``RunRecord.extras`` round trip losslessly — sweeps over
``engine="exact"`` persist exact columns next to empirical ones.

Float fields carry the analysis in float64; when the chain ran in
``"exact"`` arithmetic the companion ``*_exact`` fields pin the same
quantities as rational strings (``"3/7"``), which is what the golden files
under ``tests/golden/`` store.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any


def rational_string(value: Fraction | float | None) -> str | None:
    """``Fraction`` -> ``"p/q"`` string; ``None`` for float-mode quantities."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return None


def as_float(value: Fraction | float | None) -> float | None:
    """Any chain-arithmetic number as a float (``None`` passes through)."""
    return None if value is None else float(value)


def as_probability(value: Fraction | float | None) -> float | None:
    """Like :func:`as_float`, clamped to ``[0, 1]``.

    Float-mode solves can overshoot one by a few ulps; probabilities are
    clamped so reported values (and the ``>= 1`` correctness checks built on
    them) stay semantically clean.  Exact-mode values are already in range.
    """
    if value is None:
        return None
    return min(1.0, max(0.0, float(value)))


@dataclass(frozen=True)
class StableClassSummary:
    """One closed (stable) class of the configuration chain.

    Attributes:
        index: deterministic class index — classes are ordered by the
            canonical rank of their smallest configuration (sorted
            ``(state repr, count)`` pairs), an order that is identical for
            quotiented and unquotiented analyses of the same input.
        size: how many configurations the class contains.
        probability: exact absorption probability into this class.
        probability_exact: the same as a rational string (exact mode only).
        unanimous_output: when every configuration in the class has *all*
            agents reporting one common color, that color; else ``None``.
        correct: whether ``unanimous_output`` equals the input's unique
            relative majority (``None`` when the input has no unique
            majority).
        example: a representative configuration as ``[state repr, count]``
            pairs (JSON-native, human-readable in golden files).
    """

    index: int
    size: int
    probability: float
    probability_exact: str | None
    unanimous_output: int | None
    correct: bool | None
    example: list[list[Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        object.__setattr__(self, "example", [list(pair) for pair in self.example])


@dataclass(frozen=True)
class DistributionResult:
    """Everything one exact-engine run reports.

    The absorption half (``classes``, ``expected_interactions``,
    ``correctness_probability``) describes where the chain settles almost
    surely; the criterion half mirrors what a stochastic engine's stopping
    rule measures — the first time the run's convergence criterion holds.
    """

    protocol_name: str
    num_agents: int
    num_colors: int
    arithmetic: str
    num_configurations: int
    num_transient: int
    num_classes: int
    majority: int | None
    #: Probability that the chain stabilizes with every agent outputting the
    #: unique relative majority (``None`` when no unique majority exists).
    correctness_probability: float | None
    correctness_probability_exact: str | None
    #: Exact expected interactions until a stable class is entered.
    expected_interactions: float
    expected_interactions_exact: str | None
    expected_changed_interactions: float
    #: The run's convergence criterion (registry name), when one was given.
    criterion: str | None = None
    #: Probability that the criterion ever holds.
    criterion_probability: float | None = None
    #: Exact expected interactions until the criterion first holds
    #: (``None`` when that event is not almost sure).
    expected_interactions_to_criterion: float | None = None
    expected_changed_to_criterion: float | None = None
    #: How many orbit representatives the symmetry-quotiented chain solved
    #: (``None`` when the chain was not quotiented).  Every other field keeps
    #: *unquotiented* semantics — ``num_configurations``, ``num_transient``
    #: and the per-class probabilities are lifted back to the source chain,
    #: so quotiented and unquotiented runs of the same input agree
    #: bit-for-bit in rational mode; this field is the only trace of the
    #: quotient and is excluded from identity comparisons.
    num_orbits: int | None = None
    classes: list[StableClassSummary] = field(default_factory=list)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", list(self.classes))

    @property
    def always_correct(self) -> bool | None:
        """Whether stabilizing on the majority output is almost sure.

        Exactly 1 in rational mode; up to float tolerance otherwise.
        ``None`` when the input has no unique majority.
        """
        if self.correctness_probability is None:
            return None
        return self.correctness_probability >= 1.0 - 1e-12

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DistributionResult":
        payload = dict(data)
        payload["classes"] = [
            StableClassSummary(**dict(entry)) for entry in payload.get("classes", [])
        ]
        return cls(**payload)
