"""Ordinal numbers below ``ω^ω`` for the stabilization potential.

Theorem 3.4 of the paper proves that the number of ket exchanges is finite by
exhibiting an ordinal-valued potential

    g(C) = ω^(n-1)·w₁(C) + ω^(n-2)·w₂(C) + ... + ω·w_{n-1}(C) + w_n(C)

that strictly decreases at every ket exchange.  Any ordinal of that shape is a
polynomial in ω with non-negative integer coefficients, i.e. an ordinal below
``ω^ω`` in Cantor normal form.  :class:`Ordinal` implements exactly that
fragment: construction from coefficients, lexicographic comparison and the
(natural, Hessenberg) sum needed by the analysis code.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class Ordinal:
    """An ordinal below ``ω^ω``, stored in Cantor normal form.

    Internally the ordinal ``Σ c_e · ω^e`` is kept as a mapping from exponent
    ``e`` to a strictly positive coefficient ``c_e``.  Comparison is
    lexicographic on exponents from the highest down, matching ordinal order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if terms:
            for exponent, coefficient in terms.items():
                if exponent < 0:
                    raise ValueError(f"ordinal exponents must be non-negative, got {exponent}")
                if coefficient < 0:
                    raise ValueError(
                        f"ordinal coefficients must be non-negative, got {coefficient}"
                    )
                if coefficient:
                    cleaned[exponent] = cleaned.get(exponent, 0) + coefficient
        self._terms = cleaned

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Ordinal":
        """The ordinal 0."""
        return cls()

    @classmethod
    def from_int(cls, value: int) -> "Ordinal":
        """Embed a natural number as a finite ordinal."""
        if value < 0:
            raise ValueError("ordinals embed only non-negative integers")
        return cls({0: value}) if value else cls()

    @classmethod
    def omega(cls, exponent: int = 1, coefficient: int = 1) -> "Ordinal":
        """The ordinal ``coefficient · ω^exponent``."""
        return cls({exponent: coefficient})

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[int]) -> "Ordinal":
        """Build ``Σ c_i · ω^(m-1-i)`` from coefficients listed highest power first.

        This is the shape of the paper's potential ``g(C)``: pass the sorted
        weights ``w₁ ≤ w₂ ≤ ... ≤ w_n`` and the result is
        ``ω^{n-1}·w₁ + ... + ω·w_{n-1} + w_n``.
        """
        values = list(coefficients)
        top = len(values) - 1
        return cls({top - index: value for index, value in enumerate(values) if value})

    # -- accessors ------------------------------------------------------------

    def terms(self) -> dict[int, int]:
        """A copy of the exponent -> coefficient mapping."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        """True for the ordinal 0."""
        return not self._terms

    def is_finite(self) -> bool:
        """True when the ordinal is a natural number."""
        return all(exponent == 0 for exponent in self._terms)

    def degree(self) -> int:
        """The largest exponent with a non-zero coefficient (0 for finite ordinals)."""
        return max(self._terms, default=0)

    def coefficient(self, exponent: int) -> int:
        """The coefficient of ``ω^exponent``."""
        return self._terms.get(exponent, 0)

    # -- arithmetic -------------------------------------------------------------

    def natural_sum(self, other: "Ordinal") -> "Ordinal":
        """The Hessenberg (commutative) sum: coefficients add exponent-wise."""
        merged = dict(self._terms)
        for exponent, coefficient in other._terms.items():
            merged[exponent] = merged.get(exponent, 0) + coefficient
        return Ordinal(merged)

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return self.natural_sum(other)

    def scale(self, factor: int) -> "Ordinal":
        """Multiply every coefficient by a non-negative integer."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        if factor == 0:
            return Ordinal.zero()
        return Ordinal({exponent: coefficient * factor for exponent, coefficient in self._terms.items()})

    # -- comparison ---------------------------------------------------------------

    def _key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._terms.items(), reverse=True))

    def compare(self, other: "Ordinal") -> int:
        """Return -1, 0 or 1 according to ordinal order."""
        mine, theirs = self._key(), other._key()
        for (exp_a, coef_a), (exp_b, coef_b) in zip(mine, theirs):
            if exp_a != exp_b:
                return 1 if exp_a > exp_b else -1
            if coef_a != coef_b:
                return 1 if coef_a > coef_b else -1
        if len(mine) != len(theirs):
            return 1 if len(mine) > len(theirs) else -1
        return 0

    def __lt__(self, other: "Ordinal") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return self.compare(other) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if not self._terms:
            return "Ordinal(0)"
        parts = []
        for exponent, coefficient in sorted(self._terms.items(), reverse=True):
            if exponent == 0:
                parts.append(str(coefficient))
            elif exponent == 1:
                parts.append(f"{coefficient}·ω")
            else:
                parts.append(f"{coefficient}·ω^{exponent}")
        return f"Ordinal({' + '.join(parts)})"

    def __bool__(self) -> bool:
        return bool(self._terms)
