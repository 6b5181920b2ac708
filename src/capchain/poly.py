"""Exact arithmetic for capped probability-generating polynomials.

Accumulated capital is tracked as the exponent of a formal variable t:
the coefficient of t^j is the probability of holding exactly j units.
Coefficients are `fractions.Fraction`, so no value is ever rounded.

Exponents live in a fixed window [support_min, support_max].  A shift
that would push mass past either end of the window instead piles it up
on the boundary cell, which is exactly the "never below the floor" /
"at least the cap" bookkeeping a capped game needs.  The window is
small in practice (41 cells for the full chick-counting board), so a
dense coefficient tuple is the whole representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

# Anything Fraction() accepts losslessly: 3, Fraction(1, 3), "1/3".
RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class CappedPolynomial:
    """Dense polynomial in t with Fraction coefficients on a fixed exponent window."""

    support_min: int
    support_max: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.support_min > self.support_max:
            raise ValueError(
                f"inverted support [{self.support_min}, {self.support_max}]"
            )
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.width:
            raise ValueError(
                f"support [{self.support_min}, {self.support_max}] needs "
                f"{self.width} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def width(self) -> int:
        return self.support_max - self.support_min + 1

    @property
    def support(self) -> tuple[int, int]:
        return (self.support_min, self.support_max)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @classmethod
    def zero(cls, support_min: int, support_max: int) -> "CappedPolynomial":
        """The all-zero polynomial on the given window."""
        width = support_max - support_min + 1
        return cls(support_min, support_max, (Fraction(0),) * max(width, 0))

    @classmethod
    def monomial(
        cls,
        exponent: int,
        coeff: RationalLike,
        support_min: int,
        support_max: int,
    ) -> "CappedPolynomial":
        """coeff * t^exponent; the exponent must already lie inside the window."""
        if not support_min <= exponent <= support_max:
            raise ValueError(
                f"exponent {exponent} outside support [{support_min}, {support_max}]"
            )
        cells = [Fraction(0)] * (support_max - support_min + 1)
        cells[exponent - support_min] = Fraction(coeff)
        return cls(support_min, support_max, tuple(cells))

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of t^exponent; zero outside the window."""
        if self.support_min <= exponent <= self.support_max:
            return self.coeffs[exponent - self.support_min]
        return Fraction(0)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) pairs for the nonzero coefficients."""
        for exponent, coeff in enumerate(self.coeffs, start=self.support_min):
            if coeff:
                yield exponent, coeff

    def __add__(self, other: "CappedPolynomial") -> "CappedPolynomial":
        if not isinstance(other, CappedPolynomial):
            return NotImplemented
        if other.support != self.support:
            raise ValueError(f"support mismatch: {self.support} vs {other.support}")
        return CappedPolynomial(
            self.support_min,
            self.support_max,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def scale(self, factor: RationalLike) -> "CappedPolynomial":
        """Multiply every coefficient by an exact rational factor."""
        f = Fraction(factor)
        return CappedPolynomial(
            self.support_min, self.support_max, tuple(c * f for c in self.coeffs)
        )

    def mass(self) -> Fraction:
        """Exact sum of all coefficients, i.e. the value at t = 1."""
        return sum(self.coeffs, Fraction(0))

    def __str__(self) -> str:
        parts = [
            str(coeff) if exponent == 0 else f"{coeff}*t^{exponent}"
            for exponent, coeff in self.terms()
        ]
        return " + ".join(parts) if parts else "0"
