"""Exact arithmetic for capped probability-generating polynomials.

Accumulated capital is tracked as the exponent of a formal variable t:
the coefficient of t^j is the probability of holding exactly j units.
Coefficients are exact rationals stored as integer numerators over one
shared denominator, so no value is ever rounded; `Fraction`s are built
only when read, at the record and report boundary.

Exponents live in a fixed window [support_min, support_max].  A shift
that would push mass past either end of the window instead piles it up
on the boundary cell, which is exactly the "never below the floor" /
"at least the cap" bookkeeping a capped game needs.  The window is
small in practice (41 cells for the full chick-counting board), so a
dense numerator tuple is the whole representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence, Union

# Anything Fraction() accepts losslessly: 3, Fraction(1, 3), "1/3".
RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True, init=False)
class CappedPolynomial:
    """Dense polynomial in t with exact rational coefficients on a fixed exponent window.

    Coefficient j is `numerators[j] / denominator`, reduced by the gcd of all of them
    (zero has denominator 1): the pair is unique, so field equality is coefficient equality.
    """

    support_min: int
    support_max: int
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, support_min: int, support_max: int, coeffs: Sequence[RationalLike]):
        if support_min > support_max:
            raise ValueError(f"inverted support [{support_min}, {support_max}]")
        fractions = [Fraction(c) for c in coeffs]
        width = support_max - support_min + 1
        if len(fractions) != width:
            raise ValueError(
                f"support [{support_min}, {support_max}] needs "
                f"{width} coefficients, got {len(fractions)}"
            )
        # Over the lcm of the reduced denominators the pair is already reduced.
        denominator = lcm(*(f.denominator for f in fractions))
        numerators = tuple(f.numerator * (denominator // f.denominator) for f in fractions)
        self.__dict__.update(support_min=support_min, support_max=support_max,
                             numerators=numerators, denominator=denominator)

    @classmethod
    def _from_numerators(
        cls, support_min: int, support_max: int, numerators: tuple[int, ...], denominator: int
    ) -> "CappedPolynomial":
        """Reduce `numerators / denominator` (one per cell, denominator > 0) and wrap it."""
        common = gcd(*numerators, denominator)
        if common > 1:
            numerators = tuple(n // common for n in numerators)
            denominator //= common
        poly = cls.__new__(cls)
        poly.__dict__.update(support_min=support_min, support_max=support_max,
                             numerators=numerators, denominator=denominator)
        return poly

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def support(self) -> tuple[int, int]:
        return (self.support_min, self.support_max)

    @property
    def is_zero(self) -> bool:
        return not any(self.numerators)

    @classmethod
    def monomial(
        cls, exponent: int, coeff: RationalLike, support_min: int, support_max: int
    ) -> "CappedPolynomial":
        """coeff * t^exponent; the exponent must already lie inside the window."""
        if not support_min <= exponent <= support_max:
            raise ValueError(
                f"exponent {exponent} outside support [{support_min}, {support_max}]"
            )
        cells: list[RationalLike] = [0] * (support_max - support_min + 1)
        cells[exponent - support_min] = coeff
        return cls(support_min, support_max, cells)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) pairs for the nonzero coefficients."""
        for exponent, numerator in enumerate(self.numerators, start=self.support_min):
            if numerator:
                yield exponent, Fraction(numerator, self.denominator)

    def scale(self, factor: RationalLike) -> "CappedPolynomial":
        """Multiply every coefficient by an exact rational factor."""
        f = Fraction(factor)
        numerators = tuple(n * f.numerator for n in self.numerators)
        return self._from_numerators(*self.support, numerators, self.denominator * f.denominator)

    def mass(self) -> Fraction:
        """Exact sum of all coefficients, i.e. the value at t = 1."""
        return Fraction(sum(self.numerators), self.denominator)

    def __str__(self) -> str:
        parts = [f"{coeff}*t^{exponent}" for exponent, coeff in self.terms()]
        return " + ".join(parts) if parts else "0"
