"""Exact arithmetic for capped probability-generating polynomials.

Accumulated capital is tracked as the exponent of a formal variable t:
the coefficient of t^j is the probability of holding exactly j units.
Coefficients are exact rationals, integer numerators over one shared
denominator, so no value is ever rounded; `Fraction`s are built only
when read, at the record and report boundary.

Exponents live in a fixed window [support_min, support_max].  A shift
that would push mass past either end of the window instead piles it up
on the boundary cell, which is exactly the "never below the floor" /
"at least the cap" bookkeeping a capped game needs.

The numerators are stored packed, by Kronecker substitution: the cells
from the lowest to the highest nonzero one are the balanced base-2^B
digits of one int, kept with a cell offset, an unreduced denominator and
a bound on the sum of |cells|.  B is a multiple of 8 with that bound
below 2^(B-1), so sums of shifted multiples of rows within the bound never
carry from cell to cell, and a run of cells sums to its packed int modulo
2^B - 1.  The reduced numerators are computed when first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Sequence, Union

# Anything Fraction() accepts losslessly: 3, Fraction(1, 3), "1/3".
RationalLike = Union[Fraction, int, str]


def _cell_bits(bound: int) -> int:
    """Smallest multiple of 8 bits whose balanced cells hold any sum of magnitude `bound`."""
    return (bound.bit_length() + 8) // 8 * 8


def _halves(cells: int, bits: int) -> int:
    """The packed int with 2^(bits-1) in each of `cells` cells."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * cells, "little")


def _pack(cells: Sequence[int], bits: int) -> int:
    """sum(cell_i << bits*i); every |cell_i| must be below 2^(bits-1)."""
    size, half = bits // 8, 1 << (bits - 1)
    biased = b"".join((cell + half).to_bytes(size, "little") for cell in cells)
    return int.from_bytes(biased, "little") - _halves(len(cells), bits)


def _digit_sum(value: int, bits: int) -> int:
    """Sum of the cells of a packed int: its residue mod 2^bits - 1, taken in balanced form."""
    modulus = (1 << bits) - 1
    total = value % modulus
    return total - modulus if total > modulus >> 1 else total


def _clamped(value: int, offset: int, span: int, bits: int, weight: int, width: int) -> tuple[int, int]:
    """A packed row shifted by `weight`, cells pushed off either end piled onto the end cell: (packed, offset)."""
    start = offset + weight
    if 0 <= start and start + span <= width:
        return value, start
    # The low `cut` cells: those landing below cell 0, or those staying at or below the cap.
    cut = -start if start < 0 else max(width - start, 1)
    if cut >= span:  # the whole row lands on one end cell
        return _digit_sum(value, bits), 0 if start < 0 else width - 1
    low = value & ((1 << cut * bits) - 1)
    if low >> (cut * bits - 1):  # the balanced value of the low cells is negative
        low -= 1 << cut * bits
    high = (value - low) >> cut * bits
    if start < 0:
        return high + _digit_sum(low, bits), 0
    return low + (_digit_sum(high, bits) << (cut - 1) * bits), width - cut


class CappedPolynomial:
    """Polynomial in t with exact rational coefficients on a fixed exponent window.

    Coefficient j is `numerators[j] / denominator`, reduced by the gcd of all of them
    (zero has denominator 1): the pair is unique, so equality and hashing compare it.
    Instances are immutable; the cells are stored packed (see the module docstring).
    """

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
        denominator = lcm(*(f.denominator for f in fractions))
        numerators = [f.numerator * (denominator // f.denominator) for f in fractions]
        vars(self).update(vars(self._from_numerators(support_min, support_max, numerators, denominator)))

    @classmethod
    def _packed(cls, support_min, support_max, value, offset, bits, denominator, bound):
        """Wrap packed cells from `offset` on whose |cells| sum to at most `bound` < 2^(bits-1)."""
        if value and not value & ((1 << bits) - 1):  # drop zero cells below the lowest nonzero one
            skip = ((value & -value).bit_length() - 1) // bits
            value, offset = value >> skip * bits, offset + skip
        poly = cls.__new__(cls)
        vars(poly).update(support_min=support_min, support_max=support_max, _value=value, _offset=offset,
                          _span=value.bit_length() // bits + 1 if value else 0, _bits=bits,
                          _den=denominator, _bound=bound)
        return poly

    @classmethod
    def _from_numerators(cls, support_min, support_max, numerators, denominator, offset=0):
        """Wrap `numerators / denominator` (cells from `offset` on, denominator > 0)."""
        bits = _cell_bits(bound := sum(map(abs, numerators)))
        return cls._packed(support_min, support_max, _pack(numerators, bits), offset, bits, denominator, bound)

    def _raw_cells(self) -> tuple[int, list[int], int]:
        """(exponent of the first stored cell, the stored numerators, the unreduced denominator)."""
        size, half, span = self._bits // 8, 1 << (self._bits - 1), self._span
        data = (self._value + _halves(span, self._bits)).to_bytes(span * size, "little")
        cells = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, span * size, size)]
        return self.support_min + self._offset, cells, self._den

    def _repacked(self, bits: int, lift: int) -> int:
        """The stored cells times `lift`, packed `bits` wide."""
        if bits == self._bits and lift == 1:
            return self._value
        return _pack([n * lift for n in self._raw_cells()[1]], bits)

    @cached_property
    def _reduced(self) -> tuple[tuple[int, ...], int]:
        """The stored numerators and the denominator, divided by their gcd."""
        _, cells, denominator = self._raw_cells()
        common = gcd(*cells, denominator)
        return tuple(n // common for n in cells), denominator // common

    @property
    def numerators(self) -> tuple[int, ...]:
        above = self.support_max - self.support_min + 1 - self._offset - self._span
        return (0,) * self._offset + self._reduced[0] + (0,) * above

    @property
    def denominator(self) -> int:
        return self._reduced[1]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def support(self) -> tuple[int, int]:
        return (self.support_min, self.support_max)

    @property
    def is_zero(self) -> bool:
        return not self._value

    def _key(self) -> tuple:
        return self.support_min, self.support_max, self.numerators, self.denominator

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, CappedPolynomial) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "CappedPolynomial(support_min={}, support_max={}, numerators={}, denominator={})".format(*self._key())

    @classmethod
    def monomial(
        cls, exponent: int, coeff: RationalLike, support_min: int, support_max: int
    ) -> "CappedPolynomial":
        """coeff * t^exponent; the exponent must already lie inside the window."""
        if not support_min <= exponent <= support_max:
            raise ValueError(
                f"exponent {exponent} outside support [{support_min}, {support_max}]"
            )
        f = Fraction(coeff)
        return cls._from_numerators(support_min, support_max, [f.numerator], f.denominator, exponent - support_min)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) pairs for the nonzero coefficients."""
        cells, denominator = self._reduced
        for exponent, numerator in enumerate(cells, start=self.support_min + self._offset):
            if numerator:
                yield exponent, Fraction(numerator, denominator)

    def scale(self, factor: RationalLike) -> "CappedPolynomial":
        """Multiply every coefficient by an exact rational factor."""
        f = Fraction(factor)
        numerators = [n * f.numerator for n in self._raw_cells()[1]]
        return self._from_numerators(*self.support, numerators, self._den * f.denominator, self._offset)

    def mass(self) -> Fraction:
        """Exact sum of all coefficients, i.e. the value at t = 1."""
        return Fraction(_digit_sum(self._value, self._bits), self._den)

    def __str__(self) -> str:
        parts = [f"{coeff}*t^{exponent}" for exponent, coeff in self.terms()]
        return " + ".join(parts) if parts else "0"
