"""Exact arithmetic for capped probability-generating polynomials.

Accumulated capital is tracked as the exponent of a formal variable t:
the coefficient of t^j is the probability of holding exactly j units.
Coefficients are exact nonnegative rationals (a negative one is refused,
a mass above 1 is not), integer numerators over one shared denominator,
so no value is ever rounded; `Fraction`s are built only when read.

Exponents live in a fixed window [support_min, support_max].  A shift
that would push mass past either end of the window instead piles it up
on the boundary cell, which is exactly the "never below the floor" /
"at least the cap" bookkeeping a capped game needs.

The numerators are stored packed, by Kronecker substitution: the cells
from the lowest to the highest nonzero one are the unsigned base-2^B
digits of one int, kept with a cell offset, an unreduced denominator and
the exact unreduced mass, the sum of the cells.  B is a multiple of 8
with that mass below 2^(B-1), so sums of shifted multiples of rows never
carry from cell to cell, and a run of cells sums to its packed int
modulo 2^B - 1.  Only this module knows the format: `scatter` is the
engine's round and `CappedPolynomial.stored_cells` the one read of a
row, which `terms`, `coeffs`, equality, hashing, `repr` and the row's
text (`texts`, `str`) go through.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence, Union

# Anything Fraction() accepts losslessly: 3, Fraction(1, 3), "1/3".
RationalLike = Union[Fraction, int, str]


def _cell_bits(mass: int) -> int:
    """Smallest multiple of 8 bits above the bit length of `mass`, the sum of the cells."""
    return (mass.bit_length() + 8) // 8 * 8


def _pack(cells: Sequence[int], bits: int) -> int:
    """sum(cell_i << bits*i); every cell must lie in [0, 2^bits)."""
    size = bits // 8
    return int.from_bytes(b"".join(cell.to_bytes(size, "little") for cell in cells), "little")


def _clamped(value: int, offset: int, span: int, bits: int, weight: int, width: int) -> tuple[int, int]:
    """A packed row shifted by `weight` past an end of the window, cells beyond piled on the end: (packed, offset)."""
    start = offset + weight
    # The low `cut` cells, at most all: those landing below cell 0, or those staying at or below the cap.
    cut = min(-start if start < 0 else max(width - start, 1), span)
    low, high = value & ((1 << cut * bits) - 1), value >> cut * bits
    modulus = (1 << bits) - 1  # a run of cells sums to its residue
    if start < 0:
        return high + low % modulus, 0
    return low + (high % modulus << (cut - 1) * bits), width - cut


def scatter(rows: Mapping, moves: Mapping, scale: int, support: tuple[int, int]) -> dict:
    """One exact round: each target -> the sum of the rows moved to it, never zero.

    `rows` maps sources to polynomials on the `support` window, zero rows
    skipped; `moves[source]` lists (target, numerator, weight): the row
    times numerator / `scale`, shifted by `weight` with clamping.  Rows are
    lifted to the lcm of their denominators, so the round is integer
    arithmetic at one cell width that holds its whole mass: a move is a
    shift, a split and a residue where it clamps, and a multiply-add.
    """
    live = [(src, poly) for src, poly in rows.items() if poly._value]
    denominators = {poly._den for _, poly in live}  # after the first round, one
    common = lcm(*denominators)
    lo, hi = support
    width = hi - lo + 1
    # No landed cell exceeds the round's lifted mass; past the current width the
    # width grows by a quarter at least, so rows are repacked O(log M) times.
    if len(denominators) == 1:
        bound = scale * sum([poly._mass for _, poly in live])
    else:
        bound = scale * sum(poly._mass * (common // poly._den) for _, poly in live)
    bits = max([poly._bits for _, poly in live], default=8)
    if bound >> (bits - 1):
        bits = _cell_bits(max(bound, 1 << bits * 5 // 4))
    cell_mask = (1 << bits) - 1
    landed: dict = {}  # target -> [packed cells, offset, mass]
    for src, poly in live:
        value, mass = poly._value, poly._mass
        if poly._den != common or poly._bits != bits:  # a row on the round's denominator and width is used as stored
            lift = common // poly._den
            mass *= lift
            value = value * lift if bits == poly._bits else _pack([n * lift for n in poly.stored_cells()[1]], bits)
        offset, span = poly._offset, poly._span
        for dst, numerator, weight in moves[src]:
            # Scale and shift: the engine's hot path and only scatter.  Most moves stay inside
            # the window, and most of the rest land one cell below the floor: fold that one inline.
            at = offset + weight
            if 0 <= at and at + span <= width:
                term = value
            elif at == -1:
                term, at = (value >> bits) + (value & cell_mask), 0
            else:
                term, at = _clamped(value, offset, span, bits, weight, width)
            if numerator == 1:
                moved = mass
            else:
                term *= numerator
                moved = mass * numerator
            cell = landed.get(dst)
            if cell is None:
                landed[dst] = [term, at, moved]
                continue
            if at < cell[1]:
                cell[0], cell[1] = term + (cell[0] << (cell[1] - at) * bits), at
            else:
                cell[0] += term << (at - cell[1]) * bits
            cell[2] += moved
    denominator = common * scale
    return {
        dst: CappedPolynomial._packed(lo, hi, value, offset, bits, denominator, mass)
        for dst, (value, offset, mass) in landed.items()
    }


class CappedPolynomial:
    """Polynomial in t with exact nonnegative rational coefficients on a fixed exponent window.

    Two polynomials are equal, and hash alike, when their windows and coefficients are,
    however they were built; both cost the occupied cells, not the window.  `repr` is a
    constructor call that rebuilds an equal polynomial.  Instances are immutable; the
    cells are stored packed (see the module docstring).
    """

    __slots__ = ("support_min", "support_max", "_value", "_offset", "_span", "_bits", "_den", "_mass")

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
        built = self._from_numerators(support_min, support_max, numerators, denominator)
        for name in self.__slots__:
            setattr(self, name, getattr(built, name))

    @classmethod
    def _packed(cls, support_min, support_max, value, offset, bits, denominator, mass):
        """Wrap packed cells from `offset` on, summing to `mass` < 2^(bits-1), the lowest nonzero unless all are."""
        poly = cls.__new__(cls)
        poly.support_min, poly.support_max, poly._value, poly._offset = support_min, support_max, value, offset
        poly._span = value.bit_length() // bits + 1 if value else 0
        poly._bits, poly._den, poly._mass = bits, denominator, mass
        return poly

    @classmethod
    def _from_numerators(cls, support_min, support_max, numerators, denominator, offset=0):
        """Wrap `numerators / denominator` (cells from `offset` on, denominator > 0); refuse a negative one."""
        if min(numerators, default=0) < 0:
            raise ValueError("coefficients must be nonnegative")
        skip = next((i for i, n in enumerate(numerators) if n), 0)
        bits = _cell_bits(mass := sum(numerators))
        value = _pack(numerators[skip:], bits)
        return cls._packed(support_min, support_max, value, offset + skip, bits, denominator, mass)

    def stored_cells(self) -> tuple[int, list[int], int]:
        """(exponent of the lowest nonzero cell, the numerators up to the highest, their unreduced denominator)."""
        size, span = self._bits // 8, self._span
        data = self._value.to_bytes(span * size, "little")
        cells = [int.from_bytes(data[i : i + size], "little") for i in range(0, span * size, size)]
        return self.support_min + self._offset, cells, self._den

    @property
    def stored_bits(self) -> int:
        """The stored cells times the bit length of their unreduced denominator, unpacking none."""
        return self._span * self._den.bit_length()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every coefficient of the window, zeros included: `terms()` spread over the window."""
        coeffs = [Fraction(0)] * (self.support_max - self.support_min + 1)
        for exponent, coeff in self.terms():
            coeffs[exponent - self.support_min] = coeff
        return tuple(coeffs)

    @property
    def support(self) -> tuple[int, int]:
        return (self.support_min, self.support_max)

    def _key(self) -> tuple:
        return self.support_min, self.support_max, tuple(self.terms())

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, CappedPolynomial) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"CappedPolynomial({self.support_min}, {self.support_max}, {[str(c) for c in self.coeffs]})"

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
        first, cells, denominator = self.stored_cells()
        for exponent, numerator in enumerate(cells, start=first):
            if numerator:
                yield exponent, Fraction(numerator, denominator)

    def scale(self, factor: RationalLike) -> "CappedPolynomial":
        """Multiply every coefficient by an exact nonnegative rational factor, cancelling as `Fraction` does.

        The gcd of the factor's numerator and the row's denominator is taken out first, so a
        factor that undoes most of the denominator leaves a short one.
        """
        f = Fraction(factor)
        common = gcd(f.numerator, self._den)
        numerator, denominator = f.numerator // common, self._den // common * f.denominator
        numerators = [n * numerator for n in self.stored_cells()[1]]
        return self._from_numerators(*self.support, numerators, denominator, self._offset)

    def mass(self) -> Fraction:
        """Exact sum of all coefficients, i.e. the value at t = 1."""
        return Fraction(self._mass, self._den)

    def texts(self) -> tuple[str, list[tuple[int, str]]]:
        """The mass and each nonzero (exponent, coefficient), as `str(Fraction)` prints them.

        The values share a denominator q, so its "/q" text is built once per distinct
        gcd.  A cell's gcd with q divides the product of the nonzero cells, so it is
        its gcd with g = gcd(that product mod q, q): one gcd at q's size for the row,
        and one with the small g per cell.
        """
        first, cells, denominator = self.stored_cells()
        suffixes: dict[int, str] = {}  # gcd with the denominator -> "/q", "" for q = 1
        product = 1
        for numerator in cells:
            if numerator:
                product = product * numerator % denominator
        shared = gcd(product, denominator)

        def text(numerator: int, divisor: int) -> str:
            common = gcd(numerator, divisor)
            suffix = suffixes.get(common)
            if suffix is None:
                reduced = denominator // common
                suffix = suffixes[common] = f"/{reduced}" if reduced > 1 else ""
            return f"{numerator // common}{suffix}"

        terms = [(exponent, text(n, shared)) for exponent, n in enumerate(cells, first) if n]
        return text(self._mass, denominator), terms

    def __str__(self) -> str:
        return " + ".join(f"{text}*t^{exponent}" for exponent, text in self.texts()[1]) or "0"
