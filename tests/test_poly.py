"""Capped polynomials: exact canonical form, and clamping through the scatter."""

import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from capchain import CappedPolynomial, UsageError, run_absorption

from _testlib import (
    COPRIME_CHAIN,
    add_polys,
    capped_polynomials,
    clamped_shift,
    coefficient,
    fraction_text,
    unit_fractions,
    zero_poly,
)


def mono(exponent, coeff):
    return CappedPolynomial.monomial(exponent, coeff, 0, 8)


def test_zero_has_all_zero_coefficients():
    poly = CappedPolynomial(0, 8, [0] * 9)
    assert poly.coeffs == (Fraction(0),) * 9
    assert repr(poly) == f"CappedPolynomial(0, 8, {['0'] * 9})"
    assert poly.mass() == 0


def test_zero_single_cell():
    assert CappedPolynomial(0, 0, [Fraction(0, 7)]).coeffs == (Fraction(0),)


def test_zero_negative_support():
    poly = zero_poly(-3, 5)
    assert len(poly.coeffs) == 9
    assert poly.support == (-3, 5)
    assert coefficient(poly, -3) == 0


def test_zero_inverted_bounds_is_an_error():
    with pytest.raises(ValueError, match="inverted") as excinfo:
        CappedPolynomial(2, 1, ())
    assert not isinstance(excinfo.value, UsageError)  # a kernel guard: only a bug reaches it


def test_wrong_coefficient_count_is_an_error():
    with pytest.raises(ValueError, match="needs 3 coefficients") as excinfo:
        CappedPolynomial(0, 2, [0, 1])
    assert not isinstance(excinfo.value, UsageError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CappedPolynomial(0, 1, [-1, 2]),
        lambda: CappedPolynomial.monomial(0, -1, 0, 1),
        lambda: CappedPolynomial(0, 1, [1, 2]).scale(-1),
    ],
    ids=["constructor", "monomial", "scale"],
)
def test_negative_coefficients_are_an_error(build):
    with pytest.raises(ValueError, match="nonnegative") as excinfo:
        build()
    assert not isinstance(excinfo.value, UsageError)


def test_equal_rationals_in_different_forms_are_equal_and_hash_equal():
    forms = [
        CappedPolynomial(0, 2, [Fraction(1, 2), 0, 1]),
        CappedPolynomial(0, 2, ["3/6", Fraction(0, 5), Fraction(4, 4)]),
        CappedPolynomial(0, 2, [Fraction(2, 4), "0", "1"]),
        CappedPolynomial._from_numerators(0, 2, (6, 0, 12), 12),
    ]
    for poly in forms:
        assert poly == forms[0]
        assert hash(poly) == hash(forms[0])
        assert poly.coeffs == (Fraction(1, 2), 0, 1)
        assert repr(poly) == "CappedPolynomial(0, 2, ['1/2', '0', '1'])"
    assert CappedPolynomial(0, 1, [1, 2]) == CappedPolynomial(0, 1, [Fraction(1), Fraction(4, 2)])
    assert CappedPolynomial(0, 1, [1, 2]) != CappedPolynomial(0, 1, [1, 3])
    assert CappedPolynomial(0, 1, [0, 1]) != CappedPolynomial(1, 2, [0, 1])


def test_scaling_to_zero_gives_the_canonical_zero():
    poly = CappedPolynomial(0, 2, [Fraction(1, 3), Fraction(2, 9), 0]).scale(0)
    assert repr(poly) == "CappedPolynomial(0, 2, ['0', '0', '0'])"
    assert poly == zero_poly(0, 2)


@given(capped_polynomials())
def test_repr_is_a_constructor_call_that_round_trips(poly):
    assert eval(repr(poly)) == poly


def test_repr_round_trips_the_zero_row_and_a_monomial_on_a_wide_window():
    for poly in (zero_poly(-5000, 4999), CappedPolynomial.monomial(4321, Fraction(2, 3), -5000, 4999)):
        assert eval(repr(poly)) == poly


def test_equality_and_hash_cost_the_occupied_cells_not_the_window():
    poly = CappedPolynomial.monomial(4321, Fraction(2, 3), -5000, 4999)
    twin = CappedPolynomial.monomial(4321, Fraction(4, 6), -5000, 4999)
    window = sys.getsizeof((0,) * 10_000)
    tracemalloc.start()
    try:
        assert hash(poly) == hash(twin)
        assert poly == twin
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < window // 10


@given(st.data())
def test_coeffs_round_trip_the_constructor_input(data):
    lo = data.draw(st.integers(-4, 4))
    hi = data.draw(st.integers(lo, lo + 8))
    coeffs = data.draw(
        st.lists(unit_fractions(max_denominator=60), min_size=hi - lo + 1, max_size=hi - lo + 1)
    )
    poly = CappedPolynomial(lo, hi, coeffs)
    assert poly.coeffs == tuple(coeffs)
    assert CappedPolynomial(lo, hi, poly.coeffs) == poly
    assert dict(poly.terms()) == {lo + i: c for i, c in enumerate(coeffs) if c}
    assert poly.mass() == sum(coeffs)


def test_monomial_certain_zero_capital():
    poly = CappedPolynomial.monomial(0, 1, 0, 8)
    assert coefficient(poly, 0) == 1
    assert poly.mass() == 1
    assert dict(poly.terms()) == {0: Fraction(1)}


def test_monomial_with_fraction_coefficient():
    poly = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert coefficient(poly, 3) == Fraction(1, 3)
    assert coefficient(poly, 4) == 0


def test_monomial_exponent_outside_support_is_an_error():
    with pytest.raises(ValueError):
        CappedPolynomial.monomial(9, 1, 0, 8)


def test_add_zero_is_identity():
    poly = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert add_polys(poly, zero_poly(0, 8)) == poly


def test_add_accumulates_coefficients():
    third = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert coefficient(add_polys(third, third), 3) == Fraction(2, 3)


def test_scale_by_one_is_identity():
    poly = CappedPolynomial.monomial(2, Fraction(1, 2), 0, 8)
    assert poly.scale(1) == poly


def test_scale_unit_mass_by_a_third():
    poly = CappedPolynomial.monomial(0, 1, 0, 8).scale(Fraction(1, 3))
    assert coefficient(poly, 0) == Fraction(1, 3)


def test_scale_by_zero_gives_the_zero_polynomial():
    poly = CappedPolynomial.monomial(5, Fraction(3, 4), 0, 8).scale(0)
    assert poly.mass() == 0


def test_shift_fox_with_no_chicks_stays_put():
    poly = CappedPolynomial.monomial(0, 1, 0, 8)
    assert clamped_shift(poly, -1) == poly


def test_shift_past_the_cap_piles_up_at_the_cap():
    poly = CappedPolynomial.monomial(7, 1, 0, 8)
    assert clamped_shift(poly, 4) == CappedPolynomial.monomial(8, 1, 0, 8)


def test_interior_shift_is_a_plain_shift():
    half = Fraction(1, 2)
    poly = add_polys(mono(2, half), mono(5, half))
    shifted = clamped_shift(poly, 1)
    assert dict(shifted.terms()) == {3: half, 6: half}


def test_shift_merges_mass_at_the_floor():
    half = Fraction(1, 2)
    poly = add_polys(mono(0, half), mono(1, half))
    assert dict(clamped_shift(poly, -2).terms()) == {0: Fraction(1)}


def test_mass_of_zero_is_zero():
    assert zero_poly(0, 8).mass() == 0


def test_mass_of_first_round_spread_is_one():
    third = Fraction(1, 3)
    poly = CappedPolynomial(0, 8, [third, 0, 0, 2 * third, 0, 0, 0, 0, 0])
    assert poly.mass() == 1


def test_str_renders_exact_fractions():
    poly = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert str(poly) == "1/3*t^3"
    assert str(zero_poly(0, 2)) == "0"


# The conditioned rows of COPRIME_CHAIN, whose cells reduce to up to four different denominators.
COPRIME_ROWS = list(run_absorption(COPRIME_CHAIN, "t0", 8).conditional().absorbed.values())


def test_a_coprime_row_reduces_to_four_denominators():
    assert max(len({coeff.denominator for _, coeff in row.terms()}) for row in COPRIME_ROWS) == 4


def with_coprime_rows(test):
    for row in COPRIME_ROWS:
        test = example(poly=row)(test)
    return test


@with_coprime_rows
@example(poly=zero_poly(-1, 2))
@given(poly=capped_polynomials())
def test_the_packed_text_is_the_fraction_built_text(poly):
    mass, terms = poly.texts()
    assert str(poly) == fraction_text(poly)
    assert terms == [(exponent, str(coeff)) for exponent, coeff in poly.terms()]
    assert mass == str(poly.mass())


@given(capped_polynomials(), st.integers(0, 3), st.integers(-3, 0))
def test_interior_shift_composition(poly, up, down):
    # Embed the polynomial in a window wide enough that neither step
    # can touch a bound; then shifts must compose additively.
    margin = 4
    lo, hi = poly.support
    wide = CappedPolynomial(lo - margin, hi + margin, (0,) * margin + poly.coeffs + (0,) * margin)
    assert clamped_shift(clamped_shift(wide, up), down) == clamped_shift(wide, up + down)


@given(st.data())
def test_add_is_associative_and_scale_distributes(data):
    lo = data.draw(st.integers(-3, 3))
    hi = data.draw(st.integers(lo, lo + 6))
    width = hi - lo + 1

    def draw_poly():
        coeffs = data.draw(
            st.lists(unit_fractions(), min_size=width, max_size=width)
        )
        return CappedPolynomial(lo, hi, tuple(coeffs))

    a, b, c = draw_poly(), draw_poly(), draw_poly()
    factor = data.draw(unit_fractions())
    assert add_polys(add_polys(a, b), c) == add_polys(a, add_polys(b, c))
    assert add_polys(a, b).scale(factor) == add_polys(a.scale(factor), b.scale(factor))
