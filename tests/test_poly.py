"""Capped-polynomial arithmetic: exactness, and clamping through the scatter."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capchain import CappedPolynomial

from _testlib import capped_polynomials, clamped_shift, signed_fractions


def test_zero_has_all_zero_coefficients():
    poly = CappedPolynomial.zero(0, 8)
    assert poly.width == 9
    assert poly.coeffs == (Fraction(0),) * 9
    assert poly.mass() == 0


def test_zero_single_cell():
    assert CappedPolynomial.zero(0, 0).coeffs == (Fraction(0),)


def test_zero_negative_support():
    poly = CappedPolynomial.zero(-3, 5)
    assert poly.width == 9
    assert poly.support == (-3, 5)
    assert poly.coefficient(-3) == 0


def test_zero_inverted_bounds_is_an_error():
    with pytest.raises(ValueError):
        CappedPolynomial.zero(2, 1)


def test_monomial_certain_zero_capital():
    poly = CappedPolynomial.monomial(0, 1, 0, 8)
    assert poly.coefficient(0) == 1
    assert poly.mass() == 1
    assert dict(poly.terms()) == {0: Fraction(1)}


def test_monomial_with_fraction_coefficient():
    poly = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert poly.coefficient(3) == Fraction(1, 3)
    assert poly.coefficient(4) == 0


def test_monomial_exponent_outside_support_is_an_error():
    with pytest.raises(ValueError):
        CappedPolynomial.monomial(9, 1, 0, 8)


def test_add_zero_is_identity():
    poly = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert poly + CappedPolynomial.zero(0, 8) == poly


def test_add_accumulates_coefficients():
    third = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert (third + third).coefficient(3) == Fraction(2, 3)


def test_add_mismatched_support_is_an_error():
    with pytest.raises(ValueError):
        CappedPolynomial.zero(0, 8) + CappedPolynomial.zero(0, 7)


def test_scale_by_one_is_identity():
    poly = CappedPolynomial.monomial(2, Fraction(1, 2), 0, 8)
    assert poly.scale(1) == poly


def test_scale_unit_mass_by_a_third():
    poly = CappedPolynomial.monomial(0, 1, 0, 8).scale(Fraction(1, 3))
    assert poly.coefficient(0) == Fraction(1, 3)


def test_scale_by_zero_gives_the_zero_polynomial():
    poly = CappedPolynomial.monomial(5, Fraction(3, 4), 0, 8).scale(0)
    assert poly.is_zero


def test_shift_fox_with_no_chicks_stays_put():
    poly = CappedPolynomial.monomial(0, 1, 0, 8)
    assert clamped_shift(poly, -1) == poly


def test_shift_past_the_cap_piles_up_at_the_cap():
    poly = CappedPolynomial.monomial(7, 1, 0, 8)
    assert clamped_shift(poly, 4) == CappedPolynomial.monomial(8, 1, 0, 8)


def test_interior_shift_is_a_plain_shift():
    half = Fraction(1, 2)
    poly = CappedPolynomial.monomial(2, half, 0, 8) + CappedPolynomial.monomial(5, half, 0, 8)
    shifted = clamped_shift(poly, 1)
    assert dict(shifted.terms()) == {3: half, 6: half}


def test_shift_merges_mass_at_the_floor():
    half = Fraction(1, 2)
    poly = CappedPolynomial.monomial(0, half, 0, 8) + CappedPolynomial.monomial(1, half, 0, 8)
    assert dict(clamped_shift(poly, -2).terms()) == {0: Fraction(1)}


def test_mass_of_zero_is_zero():
    assert CappedPolynomial.zero(0, 8).mass() == 0


def test_mass_of_first_round_spread_is_one():
    third = Fraction(1, 3)
    poly = (
        CappedPolynomial.monomial(0, third, 0, 8)
        + CappedPolynomial.monomial(3, third, 0, 8)
        + CappedPolynomial.monomial(3, third, 0, 8)
    )
    assert poly.mass() == 1


def test_str_renders_exact_fractions():
    poly = CappedPolynomial.monomial(3, Fraction(1, 3), 0, 8)
    assert str(poly) == "1/3*t^3"
    assert str(CappedPolynomial.zero(0, 2)) == "0"


@given(capped_polynomials(signed=True), st.integers(-12, 12))
def test_clamped_shift_conserves_mass(poly, delta):
    assert clamped_shift(poly, delta).mass() == poly.mass()


@given(capped_polynomials(), st.integers(0, 3), st.integers(-3, 0))
def test_interior_shift_composition(poly, up, down):
    # Embed the polynomial in a window wide enough that neither step
    # can touch a bound; then shifts must compose additively.
    margin = 4
    lo, hi = poly.support
    wide = CappedPolynomial.zero(lo - margin, hi + margin)
    for exponent, coeff in poly.terms():
        wide = wide + CappedPolynomial.monomial(exponent, coeff, lo - margin, hi + margin)
    assert clamped_shift(clamped_shift(wide, up), down) == clamped_shift(wide, up + down)


@given(st.data())
def test_add_is_associative_and_scale_distributes(data):
    lo = data.draw(st.integers(-3, 3))
    hi = data.draw(st.integers(lo, lo + 6))
    width = hi - lo + 1

    def draw_poly():
        coeffs = data.draw(
            st.lists(signed_fractions(), min_size=width, max_size=width)
        )
        return CappedPolynomial(lo, hi, tuple(coeffs))

    a, b, c = draw_poly(), draw_poly(), draw_poly()
    factor = data.draw(signed_fractions())
    assert (a + b) + c == a + (b + c)
    assert (a + b).scale(factor) == a.scale(factor) + b.scale(factor)
