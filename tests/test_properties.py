"""Cross-cutting invariants, each checked over randomized instances.

This module is self-contained so it can be run on its own:

    python3 -m pytest tests/test_properties.py
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from capchain import builtin_game, run_absorption, simulate, summarize, umbra_step
from capchain.poly import CappedPolynomial
from capchain.simulator import LANES

from _testlib import (
    add_polys,
    capped_polynomials,
    chain_and_vector,
    clamped_shift,
    fold_single_plays,
    small_chains,
    unit_fractions,
)


def add_vectors(left, right):
    merged = dict(left)
    for state, poly in right.items():
        merged[state] = add_polys(merged[state], poly) if state in merged else poly
    return merged


def vector_mass(vector):
    return sum((poly.mass() for poly in vector.values()), Fraction(0))


@st.composite
def chain_and_two_vectors(draw):
    chain, first = draw(chain_and_vector())
    lo, hi = chain.support
    width = hi - lo + 1
    second = {}
    for state in chain.transient:
        if draw(st.booleans()):
            coeffs = draw(st.lists(unit_fractions(), min_size=width, max_size=width))
            poly = CappedPolynomial(lo, hi, tuple(coeffs))
            if poly.mass() != 0:
                second[state] = poly
    return chain, first, second


@settings(deadline=None, max_examples=60)
@given(chain_and_two_vectors())
def test_step_is_linear(drawn):
    # The step distributes over vector addition: evolving a mixture is
    # the mixture of the evolutions.
    chain, vector_a, vector_b = drawn
    stepped_sum, absorbed_sum = umbra_step(chain, add_vectors(vector_a, vector_b))
    stepped_a, absorbed_a = umbra_step(chain, vector_a)
    stepped_b, absorbed_b = umbra_step(chain, vector_b)
    assert stepped_sum == add_vectors(stepped_a, stepped_b)
    assert absorbed_sum == add_vectors(absorbed_a, absorbed_b)


@settings(deadline=None, max_examples=60)
@given(chain_and_vector(), unit_fractions().filter(lambda f: f > 0))
def test_step_commutes_with_scaling(drawn, factor):
    chain, vector = drawn
    scaled_first, absorbed_first = umbra_step(
        chain, {state: poly.scale(factor) for state, poly in vector.items()}
    )
    stepped, absorbed = umbra_step(chain, vector)
    assert scaled_first == {
        state: poly.scale(factor) for state, poly in stepped.items()
    }
    assert absorbed_first == {key: poly.scale(factor) for key, poly in absorbed.items()}


@settings(deadline=None, max_examples=100)
@given(capped_polynomials(), st.integers(min_value=-12, max_value=12))
def test_clamped_shift_conserves_mass(poly, delta):
    assert clamped_shift(poly, delta).mass() == poly.mass()


@settings(deadline=None, max_examples=60)
@given(chain_and_vector())
def test_step_conserves_mass(drawn):
    chain, vector = drawn
    stepped, absorbed = umbra_step(chain, vector)
    assert vector_mass(stepped) + vector_mass(absorbed) == vector_mass(vector)


@settings(deadline=None, max_examples=40)
@given(small_chains(), st.integers(min_value=1, max_value=6))
def test_covariance_obeys_cauchy_schwarz(chain, rounds):
    record = run_absorption(chain, chain.transient[0], rounds)
    if record.epsilon == 1:
        return
    stats = summarize(record)
    assert stats.covariance**2 <= stats.chick_variance * stats.rounds_variance


@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from(["simplified", "full"]),
    st.integers(min_value=0, max_value=2**65 - 1),
    st.integers(min_value=1, max_value=2 * LANES + 3),
    st.sampled_from([5, 200]),
)
def test_simulate_equals_a_fold_of_single_plays(name, seed, trials, round_cap):
    # Batches of LANES lanes, repacked as they finish, against one
    # play_once per trial.
    spec = builtin_game(name)
    assert simulate(spec, trials, seed, round_cap) == fold_single_plays(
        spec, trials, seed, round_cap
    )


def test_clamp_is_idempotent_at_the_boundary():
    poly = CappedPolynomial.monomial(2, Fraction(1), 0, 4)
    onto_top = clamped_shift(poly, 10)
    assert onto_top == clamped_shift(onto_top, 3)
    onto_floor = clamped_shift(poly, -10)
    assert onto_floor == clamped_shift(onto_floor, -5)
