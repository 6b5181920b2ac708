"""Cross-cutting invariants, each checked over randomized instances.

This module is self-contained so it can be run on its own:

    python3 -m pytest tests/test_properties.py
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain import (
    Edge,
    GameSpec,
    UsageError,
    WeightedMarkovChain,
    builtin_game,
    chain_from_json_dict,
    parse_game_spec,
    run_absorption,
    simulate,
    summarize,
    umbra_step,
)
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


# Any JSON value, and any plain Python value a caller might pass (tuples too), kept small.
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner) | st.dictionaries(SCALARS, inner, max_size=3),
    max_leaves=6,
)
# Each field is anything at all, or near a sound value so that the later checks run too.
NAMES = st.sampled_from(["a", "z", "0", "*", "S"])
ID, NUMBER = VALUES | NAMES, VALUES | st.sampled_from([-1, 0, 1, 2, "1/2", Fraction(1, 3)])
IDS = VALUES | st.lists(ID, max_size=3)
EDGES = VALUES | st.lists(VALUES | st.builds(Edge, ID, ID, NUMBER, NUMBER), max_size=3)
DOCUMENT_ID, DOCUMENT_NUMBER = JSON_VALUES | NAMES, JSON_VALUES | st.sampled_from([-1, 0, 1, 2, "1/2"])
DOCUMENT_IDS = JSON_VALUES | st.lists(DOCUMENT_ID, max_size=3)
EDGE_DOCUMENT = st.fixed_dictionaries(
    {"src": DOCUMENT_ID, "dst": DOCUMENT_ID, "prob": DOCUMENT_NUMBER, "weight": DOCUMENT_NUMBER}
)
CHAIN_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {
        "transient": DOCUMENT_IDS,
        "absorbing": DOCUMENT_IDS,
        "edges": JSON_VALUES | st.lists(JSON_VALUES | EDGE_DOCUMENT, max_size=3),
        "support": JSON_VALUES | st.fixed_dictionaries({"min": DOCUMENT_NUMBER, "max": DOCUMENT_NUMBER}),
    }
)
GAME_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {"animals": DOCUMENT_IDS, "board": DOCUMENT_IDS | st.text(",0S*", max_size=6), "blue": DOCUMENT_IDS},
    optional={"win_threshold": DOCUMENT_NUMBER},
)


def builds_or_refuses(call, *args):
    """`call(*args)` builds, or refuses with a UsageError; any other exception fails the test."""
    try:
        call(*args)
    except UsageError:
        pass


# A constructor or a decoder handed a field of any type reports it: a TypeError, a plain
# ValueError or an AttributeError is a bug.  (`GameSpec(5, ...)` raised TypeError, and a
# `str` of animals was read tag by tag.)
@settings(deadline=None, max_examples=300)
@given(IDS, IDS, EDGES, VALUES | st.tuples(NUMBER, NUMBER))
@example(["a"], ["z"], [Edge("a", "z", 1, 0)], (0, 1))  # sound, so the build path runs too
def test_the_chain_constructor_builds_or_refuses(transient, absorbing, edges, support):
    builds_or_refuses(WeightedMarkovChain, transient, absorbing, edges, support)


@settings(deadline=None, max_examples=300)
@given(IDS, IDS, IDS | st.frozensets(st.integers(-1, 4)), NUMBER)
@example(["S"], ["0", "S", "*"], [2], 2)
def test_the_game_constructor_builds_or_refuses(animals, squares, blue, win_threshold):
    builds_or_refuses(GameSpec, animals, squares, blue, win_threshold)


@settings(deadline=None, max_examples=300)
@given(CHAIN_DOCUMENTS, GAME_DOCUMENTS)
@example(
    {"transient": ["a"], "absorbing": ["z"], "edges": [{"src": "a", "dst": "z", "prob": "1", "weight": 0}],
     "support": {"min": 0, "max": 1}},
    {"animals": ["S"], "board": "0,S"},
)
def test_the_decoders_build_or_refuse(chain_document, game_document):
    builds_or_refuses(chain_from_json_dict, chain_document)
    builds_or_refuses(parse_game_spec, game_document)
