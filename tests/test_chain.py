"""Chain model, umbral evolution, absorption records, JSON round-trips."""

import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from capchain import (
    AbsorptionRecord,
    CappedPolynomial,
    ChainFormatError,
    Edge,
    InvalidChainError,
    RecordTooLargeError,
    UsageError,
    WeightedMarkovChain,
    chain_from_json_dict,
    chain_to_json_dict,
    dumps_chain,
    loads_chain,
    run_absorption,
    umbra_step,
)
from capchain.chain import MAX_ROUNDS, MAX_WINDOW

from _oracle import brute_force_record
from _testlib import (
    COPRIME_CHAIN,
    analyze_refusal,
    chain_and_vector,
    marginal_capital,
    marginal_rounds,
    oracle_step,
    plain_form,
    record_as_dicts,
    small_chains,
    total_absorbed_mass,
)


# A sound one-edge chain document; each refusal test below breaks one field of it.
CHAIN_DOCUMENT = {
    "transient": ["a"],
    "absorbing": ["z"],
    "support": {"min": 0, "max": 1},
    "edges": [{"src": "a", "dst": "z", "prob": "1", "weight": 1}],
}


EXPONENT_REFUSAL = 'probability text may not contain "e" or "E" (exponent notation)'
NOT_EXACT = 'is not exact: give an integer or a "p/q" string'


def mono(exponent, coeff, lo=0, hi=8):
    return CappedPolynomial.monomial(exponent, coeff, lo, hi)


def total_mass(vector):
    return sum((poly.mass() for poly in vector.values()), Fraction(0))


def two_state_chain(weight=0, support=(0, 4)):
    return WeightedMarkovChain(
        transient=("t0",),
        absorbing=("a0",),
        edges=(Edge("t0", "a0", Fraction(1), weight),),
        support=support,
    )


# validation


def test_validate_flags_probabilities_not_summing_to_one():
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(
            transient=("1",),
            absorbing=("end",),
            edges=(Edge("1", "end", Fraction(2, 3), 0),),
            support=(0, 4),
        )
    violations = excinfo.value.problems
    assert len(violations) == 1
    assert "'1'" in violations[0]
    assert "2/3" in violations[0]
    # A short sum, no out-edge at all, and a non-positive edge, which is flagged and not summed.
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(
            transient=("a", "b", "c"),
            absorbing=("end",),
            edges=(
                Edge("a", "end", Fraction(1, 2), 0),
                Edge("a", "b", Fraction(1, 3), 1),
                Edge("c", "end", Fraction(-1, 2), 0),
                Edge("c", "a", Fraction(1, 2), 0),
            ),
            support=(0, 4),
        )
    assert excinfo.value.problems == [
        "edge[2] 'c'->'end': probability -1/2 is not positive",
        "state 'a': outgoing probabilities sum to 5/6, expected 1",
        "state 'b': outgoing probabilities sum to 0, expected 1",
    ]


def test_validate_accepts_the_compiled_simplified_game(simplified_chain):
    assert simplified_chain.validate() == []


def test_validate_flags_edges_out_of_absorbing_states():
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(
            transient=("t0",),
            absorbing=("a0",),
            edges=(
                Edge("t0", "a0", Fraction(1), 0),
                Edge("a0", "t0", Fraction(1), 0),
            ),
            support=(0, 4),
        )
    assert any("absorbing" in violation for violation in excinfo.value.problems)


def test_validate_flags_undeclared_states_and_bad_probabilities():
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(
            transient=("t0",),
            absorbing=("a0",),
            edges=(
                Edge("t0", "ghost", Fraction(1), 0),
                Edge("ghost", "a0", Fraction(0), 0),
            ),
            support=(0, 4),
        )
    violations = excinfo.value.problems
    assert any("destination" in violation for violation in violations)
    assert any("source" in violation for violation in violations)
    assert any("not positive" in violation for violation in violations)


def test_validate_flags_a_capital_window_over_the_limit():
    assert two_state_chain(support=(1, MAX_WINDOW)).validate() == []
    with pytest.raises(InvalidChainError) as excinfo:
        two_state_chain(support=(0, MAX_WINDOW))
    assert excinfo.value.problems == [f"capital window [0, {MAX_WINDOW}] exceeds the {MAX_WINDOW}-cell limit"]


def test_validate_flags_duplicate_ids_and_inverted_support():
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(
            transient=("x",),
            absorbing=("x",),
            edges=(Edge("x", "x", Fraction(1), 0),),
            support=(3, 1),
        )
    violations = excinfo.value.problems
    assert any("more than once" in violation for violation in violations)
    assert any("inverted" in violation for violation in violations)


def test_validate_flags_a_chain_without_transient_states():
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(transient=(), absorbing=("a0",), edges=(), support=(0, 4))
    assert excinfo.value.problems == ["chain has no transient state"]


@pytest.mark.parametrize("prob", ["1", 1])
def test_an_edge_probability_is_stored_as_a_fraction(prob):
    chain = WeightedMarkovChain(["t0"], ["a0"], [Edge("t0", "a0", prob, 0)], [0, 4])
    assert type(chain.edges[0].prob) is Fraction
    assert chain == two_state_chain()


def test_keyword_construction_and_replace_still_validate():
    with pytest.raises(InvalidChainError, match="no transient state"):
        WeightedMarkovChain(transient=(), absorbing=("a0",), edges=(), support=(0, 1))
    with pytest.raises(InvalidChainError, match="inverted"):
        two_state_chain()._replace(support=(2, 1))


@pytest.mark.parametrize("support", [(0.5, 3), (0, "4"), (Fraction(0), 4), (False, 4), (0, True)])
def test_a_non_integer_support_bound_is_a_violation(support):
    with pytest.raises(InvalidChainError, match="must be two integers"):
        two_state_chain(support=support)


@pytest.mark.parametrize("weight", [1.5, "2", 2.0, True, False])
def test_a_non_integer_edge_weight_is_a_violation(weight):
    with pytest.raises(InvalidChainError, match=r"edge\[0\] 't0'->'a0': weight .* is not an integer"):
        two_state_chain(weight=weight)


# The constructor makes each probability a Fraction before `validate` reads it;
# one that is not a number raised ValueError, TypeError or ZeroDivisionError.
@pytest.mark.parametrize("prob", ["abc", [1], None, "1/0"], ids=["text", "list", "none", "zero-denominator"])
def test_a_probability_that_is_not_a_number_is_a_violation(prob):
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(["a"], ["z"], [Edge("a", "z", prob, 0)], (0, 1))
    assert excinfo.value.problems == [f"edge[0] 'a'->'z': probability {prob!r} is not a number"]


# Fraction("1e-5") reads, but Fraction("1e-10000000") would build 10**10000000
# first, so the constructor refuses exponent text before reading it; the
# decoder passes a string on, and the constructor labels it with its edge.
def test_a_probability_in_exponent_notation_is_a_violation():
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(["a"], ["z"], [Edge("a", "z", "1e-5", 0)], (0, 1))
    assert excinfo.value.problems == [f"edge[0] 'a'->'z': {EXPONENT_REFUSAL}"]
    edges = [Edge("a", "z", "5E-1", 0), Edge("a", "z", "1/2", 0), Edge("a", "z", "1e-10000000", 0)]
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(["a"], ["z"], edges, (0, 1))
    assert excinfo.value.problems == [f"edge[0] 'a'->'z': {EXPONENT_REFUSAL}", f"edge[2] 'a'->'z': {EXPONENT_REFUSAL}"]
    document = {**CHAIN_DOCUMENT, "edges": [{**CHAIN_DOCUMENT["edges"][0], "prob": "1e-5"}]}
    with pytest.raises(InvalidChainError) as excinfo:
        loads_chain(json.dumps(document))
    assert excinfo.value.problems == [f"edge[0] 'a'->'z': {EXPONENT_REFUSAL}"]


# A field of the wrong shape raised TypeError or a plain ValueError from unpacking, a `str` in a
# list's place was read id by id, and a float or bool probability was read as a number.  Every
# such problem is reported at once, and none echoes the field it refuses.
ONE_EDGE = [Edge("a", "z", 1, 0)]


@pytest.mark.parametrize(
    "fields, problems",
    [
        (("ab", ["z"], ONE_EDGE, (0, 1)), ["'transient' must be a list of state ids"]),
        ((["a"], "z", ONE_EDGE, (0, 1)), ["'absorbing' must be a list of state ids"]),
        ((["a"], ["z"], 5, (0, 1)), ["'edges' must be a list"]),
        ((["a"], ["z"], ONE_EDGE, (0, 1, 2)), ["capital support must be a (min, max) pair"]),
        ((["a"], ["z"], ONE_EDGE, "01"), ["capital support must be a (min, max) pair"]),
        ((["a"], ["z"], [("a", "z", 1)], (0, 1)), ["edge[0]: must have four fields (src, dst, prob, weight)"]),
        ((["a"], ["z"], [Edge("a", "z", True, 0)], (0, 1)), [f"edge[0] 'a'->'z': probability True {NOT_EXACT}"]),
        ((["a"], ["z"], [Edge("a", "z", 0.1, 0)], (0, 1)), [f"edge[0] 'a'->'z': probability 0.1 {NOT_EXACT}"]),
        (
            ("a" * 10**6, ("z",), [{"src": "a"}, Edge("a", "z", 0.5, 0)], None),
            [
                "'transient' must be a list of state ids",
                "edge[0]: must have four fields (src, dst, prob, weight)",
                f"edge[1] 'a'->'z': probability 0.5 {NOT_EXACT}",
                "capital support must be a (min, max) pair",
            ],
        ),
    ],
    ids=[
        "str-transient", "str-absorbing", "int-edges", "triple-support", "str-support", "three-field-edge",
        "bool-prob", "float-prob", "every-problem",
    ],
)
def test_a_field_of_the_wrong_shape_is_a_violation(fields, problems):
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(*fields)
    assert excinfo.value.problems == problems


# A weight or window bound past 64 bits was accepted, and then `dumps_chain`
# raised ValueError from str() of an int past 4300 digits; the refusal never
# prints the value.
@pytest.mark.parametrize("big", [10**5000, -(10**5000), 2**63, -(2**63)], ids=["huge", "-huge", "2^63", "-2^63"])
def test_an_integer_past_64_bits_is_a_violation(big):
    with pytest.raises(InvalidChainError) as excinfo:
        two_state_chain(weight=big)
    assert excinfo.value.problems == [f"edge[0] 't0'->'a0': weight lies outside ±{2**63 - 1}"]
    for support in ((0, big), (big, 0), (big, big)):
        with pytest.raises(InvalidChainError) as excinfo:
            two_state_chain(support=support)
        assert excinfo.value.problems == [f"a capital support bound lies outside ±{2**63 - 1}"]


@pytest.mark.parametrize("sign", [1, -1])
def test_the_largest_64_bit_integers_survive_the_json_document(sign):
    most = sign * (2**63 - 1)
    for chain in (two_state_chain(weight=most), two_state_chain(support=(most, most))):
        assert loads_chain(dumps_chain(chain)) == chain


def test_a_chain_is_immutable_and_hashes_by_value():
    chain = two_state_chain()
    with pytest.raises(AttributeError):
        chain.support = (0, 8)
    assert chain.support == (0, 4)
    twin = two_state_chain()
    assert twin == chain and twin is not chain
    assert hash(twin) == hash(chain)
    assert two_state_chain(weight=1) != chain


# umbra_step worked examples on the simplified board


def test_step_from_the_start_square(simplified_chain):
    third = Fraction(1, 3)
    vector, absorbed = umbra_step(simplified_chain, {"1": mono(0, 1)})
    assert absorbed == {}
    assert vector == {"1": mono(0, third), "3": mono(3, third), "4": mono(3, third)}


def test_step_from_square_six_absorbs_a_third(simplified_chain):
    third = Fraction(1, 3)
    vector, absorbed = umbra_step(simplified_chain, {"6": mono(0, 1)})
    assert vector == {"6": mono(0, third), "8": mono(2, third)}
    assert absorbed == {"9": mono(3, third)}


def test_step_of_an_empty_vector_is_empty(simplified_chain):
    assert umbra_step(simplified_chain, {}) == ({}, {})


def test_step_rejects_mismatched_support(simplified_chain):
    with pytest.raises(ValueError, match="support") as excinfo:
        umbra_step(simplified_chain, {"1": CappedPolynomial.monomial(0, 1, 0, 7)})
    assert not isinstance(excinfo.value, UsageError)  # a kernel guard: only a bug reaches it


def test_step_rejects_unknown_states(simplified_chain):
    with pytest.raises(ValueError, match="transient") as excinfo:
        umbra_step(simplified_chain, {"9": mono(0, 1)})
    assert not isinstance(excinfo.value, UsageError)


# run_absorption


def test_one_round_cannot_finish_the_simplified_game(simplified_chain):
    record = run_absorption(simplified_chain, "1", 1)
    assert record.absorbed == {}
    assert record.epsilon == 1


def test_long_horizon_leaves_almost_nothing(simplified_chain):
    record = run_absorption(simplified_chain, "1", 200)
    assert 0 < record.epsilon < Fraction(1, 10**80)
    assert total_absorbed_mass(record) + record.epsilon == 1


def test_initial_capital_defaults_to_zero_clamped_into_the_window():
    record = run_absorption(two_state_chain(weight=0, support=(2, 5)), "t0", 1)
    assert record.absorbed == {(1, "a0"): CappedPolynomial.monomial(2, 1, 2, 5)}


def test_run_rejects_bad_start_and_horizon(simplified_chain):
    for start in ("2", "9", ["x"]):  # not a state, an absorbing state, not hashable
        with pytest.raises(UsageError, match=r"^start state .* is not a transient state of the chain$"):
            run_absorption(simplified_chain, start, 5)
    for rounds in (0, MAX_ROUNDS + 1, True, 2.5, "60"):  # out of range, or not an int
        with pytest.raises(UsageError, match=f"^horizon must be an integer between 1 and {MAX_ROUNDS}"):
            run_absorption(simplified_chain, "1", rounds)


def test_a_record_of_exactly_the_limit_runs_and_one_bit_more_stops(simplified_chain):
    record = run_absorption(simplified_chain, "1", 40)
    rows = [poly.stored_cells() for poly in record.absorbed.values()]
    size = sum(len(cells) * denominator.bit_length() for _, cells, denominator in rows)
    assert run_absorption(simplified_chain, "1", 40, max_record_bits=size) == record
    with pytest.raises(RecordTooLargeError, match=f"at least {size} cells x denominator bits, over the {size - 1} limit"):
        run_absorption(simplified_chain, "1", 40, max_record_bits=size - 1)


def test_a_record_over_the_limit_stops_the_run_at_the_first_round_that_passes_it(simplified_chain):
    record = run_absorption(simplified_chain, "1", 40)
    first = min(round_index for round_index, _ in record.absorbed)
    rows = [poly.stored_cells() for (round_index, _), poly in record.absorbed.items() if round_index == first]
    size = sum(len(cells) * denominator.bit_length() for _, cells, denominator in rows)
    assert first < 40 and 0 < size < sum(poly.stored_bits for poly in record.absorbed.values())
    # The total reported is the first absorbing round's alone: later rounds never ran.
    with pytest.raises(RecordTooLargeError, match=f"at least {size} cells x denominator bits, over the 0 limit"):
        run_absorption(simplified_chain, "1", 40, max_record_bits=0)


def test_run_rejects_invalid_chains():
    # An unsound chain cannot be built, so it never reaches run_absorption.
    with pytest.raises(InvalidChainError):
        WeightedMarkovChain(
            transient=("t0",),
            absorbing=("a0",),
            edges=(Edge("t0", "a0", Fraction(1, 2), 0),),
            support=(0, 4),
        )


# conditional records and marginals


def test_conditional_with_no_residual_is_the_identity():
    record = run_absorption(two_state_chain(), "t0", 1)
    assert record.epsilon == 0
    conditional = record.conditional()
    assert conditional == record
    assert conditional.epsilon == 0 and conditional.residual == {}
    assert conditional.absorbed.keys() == record.absorbed.keys()
    assert all(poly.texts() == record.absorbed[key].texts() for key, poly in conditional.absorbed.items())


def test_conditional_rescales_absorbed_mass_to_one():
    record = AbsorptionRecord(
        absorbed={(1, "A"): mono(4, Fraction(3, 4))},
        rounds_run=1,
        residual={"t0": mono(0, Fraction(1, 4))},
        epsilon=Fraction(1, 4),
        support=(0, 8),
    )
    conditional = record.conditional()
    assert conditional.absorbed == {(1, "A"): mono(4, 1)}
    assert total_absorbed_mass(conditional) == 1
    assert conditional.epsilon == 0
    assert conditional.residual == {}


def test_conditional_of_simplified_run_has_unit_mass(simplified_chain):
    record = run_absorption(simplified_chain, "1", 60)
    assert total_absorbed_mass(record.conditional()) == 1


def test_conditioned_rows_are_stored_cancelled(full_chain):
    # The absorbed rows keep their scatter denominators 6^r.  Conditioning
    # multiplies them by 1 / (1 - epsilon), whose numerator shares most of
    # 6^r: `scale` takes that gcd out first, so the conditioned rows carry
    # 310-311-bit denominators, not the 615-620 bits of the plain product.
    record = run_absorption(full_chain, "1", 120)
    assert all(poly.stored_cells()[2] == 6**round_index for (round_index, _), poly in record.absorbed.items())
    assert max(poly.stored_cells()[2].bit_length() for poly in record.conditional().absorbed.values()) <= 311


@settings(deadline=None)
@given(
    chain=small_chains(),
    rounds=st.integers(1, 6),
    factor=st.just(Fraction(0)) | st.fractions(min_value=0, max_value=100, max_denominator=1000),
)
@example(chain=COPRIME_CHAIN, rounds=8, factor=Fraction(0))
@example(chain=COPRIME_CHAIN, rounds=8, factor=Fraction(77**3, 10))
def test_scale_cancels_and_keeps_the_fraction_products(chain, rounds, factor):
    record = run_absorption(chain, chain.transient[0], rounds)
    for poly in [*record.absorbed.values(), *record.residual.values()]:
        scaled = poly.scale(factor)
        assert list(scaled.terms()) == [(exponent, c * factor) for exponent, c in poly.terms() if factor]
        denominator = poly.stored_cells()[2]
        assert scaled.stored_cells()[2] == denominator // gcd(factor.numerator, denominator) * factor.denominator


def test_conditional_requires_some_absorption(simplified_chain):
    record = run_absorption(simplified_chain, "1", 1)
    with pytest.raises(UsageError, match="condition"):
        record.conditional()


def test_marginal_capital_of_a_single_entry():
    poly = mono(4, Fraction(1, 2))
    record = AbsorptionRecord(
        absorbed={(3, "A"): poly},
        rounds_run=5,
        residual={},
        epsilon=Fraction(1, 2),
        support=(0, 8),
    )
    assert marginal_capital(record) == poly


def test_marginal_capital_state_filter():
    record = AbsorptionRecord(
        absorbed={(1, "A"): mono(2, Fraction(1, 4)), (2, "B"): mono(3, Fraction(3, 4))},
        rounds_run=2,
        residual={},
        epsilon=Fraction(0),
        support=(0, 8),
    )
    assert marginal_capital(record, "A") == mono(2, Fraction(1, 4))
    assert marginal_capital(record, ["A", "B"]).mass() == 1


def test_marginal_rounds_per_round_masses():
    record = AbsorptionRecord(
        absorbed={(3, "A"): mono(4, Fraction(1, 2)), (5, "A"): mono(1, Fraction(1, 2))},
        rounds_run=6,
        residual={},
        epsilon=Fraction(0),
        support=(0, 8),
    )
    assert marginal_rounds(record) == {3: Fraction(1, 2), 5: Fraction(1, 2)}


def test_marginal_rounds_masses_sum_to_absorbed_mass(simplified_chain):
    record = run_absorption(simplified_chain, "1", 10)
    assert sum(marginal_rounds(record).values()) == 1 - record.epsilon


# serialization


def test_json_round_trip(simplified_chain):
    assert loads_chain(dumps_chain(simplified_chain)) == simplified_chain


@given(small_chains())
def test_every_sound_chain_survives_its_json_document(chain):
    assert loads_chain(dumps_chain(chain)) == chain


# A state id must be a string: before, an unhashable one raised TypeError from a set lookup, and
# 5 was accepted, then written by dumps_chain into a document that loads_chain refuses.
@pytest.mark.parametrize(
    "transient, src, message",
    [
        (["a", ["b"]], "a", "state id ['b'] is not a string"),
        (["a", 5], 5, "state id 5 is not a string"),  # reported once, though it is an edge's source too
        (["a"], ["a"], "state id ['a'] is not a string"),
    ],
    ids=["unhashable-state", "int-state", "unhashable-src"],
)
def test_a_state_id_that_is_not_a_string_is_a_violation(transient, src, message):
    with pytest.raises(InvalidChainError) as excinfo:
        WeightedMarkovChain(transient, ["z"], [Edge(src, "z", 1, 0)], (0, 1))
    assert excinfo.value.problems == [message]


def test_probabilities_serialize_as_fraction_strings(simplified_chain):
    text = dumps_chain(simplified_chain)
    assert '"1/3"' in text
    assert '"2/3"' in text
    assert "0.3" not in text


# A chain file is an exact artifact, and so is a chain built in code: the constructor refuses a
# float (0.1 would read as 3602879701896397/2**55) or a bool (True would read as 1), wherever it came from.
def test_float_probabilities_are_refused():
    data = chain_to_json_dict(two_state_chain())
    data["edges"][0]["prob"] = 0.5
    with pytest.raises(InvalidChainError) as excinfo:
        loads_chain(json.dumps(data))
    assert excinfo.value.problems == [f"edge[0] 't0'->'a0': probability 0.5 {NOT_EXACT}"]


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "1" * 5000], ids=["deep", "long-int"])
def test_json_past_the_parser_limits_is_refused(text):
    with pytest.raises(ChainFormatError, match="invalid JSON"):
        loads_chain(text)


def test_missing_fields_are_refused(tmp_path, capsys):
    with pytest.raises(ChainFormatError, match="missing"):
        loads_chain('{"transient": [], "absorbing": [], "edges": []}')
    text = json.dumps({**CHAIN_DOCUMENT, "edges": [{"src": "a", "dst": "z", "prob": "1"}]})
    with pytest.raises(ChainFormatError, match=r"^edges\[0\]: missing 'weight'$"):
        loads_chain(text)
    assert analyze_refusal(tmp_path, capsys, text) == "error: edges[0]: missing 'weight'\n"


# The decoder checks only what JSON adds (the support object, each edge an object with its keys);
# the constructor owns every rule of the fields themselves (their shapes, ids, weights, probabilities).
@pytest.mark.parametrize(
    "change, message",
    [
        ({"transient": "a"}, "'transient' must be a list of state ids"),
        ({"absorbing": ["z", 2]}, "state id 2 is not a string"),
        ({"support": [0, 1]}, "'support' must be an object with integer 'min' and 'max'"),
        ({"edges": {}}, "'edges' must be a list"),
        ({"edges": ["a"]}, "edges[0]: must be an object"),
        ({"src": 1}, "state id 1 is not a string"),
        ({"weight": "1"}, "edge[0] 'a'->'z': weight '1' is not an integer"),
        ({"prob": "1/0"}, "edge[0] 'a'->'z': probability '1/0' is not a number"),
        ({"prob": [1]}, "edge[0] 'a'->'z': probability [1] is not a number"),
        ({"prob": True}, f"edge[0] 'a'->'z': probability True {NOT_EXACT}"),
        # Refused by the constructor before `Fraction` builds the power of ten, and not echoed.
        ({"prob": "1e-1000000"}, f"edge[0] 'a'->'z': {EXPONENT_REFUSAL}"),
        ({"prob": "1E5"}, f"edge[0] 'a'->'z': {EXPONENT_REFUSAL}"),
    ],
    ids=[
        "transient", "absorbing", "support", "edges", "edge", "src", "weight", "prob-text", "prob-type",
        "prob-bool", "prob-exponent", "prob-exponent-upper",
    ],
)
def test_misshapen_chain_documents_are_refused(tmp_path, capsys, change, message):
    # An edge field changes the one edge; any other changes the document.
    edge = CHAIN_DOCUMENT["edges"][0]
    if change.keys() <= edge.keys():
        change = {"edges": [{**edge, **change}]}
    document = {**CHAIN_DOCUMENT, **change}
    error = ChainFormatError if message.startswith(("'support'", "edges[")) else InvalidChainError
    with pytest.raises(error) as excinfo:
        chain_from_json_dict(document)
    assert str(excinfo.value) == message
    assert analyze_refusal(tmp_path, capsys, json.dumps(document)) == f"error: {message}\n"


def test_a_non_object_chain_document_is_refused():
    with pytest.raises(ChainFormatError, match=r"^chain document must be a JSON object$"):
        chain_from_json_dict([CHAIN_DOCUMENT])


def test_a_chain_without_an_absorbing_state_is_refused(tmp_path, capsys):
    document = {**CHAIN_DOCUMENT, "absorbing": [], "edges": [{"src": "a", "dst": "a", "prob": "1", "weight": 1}]}
    with pytest.raises(InvalidChainError) as excinfo:
        chain_from_json_dict(document)
    assert excinfo.value.problems == ["chain has no absorbing state"]
    assert analyze_refusal(tmp_path, capsys, json.dumps(document)) == "error: chain has no absorbing state\n"


def test_unknown_keys_are_ignored():
    data = chain_to_json_dict(two_state_chain())
    data["start"] = "t0"
    loaded = loads_chain(json.dumps(data))
    assert loaded == two_state_chain()


# randomized properties


@settings(deadline=None)
@given(chain_and_vector())
def test_step_conserves_mass_exactly(pair):
    chain, vector = pair
    next_vector, absorbed = umbra_step(chain, vector)
    assert total_mass(vector) == total_mass(next_vector) + total_mass(absorbed)


@settings(deadline=None)
@given(small_chains(), st.integers(1, 6))
def test_global_conservation_and_monotone_epsilon(chain, rounds):
    record = run_absorption(chain, chain.transient[0], rounds)
    assert total_absorbed_mass(record) + record.epsilon == 1
    longer = run_absorption(chain, chain.transient[0], rounds + 1)
    assert longer.epsilon <= record.epsilon


@settings(deadline=None)
@given(chain_and_vector())
def test_step_is_order_independent(pair):
    chain, vector = pair
    shuffled_chain = WeightedMarkovChain(
        transient=tuple(reversed(chain.transient)),
        absorbing=chain.absorbing,
        edges=tuple(reversed(chain.edges)),
        support=chain.support,
    )
    shuffled_vector = dict(reversed(list(vector.items())))
    assert umbra_step(chain, vector) == umbra_step(shuffled_chain, shuffled_vector)


@settings(deadline=None)
@given(small_chains(), st.integers(1, 5))
def test_small_instances_match_exhaustive_enumeration(chain, rounds):
    record = run_absorption(chain, chain.transient[0], rounds)
    transient, absorbing, edges, support = plain_form(chain)
    oracle = brute_force_record(
        transient, absorbing, edges, support, chain.transient[0], rounds
    )
    assert record_as_dicts(record) == oracle


def edge_denominator(chain):
    return lcm(*(edge.prob.denominator for edge in chain.edges))


@st.composite
def chain_and_coprime_vector(draw):
    """A chain plus a vector whose coefficient denominators share no prime with D."""
    chain = draw(small_chains())
    primes = [p for p in (7, 11, 13, 17, 19, 23) if edge_denominator(chain) % p]
    lo, hi = chain.support
    vector = {}
    for state in chain.transient:
        cells = draw(
            st.lists(
                st.builds(Fraction, st.integers(0, 3), st.sampled_from(primes)),
                min_size=hi - lo + 1,
                max_size=hi - lo + 1,
            )
        )
        poly = CappedPolynomial(lo, hi, cells)
        if poly.mass() != 0:
            vector[state] = poly
    return chain, vector


@settings(deadline=None)
@given(chain_and_coprime_vector())
def test_step_with_coprime_denominators_matches_the_oracle(pair):
    chain, vector = pair
    stepped = umbra_step(chain, vector)
    assert tuple(
        {state: dict(poly.terms()) for state, poly in polys.items()} for polys in stepped
    ) == oracle_step(chain, vector)


@settings(deadline=None)
@given(small_chains().filter(lambda chain: edge_denominator(chain) > 6), st.integers(1, 5))
def test_chains_with_large_edge_denominators_match_exhaustive_enumeration(chain, rounds):
    record = run_absorption(chain, chain.transient[0], rounds)
    oracle = brute_force_record(*plain_form(chain), chain.transient[0], rounds)
    assert record_as_dicts(record) == oracle
