"""Statistics extraction and exact-to-decimal rendering."""

import json
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from capchain import (
    MAX_DIGITS,
    MAX_FORMAT_DIGITS,
    AbsorptionRecord,
    CappedPolynomial,
    Edge,
    UsageError,
    WeightedMarkovChain,
    central_moments,
    distribution_moments,
    format_fraction,
    format_fraction_scientific,
    render_stats,
    run_absorption,
    stats_json_dict,
    summarize,
)

from _testlib import add_polys, coefficient, marginal_capital, marginal_rounds, small_chains


def mono(exponent, coeff, lo=0, hi=8):
    return CappedPolynomial.monomial(exponent, coeff, lo, hi)


def make_record(absorbed, epsilon=Fraction(0), rounds_run=6, support=(0, 8)):
    residual = {}
    if epsilon:
        residual = {"t0": CappedPolynomial.monomial(support[0], epsilon, *support)}
    return AbsorptionRecord(
        absorbed=absorbed,
        rounds_run=rounds_run,
        residual=residual,
        epsilon=epsilon,
        support=support,
    )


def random_record(rng, support=(0, 6), max_round=5):
    cells = []
    for _ in range(rng.randint(2, 10)):
        cells.append(
            (
                rng.randint(1, max_round),
                rng.choice(["A", "B"]),
                rng.randint(support[0], support[1]),
                rng.randint(1, 9),
            )
        )
    total = sum(weight for *_, weight in cells)
    absorbed = {}
    for round_index, state, exponent, weight in cells:
        poly = mono(exponent, Fraction(weight, total), *support)
        key = (round_index, state)
        absorbed[key] = add_polys(absorbed[key], poly) if key in absorbed else poly
    return make_record(absorbed, support=support)


# summarize


def test_point_mass_record():
    record = make_record({(2, "A"): mono(5, 1, hi=5)}, support=(0, 5))
    stats = summarize(record)
    assert stats.win_probability == 1
    assert stats.chick_mean == 5
    assert stats.chick_variance == 0
    assert stats.chick_skewness is None
    assert stats.chick_kurtosis_raw is None
    assert stats.correlation is None
    assert stats.rounds_mean == 2
    assert stats.rounds_variance == 0
    assert stats.covariance == 0


def test_summarize_conditions_on_absorption():
    record = make_record({(1, "A"): mono(3, Fraction(1, 2), hi=3)}, epsilon=Fraction(1, 2), support=(0, 3))
    stats = summarize(record)
    assert stats.win_probability == 1
    assert stats.chick_mean == 3
    assert stats.epsilon == Fraction(1, 2)


def test_summarize_requires_some_absorption():
    record = make_record({}, epsilon=Fraction(1), support=(0, 3))
    with pytest.raises(UsageError, match="^no mass was absorbed; cannot condition on absorption$"):
        summarize(record)


def test_two_point_record_moments_by_hand():
    half = Fraction(1, 2)
    record = make_record({(1, "A"): mono(2, half, hi=4), (3, "A"): mono(4, half, hi=4)}, support=(0, 4))
    stats = summarize(record)
    assert stats.win_probability == half
    assert stats.chick_mean == 3
    assert stats.chick_variance == 1
    assert stats.rounds_mean == 2
    assert stats.rounds_variance == 1
    # capital and round move together here, so correlation is exactly 1
    assert stats.covariance == 1
    assert stats.correlation == Decimal(1)
    assert stats.chick_skewness == 0
    assert stats.chick_kurtosis_raw == 1
    assert stats.chick_kurtosis_excess == -2


def test_variance_matches_direct_mean_centered_sum():
    rng = random.Random(11)
    for _ in range(25):
        record = random_record(rng)
        stats = summarize(record)
        capital = marginal_capital(record)
        mean = sum(exponent * coeff for exponent, coeff in capital.terms())
        direct = sum(
            ((Fraction(exponent) - mean) ** 2) * coeff
            for exponent, coeff in capital.terms()
        )
        assert stats.chick_variance == direct


def test_correlation_stays_in_unit_range():
    rng = random.Random(7)
    slack = Decimal("1e-40")
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(25):
            stats = summarize(random_record(rng))
            if stats.correlation is not None:
                assert abs(stats.correlation) <= 1 + slack
            if stats.chick_kurtosis_raw is not None:
                assert stats.chick_kurtosis_excess == stats.chick_kurtosis_raw - 3


def test_relabeling_absorbing_states_changes_nothing():
    rng = random.Random(23)
    record = random_record(rng)
    relabeled = make_record(
        {
            (round_index, state.lower()): poly
            for (round_index, state), poly in record.absorbed.items()
        },
        support=record.support,
    )
    assert summarize(record) == summarize(relabeled)


@settings(deadline=None, max_examples=60)
@given(small_chains(), st.integers(1, 5))
def test_summarize_matches_moments_of_the_conditioned_record(chain, rounds):
    # summarize divides the unconditioned raw moments by 1 - epsilon once;
    # that must equal the moments of the record scaled entry by entry.
    record = run_absorption(chain, chain.transient[0], rounds)
    if record.epsilon == 1:
        return
    stats = summarize(record)
    conditional = record.conditional()
    capital = marginal_capital(conditional)
    raw_capital = distribution_moments(capital.terms())
    raw_rounds = distribution_moments(marginal_rounds(conditional).items())
    m2_c, _, m4_c = central_moments(raw_capital)
    m2_r, _, m4_r = central_moments(raw_rounds)
    cross = sum(
        round_index * exponent * coeff
        for (round_index, _), poly in conditional.absorbed.items()
        for exponent, coeff in poly.terms()
    )
    assert stats.win_probability == coefficient(capital, chain.support[1])
    assert (stats.chick_mean, stats.chick_variance, stats.chick_m4) == (
        raw_capital[1],
        m2_c,
        m4_c,
    )
    assert (stats.rounds_mean, stats.rounds_variance, stats.rounds_m4) == (
        raw_rounds[1],
        m2_r,
        m4_r,
    )
    assert stats.covariance == cross - raw_rounds[1] * raw_capital[1]
    assert stats.epsilon == record.epsilon


# moment helpers


def test_distribution_moments_by_hand():
    half = Fraction(1, 2)
    moments = distribution_moments([(2, half), (4, half)])
    assert moments == [1, 3, 10, 36, 136]


def test_central_moments_require_unit_mass():
    with pytest.raises(ValueError) as excinfo:
        central_moments([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(8)])
    assert not isinstance(excinfo.value, UsageError)  # a kernel guard: only a bug reaches it


def test_central_moments_of_a_fair_coin():
    half = Fraction(1, 2)
    m2, m3, m4 = central_moments(distribution_moments([(0, half), (1, half)]))
    assert m2 == Fraction(1, 4)
    assert m3 == 0
    assert m4 == Fraction(1, 16)


# rendering


def test_format_fraction_basics():
    assert format_fraction(Fraction(1, 3), 5) == "0.33333"
    assert format_fraction(Fraction(2, 3), 5) == "0.66667"
    assert format_fraction(Fraction(5), 2) == "5.00"
    assert format_fraction(Fraction(-1, 8), 2) == "-0.12"


def test_format_fraction_ties_go_to_even():
    assert format_fraction(Fraction(1, 8), 2) == "0.12"
    assert format_fraction(Fraction(3, 8), 2) == "0.38"
    assert format_fraction(Fraction(1, 40), 2) == "0.02"
    assert format_fraction(Fraction(3, 40), 2) == "0.08"


def test_format_fraction_never_prints_negative_zero():
    assert format_fraction(Fraction(-1, 10**9), 5) == "0.00000"


def test_format_fraction_rejects_nonpositive_digits():
    for render in (format_fraction, format_fraction_scientific):
        with pytest.raises(UsageError, match="^digits must be an integer >= 1, got 0$"):
            render(Fraction(1, 3), 0)


# 2.5 raised AttributeError or TypeError from deep inside, and True printed
# one place: a bool is not a count of digits.
@pytest.mark.parametrize("digits", [2.5, True, "3", None])
@pytest.mark.parametrize("render", [format_fraction, format_fraction_scientific])
def test_format_fraction_rejects_non_integer_digits(render, digits):
    with pytest.raises(UsageError, match=r"^digits must be an integer >= 1, got "):
        render(Fraction(1, 3), digits)


# The roots are good to MAX_DIGITS + 10 significant digits: at 60 places the full game's chick
# skewness printed zeros past its 50th digit, not a correctly rounded value.
@pytest.mark.parametrize("render", [render_stats, stats_json_dict])
def test_a_report_refuses_more_places_than_its_roots_carry(full_stats_60, render):
    render(full_stats_60, MAX_DIGITS)
    with pytest.raises(UsageError, match=rf"^digits {MAX_DIGITS + 1} exceeds the limit of {MAX_DIGITS} places$"):
        render(full_stats_60, MAX_DIGITS + 1)
    assert format_fraction(Fraction(1, 3), 60) == "0." + "3" * 60  # an exact value prints further


# 10**6 places raised ValueError from int-to-text conversion and 10**20 OverflowError from the
# decimal context; far more built 10**digits for minutes.  The bound is checked first.
@pytest.mark.parametrize(
    "render, digits",
    [
        (format_fraction, 10**6),
        (format_fraction_scientific, 10**20),
        (format_fraction, MAX_FORMAT_DIGITS + 1),
        (format_fraction_scientific, MAX_FORMAT_DIGITS + 1),
    ],
)
def test_format_fraction_refuses_places_past_its_bound(render, digits):
    with pytest.raises(UsageError, match=rf"^digits {digits} exceeds the limit of {MAX_FORMAT_DIGITS} places$"):
        render(Fraction(1, 3), digits)


def test_format_fraction_prints_every_place_up_to_its_bound():
    assert format_fraction(Fraction(1, 3), MAX_FORMAT_DIGITS) == "0." + "3" * MAX_FORMAT_DIGITS
    assert format_fraction_scientific(Fraction(1, 3), MAX_FORMAT_DIGITS) == "0." + "3" * MAX_FORMAT_DIGITS
    # The largest value the bound promises, rounded up to 10**299 at the last place.
    below = Fraction(10**299) - Fraction(1, 10 ** (MAX_FORMAT_DIGITS + 1))
    assert format_fraction(below, MAX_FORMAT_DIGITS) == "1" + "0" * 299 + "." + "0" * MAX_FORMAT_DIGITS


# Its digits past Python's int-to-text limit raised ValueError from inside.
def test_format_fraction_refuses_a_value_too_long_to_print():
    with pytest.raises(UsageError, match=r"^the value has too many digits to print to 2 places$"):
        format_fraction(Fraction(10**5000, 3), 2)


# Capital 1 comes with probability p = 2**-120, so the skewness is
# (1 - 2p) / sqrt(p (1 - p)), about 2**60: taken at 50 significant digits,
# its 19 integer digits left 31 places, and 40 printed places were padding.
def test_a_large_skewness_keeps_its_places():
    tiny = Fraction(1, 2**60)
    edges = [Edge("a", "b", tiny, 0), Edge("a", "z1", 1 - tiny, 0), Edge("b", "z2", tiny, 1), Edge("b", "z1", 1 - tiny, 0)]
    stats = summarize(run_absorption(WeightedMarkovChain(["a", "b"], ["z1", "z2"], edges, (0, 1)), "a", 3))
    with localcontext() as ctx:
        ctx.prec = 200
        p = Decimal(1) / 2**120
        exact = (1 - 2 * p) / (p * (1 - p)).sqrt()
    assert stats_json_dict(stats, MAX_DIGITS)["chicks"]["skewness"] == format_fraction(Fraction(exact), MAX_DIGITS)
    assert format_fraction(Fraction(exact), MAX_DIGITS).startswith("1152921504606846975.99999999999999999869895739301739")


def test_scientific_format():
    for digits in (1, 13, 40):
        assert format_fraction_scientific(Fraction(0), digits) == "0"
    assert format_fraction_scientific(Fraction(1, 3) / 10**24, 13) == "3.333333333333E-25"
    assert format_fraction_scientific(Fraction(1, 1000), 13) == "0.001"


def test_render_text_report_lines():
    record = make_record({(2, "A"): mono(5, 1, hi=5)}, support=(0, 5))
    text = render_stats(summarize(record), digits=5)
    rows = {}
    for line in text.splitlines():
        label, value = line.rsplit("  ", 1)
        rows[label.rstrip()] = value
    assert rows["win probability"] == "1.00000"
    assert rows["chick mean"] == "5.00000"
    assert rows["chick skewness"] == "undefined (zero variance)"
    assert rows["correlation"] == "undefined (zero variance)"
    assert rows["horizon M"] == "6"
    assert rows["epsilon"] == "0"


def test_json_report_schema_and_round_trip():
    half = Fraction(1, 2)
    record = make_record({(1, "A"): mono(2, half, hi=4), (3, "A"): mono(4, half, hi=4)}, support=(0, 4))
    stats = summarize(record)
    document = json.loads(json.dumps(stats_json_dict(stats, digits=13)))
    assert set(document) == {
        "win_probability",
        "chicks",
        "rounds",
        "correlation",
        "epsilon",
        "M",
    }
    assert set(document["chicks"]) == {
        "mean",
        "variance",
        "skewness",
        "kurtosis_raw",
        "kurtosis_excess",
    }
    assert document["M"] == 6
    assert Fraction(document["win_probability"]["fraction"]) == half
    assert document["win_probability"]["decimal"] == "0.5000000000000"
    assert Fraction(document["chicks"]["mean"]["fraction"]) == 3


def test_json_report_null_statistics_for_point_mass():
    record = make_record({(2, "A"): mono(5, 1, hi=5)}, support=(0, 5))
    document = stats_json_dict(summarize(record))
    assert document["chicks"]["skewness"] is None
    assert document["correlation"] is None
    assert document["epsilon"]["decimal"] == "0"


def test_the_readme_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(code, {})
    printed = capsys.readouterr().out
    assert printed.startswith("0.6410373996231")
