"""Summary statistics of an absorption record, exact until presentation.

Every moment is summed from integer numerators over one common
denominator and divided once: means, variances, covariance, kurtosis,
and the win probability stay exact rationals end to end.  Only skewness
and correlation involve square roots, so those are evaluated as
high-precision Decimals from the exact central moments.
Rendering (fixed-point strings, banker's rounding) is the last step
and never feeds back into arithmetic.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence, Union

from . import MAX_DIGITS, MAX_FORMAT_DIGITS, UsageError, check_digits, format_rows

if TYPE_CHECKING:
    from .chain import AbsorptionRecord

# Working precision for the two irrational statistics: a 10-digit guard beyond
# the most places a report may ask for, so display values are correctly rounded.
DECIMAL_PRECISION = MAX_DIGITS + 10


class SummaryStats(NamedTuple):
    """Conditional-on-absorption statistics of one absorption run.

    Rational statistics, kurtosis included, are exact Fractions.  The
    root-bearing ones (skewness, correlation) are Decimals.  Skewness,
    kurtosis and correlation are None when the relevant variance
    vanishes.  `chick_m4` and `rounds_m4` are the exact
    fourth central moments, which set the sampling spread of the two
    variances.  `epsilon` is the unconditioned leftover mass of the run
    the statistics were extracted from.
    """

    win_probability: Fraction
    chick_mean: Fraction
    chick_variance: Fraction
    chick_m4: Fraction
    chick_skewness: Optional[Decimal]
    chick_kurtosis_raw: Optional[Fraction]
    chick_kurtosis_excess: Optional[Fraction]
    rounds_mean: Fraction
    rounds_variance: Fraction
    rounds_m4: Fraction
    covariance: Fraction
    correlation: Optional[Decimal]
    epsilon: Fraction
    win_capital: int
    rounds_run: int


def distribution_moments(pairs: Iterable[tuple[int, Fraction]]) -> list[Fraction]:
    """Raw power moments of a (value, mass) distribution for orders 0..4 (int masses: ints)."""
    moments = [0] * 5
    for value, mass in pairs:
        power = 1
        for order in range(5):
            moments[order] += power * mass
            power *= value
    return moments


def central_moments(raw: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    """Central moments (m2, m3, m4) from raw moments of a unit-mass distribution."""
    if raw[0] != 1:
        raise ValueError(f"raw moments describe mass {raw[0]}, expected exactly 1")
    mean = raw[1]
    m2 = raw[2] - mean**2
    m3 = raw[3] - 3 * mean * raw[2] + 2 * mean**3
    m4 = raw[4] - 4 * mean * raw[3] + 6 * mean**2 * raw[2] - 3 * mean**4
    return m2, m3, m4


def _to_decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def _skewness(m2: Fraction, m3: Fraction) -> Decimal:
    """m3 / m2**1.5 to DECIMAL_PRECISION digits past its integer digits, so a large one keeps its places."""
    digits = 0  # integer digits read off a first pass, plus one for a pass that rounded across a power of ten
    while True:
        with localcontext() as ctx:
            ctx.prec = DECIMAL_PRECISION + digits
            sigma2 = _to_decimal(m2)
            skewness = _to_decimal(m3) / (sigma2 * sigma2.sqrt())
        if digits or not skewness or skewness.adjusted() < 0:  # adjusted(): the leading digit's power of ten
            return skewness
        digits = skewness.adjusted() + 2


def summarize(record: AbsorptionRecord) -> SummaryStats:
    """Extract all summary statistics, conditioned on absorption.

    One pass over the unconditioned record's absorbed rows reads each
    row's stored cells and unreduced denominator.  It builds the capital
    marginal, the round marginal's raw power sums and the round x capital
    cross sum over one common denominator, lifting the sums so far to each
    new denominator as it appears (Horner); each raw moment is then divided
    by that denominator and 1 - epsilon once.  A win is absorption at the
    top of the capital window, `record.support[1]` (the upper clamp for a
    compiled game).
    Raises UsageError when the record absorbed no mass at all, because
    conditioning is then undefined.
    """
    if record.epsilon == 1:
        raise UsageError("no mass was absorbed; cannot condition on absorption")
    win_capital = record.support[1]
    common = 1
    capital: dict[int, int] = {}
    sums = [0] * 6  # round marginal power sums of orders 0..4, then the cross sum
    for (round_index, _), poly in record.absorbed.items():
        first, cells, denominator = poly.stored_cells()
        step = denominator // gcd(common, denominator)
        if step > 1:
            common *= step
            capital = {exponent: total * step for exponent, total in capital.items()}
            sums = [total * step for total in sums]
        lift = common // denominator
        cells = [numerator * lift for numerator in cells] if lift > 1 else cells
        for exponent, numerator in enumerate(cells, first):
            capital[exponent] = capital.get(exponent, 0) + numerator
        row = distribution_moments([(round_index, sum(cells))])
        row.append(round_index * sum(e * n for e, n in enumerate(cells, first)))
        sums = [a + b for a, b in zip(sums, row)]
    norm = Fraction(common) * (1 - record.epsilon)
    raw_capital = [m / norm for m in distribution_moments(capital.items())]
    raw_rounds = [m / norm for m in sums[:5]]
    m2_c, m3_c, m4_c = central_moments(raw_capital)
    m2_r, _, m4_r = central_moments(raw_rounds)
    covariance = sums[5] / norm - raw_rounds[1] * raw_capital[1]

    with localcontext() as ctx:
        ctx.prec = DECIMAL_PRECISION
        skewness = kurtosis_raw = kurtosis_excess = correlation = None
        if m2_c > 0:
            skewness = _skewness(m2_c, m3_c)
            kurtosis_raw = m4_c / m2_c**2
            kurtosis_excess = kurtosis_raw - 3
        if m2_c > 0 and m2_r > 0:
            correlation = _to_decimal(covariance) / _to_decimal(m2_c * m2_r).sqrt()

    return SummaryStats(
        win_probability=capital.get(win_capital, 0) / norm,
        chick_mean=raw_capital[1],
        chick_variance=m2_c,
        chick_m4=m4_c,
        chick_skewness=skewness,
        chick_kurtosis_raw=kurtosis_raw,
        chick_kurtosis_excess=kurtosis_excess,
        rounds_mean=raw_rounds[1],
        rounds_variance=m2_r,
        rounds_m4=m4_r,
        covariance=covariance,
        correlation=correlation,
        epsilon=record.epsilon,
        win_capital=win_capital,
        rounds_run=record.rounds_run,
    )


def format_fraction(value: Fraction, digits: int) -> str:
    """Correctly rounded fixed-point string with `digits` places (ties to even), up to MAX_FORMAT_DIGITS."""
    check_digits(digits, MAX_FORMAT_DIGITS)
    negative = value < 0
    scaled = abs(value) * 10**digits
    units, remainder = divmod(scaled.numerator, scaled.denominator)
    twice = 2 * remainder
    if twice > scaled.denominator or (twice == scaled.denominator and units % 2):
        units += 1
    try:
        text = str(units).rjust(digits + 1, "0")
    except ValueError:  # past Python's limit on int-to-text conversion
        raise UsageError(f"the value has too many digits to print to {digits} places") from None
    sign = "-" if negative and units else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def format_fraction_scientific(value: Fraction, digits: int) -> str:
    """Scientific-notation string with `digits` significant digits, up to MAX_FORMAT_DIGITS."""
    check_digits(digits, MAX_FORMAT_DIGITS)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(_to_decimal(value))


def _fixed(value: Union[Fraction, Decimal, None], digits: int, undefined: Optional[str] = None) -> Optional[str]:
    """A statistic to `digits` places, or `undefined` for one that is None."""
    return undefined if value is None else format_fraction(Fraction(value), digits)


def _decimal_pair(value: Fraction, digits: int) -> dict:
    return {"decimal": format_fraction(value, digits), "fraction": str(value)}


def epsilon_pair(epsilon: Fraction, digits: int) -> dict:
    """Leftover mass as a report shows it: scientific decimal and exact fraction."""
    return {"decimal": format_fraction_scientific(epsilon, digits), "fraction": str(epsilon)}


def stats_json_dict(stats: SummaryStats, digits: int = 13) -> dict:
    """Plain-dict report; rationals carry both a decimal and an exact fraction form."""
    check_digits(digits)
    return {
        "win_probability": _decimal_pair(stats.win_probability, digits),
        "chicks": {
            "mean": _decimal_pair(stats.chick_mean, digits),
            "variance": _decimal_pair(stats.chick_variance, digits),
            "skewness": _fixed(stats.chick_skewness, digits),
            "kurtosis_raw": _fixed(stats.chick_kurtosis_raw, digits),
            "kurtosis_excess": _fixed(stats.chick_kurtosis_excess, digits),
        },
        "rounds": {
            "mean": _decimal_pair(stats.rounds_mean, digits),
            "variance": _decimal_pair(stats.rounds_variance, digits),
        },
        "correlation": _fixed(stats.correlation, digits),
        "epsilon": epsilon_pair(stats.epsilon, digits),
        "M": stats.rounds_run,
    }


def render_stats(stats: SummaryStats, digits: int = 13) -> str:
    """Render a report as aligned text; `stats_json_dict` is the JSON form."""
    check_digits(digits)
    undefined = "undefined (zero variance)"
    rows = [
        ("horizon M", stats.rounds_run),
        ("win capital", stats.win_capital),
        ("win probability", _fixed(stats.win_probability, digits)),
        ("chick mean", _fixed(stats.chick_mean, digits)),
        ("chick variance", _fixed(stats.chick_variance, digits)),
        ("chick skewness", _fixed(stats.chick_skewness, digits, undefined)),
        ("chick kurtosis (raw)", _fixed(stats.chick_kurtosis_raw, digits, undefined)),
        ("chick kurtosis (excess)", _fixed(stats.chick_kurtosis_excess, digits, undefined)),
        ("rounds mean", _fixed(stats.rounds_mean, digits)),
        ("rounds variance", _fixed(stats.rounds_variance, digits)),
        ("covariance", _fixed(stats.covariance, digits)),
        ("correlation", _fixed(stats.correlation, digits, undefined)),
        ("epsilon", format_fraction_scientific(stats.epsilon, digits)),
    ]
    return format_rows(rows)
