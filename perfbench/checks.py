"""Output checks for the benchmark's workloads.

Every checker takes the text a `capchain` invocation printed and returns
a list of problems; an empty list means the output is correct.  The
checkers share no code with the package: they read the JSON reports with
their own `Fraction` arithmetic.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import sqrt

# sha256 of `capchain analyze --builtin full -M 120 --format json
# --full-record` (682244 bytes) as the seed commit prints it.  Every
# output is frozen, so any change to these bytes is a failure.
GAME_EXACT_SHA256 = "96546a2c138b3a9b449b922227fc57db15b2153b0a529d0f8f71df76a800c459"

# Width of the band, in standard errors computed from the exact
# distribution, that each Monte Carlo moment must fall in.
MONTE_CARLO_BAND_SE = 6


def check_game_exact(text: str) -> list[str]:
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != GAME_EXACT_SHA256:
        return [f"report digest {digest} differs from the frozen reference"]
    return []


def record_moments(entries: list[dict]) -> tuple[dict, list[str]]:
    """Exact moments of a conditioned full record, read from its JSON entries.

    Returns the capital distribution, raw capital and round moments of
    orders 0..4, and E[rounds * capital], plus any problems found while
    reading (an entry whose mass is not the sum of its coefficients).
    """
    problems: list[str] = []
    capital: dict[int, Fraction] = {}
    by_round: dict[int, Fraction] = {}
    capital_by_round: dict[int, Fraction] = {}
    for entry in entries:
        round_index = entry["round"]
        mass = Fraction(0)
        weighted = Fraction(0)
        for exponent_text, coeff_text in entry["coefficients"].items():
            exponent, coeff = int(exponent_text), Fraction(coeff_text)
            capital[exponent] = capital.get(exponent, Fraction(0)) + coeff
            mass += coeff
            weighted += exponent * coeff
        if mass != Fraction(entry["mass"]):
            problems.append(
                f"round {round_index} state {entry['state']}: mass {entry['mass']} "
                f"is not the sum of its coefficients"
            )
        by_round[round_index] = by_round.get(round_index, Fraction(0)) + mass
        capital_by_round[round_index] = (
            capital_by_round.get(round_index, Fraction(0)) + weighted
        )
    raw_capital = [sum((x**k * p for x, p in capital.items()), Fraction(0)) for k in range(5)]
    raw_rounds = [sum((r**k * p for r, p in by_round.items()), Fraction(0)) for k in range(5)]
    cross = sum((r * w for r, w in capital_by_round.items()), Fraction(0))
    moments = {
        "capital": capital,
        "raw_capital": raw_capital,
        "raw_rounds": raw_rounds,
        "cross": cross,
    }
    return moments, problems


def _central(raw: list[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    mean = raw[1]
    m2 = raw[2] - mean**2
    m4 = raw[4] - 4 * mean * raw[3] + 6 * mean**2 * raw[2] - 3 * mean**4
    return mean, m2, m4


def check_chain_report(text: str, win_capital: int, horizon: int) -> list[str]:
    """A chain `analyze --format json --full-record` report agrees with its own record."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if report.get("M") != horizon or report.get("statistics", True) is None:
        return [f"report has horizon {report.get('M')} or no statistics"]
    moments, problems = record_moments(report["record"])
    raw_capital, raw_rounds = moments["raw_capital"], moments["raw_rounds"]
    if raw_capital[0] != 1:
        problems.append(f"conditioned record has mass {raw_capital[0]}, not 1")
        return problems
    chick_mean, chick_variance, _ = _central(raw_capital)
    rounds_mean, rounds_variance, _ = _central(raw_rounds)
    expected = {
        ("win_probability",): moments["capital"].get(win_capital, Fraction(0)),
        ("chicks", "mean"): chick_mean,
        ("chicks", "variance"): chick_variance,
        ("rounds", "mean"): rounds_mean,
        ("rounds", "variance"): rounds_variance,
    }
    for path, value in expected.items():
        node = report
        for key in path:
            node = node[key]
        if Fraction(node["fraction"]) != value:
            problems.append(f"{'.'.join(path)} {node['fraction']} != recomputed {value}")
    epsilon = Fraction(report["epsilon"]["fraction"])
    if not 0 <= epsilon < 1:
        problems.append(f"epsilon {epsilon} is outside [0, 1)")
    return problems


def exact_reference(text: str, win_capital: int) -> dict[str, tuple[float, Fraction]]:
    """Exact value and per-trial sampling variance of each simulated statistic.

    `text` is a game's `analyze --format json --full-record` report.
    """
    moments, problems = record_moments(json.loads(text)["record"])
    if problems:
        raise ValueError("; ".join(problems))
    chick_mean, m2_c, m4_c = _central(moments["raw_capital"])
    rounds_mean, m2_r, m4_r = _central(moments["raw_rounds"])
    win = moments["capital"].get(win_capital, Fraction(0))
    rho = float(moments["cross"] - rounds_mean * chick_mean) / sqrt(float(m2_c * m2_r))
    return {
        "win_rate": (float(win), win * (1 - win)),
        "chick_mean": (float(chick_mean), m2_c),
        "chick_variance": (float(m2_c), m4_c - m2_c**2),
        "rounds_mean": (float(rounds_mean), m2_r),
        "rounds_variance": (float(m2_r), m4_r - m2_r**2),
        # Normal-theory spread of a sample correlation; the band is wide
        # enough that its known optimism does not matter here.
        "correlation": (rho, Fraction((1 - rho * rho) ** 2)),
    }


def check_simulate_report(
    text: str, trials: int, seed: int, win_capital: int, reference: dict
) -> list[str]:
    """A `simulate --format json` report is self-consistent and near the exact moments."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if report["trials"] != trials or report["seed"] != seed:
        problems.append(f"report is for trials={report['trials']} seed={report['seed']}")
    completed = trials - report["censored"]
    chicks = dict(report["chick_histogram"])
    rounds = dict(report["rounds_histogram"])
    for name, histogram in (("chick", chicks), ("rounds", rounds)):
        if sum(histogram.values()) != completed:
            problems.append(
                f"{name} histogram counts sum to {sum(histogram.values())}, "
                f"not trials - censored = {completed}"
            )
    if report["completed"] != completed or report["wins"] != chicks.get(win_capital, 0):
        problems.append("completed or wins disagree with the histograms")
    if completed == 0:
        return problems + ["every trial was censored"]
    if report["chick_mean"] != sum(c * n for c, n in chicks.items()) / completed:
        problems.append("chick mean disagrees with the chick histogram")
    if report["rounds_mean"] != sum(r * n for r, n in rounds.items()) / completed:
        problems.append("rounds mean disagrees with the rounds histogram")
    empirical = dict(report, win_rate=report["wins"] / completed)
    for name, (exact, variance) in reference.items():
        band = MONTE_CARLO_BAND_SE * sqrt(variance / completed)
        if empirical[name] is None or abs(empirical[name] - exact) > band:
            problems.append(
                f"{name} {empirical[name]} is outside {exact} +- {band:.3g} "
                f"({MONTE_CARLO_BAND_SE} SE)"
            )
    return problems


def alter_fraction(text: str) -> str:
    """The same report with one record coefficient's numerator raised by one."""
    report = json.loads(text)
    entry = report["record"][len(report["record"]) // 2]
    exponent = sorted(entry["coefficients"], key=int)[len(entry["coefficients"]) // 2]
    value = Fraction(entry["coefficients"][exponent])
    entry["coefficients"][exponent] = str(
        Fraction(value.numerator + 1, value.denominator)
    )
    return json.dumps(report, indent=2) + "\n"


def bump_histogram_count(text: str) -> str:
    """The same simulate report with one chick histogram count off by one."""
    report = json.loads(text)
    report["chick_histogram"][len(report["chick_histogram"]) // 2][1] += 1
    return json.dumps(report, indent=2) + "\n"


def self_check(name: str, checker, good_text: str, alter) -> list[str]:
    """Problems with a checker: it must pass `good_text` and fail its altered copy."""
    problems = []
    if checker(good_text):
        problems.append(f"{name} checker rejects a good output")
    if not checker(alter(good_text)):
        problems.append(f"{name} checker accepts an output altered by {alter.__name__}")
    return problems
