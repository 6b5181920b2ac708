"""Shared strategies and adapters for the test suite.

The hypothesis strategies build package objects (they only generate
inputs); the adapters translate between package objects and the plain
dicts the independent oracle in _oracle.py speaks; the record helpers
recompute polynomial sums and marginals from `.coeffs` alone, so tests
can check the package against them, and `fraction_text` a row's text from
its `Fraction` terms; `fold_single_plays` is the report
`simulate` should give, built from `play_once`; the chi-square helpers
compare a histogram with exact probabilities; `run_python` runs a probe
in a fresh interpreter.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import capchain
from capchain import (
    CappedPolynomial,
    Edge,
    SimulationReport,
    WeightedMarkovChain,
    umbra_step,
)

from _oracle import SplitMix64, brute_force_record, play_once


def unit_fractions(max_denominator: int = 8):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)


@st.composite
def capped_polynomials(draw, min_lo: int = -4, max_hi: int = 8):
    lo = draw(st.integers(min_lo, max_hi - 1))
    hi = draw(st.integers(lo, max_hi))
    width = hi - lo + 1
    coeffs = draw(st.lists(unit_fractions(), min_size=width, max_size=width))
    return CappedPolynomial(lo, hi, tuple(coeffs))


@st.composite
def small_chains(draw, max_transient: int = 4, max_absorbing: int = 2):
    """A valid random chain: exact probability sums, small support window."""
    transient = tuple(f"t{i}" for i in range(draw(st.integers(1, max_transient))))
    absorbing = tuple(f"a{i}" for i in range(draw(st.integers(1, max_absorbing))))
    states = transient + absorbing
    lo = draw(st.integers(-3, 1))
    hi = lo + draw(st.integers(1, 6))
    edges = []
    for src in transient:
        count = draw(st.integers(1, 3))
        numerators = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
        targets = draw(st.lists(st.sampled_from(states), min_size=count, max_size=count))
        weights = draw(st.lists(st.integers(-3, 4), min_size=count, max_size=count))
        total = sum(numerators)
        for numerator, dst, weight in zip(numerators, targets, weights):
            edges.append(Edge(src, dst, Fraction(numerator, total), weight))
    return WeightedMarkovChain(transient, absorbing, tuple(edges), (lo, hi))


# Coprime edge denominators 7 and 11: the cells of one row reduce to up to four different denominators.
COPRIME_CHAIN = WeightedMarkovChain(
    ("t0", "t1"),
    ("a0", "a1"),
    (
        Edge("t0", "t0", Fraction(2, 7), 1),
        Edge("t0", "t1", Fraction(3, 7), -1),
        Edge("t0", "a0", Fraction(2, 7), 0),
        Edge("t1", "t0", Fraction(5, 11), 2),
        Edge("t1", "a1", Fraction(4, 11), 0),
        Edge("t1", "t1", Fraction(2, 11), -2),
    ),
    (-2, 4),
)


@st.composite
def chain_and_vector(draw, **kwargs):
    """A chain plus a state vector on it with total mass at most 1."""
    chain = draw(small_chains(**kwargs))
    lo, hi = chain.support
    width = hi - lo + 1
    entries = {}
    for state in chain.transient:
        if draw(st.booleans()):
            coeffs = draw(
                st.lists(unit_fractions(), min_size=width, max_size=width)
            )
            poly = CappedPolynomial(lo, hi, tuple(coeffs))
            if poly.mass() != 0:
                entries[state] = poly
    total = sum((poly.mass() for poly in entries.values()), Fraction(0))
    if total > 1:
        entries = {state: poly.scale(Fraction(1) / total) for state, poly in entries.items()}
    return chain, entries


def plain_form(chain: WeightedMarkovChain):
    """The oracle's plain-data view of a chain."""
    return (
        list(chain.transient),
        list(chain.absorbing),
        [(edge.src, edge.dst, edge.prob, edge.weight) for edge in chain.edges],
        chain.support,
    )


def chain_from_plain(data) -> WeightedMarkovChain:
    """Package view of an oracle-generated plain chain."""
    transient, absorbing, edges, support = data
    return WeightedMarkovChain(
        transient=tuple(transient),
        absorbing=tuple(absorbing),
        edges=tuple(Edge(*edge) for edge in edges),
        support=support,
    )


def record_as_dicts(record):
    """AbsorptionRecord in the oracle's nested-dict form."""
    absorbed = {key: dict(poly.terms()) for key, poly in record.absorbed.items()}
    residual = {state: dict(poly.terms()) for state, poly in record.residual.items()}
    return absorbed, residual, record.epsilon


def clamped_shift(poly: CappedPolynomial, delta: int) -> CappedPolynomial:
    """Shift every exponent of `poly` by `delta` with boundary clamping.

    Runs the engine's own scatter: one umbra_step over a single
    certain edge of weight `delta` into an absorbing state.
    """
    lo, hi = poly.support
    edge = Edge("from", "to", Fraction(1), delta)
    chain = WeightedMarkovChain(("from",), ("to",), (edge,), (lo, hi))
    _, absorbed = umbra_step(chain, {"from": poly})
    return absorbed.get("to", zero_poly(lo, hi))


def oracle_step(chain: WeightedMarkovChain, vector) -> tuple[dict, dict]:
    """One round from an arbitrary state vector, by the brute-force oracle.

    The step is linear, so each (state, capital) cell is walked one
    round on its own and its coefficient weights the outcome.  Returns
    (live, absorbed) as state -> {capital: Fraction}.
    """
    live: dict = {}
    absorbed: dict = {}

    def accumulate(target: dict, buckets: dict, weight: Fraction) -> None:
        for state, cells in buckets.items():
            bucket = target.setdefault(state, {})
            for capital, prob in cells.items():
                bucket[capital] = bucket.get(capital, Fraction(0)) + weight * prob

    for state, poly in vector.items():
        for capital, coeff in poly.terms():
            landed, residual, _ = brute_force_record(
                *plain_form(chain), start=state, rounds=1, initial_capital=capital
            )
            accumulate(live, residual, coeff)
            accumulate(absorbed, {dst: cells for (_, dst), cells in landed.items()}, coeff)
    return live, absorbed


def zero_poly(lo: int, hi: int) -> CappedPolynomial:
    return CappedPolynomial(lo, hi, (0,) * max(hi - lo + 1, 0))


def fraction_text(poly: CappedPolynomial) -> str:
    """`str(poly)` built the plain way, a `Fraction` per nonzero cell: the oracle for the packed text."""
    return " + ".join(f"{coeff}*t^{exponent}" for exponent, coeff in poly.terms()) or "0"


def coefficient(poly: CappedPolynomial, exponent: int) -> Fraction:
    """Coefficient of t^exponent; zero outside the window."""
    lo, hi = poly.support
    return poly.coeffs[exponent - lo] if lo <= exponent <= hi else Fraction(0)


def add_polys(left: CappedPolynomial, right: CappedPolynomial) -> CappedPolynomial:
    if left.support != right.support:
        raise ValueError(f"support mismatch: {left.support} vs {right.support}")
    return CappedPolynomial(
        *left.support, tuple(a + b for a, b in zip(left.coeffs, right.coeffs))
    )


def marginal_capital(record, states=None) -> CappedPolynomial:
    """Capital distribution summed over rounds, optionally only for some absorbing states."""
    wanted = None if states is None else {states} if isinstance(states, str) else set(states)
    total = zero_poly(*record.support)
    for (_, state), poly in record.absorbed.items():
        if wanted is None or state in wanted:
            total = add_polys(total, poly)
    return total


def marginal_rounds(record) -> dict[int, Fraction]:
    """Absorption-time distribution: round -> mass absorbed in that round."""
    masses: dict[int, Fraction] = {}
    for (round_index, _), poly in record.absorbed.items():
        masses[round_index] = masses.get(round_index, Fraction(0)) + sum(poly.coeffs)
    return dict(sorted(masses.items()))


def total_absorbed_mass(record) -> Fraction:
    return sum((sum(poly.coeffs) for poly in record.absorbed.values()), Fraction(0))


def fold_single_plays(spec, trials, seed, round_cap):
    """The report `simulate` should give, folded from one play_once per trial."""
    results = []
    for index in range(trials):
        result = play_once(spec, SplitMix64.stream(seed, index), round_cap)
        if result is not None:
            results.append(result)
    n = len(results)
    chick_histogram: dict[int, int] = {}
    rounds_histogram: dict[int, int] = {}
    for rounds, chicks in results:
        chick_histogram[chicks] = chick_histogram.get(chicks, 0) + 1
        rounds_histogram[rounds] = rounds_histogram.get(rounds, 0) + 1
    chick_mean = chick_variance = rounds_mean = rounds_variance = correlation = None
    if n:
        sum_c = sum(chicks for _, chicks in results)
        sum_r = sum(rounds for rounds, _ in results)
        sum_cc = sum(chicks * chicks for _, chicks in results)
        sum_rr = sum(rounds * rounds for rounds, _ in results)
        sum_rc = sum(rounds * chicks for rounds, chicks in results)
        chick_mean = sum_c / n
        chick_variance = (sum_cc * n - sum_c * sum_c) / (n * n)
        rounds_mean = sum_r / n
        rounds_variance = (sum_rr * n - sum_r * sum_r) / (n * n)
        if chick_variance > 0 and rounds_variance > 0:
            covariance = (sum_rc * n - sum_r * sum_c) / (n * n)
            correlation = covariance / math.sqrt(chick_variance * rounds_variance)
    return SimulationReport(
        trials=trials,
        seed=seed,
        round_cap=round_cap,
        censored=trials - n,
        wins=chick_histogram.get(spec.win_threshold, 0),
        chick_mean=chick_mean,
        chick_variance=chick_variance,
        rounds_mean=rounds_mean,
        rounds_variance=rounds_variance,
        correlation=correlation,
        chick_histogram=chick_histogram,
        rounds_histogram=rounds_histogram,
    )


def pooled_cells(histogram: dict[int, int], probabilities: dict[int, Fraction], minimum: int = 5):
    """(expected, observed) cells over sorted values, the tails pooled inward.

    Expected counts are exact: probability times the histogram's total.
    A value missing from either side counts 0 there.  The first cell is
    merged into its neighbour while it expects fewer than `minimum`,
    then the last cell likewise.
    """
    total = sum(histogram.values())
    cells = [
        [probabilities.get(value, Fraction(0)) * total, histogram.get(value, 0)]
        for value in sorted(set(histogram) | set(probabilities))
    ]
    for end in (0, -1):
        while len(cells) > 1 and cells[end][0] < minimum:
            expected, observed = cells.pop(end)
            cells[end][0] += expected
            cells[end][1] += observed
    return cells


def chi_square_upper_tail(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square with `dof` degrees of freedom.

    This is the regularized upper incomplete gamma Q(dof/2, statistic/2):
    below a + 1 by the power series of the lower tail P = 1 - Q, above it
    by the continued fraction of Q (modified Lentz), as in Press et al.,
    Numerical Recipes, section 6.2.
    """
    a, x = dof / 2, statistic / 2
    if x <= 0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        for n in range(1, 10_000):
            term *= x / (a + n)
            total += term
            if term < total * 1e-16:
                break
        return 1 - front * total
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    fraction = d
    for n in range(1, 10_000):
        coefficient = -n * (n - a)
        b += 2
        d = coefficient * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + coefficient / c
        c = c if abs(c) > tiny else tiny
        fraction *= c * d
        if abs(c * d - 1) < 1e-15:
            break
    return front * fraction


def run_python(
    code: str, *args: str, timeout: float = 60, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter that imports this package, `env` added to its environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(Path(capchain.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def analyze_refusal(tmp_path: Path, capsys, text: str) -> str:
    """Run `capchain analyze` in process on a document it must refuse; return its stderr."""
    from capchain.cli import EXIT_USAGE, main

    path = tmp_path / "document.json"
    path.write_text(text)
    code = main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, ""), err
    return err
