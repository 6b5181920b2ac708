"""Shared strategies and adapters for the test suite.

The hypothesis strategies build package objects (they only generate
inputs); the adapters translate between package objects and the plain
dicts the independent oracle in _oracle.py speaks; the record helpers
recompute polynomial sums and marginals from `.coeffs` alone, so tests
can check the package against them.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from capchain import CappedPolynomial, Edge, WeightedMarkovChain, umbra_step

from _oracle import brute_force_record


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
            if not poly.is_zero:
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
