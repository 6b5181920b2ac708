"""Shared strategies and adapters for the test suite.

The hypothesis strategies build package objects (they only generate
inputs); the adapters translate between package objects and the plain
dicts the independent oracle in _oracle.py speaks.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from capchain import CappedPolynomial, Edge, WeightedMarkovChain, umbra_step


def unit_fractions(max_denominator: int = 8):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)


def signed_fractions(max_denominator: int = 8):
    return st.fractions(min_value=-2, max_value=2, max_denominator=max_denominator)


@st.composite
def capped_polynomials(draw, min_lo: int = -4, max_hi: int = 8, signed: bool = False):
    lo = draw(st.integers(min_lo, max_hi - 1))
    hi = draw(st.integers(lo, max_hi))
    width = hi - lo + 1
    cells = signed_fractions() if signed else unit_fractions()
    coeffs = draw(st.lists(cells, min_size=width, max_size=width))
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
    return absorbed.get("to", CappedPolynomial.zero(lo, hi))
