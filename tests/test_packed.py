"""The packed-row scatter: carries, clamps, mixed rows, and wide windows."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from capchain import CappedPolynomial, Edge, WeightedMarkovChain, run_absorption, summarize, umbra_step
from capchain import poly as poly_module

from _testlib import oracle_step, small_chains


def as_dicts(stepped):
    return tuple({state: dict(poly.terms()) for state, poly in polys.items()} for polys in stepped)


@st.composite
def chain_and_mixed_vector(draw):
    """Rows of unrelated denominators and cell widths, cells up to 2^70, mass above 1."""
    chain = draw(small_chains())
    lo, hi = chain.support
    vector = {}
    for state in chain.transient:
        cells = draw(
            st.lists(
                st.builds(
                    Fraction,
                    st.integers(0, 3) | st.integers(0, 2**70),
                    st.sampled_from([1, 2, 3, 7, 11, 2**64 - 59]),
                ),
                min_size=hi - lo + 1,
                max_size=hi - lo + 1,
            )
        )
        poly = CappedPolynomial(lo, hi, cells)
        if poly.mass() != 0:
            vector[state] = poly
    return chain, vector


@settings(deadline=None)
@given(chain_and_mixed_vector())
def test_step_of_mixed_signed_rows_matches_the_oracle(pair):
    chain, vector = pair
    stepped = umbra_step(chain, vector)
    assert as_dicts(stepped) == oracle_step(chain, vector)
    for polys in stepped:
        for poly in polys.values():
            assert poly.mass() == sum(poly.coeffs)
            _, cells, _ = poly.stored_cells()  # stored from the lowest to the highest nonzero cell
            assert cells[0] and cells[-1]
    # Stepped rows (unreduced denominators, the round's cell width) beside fresh ones.
    mixed = {**vector, **stepped[0]}
    assert as_dicts(umbra_step(chain, mixed)) == oracle_step(chain, mixed)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("end", [1, -1])
def test_cells_at_the_edge_of_their_width_survive_a_wider_round(k, end):
    # A row whose one nonzero cell is 2^(8k-1) - 1 is packed exactly 8k bits
    # wide; several of them, scattered over probabilities of denominator
    # 1000, need a wider round than any of them.  The clamped edges push the
    # alternating row's cells past both the floor and the cap.  end = -1
    # mirrors the rows: "single" at the cap, "top" at the floor, and the
    # alternating row on the odd cells.
    extreme = 2 ** (8 * k - 1) - 1
    lo, hi = -2, 3
    width = hi - lo + 1
    first, last = (lo, hi) if end == 1 else (hi, lo)
    odd = end == -1
    rows = {
        "single": CappedPolynomial.monomial(first, extreme, lo, hi),
        "top": CappedPolynomial.monomial(last, extreme, lo, hi),
        "alternating": CappedPolynomial(lo, hi, [extreme * (i % 2 == odd) for i in range(width)]),
    }
    edges = [
        Edge(src, dst, Fraction(n, 1000), weight)
        for src in rows
        for dst, n, weight in (("floor", 101, -4), ("cap", 299, 4), ("single", 600, 1))
    ]
    chain = WeightedMarkovChain(tuple(rows), ("floor", "cap"), tuple(edges), (lo, hi))
    assert rows["single"]._bits == rows["top"]._bits == 8 * k
    stepped = umbra_step(chain, rows)
    assert as_dicts(stepped) == oracle_step(chain, rows)
    assert all(poly._bits > rows["alternating"]._bits for polys in stepped for poly in polys.values())
    assert sum(poly.mass() for polys in stepped for poly in polys.values()) == sum(
        poly.mass() for poly in rows.values()
    )


@pytest.mark.parametrize("weight, clamps", [(-4, True), (-3, True), (-2, False), (2, False), (3, True)])
def test_a_move_onto_an_end_cell_stays_in_the_window(monkeypatch, weight, clamps):
    # The row's cells sit on exponents 2 and 3 of the window [0, 5]: a shift of
    # -2 lands its lowest cell on the floor and +2 its highest on the cap, so
    # both stay inside the window; one cell further, the move clamps.  A move
    # whose lowest cell lands exactly one cell below the floor is folded inline
    # by `scatter`; `_clamped` takes the moves further out.
    clamped_moves = []
    clamped = poly_module._clamped
    monkeypatch.setattr(poly_module, "_clamped", lambda *args: clamped_moves.append(args) or clamped(*args))
    edges = (Edge("a", "z", Fraction(2, 3), weight), Edge("a", "a", Fraction(1, 3), 0))
    chain = WeightedMarkovChain(("a",), ("z",), edges, (0, 5))
    rows = {"a": CappedPolynomial(0, 5, [0, 0, Fraction(1, 4), Fraction(3, 4), 0, 0])}
    assert as_dicts(umbra_step(chain, rows)) == oracle_step(chain, rows)
    assert len(clamped_moves) == (clamps and 2 + weight != -1)


@pytest.mark.parametrize("lo", [0, -5000])
def test_a_sparse_row_in_a_wide_window_costs_its_occupied_cells(lo):
    # A walk that spreads one cell a round over a 10000-cell window, from its
    # floor or from its middle: rows packed over the whole window, or from
    # its floor, would take thousands of cells x the cell width each; packed
    # from their lowest to their highest nonzero cell they take a few hundred
    # bytes.
    walk = WeightedMarkovChain(
        transient=("a",),
        absorbing=("z",),
        edges=(
            Edge("a", "a", Fraction(49, 100), 1),
            Edge("a", "a", Fraction(49, 100), -1),
            Edge("a", "z", Fraction(1, 50), 0),
        ),
        support=(lo, lo + 9999),
    )
    tracemalloc.start()
    try:
        record = run_absorption(walk, "a", 40)
        stats = summarize(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert record.absorbed[(1, "z")] == CappedPolynomial.monomial(0, Fraction(1, 50), lo, lo + 9999)
    assert stats.win_probability == 0
