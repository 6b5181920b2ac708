"""Weighted Markov chains with absorbing states, evolved exactly.

A WeightedMarkovChain is a finite directed graph.  Transient states
carry outgoing edges, each with an exact probability and an integer
weight (the capital collected when that edge is taken); absorbing
states have none.  The joint distribution of (current state,
accumulated capital) is a StateVector: a map from transient state id
to a CappedPolynomial over the chain's capital window.

`umbra_step` advances that distribution one round and splits off the
mass that lands in absorbing states.  `run_absorption` iterates it
for a fixed horizon and collects everything into an AbsorptionRecord:
one polynomial per (round, absorbing state), the unabsorbed residual,
and the total leftover mass epsilon.  A round scatters packed integer
rows over one shared denominator (Fractions appear only where the record
is read), so absorbed mass plus epsilon is exactly 1 at every horizon.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from typing import TYPE_CHECKING, Dict, Iterable, NamedTuple

from . import (  # re-exported: these have always been importable from here
    MAX_DENOMINATOR_BITS,
    MAX_RECORD_BITS,
    MAX_ROUNDS,
    MAX_WINDOW,
    ChainFormatError,
    InvalidChainError,
    RecordTooLargeError,
    UsageError,
    decode_json,
    is_int,
)

if TYPE_CHECKING:  # only a run loads `capchain.poly`: see `umbra_step` and `run_absorption`
    from .poly import CappedPolynomial

StateVector = Dict[str, "CappedPolynomial"]


class Edge(NamedTuple):
    """One transition: src --(prob, weight)--> dst; a chain stores prob as a Fraction."""

    src: str
    dst: str
    prob: Fraction
    weight: int


class WeightedMarkovChain(namedtuple("WeightedMarkovChain", "transient absorbing edges support")):
    """A sound chain: constructing an unsound one raises InvalidChainError.

    Fields: `transient` and `absorbing` state ids, `edges` (each prob made
    a Fraction) and the capital window `support` as (lo, hi).
    """

    def __new__(
        cls, transient: Iterable[str], absorbing: Iterable[str], edges: Iterable[Edge], support: tuple[int, int]
    ) -> WeightedMarkovChain:
        exact, unreadable = [], []
        for index, (src, dst, prob, weight) in enumerate(edges):
            try:
                prob = Fraction(prob)
            except (TypeError, ValueError, ArithmeticError):  # not a number, or "1/0"
                unreadable.append(f"edge[{index}] {src!r}->{dst!r}: probability {prob!r} is not a number")
            exact.append(Edge(src, dst, prob, weight))
        if unreadable:  # `validate` compares probabilities, so these are all it can be told
            raise InvalidChainError(unreadable)
        self = super().__new__(cls, tuple(transient), tuple(absorbing), tuple(exact), tuple(support))
        violations = self.validate()
        if violations:
            raise InvalidChainError(violations)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    @cached_property
    def transient_set(self) -> frozenset[str]:
        return frozenset(self.transient)

    @cached_property
    def absorbing_set(self) -> frozenset[str]:
        return frozenset(self.absorbing)

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        """Outgoing edges grouped by source state, in declaration order."""
        grouped: dict[str, list[Edge]] = {state: [] for state in self.transient}
        for edge in self.edges:
            grouped.setdefault(edge.src, []).append(edge)
        return {state: tuple(edges) for state, edges in grouped.items()}

    @cached_property
    def _scatter_plan(self) -> tuple[int, dict[str, list[tuple[str, int, int]]]]:
        """D, the lcm of the edge denominators, and per source (dst, prob * D, weight)."""
        scale = lcm(*(edge.prob.denominator for edge in self.edges))
        return scale, {
            state: [(edge.dst, int(edge.prob * scale), edge.weight) for edge in edges]
            for state, edges in self.out_edges.items()
        }

    def validate(self) -> list[str]:
        """Return human-readable invariant violations, empty when the chain is sound."""
        ids = (*self.transient, *self.absorbing, *(end for edge in self.edges for end in edge[:2]))
        strange = dict.fromkeys(repr(state) for state in ids if not isinstance(state, str))
        if strange:  # the checks below look ids up in sets
            return [f"state id {text} is not a string" for text in strange]
        violations: list[str] = []
        seen: set[str] = set()
        for state in self.transient + self.absorbing:
            if state in seen:
                violations.append(f"state {state!r} declared more than once")
            seen.add(state)
        lo, hi = self.support
        if not (is_int(lo) and is_int(hi)):
            violations.append(f"capital support ({lo!r}, {hi!r}) must be two integers")
        elif lo > hi:
            violations.append(f"inverted capital support [{lo}, {hi}]")
        elif hi - lo + 1 > MAX_WINDOW:
            violations.append(f"capital window [{lo}, {hi}] exceeds the {MAX_WINDOW}-cell limit")
        if not self.transient:
            violations.append("chain has no transient state")
        if not self.absorbing:
            violations.append("chain has no absorbing state")

        totals: dict[str, Fraction] = {state: Fraction(0) for state in self.transient}
        scale = 1
        for index, edge in enumerate(self.edges):
            if scale.bit_length() <= MAX_DENOMINATOR_BITS:  # past the limit it stays past
                scale = lcm(scale, edge.prob.denominator)
            label = f"edge[{index}] {edge.src!r}->{edge.dst!r}"
            if not 0 < edge.prob <= 1:
                # Never summed, and printed only when short: an input number can be too long to print.
                short = max(abs(edge.prob.numerator), edge.prob.denominator).bit_length() <= MAX_DENOMINATOR_BITS
                shown = f"probability {edge.prob}" if short else "probability"
                problem = "is not positive" if edge.prob <= 0 else "exceeds 1"
                violations.append(f"{label}: {shown} {problem}")
                totals.pop(edge.src, None)
            if not is_int(edge.weight):
                violations.append(f"{label}: weight {edge.weight!r} is not an integer")
            if edge.src in self.absorbing_set:
                violations.append(
                    f"{label}: absorbing state {edge.src!r} has an outgoing edge"
                )
            elif edge.src not in self.transient_set:
                violations.append(f"{label}: source state is not declared")
            elif edge.src in totals and scale.bit_length() <= MAX_DENOMINATOR_BITS:  # finer sums cost as much as a run
                totals[edge.src] += edge.prob
            if edge.dst not in self.transient_set and edge.dst not in self.absorbing_set:
                violations.append(f"{label}: destination state is not declared")
        if scale.bit_length() > MAX_DENOMINATOR_BITS:
            violations.append(
                f"the lcm of the edge probability denominators exceeds the "
                f"{MAX_DENOMINATOR_BITS}-bit limit"
            )
            return violations  # the sums stopped short of the last edges
        for state, total in totals.items():
            if total != 1:
                violations.append(
                    f"state {state!r}: outgoing probabilities sum to {total}, expected 1"
                )
        return violations


def umbra_step(
    chain: WeightedMarkovChain, state_vector: StateVector
) -> tuple[StateVector, dict[str, CappedPolynomial]]:
    """Advance the joint (state, capital) distribution by one round.

    Every entry of the state vector is scattered along its outgoing
    edges: scaled by the edge probability and shifted (with clamping)
    by the edge weight.  Returns the next transient state vector and
    the mass absorbed during this round, keyed by absorbing state.
    Both sides drop all-zero polynomials, and the total mass of input
    equals the total mass of the two outputs exactly.  The packed
    arithmetic is `capchain.poly.scatter`, over the edge probabilities
    as integers over their lcm; this function checks the input and
    splits the landed rows into the two sides.
    """
    from .poly import scatter

    lo, hi = chain.support
    for src, poly in state_vector.items():
        if src not in chain.transient_set:
            raise ValueError(f"state vector entry {src!r} is not a transient state")
        if poly.support_min != lo or poly.support_max != hi:
            raise ValueError(
                f"state {src!r}: polynomial support {poly.support} does not match "
                f"chain support {chain.support}"
            )
    scale, plan = chain._scatter_plan
    landed = scatter(state_vector, plan, scale, chain.support)
    absorbed = {state: landed.pop(state) for state in chain.absorbing if state in landed}
    return landed, absorbed


class AbsorptionRecord(NamedTuple):
    """Everything a fixed-horizon absorption run produced.

    `absorbed` maps (round, absorbing state) to the capital polynomial
    of the mass that arrived there in that round; rounds are 1-based.
    `residual` is the still-transient state vector after the final
    round and `epsilon` is its total mass, so absorbed mass plus
    epsilon is exactly 1.
    """

    absorbed: dict[tuple[int, str], CappedPolynomial]
    rounds_run: int
    residual: StateVector
    epsilon: Fraction
    support: tuple[int, int]

    def conditional(self) -> "AbsorptionRecord":
        """Condition on absorption within the horizon.

        Scales every absorbed polynomial by 1/(1 - epsilon) and drops
        the residual, so the returned record has total mass exactly 1.
        Raises UsageError when nothing was absorbed at all.
        """
        if self.epsilon == 1:
            raise UsageError("no mass was absorbed; cannot condition on absorption")
        if self.epsilon == 0:
            return self
        factor = 1 / (1 - self.epsilon)
        absorbed = {key: poly.scale(factor) for key, poly in self.absorbed.items()}
        return self._replace(absorbed=absorbed, residual={}, epsilon=Fraction(0))


def run_absorption(
    chain: WeightedMarkovChain, start: str, rounds: int, max_record_bits: float = inf
) -> AbsorptionRecord:
    """Run `rounds` umbral steps from `start` and collect the full record.

    The walk starts with probability 1 in `start`, holding 0 units
    clamped into the support window.  Raises UsageError for a start that
    is not a transient state or a horizon that is not an int in
    1..MAX_ROUNDS, and RecordTooLargeError once the absorbed rows hold
    more than `max_record_bits` stored cells x denominator bits: that sum
    only grows, so the run stops at the first round that passes it.
    """
    if not (is_int(rounds) and 1 <= rounds <= MAX_ROUNDS):
        raise UsageError(f"horizon must be an integer between 1 and {MAX_ROUNDS}, got {rounds!r}")
    if not isinstance(start, str) or start not in chain.transient_set:
        raise UsageError(f"start state {start!r} is not a transient state of the chain")
    from .poly import CappedPolynomial

    lo, hi = chain.support
    vector: StateVector = {start: CappedPolynomial.monomial(min(max(0, lo), hi), 1, lo, hi)}
    absorbed: dict[tuple[int, str], CappedPolynomial] = {}
    size = 0
    for round_index in range(1, rounds + 1):
        vector, landed = umbra_step(chain, vector)
        for state, poly in landed.items():
            absorbed[(round_index, state)] = poly
            size += poly.stored_bits
        if size > max_record_bits:
            raise RecordTooLargeError(
                f"the full record holds at least {size} cells x denominator bits, over the {max_record_bits} limit"
            )
    epsilon = sum((poly.mass() for poly in vector.values()), Fraction(0))
    return AbsorptionRecord(absorbed, rounds, vector, epsilon, chain.support)


def chain_to_json_dict(chain: WeightedMarkovChain) -> dict:
    """Plain-dict form of a chain; probabilities become "p/q" strings."""
    lo, hi = chain.support
    return {
        "transient": list(chain.transient),
        "absorbing": list(chain.absorbing),
        "edges": [
            {
                "src": edge.src,
                "dst": edge.dst,
                "prob": str(edge.prob),
                "weight": edge.weight,
            }
            for edge in chain.edges
        ],
        "support": {"min": lo, "max": hi},
    }


def dumps_chain(chain: WeightedMarkovChain) -> str:
    return json.dumps(chain_to_json_dict(chain), indent=2) + "\n"


def _parse_prob(value: object, where: str) -> Fraction:
    # Floats are refused on purpose: a chain file is an exact artifact.
    if isinstance(value, bool) or isinstance(value, float):
        raise ChainFormatError(
            f"{where}: probability must be an exact \"p/q\" string or integer, "
            f"got {value!r}"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:  # Fraction("1e-9999999") builds 10**9999999 before any check
            raise ChainFormatError(f'{where}: probability text may not contain "e" or "E" (exponent notation)')
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ChainFormatError(f"{where}: {exc}") from None
    raise ChainFormatError(f"{where}: probability has unsupported type {type(value).__name__}")


def chain_from_json_dict(data: object) -> WeightedMarkovChain:
    """Decode the plain-dict chain form into a sound chain.

    This checks only the JSON shape: an object with the four keys, lists
    of states and edges, a support object with 'min' and 'max', each edge
    an object with its four keys and an exact probability.  It raises
    ChainFormatError on the first shape problem, before any chain is built.
    The constructor owns every field rule (string state ids, integer
    weights and support bounds, ...) and raises InvalidChainError with
    every broken one.  Unknown keys (for example an advisory "start") are
    ignored.
    """
    if not isinstance(data, dict):
        raise ChainFormatError("chain document must be a JSON object")
    for key in ("transient", "absorbing", "edges", "support"):
        if key not in data:
            raise ChainFormatError(f"chain document is missing {key!r}")
    for key in ("transient", "absorbing"):
        if not isinstance(data[key], list):
            raise ChainFormatError(f"{key!r} must be a list of state ids")
    support = data["support"]
    if not isinstance(support, dict) or not {"min", "max"} <= support.keys():
        raise ChainFormatError("'support' must be an object with integer 'min' and 'max'")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ChainFormatError("'edges' must be a list")
    edges = []
    for index, item in enumerate(raw_edges):
        where = f"edges[{index}]"
        if not isinstance(item, dict):
            raise ChainFormatError(f"{where}: must be an object")
        for key in ("src", "dst", "prob", "weight"):
            if key not in item:
                raise ChainFormatError(f"{where}: missing {key!r}")
        edges.append(Edge(item["src"], item["dst"], _parse_prob(item["prob"], f"{where}.prob"), item["weight"]))
    return WeightedMarkovChain(
        transient=data["transient"],
        absorbing=data["absorbing"],
        edges=tuple(edges),
        support=(support["min"], support["max"]),
    )


def loads_chain(text: str) -> WeightedMarkovChain:
    """Decode a chain from JSON text."""
    return chain_from_json_dict(decode_json(text, ChainFormatError))
