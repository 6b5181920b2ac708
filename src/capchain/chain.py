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
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Sequence

from . import (  # re-exported: these have always been importable from here
    MAX_DENOMINATOR_BITS,
    MAX_INTEGER,
    MAX_RECORD_BITS,
    MAX_ROUNDS,
    MAX_WINDOW,
    ChainFormatError,
    InvalidChainError,
    RecordTooLargeError,
    UsageError,
    check_rounds,
    decode_json,
    is_int,
    shown,
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

    Fields, each a list or a tuple: `transient` and `absorbing` state ids,
    `edges` (each prob made a Fraction) and the capital window `support`
    as (lo, hi).  A probability is an exact number: an int, a Fraction or
    a "p/q" string, never a float or a bool.
    """

    def __new__(
        cls, transient: Sequence[str], absorbing: Sequence[str], edges: Sequence[Edge], support: tuple[int, int]
    ) -> WeightedMarkovChain:
        # Each field's shape first, with no field expanded (a `str` in a list's place is never read
        # id by id), then each probability read; every problem here is reported, none echoes a field.
        problems = []
        for name, ids in (("transient", transient), ("absorbing", absorbing)):
            if not isinstance(ids, (list, tuple)):
                problems.append(f"{name!r} must be a list of state ids")
        if not isinstance(edges, (list, tuple)):
            problems.append("'edges' must be a list")
            edges = ()
        exact = []
        for index, edge in enumerate(edges):
            if not (isinstance(edge, (list, tuple)) and len(edge) == 4):
                problems.append(f"edge[{index}]: must have four fields (src, dst, prob, weight)")
                continue
            src, dst, prob, weight = edge
            problem = None
            if isinstance(prob, (bool, float)):  # a chain is exact: 0.1 would read as 3602879701896397/2**55
                problem = f'probability {shown(prob)} is not exact: give an integer or a "p/q" string'
            elif isinstance(prob, str) and ("e" in prob or "E" in prob):  # Fraction("1e-9999999") builds 10**9999999
                problem = 'probability text may not contain "e" or "E" (exponent notation)'
            else:
                try:
                    prob = Fraction(prob)
                except (TypeError, ValueError, ArithmeticError):  # not a number, or "1/0"
                    problem = f"probability {shown(prob)} is not a number"
            if problem:
                problems.append(f"edge[{index}] {shown(src)}->{shown(dst)}: {problem}")
            exact.append(Edge(src, dst, prob, weight))
        if not (isinstance(support, (list, tuple)) and len(support) == 2):
            problems.append("capital support must be a (min, max) pair")
        if problems:  # `validate` reads shaped fields and compares probabilities, so these are all it can be told
            raise InvalidChainError(problems)
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
    def _scatter_plan(self) -> Optional[tuple[int, dict[str, list[tuple[str, int, int]]]]]:
        """D, the lcm of the edge denominators, and per source (dst, p * (D // q), weight); None past the bit limit."""
        scale = 1
        for edge in self.edges:
            scale = lcm(scale, edge.prob.denominator)
            if scale.bit_length() > MAX_DENOMINATOR_BITS:
                return None
        return scale, {
            state: [(edge.dst, edge.prob.numerator * (scale // edge.prob.denominator), edge.weight) for edge in edges]
            for state, edges in self.out_edges.items()
        }

    def validate(self) -> list[str]:
        """Return human-readable invariant violations, empty when the chain is sound."""
        ids = (*self.transient, *self.absorbing, *(end for edge in self.edges for end in edge[:2]))
        strange = dict.fromkeys(shown(state) for state in ids if not isinstance(state, str))
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
            violations.append(f"capital support ({shown(lo)}, {shown(hi)}) must be two integers")
        elif max(abs(lo), abs(hi)) > MAX_INTEGER:
            violations.append(f"a capital support bound lies outside ±{MAX_INTEGER}")
        elif lo > hi:
            violations.append(f"inverted capital support [{lo}, {hi}]")
        elif hi - lo + 1 > MAX_WINDOW:
            violations.append(f"capital window [{lo}, {hi}] exceeds the {MAX_WINDOW}-cell limit")
        if not self.transient:
            violations.append("chain has no transient state")
        if not self.absorbing:
            violations.append("chain has no absorbing state")

        summed = dict.fromkeys(self.transient)  # the sources whose probabilities all lie in (0, 1]
        for index, edge in enumerate(self.edges):
            label = f"edge[{index}] {edge.src!r}->{edge.dst!r}"
            if not 0 < edge.prob <= 1:
                # Never summed, and printed only when short: an input number can be too long to print.
                short = max(abs(edge.prob.numerator), edge.prob.denominator).bit_length() <= MAX_DENOMINATOR_BITS
                named = f"probability {edge.prob}" if short else "probability"
                problem = "is not positive" if edge.prob <= 0 else "exceeds 1"
                violations.append(f"{label}: {named} {problem}")
                summed.pop(edge.src, None)
            if not is_int(edge.weight):
                violations.append(f"{label}: weight {shown(edge.weight)} is not an integer")
            elif abs(edge.weight) > MAX_INTEGER:
                violations.append(f"{label}: weight lies outside ±{MAX_INTEGER}")
            if edge.src in self.absorbing_set:
                violations.append(
                    f"{label}: absorbing state {edge.src!r} has an outgoing edge"
                )
            elif edge.src not in self.transient_set:
                violations.append(f"{label}: source state is not declared")
            if edge.dst not in self.transient_set and edge.dst not in self.absorbing_set:
                violations.append(f"{label}: destination state is not declared")
        plan = self._scatter_plan
        if plan is None:  # no sums: over so fine a D they cost as much as a run
            violations.append(f"the lcm of the edge probability denominators exceeds the {MAX_DENOMINATOR_BITS}-bit limit")
            return violations
        scale, moves = plan
        for state in summed:
            total = sum(numerator for _, numerator, _ in moves[state])
            if total != scale:
                violations.append(
                    f"state {state!r}: outgoing probabilities sum to {Fraction(total, scale)}, expected 1"
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
    check_rounds(rounds)
    if not isinstance(start, str) or start not in chain.transient_set:
        raise UsageError(f"start state {shown(start)} is not a transient state of the chain")
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
        "edges": [{**edge._asdict(), "prob": str(edge.prob)} for edge in chain.edges],
        "support": {"min": lo, "max": hi},
    }


def dumps_chain(chain: WeightedMarkovChain) -> str:
    return json.dumps(chain_to_json_dict(chain), indent=2) + "\n"


def chain_from_json_dict(data: object) -> WeightedMarkovChain:
    """Decode the plain-dict chain form into a sound chain.

    This checks only what the JSON encoding adds: an object with the four
    keys, a support object with 'min' and 'max', and each edge an object
    with its four keys.  It raises ChainFormatError on the first such
    problem, before any chain is built.  The constructor owns every rule
    of the fields themselves (lists of string state ids and of edges, each
    probability an exact number, 64-bit integer weights and support
    bounds, ...) and raises InvalidChainError with every broken one.
    Unknown keys (for example an advisory "start") are ignored.
    """
    if not isinstance(data, dict):
        raise ChainFormatError("chain document must be a JSON object")
    for key in WeightedMarkovChain._fields:
        if key not in data:
            raise ChainFormatError(f"chain document is missing {key!r}")
    support = data["support"]
    if not isinstance(support, dict) or not {"min", "max"} <= support.keys():
        raise ChainFormatError("'support' must be an object with integer 'min' and 'max'")
    edges = data["edges"]
    if isinstance(edges, list):  # anything else is the constructor's to refuse
        for index, item in enumerate(edges):
            if not isinstance(item, dict):
                raise ChainFormatError(f"edges[{index}]: must be an object")
            for key in Edge._fields:
                if key not in item:
                    raise ChainFormatError(f"edges[{index}]: missing {key!r}")
        edges = [Edge(*(item[key] for key in Edge._fields)) for item in edges]
    return WeightedMarkovChain(data["transient"], data["absorbing"], edges, (support["min"], support["max"]))


def loads_chain(text: str) -> WeightedMarkovChain:
    """Decode a chain from JSON text."""
    return chain_from_json_dict(decode_json(text, ChainFormatError))
