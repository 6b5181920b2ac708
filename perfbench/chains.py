"""Seeded random chain documents for the chain-random workload.

Each document is a plain JSON chain (the format `capchain analyze FILE`
reads) with a fixed shape, so documents drawn from different seeds cost
about the same to analyze:

- 24 transient states and 3 absorbing states;
- capital window [-10, 30], so negative cells and both clamps are used;
- out-degrees 2, 3 and 4, eight states each, shuffled;
- 8 of the edges lead to absorbing states;
- each state splits its own denominator q into positive numerators; the
  q are 7..18, each used twice, so probability denominators are large
  and mostly coprime.

A draw is rejected and redrawn when the chain is not valid, when its
transient graph has no cycle, when a transient state is unreachable from
the start, when the start cannot reach an absorbing state within the
horizon (nothing would be absorbed), or when the lcm of its edge
denominators is 6 or less.  These keep the workload on what it was
chosen for: the acyclic infinite-horizon solver does not apply, and a
kernel tuned for the game's denominator 6 is tested on a large common
denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import inf, lcm

PARAMETERS = {
    "transient": 24,
    "absorbing": 3,
    "support": [-10, 30],
    "out_degrees": [2, 3, 4],
    "denominator_range": [7, 18],
    "weight_range": [-4, 5],
    "absorbing_edges": 8,
    "horizon": 40,
}


def _draw(rng: random.Random) -> dict:
    p = PARAMETERS
    transient = [f"s{i}" for i in range(p["transient"])]
    absorbing = [f"a{i}" for i in range(p["absorbing"])]
    degrees = [d for d in p["out_degrees"] for _ in range(p["transient"] // len(p["out_degrees"]))]
    rng.shuffle(degrees)
    lo_q, hi_q = p["denominator_range"]
    denominators = list(range(lo_q, hi_q + 1)) * 2  # one per transient state
    rng.shuffle(denominators)
    lo_w, hi_w = p["weight_range"]
    slots = sum(degrees)
    absorbing_slots = set(rng.sample(range(slots), p["absorbing_edges"]))
    edges = []
    for src, degree, q in zip(transient, degrees, denominators):
        cuts = sorted(rng.sample(range(1, q), degree - 1))
        numerators = [b - a for a, b in zip([0] + cuts, cuts + [q])]
        targets = rng.sample(transient, degree)
        for index in range(degree):
            if len(edges) + index in absorbing_slots:
                targets[index] = rng.choice(absorbing)
        for numerator, dst in zip(numerators, targets):
            edges.append(
                {
                    "src": src,
                    "dst": dst,
                    "prob": str(Fraction(numerator, q)),
                    "weight": rng.randint(lo_w, hi_w),
                }
            )
    lo, hi = p["support"]
    return {
        "transient": transient,
        "absorbing": absorbing,
        "edges": edges,
        "support": {"min": lo, "max": hi},
        "start": transient[0],
    }


def _problems(doc: dict) -> list[str]:
    """Why a drawn document does not serve the workload; empty when it does."""
    problems = []
    transient = set(doc["transient"])
    absorbing = set(doc["absorbing"])
    out: dict[str, list[str]] = {state: [] for state in transient}
    totals: dict[str, Fraction] = {state: Fraction(0) for state in transient}
    denominators = []
    for edge in doc["edges"]:
        prob = Fraction(edge["prob"])
        if prob <= 0:
            problems.append("non-positive probability")
        out[edge["src"]].append(edge["dst"])
        totals[edge["src"]] += prob
        denominators.append(prob.denominator)
    if any(total != 1 for total in totals.values()):
        problems.append("probabilities do not sum to 1")
    if lcm(*denominators) <= 6:
        problems.append("edge-denominator lcm <= 6")
    if not _has_transient_cycle(out, transient):
        problems.append("transient graph is acyclic")
    distances = _distances(out, doc["start"])
    if not transient <= distances.keys():
        problems.append("some transient state is unreachable from the start")
    if min((distances.get(state, inf) for state in absorbing), default=inf) > PARAMETERS["horizon"]:
        problems.append("start cannot be absorbed within the horizon")
    return problems


def _has_transient_cycle(out: dict[str, list[str]], transient: set[str]) -> bool:
    colour: dict[str, int] = {}

    def visit(state: str) -> bool:
        colour[state] = 1
        for nxt in out[state]:
            if nxt not in transient:
                continue
            if colour.get(nxt) == 1 or (nxt not in colour and visit(nxt)):
                return True
        colour[state] = 2
        return False

    return any(state not in colour and visit(state) for state in sorted(transient))


def _distances(out: dict[str, list[str]], start: str) -> dict[str, int]:
    """Breadth-first step counts from `start` to every state it reaches."""
    distances, frontier = {start: 0}, [start]
    while frontier:
        following = []
        for state in frontier:
            for nxt in out.get(state, ()):
                if nxt not in distances:
                    distances[nxt] = distances[state] + 1
                    following.append(nxt)
        frontier = following
    return distances


def generate(seed: int, count: int) -> list[dict]:
    """`count` documents for `seed`; the same seed gives the same documents."""
    rng = random.Random(f"chain-random/{seed}")
    documents: list[dict] = []
    while len(documents) < count:
        doc = _draw(rng)
        if not _problems(doc):
            doc["generator"] = {"seed": seed, "index": len(documents), **PARAMETERS}
            documents.append(doc)
    return documents
