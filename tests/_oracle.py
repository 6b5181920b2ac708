"""Brute-force reference implementations, independent of the package.

Everything here recomputes absorption runs from first principles:
recursively enumerate every sequence of edge choices, multiply the
probabilities along the way, clamp the running capital by hand, and
bucket the outcomes.  Nothing imports the polynomial or chain
machinery, so agreement between the two is evidence, not tautology.

A chain is passed as plain data: lists of state ids, a list of
(src, dst, prob, weight) tuples, and a (lo, hi) support window.
Distributions come back as nested dicts mapping capital -> Fraction.
A game board is its square labels, squares 1..N+1 in order: "0" for an
empty square, an animal tag, and the terminal "*" last.

`SplitMix64` and `play_once` are the scalar replay of the seeded
simulator: `play_once(spec, SplitMix64.stream(seed, t), round_cap)`
plays trial t of any `simulate` batch one spin at a time, with its own
copy of the generator, so the packed lockstep kernel is checked against
code it shares nothing with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def clamp(value: int, lo: int, hi: int) -> int:
    return min(max(value, lo), hi)


def brute_force_record(
    transient: list[str],
    absorbing: list[str],
    edges: list[tuple[str, str, Fraction, int]],
    support: tuple[int, int],
    start: str,
    rounds: int,
    initial_capital: int | None = None,
):
    """Absorption run by exhaustive path enumeration.

    Returns (absorbed, residual, epsilon): absorbed maps
    (round, absorbing state) -> {capital: probability}, residual maps
    transient state -> {capital: probability} after the last round,
    and epsilon is the total residual probability.
    """
    lo, hi = support
    if initial_capital is None:
        initial_capital = clamp(0, lo, hi)
    outgoing: dict[str, list[tuple[str, Fraction, int]]] = {}
    for src, dst, prob, weight in edges:
        outgoing.setdefault(src, []).append((dst, prob, weight))
    absorbing_set = set(absorbing)

    absorbed: dict[tuple[int, str], dict[int, Fraction]] = {}
    residual: dict[str, dict[int, Fraction]] = {}

    def walk(state: str, capital: int, probability: Fraction, depth: int) -> None:
        if depth == rounds:
            bucket = residual.setdefault(state, {})
            bucket[capital] = bucket.get(capital, Fraction(0)) + probability
            return
        for dst, prob, weight in outgoing.get(state, []):
            landed = clamp(capital + weight, lo, hi)
            branch = probability * prob
            if dst in absorbing_set:
                bucket = absorbed.setdefault((depth + 1, dst), {})
                bucket[landed] = bucket.get(landed, Fraction(0)) + branch
            else:
                walk(dst, landed, branch, depth + 1)

    walk(start, initial_capital, Fraction(1), 0)
    epsilon = sum(
        (prob for bucket in residual.values() for prob in bucket.values()),
        Fraction(0),
    )
    return absorbed, residual, epsilon


def random_chain_data(rng: random.Random, max_states: int = 5):
    """A random small absorbing chain as plain data.

    At most max_states states total, 1..3 outgoing edges per transient
    state with exact probabilities (random positive integers over their
    sum), integer weights in [-3, 4], and a small support window
    containing 0 or not, to exercise the initial-capital clamp.
    """
    n_transient = rng.randint(1, max_states - 1)
    n_absorbing = rng.randint(1, max_states - n_transient)
    transient = [f"t{i}" for i in range(n_transient)]
    absorbing = [f"a{i}" for i in range(n_absorbing)]
    states = transient + absorbing
    lo = rng.randint(-3, 1)
    hi = lo + rng.randint(1, 7)
    edges = []
    for src in transient:
        count = rng.randint(1, 3)
        numerators = [rng.randint(1, 6) for _ in range(count)]
        total = sum(numerators)
        for numerator in numerators:
            edges.append(
                (
                    src,
                    rng.choice(states),
                    Fraction(numerator, total),
                    rng.randint(-3, 4),
                )
            )
    return transient, absorbing, edges, (lo, hi)


def matches(label: str, animal: str) -> bool:
    """True when a square labelled `label` stops a piece moved by `animal` (the terminal stops all)."""
    return label == "*" or label == animal


def next_location(squares: list[str], square: int, animal: str) -> int:
    """The game rule: the smallest square after `square` whose label matches `animal`."""
    for target in range(square + 1, len(squares) + 1):
        if matches(squares[target - 1], animal):
            return target
    raise ValueError(f"no square after {square} matches {animal!r}")


def longest_animal_only_path(
    moves: dict[int, list[int]], start: int, terminal: int
) -> int:
    """Most spins an animal-only (no-fox) game can take.

    Memoized DFS; every move strictly advances the square, so the move
    graph is acyclic and the maximum is finite.
    """
    depths = {terminal: 0}

    def depth(square: int) -> int:
        if square not in depths:
            depths[square] = 1 + max(depth(target) for target in moves[square])
        return depths[square]

    return depth(start)


class SplitMix64:
    """Deterministic 64-bit PRNG: state walks by a golden-ratio step, output is mixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    @staticmethod
    def mix(value: int) -> int:
        """SplitMix64's finalizer: avalanche a 64-bit value."""
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
        return value ^ (value >> 31)

    @classmethod
    def stream(cls, seed: int, index: int) -> "SplitMix64":
        """The index-th independent substream of a seeded run."""
        return cls(cls.mix((seed + index * _GOLDEN) & _MASK))

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return self.mix(self.state)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        limit = _MASK + 1 - (_MASK + 1) % bound
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


def play_once(spec, rng, round_cap: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Play one game of a `GameSpec` to the terminal; returns (rounds, final chicks).

    Spins are uniform over the K+1 outcomes: 0 is the fox (lose one
    chick, floor at zero, stay put), outcome k moves by animal k.
    Chicks are clamped to [0, win_threshold] throughout.  With a
    round_cap, a game still unfinished after that many spins is
    abandoned and None is returned (a censored trial).
    """
    moves = spec.moves
    terminal = spec.terminal_square
    cap = spec.win_threshold
    faces = len(spec.animals) + 1
    square = 1
    chicks = 0
    rounds = 0
    while round_cap is None or rounds < round_cap:
        outcome = rng.randbelow(faces)
        rounds += 1
        if outcome == 0:
            if chicks:
                chicks -= 1
            continue
        target, gain = moves[square][outcome - 1]
        chicks = min(chicks + gain, cap)
        if target == terminal:
            return rounds, chicks
        square = target
    return None
