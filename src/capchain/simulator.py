"""Seeded Monte Carlo play of a game board.

This is the empirical cross-check on the exact engine, so it shares no
machinery with it: no polynomials, no chains, just the game's move
table (`GameSpec.moves`) executed with sampled spins.

The generator is SplitMix64: a counter bumped by a fixed odd constant,
output through an avalanching bit mixer.  The whole algorithm is a
dozen lines and lives here, so a given (seed, trials) reproduces
bit-for-bit on every platform and Python version.  Each trial mixes
its own stream out of (seed, trial index); results therefore do not
depend on how trials might be batched across workers, and the
reduction (exact integer sums, converted to float once at the end) is
order-fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional

from .game import GameSpec

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64's finalizer: avalanche a 64-bit value."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


class SplitMix64:
    """Deterministic 64-bit PRNG: state walks by a golden-ratio step, output is mixed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    @classmethod
    def stream(cls, seed: int, index: int) -> "SplitMix64":
        """The index-th independent substream of a seeded run."""
        return cls(mix64((seed + index * _GOLDEN) & _MASK))

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        # Largest multiple of bound that fits in 64 bits; values at or
        # above it would favor small residues, so they are redrawn.
        limit = _MASK + 1 - (_MASK + 1) % bound
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound


def play_once(
    spec: GameSpec, rng: SplitMix64, round_cap: Optional[int] = None
) -> Optional[tuple[int, int]]:
    """Play one game to the terminal; returns (rounds, final chicks).

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


@dataclass(frozen=True)
class SimulationReport:
    """Empirical outcome of a seeded batch of plays.

    Histograms and moments cover completed trials; a censored trial
    (round cap hit) has no final capital to record, so it only bumps
    `censored`.  Histogram counts therefore sum to trials − censored,
    which is simply `trials` at any sane round cap.  Moment fields are
    None in the degenerate case where every trial was censored.
    """

    trials: int
    seed: int
    round_cap: int
    censored: int
    wins: int
    chick_mean: Optional[float]
    chick_variance: Optional[float]
    rounds_mean: Optional[float]
    rounds_variance: Optional[float]
    correlation: Optional[float]
    chick_histogram: dict[int, int]
    rounds_histogram: dict[int, int]

    @property
    def completed(self) -> int:
        return self.trials - self.censored

    def to_json_dict(self) -> dict:
        """Plain-dict form; histograms become sorted [value, count] pairs."""
        return {
            "trials": self.trials,
            "seed": self.seed,
            "round_cap": self.round_cap,
            "censored": self.censored,
            "completed": self.completed,
            "wins": self.wins,
            "chick_mean": self.chick_mean,
            "chick_variance": self.chick_variance,
            "rounds_mean": self.rounds_mean,
            "rounds_variance": self.rounds_variance,
            "correlation": self.correlation,
            "chick_histogram": [list(item) for item in sorted(self.chick_histogram.items())],
            "rounds_histogram": [list(item) for item in sorted(self.rounds_histogram.items())],
        }


def simulate(
    spec: GameSpec, trials: int, seed: int, round_cap: int = 600
) -> SimulationReport:
    """Play `trials` independent seeded games and reduce to a report.

    Trial t draws from SplitMix64.stream(seed, t), so the report is a
    pure function of (spec, trials, seed, round_cap) regardless of
    execution order.  All accumulators are exact integers; floats
    appear only in the final division.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    chick_histogram: dict[int, int] = {}
    rounds_histogram: dict[int, int] = {}
    sum_c = sum_cc = sum_r = sum_rr = sum_rc = 0
    censored = 0
    for index in range(trials):
        result = play_once(spec, SplitMix64.stream(seed, index), round_cap)
        if result is None:
            censored += 1
            continue
        rounds, chicks = result
        chick_histogram[chicks] = chick_histogram.get(chicks, 0) + 1
        rounds_histogram[rounds] = rounds_histogram.get(rounds, 0) + 1
        sum_c += chicks
        sum_cc += chicks * chicks
        sum_r += rounds
        sum_rr += rounds * rounds
        sum_rc += rounds * chicks

    n = trials - censored
    chick_mean = chick_variance = rounds_mean = rounds_variance = correlation = None
    if n:
        chick_mean = sum_c / n
        chick_variance = (sum_cc * n - sum_c * sum_c) / (n * n)
        rounds_mean = sum_r / n
        rounds_variance = (sum_rr * n - sum_r * sum_r) / (n * n)
        if chick_variance > 0 and rounds_variance > 0:
            covariance = (sum_rc * n - sum_r * sum_c) / (n * n)
            correlation = covariance / sqrt(chick_variance * rounds_variance)
    return SimulationReport(
        trials=trials,
        seed=seed,
        round_cap=round_cap,
        censored=censored,
        wins=chick_histogram.get(spec.win_threshold, 0),
        chick_mean=chick_mean,
        chick_variance=chick_variance,
        rounds_mean=rounds_mean,
        rounds_variance=rounds_variance,
        correlation=correlation,
        chick_histogram=dict(sorted(chick_histogram.items())),
        rounds_histogram=dict(sorted(rounds_histogram.items())),
    )
