"""Seeded Monte Carlo play of a game board.

This is the empirical cross-check on the exact engine, so it shares no
machinery with it: no polynomials, no chains, just the game's move
table (`GameSpec.moves`) executed with sampled spins.

The generator is SplitMix64: a counter bumped by a fixed odd constant,
output through its finalizer, an avalanching bit mixer.  The algorithm
is a dozen lines, so a given (seed, trials) reproduces bit-for-bit on
every platform and Python version.  Each trial mixes its own stream out
of (seed, trial index), so results do not depend on how trials are
batched, and the reduction is exact until the end.

`simulate` plays LANES (2048) trials in lockstep, each lane's generator
state a 128-bit slot of one packed int, so one pass of big-int
arithmetic draws twice for every lane.  The scalar replay of trial t,
one spin at a time, lives with the tests (`tests/_oracle.py`); they
hold the two to equal reports, at any LANES.
"""

from __future__ import annotations

import struct
from collections import Counter
from functools import cache
from math import sqrt
from typing import NamedTuple, Optional

from . import UsageError, is_int
from .game import GameSpec

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
LANES = 2048  # trials `simulate` plays in lockstep


class SimulationReport(NamedTuple):
    """Empirical outcome of a seeded batch of plays.

    Histograms and moments cover completed trials; a censored trial
    (round cap hit) has no final capital, so it only bumps `censored`.
    Moment fields are None when every trial was censored.
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


def _step_table(spec: GameSpec) -> list[tuple[int, int]]:
    """The move table as one flat list over (square, spin outcome).

    Row `slot * (2 * faces + 1)` is the slot-th square of `spec.moves` (the
    start is row 0), written twice, then one no-op entry; adding a spin
    outcome, or it plus faces, gives (next row, chick change): the fox
    stays put at -1, and a move reaching the terminal has next row -1.
    Adding 2 * faces gives (same row, 0), the step a redrawn spin takes.
    """
    faces = len(spec.animals) + 1
    row = {square: slot * (2 * faces + 1) for slot, square in enumerate(spec.moves)}
    row[spec.terminal_square] = -1
    table: list[tuple[int, int]] = []
    for square, moves in spec.moves.items():
        entries = [(row[square], -1), *((row[target], gain) for target, gain in moves)]
        table += entries + entries + [(row[square], 0)]
    return table


@cache  # simulate asks for powers of two up to LANES, each built on first use
def _lanes(count: int) -> tuple[int, int, int, int, int, struct.Struct, struct.Struct]:
    """Constants for `count` lanes packed into one int, 128 bits a lane.

    `rep` (1 in every slot), `rep` at each slot's bit 64 (where a carry
    out of the low half lands), `rep` times the 64-bit mask and the golden
    step, the ramp (slot i holds i golden steps) and the codecs of the
    slots' low and high halves.
    """
    rep = int.from_bytes((b"\1" + bytes(15)) * count, "little")
    low, high = struct.Struct("<" + "Q8x" * count), struct.Struct("<" + "8xQ" * count)
    ramp = int.from_bytes(low.pack(*range(count)), "little") * _GOLDEN
    return rep, rep << 64, rep * _MASK, rep * _GOLDEN, ramp, low, high


def _mix_lanes(value: int, m64: int) -> int:
    """SplitMix64's finalizer on every slot of a packed int at once; high halves take the products."""
    value = ((value ^ (value >> 30)) & m64) * _MIX1 & m64
    value = ((value ^ (value >> 27)) & m64) * _MIX2 & m64
    return value ^ ((value >> 31) & m64)


def simulate(spec: GameSpec, trials: int, seed: int, round_cap: int = 600) -> SimulationReport:
    """Play `trials` independent seeded games and reduce to a report.

    Trial t draws from the SplitMix64 stream seeded with the finalizer
    of seed + t * golden, so the report is a pure function of (spec,
    trials, seed, round_cap).  Trials play LANES at a time in lockstep,
    two draws a pass: two `_mix_lanes` draw for every lane, one carry test
    finds the rare draws at or above the rejection limit, and
    draw * (2**64 // faces) >> 64, which is draw // faces or one less,
    leaves each slot its spin or its spin plus faces.  The second draw's
    spins go in the slots' high halves, so one `to_bytes` reads both.  A
    redrawn spin reads the table's no-op entry.  A live lane plays both
    steps in one iteration, each one lookup in `_step_table` and one in a
    clamp list.  A lane's rounds are the batch's steps less its redraws;
    a finished lane is tallied as the int rounds * (cap + 1) + chicks, and
    one that finished in round round_cap + 1, on the second step of the
    pass that passed the cap, counts as censored.  At half the slots live
    or fewer, lanes repack into the next power of two slots.
    """
    if not (is_int(trials) and trials >= 1):
        raise UsageError(f"trials must be an integer >= 1, got {trials!r}")
    for name, value in (("seed", seed), ("round_cap", round_cap)):
        if not is_int(value):
            raise UsageError(f"{name} must be an integer, got {value!r}")
    table = _step_table(spec)
    faces, cap = len(spec.animals) + 1, spec.win_threshold
    magic, redrawn = (_MASK + 1) // faces, 2 * faces
    limit = faces * magic  # the largest multiple of faces within 2**64: draws at or above it are redrawn
    # clamp[chicks + change] is in [0, cap]; -1 reads the last entry; a gain is at most cap + 1
    clamp = [*range(cap + 1), *[cap] * (cap + 1), 0]
    outcomes: Counter[int] = Counter()  # rounds * (cap + 1) + chicks: finished lanes
    censored = 0 if round_cap > 0 else trials  # a cap below one spin censors every trial
    for first in range(0, trials if round_cap > 0 else 0, LANES):
        live = list(range(min(LANES, trials - first)))
        rows, held, redraws = ([0] * len(live) for _ in range(3))  # per lane: row, chicks, redraws
        width = 1 << (len(live) - 1).bit_length()
        rep, carries, m64, step, ramp, low, high = _lanes(width)  # lane i draws from stream first + i
        reject = rep * (_MASK + 1 - limit)
        state = _mix_lanes((rep * ((seed + first * _GOLDEN) & _MASK) + ramp) & m64, m64)
        steps, finished = 0, []
        while live:
            if 2 * len(live) <= width:
                states = low.unpack(state.to_bytes(16 * width, "little"))
                width = 1 << (len(live) - 1).bit_length()
                rep, carries, m64, step, _, low, high = _lanes(width)
                reject = rep * (_MASK + 1 - limit)
                kept, rows, held, redraws = ([c[lane] for lane in live] for c in (states, rows, held, redraws))
                state = int.from_bytes(low.pack(*kept, *[0] * (width - len(kept))), "little")
                live = list(range(len(live)))
            state = (state + step) & m64
            one = _mix_lanes(state, m64)
            state = (state + step) & m64
            two = _mix_lanes(state, m64)
            spins = (one - (one * magic >> 64 & m64) * faces) + ((two - (two * magic >> 64 & m64) * faces) << 64)
            spins = spins.to_bytes(16 * width, "little")
            spin1, spin2 = low.unpack(spins), high.unpack(spins)
            steps += 2
            if ((one + reject) | (two + reject)) & carries:  # a redraw advances the stream, not the round
                draws = (one + (two << 64)).to_bytes(16 * width, "little")
                draw1, draw2 = low.unpack(draws), high.unpack(draws)
                spin1, spin2 = list(spin1), list(spin2)
                for lane in live:
                    if draw1[lane] >= limit:
                        spin1[lane] = redrawn
                        redraws[lane] += 1
                    if draw2[lane] >= limit:  # counts only if the first draw left the lane live
                        spin2[lane] = redrawn
                        redraws[lane] += table[rows[lane] + spin1[lane]][0] >= 0
            stepping, live = live, []
            for lane in stepping:
                row, change = table[rows[lane] + spin1[lane]]
                chicks = clamp[held[lane] + change]
                if row < 0:
                    finished.append((steps - 1 - redraws[lane]) * (cap + 1) + chicks)
                    continue
                row, change = table[row + spin2[lane]]
                chicks = clamp[chicks + change]
                if row < 0:
                    finished.append((steps - redraws[lane]) * (cap + 1) + chicks)
                else:
                    rows[lane], held[lane] = row, chicks
                    live.append(lane)
            if steps >= round_cap:  # no lane has played more rounds than the batch has steps
                running = len(live)
                live = [lane for lane in live if steps - redraws[lane] < round_cap]
                censored += running - len(live)
        outcomes.update(finished)

    chick_histogram: dict[int, int] = {}
    rounds_histogram: dict[int, int] = {}
    sum_c = sum_cc = sum_r = sum_rr = sum_rc = 0
    for key, count in outcomes.items():
        rounds, chicks = divmod(key, cap + 1)
        if rounds > round_cap:  # finished on the second draw of the pass that passed the cap
            censored += count
            continue
        chick_histogram[chicks] = chick_histogram.get(chicks, 0) + count
        rounds_histogram[rounds] = rounds_histogram.get(rounds, 0) + count
        sum_c += count * chicks
        sum_cc += count * chicks * chicks
        sum_r += count * rounds
        sum_rr += count * rounds * rounds
        sum_rc += count * rounds * chicks

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
