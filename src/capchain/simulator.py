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
_PAIR_CELLS = 1 << 16  # most cells of a two-step table (its entries plus its per-gain chick lists), for memory


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


def _step_table(spec: GameSpec, most: int) -> tuple[list[tuple[int, int]], list[int], bool]:
    """The move table over the two steps of a pass, or over one; returns it, its chick list and which.

    A spin index is a spin outcome, it plus faces (the same move) or
    2 * faces, the no-op a redrawn spin plays: K = 2 * faces + 1 of them.
    In the two-step table entry `row + K * s1 + s2` is (next row, offset)
    after spins s1 then s2, the next row -1 if the second step reached the
    terminal and -2 if the first did; the new chicks are
    `chick_list[chicks + offset]`.  The list holds the clamp (where two
    changes of one sign read their sum), the clamp less one (a gain then
    the fox, read at the gain), one stretch per gain (the fox then it)
    and two zeros.  Past `most` cells, the one-step table comes back
    instead: K entries a row, (next row or -1, chick change), over the
    clamp alone.
    """
    faces, cap = len(spec.animals) + 1, spec.win_threshold
    size = 2 * faces + 1
    row = {square: slot * size for slot, square in enumerate(spec.moves)} | {spec.terminal_square: -1}
    steps: list[tuple[int, int]] = []  # the one-step table
    for square, moves in spec.moves.items():
        entries = [(row[square], -1), *((row[target], gain) for target, gain in moves)]
        steps += entries + entries + [(row[square], 0)]
    clamp = [*range(cap + 1), *[cap] * (cap + 2)]  # a change is at most cap + 1, two at most cap + 2
    cells = len(steps) * size
    gains = sorted({change for _, change in steps if change > 0}) if cells <= most else ()
    if cells + len(gains) * (cap + 1) > most:
        return steps, clamp + [0, 0], False
    less = len(clamp)  # a gain of at most cap, then the fox
    clamp += [max(min(chicks, cap) - 1, 0) for chicks in range(2 * cap + 1)]
    after_fox = {}  # gain: where its stretch starts
    for gain in gains:
        after_fox[gain] = len(clamp)
        clamp += [min(max(chicks - 1, 0) + gain, cap) for chicks in range(cap + 1)]
    distinct = {  # one-step row: its (next row, chick change) after each spin, then after the no-op
        one: steps[one : one + faces] + steps[one + size - 1 : one + size] for one in range(0, len(steps), size)
    }
    pair_row = {one: one * size for one in distinct} | {-1: -1}
    table: list[tuple[int, int]] = []
    for entries in distinct.values():
        blocks = []  # after each first step: the second step's K entries
        for middle, first in entries:
            if middle < 0:  # the first step finished the game
                blocks.append([(-2, first)] * size)
                continue
            block = []
            for after, second in distinct[middle]:
                offset = first + second if first * second >= 0 else less + first if second < 0 else after_fox[second]
                block.append((pair_row[after], offset))
            blocks.append(block[:-1] * 2 + block[-1:])  # a spin plus faces reads the spin's entry
        for block in blocks[:-1] * 2 + blocks[-1:]:
            table += block
    return table, clamp + [0, 0], True


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
    two draws a pass, each a `_mix_lanes` of every lane; draw * (2**64 //
    faces) >> 64, which is draw // faces or one less, leaves each slot its
    spin or its spin plus faces, and one carry test finds the rare draws
    at or above the rejection limit, whose spins become the no-op.  A
    lane plays the pass by one lookup in a two-step table (each slot holds
    s1 * K + s2, so one unpack reads every index) or by two in a one-step
    table (the second spins in the slots' high halves).  A lane's rounds
    are the batch's steps less its redraws (a rejected second draw counts
    only if the first step left the lane live); a finished lane is tallied
    as rounds * (cap + 1) + chicks, and one that finished in round
    round_cap + 1 counts as censored.  At half the slots live or fewer,
    lanes repack into the next power of two slots.
    """
    if not (is_int(trials) and trials >= 1):
        raise UsageError(f"trials must be an integer >= 1, got {trials!r}")
    for name, value in (("seed", seed), ("round_cap", round_cap)):
        if not is_int(value):
            raise UsageError(f"{name} must be an integer, got {value!r}")
    # A two-step cell costs 40-120 ns to build, repaid from about one trial a cell on the shortest games.
    table, clamp, pairs = _step_table(spec, min(_PAIR_CELLS, trials))
    faces, cap = len(spec.animals) + 1, spec.win_threshold
    size, noop, magic = 2 * faces + 1, 2 * faces, (_MASK + 1) // faces
    limit = faces * magic  # the largest multiple of faces within 2**64: draws at or above it are redrawn
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
            spin1, spin2 = one - (one * magic >> 64 & m64) * faces, two - (two * magic >> 64 & m64) * faces
            steps += 2
            if ((one + reject) | (two + reject)) & carries:  # a redraw advances the stream, not the round
                draw1, draw2, spin1, spin2 = (
                    list(low.unpack(packed.to_bytes(16 * width, "little"))) for packed in (one, two, spin1, spin2)
                )
                for lane in live:
                    if draw1[lane] >= limit:
                        spin1[lane] = noop
                        redraws[lane] += 1
                    if draw2[lane] >= limit:  # counts only if the first step left the lane live
                        spin2[lane] = noop
                        first_step = spin1[lane] * size + noop if pairs else spin1[lane]
                        redraws[lane] += table[rows[lane] + first_step][0] >= 0
                spin1, spin2 = (int.from_bytes(low.pack(*spins), "little") for spins in (spin1, spin2))
            stepping, live = live, []
            if pairs:
                index = low.unpack((spin1 * size + spin2).to_bytes(16 * width, "little"))
                for lane in stepping:
                    row, offset = table[rows[lane] + index[lane]]
                    chicks = clamp[held[lane] + offset]
                    if row < 0:  # -1: finished on the pass's second step, -2 on its first
                        finished.append((steps + 1 + row - redraws[lane]) * (cap + 1) + chicks)
                    else:
                        rows[lane], held[lane] = row, chicks
                        live.append(lane)
            else:
                spins = (spin1 + (spin2 << 64)).to_bytes(16 * width, "little")
                spin1, spin2 = low.unpack(spins), high.unpack(spins)
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
