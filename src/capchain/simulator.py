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

from . import UsageError, check_trials, is_int, shown
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
        """Plain-dict form: each field, `completed` after `censored`; histograms as sorted [value, count] pairs."""
        items = [(key, [list(item) for item in sorted(value.items())] if isinstance(value, dict) else value)
                 for key, value in self._asdict().items()]
        items.insert(self._fields.index("censored") + 1, ("completed", self.completed))
        return dict(items)


def _step_table(spec: GameSpec, most: int) -> tuple[list[tuple[int, int]], list[int], bool]:
    """The move table over the two steps of a pass, or over one; returns it, its chick list and which.

    A spin index is a spin outcome or it plus faces, the same move: K =
    2 * faces of them.  In the two-step table entry `row + K * s1 + s2` is
    (next row, offset) after spins s1 then s2, the next row -1 if the
    second step reached the terminal and -2 if the first did; the new
    chicks are `chick_list[chicks + offset]`.  The list holds the clamp
    (where two changes of one sign read their sum), the clamp less one (a
    gain then the fox, read at the gain), one stretch per gain (the fox
    then it) and two zeros.  Past `most` cells, the one-step table comes
    back instead: K entries a row, (next row or -1, chick change), over
    the clamp alone.
    """
    faces, cap = len(spec.animals) + 1, spec.win_threshold
    size = 2 * faces
    row = {square: slot * size for slot, square in enumerate(spec.moves)} | {spec.terminal_square: -1}
    steps: list[tuple[int, int]] = []  # the one-step table
    for square, moves in spec.moves.items():
        steps += [(row[square], -1), *((row[target], gain) for target, gain in moves)] * 2
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
    distinct = {one: steps[one : one + faces] for one in range(0, len(steps), size)}  # one-step row: each spin's entry
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
            blocks.append(block * 2)  # a spin plus faces reads the spin's entry
        for block in blocks * 2:
            table += block
    return table, clamp + [0, 0], True


@cache  # simulate asks for powers of two up to LANES, each built on first use
def _lanes(count: int, faces: int) -> tuple[int, int, int, int, int, int, struct.Struct, struct.Struct]:
    """Constants for `count` lanes packed into one int, 128 bits a lane, spinning over `faces`.

    `rep` (1 in every slot), `rep` at each slot's bit 64 (where a carry
    out of the low half lands), `rep` times the 64-bit mask, the golden
    step and the rejection offset 2**64 mod faces, the ramp (slot i holds
    i golden steps) and the codecs of the slots' low and high halves.
    """
    rep = int.from_bytes((b"\1" + bytes(15)) * count, "little")
    low, high = struct.Struct("<" + "Q8x" * count), struct.Struct("<" + "8xQ" * count)
    ramp = int.from_bytes(low.pack(*range(count)), "little") * _GOLDEN
    return rep, rep << 64, rep * _MASK, rep * _GOLDEN, rep * ((_MASK + 1) % faces), ramp, low, high


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
    at or above the rejection limit.  A lane with one keeps the pass's
    accepted draws and draws on from its own slot's state until it has
    two, so every live lane has played the batch's steps in rounds.  A
    lane plays the pass by one lookup in a two-step table (each slot holds
    s1 * K + s2, so one unpack reads every index) or by two in a one-step
    table (the second spins in the slots' high halves).  A finished lane
    is tallied as rounds * (cap + 1) + chicks; one that finished past
    round_cap, or is live once the steps reach it, counts as censored, so
    a cap below one censors every trial.  At half the slots live or
    fewer, lanes repack into the next power of two slots.
    """
    check_trials(trials)
    for name, value in (("seed", seed), ("round_cap", round_cap)):
        if not is_int(value):
            raise UsageError(f"{name} must be an integer, got {shown(value)}")
    # A two-step cell costs 40-120 ns to build, repaid from about one trial a cell on the shortest games.
    table, clamp, pairs = _step_table(spec, min(_PAIR_CELLS, trials))
    faces, cap = len(spec.animals) + 1, spec.win_threshold
    size, magic = 2 * faces, (_MASK + 1) // faces
    limit = faces * magic  # the largest multiple of faces within 2**64: draws at or above it are redrawn
    outcomes: Counter[int] = Counter()  # rounds * (cap + 1) + chicks: finished lanes
    censored = 0
    for first in range(0, trials, LANES):
        live = list(range(min(LANES, trials - first)))
        rows, held = [0] * len(live), [0] * len(live)  # per lane: row, chicks
        width = 1 << (len(live) - 1).bit_length()
        rep, carries, m64, step, reject, ramp, low, high = _lanes(width, faces)  # lane i draws from stream first + i
        state = _mix_lanes((rep * ((seed + first * _GOLDEN) & _MASK) + ramp) & m64, m64)
        steps, finished = 0, []
        while live and steps < round_cap:  # every live lane has played `steps` rounds
            if 2 * len(live) <= width:
                states = low.unpack(state.to_bytes(16 * width, "little"))
                width = 1 << (len(live) - 1).bit_length()
                _, carries, m64, step, reject, _, low, high = _lanes(width, faces)
                kept, rows, held = ([c[lane] for lane in live] for c in (states, rows, held))
                state = int.from_bytes(low.pack(*kept, *[0] * (width - len(kept))), "little")
                live = list(range(len(live)))
            state = (state + step) & m64
            one = _mix_lanes(state, m64)
            state = (state + step) & m64
            two = _mix_lanes(state, m64)
            spin1, spin2 = one - (one * magic >> 64 & m64) * faces, two - (two * magic >> 64 & m64) * faces
            steps += 2
            if ((one + reject) | (two + reject)) & carries:  # a lane keeps its accepted draws and draws on
                states, draw1, draw2, spin1, spin2 = (
                    list(low.unpack(packed.to_bytes(16 * width, "little"))) for packed in (state, one, two, spin1, spin2)
                )
                for lane in live:
                    draws = [draw for draw in (draw1[lane], draw2[lane]) if draw < limit]
                    while len(draws) < 2:
                        states[lane] = (states[lane] + _GOLDEN) & _MASK
                        draws += [draw for draw in (_mix_lanes(states[lane], _MASK),) if draw < limit]
                    spin1[lane], spin2[lane] = (draw % faces for draw in draws)
                state, spin1, spin2 = (int.from_bytes(low.pack(*lanes), "little") for lanes in (states, spin1, spin2))
            stepping, live = live, []
            if pairs:
                index = low.unpack((spin1 * size + spin2).to_bytes(16 * width, "little"))
                for lane in stepping:
                    row, offset = table[rows[lane] + index[lane]]
                    chicks = clamp[held[lane] + offset]
                    if row < 0:  # -1: finished on the pass's second step, -2 on its first
                        finished.append((steps + 1 + row) * (cap + 1) + chicks)
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
                        finished.append((steps - 1) * (cap + 1) + chicks)
                        continue
                    row, change = table[row + spin2[lane]]
                    chicks = clamp[chicks + change]
                    if row < 0:
                        finished.append(steps * (cap + 1) + chicks)
                    else:
                        rows[lane], held[lane] = row, chicks
                        live.append(lane)
        censored += len(live)
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
