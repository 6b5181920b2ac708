"""What every layer shares and none owns: input limits, usage errors, aligned rows.

A leaf module: it imports nothing of the package, so the command line
can check a horizon, catch an input error or print a report's rows
without loading the exact engine.  `capchain.chain`, `capchain.game`
and `capchain.stats` re-export these names where they have always lived.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Input limits, checked before any row is allocated.  A round makes a few
# big-int operations per live state and out-edge, on packed rows of up to a
# window of cells whose numerators grow up to log2(D) bits a round, D being
# the lcm of the edge probability denominators; the record keeps a row per
# (round, absorbing state).  At M = 1000 on a 2-core machine `analyze` stays
# within 1 s and 17 MB for the full game, 5 s and 354 MB for a random walk
# on a 10000-cell window, and 3 s and 30 MB for a 41-cell chain with
# D = 2^64 - 59 (CHANGES.md has the cases).
MAX_WINDOW = 10_000
MAX_ROUNDS = 1_000
MAX_DENOMINATOR_BITS = 64
# A full record prints a numerator and a denominator per stored cell: at most about a byte
# per bit of its sum over rows of cells x denominator bits.  Twice the full game's at M = 1000
# (5.2e7: 48 MB of JSON, 2 s, 72 MB); at the limit a D = 3 walk on 10000 cells prints 38 MB
# in 1.5 s at 112 MB.  The sum only grows with the rounds, so `run_absorption` stops a run as
# soon as it passes the limit.
MAX_RECORD_BITS = 100_000_000
# Most decimal places a report may ask for: `capchain.stats` takes its square roots
# 10 digits further.
MAX_DIGITS = 40


class RecordTooLargeError(ValueError):
    """Raised when a run's record passes the size a caller allows it; an input problem, not a bug."""


class ChainFormatError(ValueError):
    """Raised when a chain document cannot be decoded at all."""


class InvalidChainError(ValueError):
    """Raised when a chain is constructed that breaks an invariant; carries every one."""

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class GameSpecError(ValueError):
    """A game document failed to parse or validate; carries all diagnostics."""

    def __init__(self, diagnostics: Iterable[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def is_int(value: object) -> bool:
    """An `int` and not a `bool`: what every integer field of a chain or a game must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def format_rows(rows: Sequence[tuple[str, object]]) -> str:
    """Aligned `label  value` lines; floats print as repr, everything else as str."""
    width = max(len(label) for label, _ in rows)
    return "".join(
        f"{label.ljust(width)}  {repr(value) if isinstance(value, float) else value}\n"
        for label, value in rows
    )
