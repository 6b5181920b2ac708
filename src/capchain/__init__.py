"""Exact analysis of capital-weighted absorbing Markov chains.

The engine evolves, round by round, the joint distribution of (state,
accumulated capital) for a finite absorbing chain whose edges carry
exact rational probabilities and integer capital weights.  Capital is
kept as a capped probability-generating polynomial, so floors and caps
("never below zero", "at least N wins") are a single clamped shift,
and every probability and moment comes out as an exact fraction.

Shipped on top of the engine: a chick-counting race game that compiles
to such a chain, a statistics extractor, a seeded Monte Carlo oracle,
and the `capchain` command-line tool.

Each layer function and record type loads its module the first time it
is read, so `import capchain` loads no submodule and a caller pays only
for the layers it uses: `capchain.builtin_game` loads the game module
alone, `capchain.run_absorption` the engine.  What every layer shares
and none owns lives here: the input limits, the usage errors, `is_int`,
`decode_json` and `format_rows`.  So the command line can check a
horizon, catch an input error or print a report's rows without loading
the exact engine.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence, Union

__version__ = "1.0.0"

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


class UsageError(ValueError):
    """A fault the caller must fix, not a bug; the command line exits 2 with one line per problem."""

    def __init__(self, problems: Union[str, Iterable[str]]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


class RecordTooLargeError(UsageError):
    """A run's record passed the size its caller allows it."""


class ChainFormatError(UsageError):
    """A chain document cannot be decoded at all."""


class InvalidChainError(UsageError):
    """A chain was constructed that breaks its invariants; `problems` lists every one."""


class GameSpecError(UsageError):
    """A game document failed to parse or validate; `problems` lists every diagnostic."""


def is_int(value: object) -> bool:
    """An `int` and not a `bool`: what every integer field of a chain or a game must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def decode_json(text: str, error: type[UsageError] = UsageError, where: str = "") -> object:
    """Parse JSON text; text that does not parse raises `error`, one line led by `where`."""
    import json  # here, so `import capchain` loads nothing more

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, an int past the digit limit, or too deep
        raise error(f"{where}invalid JSON: {exc}") from None


def format_rows(rows: Sequence[tuple[str, object]]) -> str:
    """Aligned `label  value` lines; floats print as repr, everything else as str."""
    width = max(len(label) for label, _ in rows)
    return "".join(
        f"{label.ljust(width)}  {repr(value) if isinstance(value, float) else value}\n"
        for label, value in rows
    )


# Where each layer name lives; `__getattr__` imports its module on first use.
_HOMES = {
    "chain": (
        "AbsorptionRecord Edge StateVector WeightedMarkovChain chain_from_json_dict "
        "chain_to_json_dict dumps_chain loads_chain run_absorption umbra_step"
    ),
    "game": "EMPTY FULL_GAME_JSON SIMPLIFIED_GAME_JSON TERMINAL GameSpec builtin_game compile_game parse_game_spec",
    "poly": "CappedPolynomial",
    "simulator": "SimulationReport simulate",
    "stats": (
        "SummaryStats central_moments distribution_moments epsilon_pair format_fraction "
        "format_fraction_scientific render_stats stats_json_dict summarize"
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = [
    *_HOME,
    "UsageError",
    "RecordTooLargeError",
    "ChainFormatError",
    "InvalidChainError",
    "GameSpecError",
    "__version__",
]


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{_HOME[name]}"
    __import__(home)  # not importlib.import_module: `-X importtime` lists only this way
    value = globals()[name] = getattr(sys.modules[home], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
