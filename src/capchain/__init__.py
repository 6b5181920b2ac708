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
"""

from .chain import (
    AbsorptionRecord,
    ChainFormatError,
    Edge,
    InvalidChainError,
    RecordTooLargeError,
    StateVector,
    WeightedMarkovChain,
    chain_from_json_dict,
    chain_to_json_dict,
    dumps_chain,
    loads_chain,
    run_absorption,
    umbra_step,
)
from .game import (
    EMPTY,
    FULL_GAME_JSON,
    SIMPLIFIED_GAME_JSON,
    TERMINAL,
    GameSpec,
    GameSpecError,
    builtin_game,
    compile_game,
    parse_game_spec,
)
from .poly import CappedPolynomial
from .simulator import SimulationReport, SplitMix64, mix64, play_once, simulate
from .stats import (
    SummaryStats,
    central_moments,
    distribution_moments,
    format_fraction,
    format_fraction_scientific,
    render_stats,
    stats_json_dict,
    summarize,
)

__version__ = "1.0.0"

__all__ = [
    "AbsorptionRecord",
    "CappedPolynomial",
    "ChainFormatError",
    "EMPTY",
    "Edge",
    "FULL_GAME_JSON",
    "GameSpec",
    "GameSpecError",
    "InvalidChainError",
    "RecordTooLargeError",
    "SIMPLIFIED_GAME_JSON",
    "SimulationReport",
    "SplitMix64",
    "StateVector",
    "SummaryStats",
    "TERMINAL",
    "WeightedMarkovChain",
    "builtin_game",
    "central_moments",
    "chain_from_json_dict",
    "chain_to_json_dict",
    "compile_game",
    "distribution_moments",
    "dumps_chain",
    "format_fraction",
    "format_fraction_scientific",
    "loads_chain",
    "mix64",
    "parse_game_spec",
    "play_once",
    "render_stats",
    "run_absorption",
    "simulate",
    "stats_json_dict",
    "summarize",
    "umbra_step",
    "__version__",
]
