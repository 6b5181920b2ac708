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

Each exported name loads its module the first time it is read, so
`import capchain` loads no submodule and a caller pays only for the
layers it uses: `capchain.builtin_game` loads the game module alone,
`capchain.run_absorption` the engine.
"""

import sys

__version__ = "1.0.0"

# Where each exported name lives; `__getattr__` imports its module on first use.
_HOMES = {
    "chain": (
        "AbsorptionRecord ChainFormatError Edge InvalidChainError RecordTooLargeError StateVector "
        "WeightedMarkovChain chain_from_json_dict chain_to_json_dict dumps_chain loads_chain "
        "run_absorption umbra_step"
    ),
    "game": (
        "EMPTY FULL_GAME_JSON SIMPLIFIED_GAME_JSON TERMINAL GameSpec GameSpecError builtin_game "
        "compile_game parse_game_spec"
    ),
    "poly": "CappedPolynomial",
    "simulator": "SimulationReport SplitMix64 mix64 play_once simulate",
    "stats": (
        "SummaryStats central_moments distribution_moments epsilon_pair format_fraction "
        "format_fraction_scientific render_stats stats_json_dict summarize"
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{_HOME[name]}"
    __import__(home)  # not importlib.import_module: `-X importtime` lists only this way
    value = globals()[name] = getattr(sys.modules[home], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
