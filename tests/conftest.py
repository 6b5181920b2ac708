"""Session fixtures: the expensive full-game runs are computed once."""

from __future__ import annotations

import pytest

from capchain import builtin_game, compile_game, run_absorption, summarize


@pytest.fixture(scope="session")
def simplified_game():
    return builtin_game("simplified")


@pytest.fixture(scope="session")
def simplified_chain(simplified_game):
    return compile_game(simplified_game)


@pytest.fixture(scope="session")
def full_game():
    return builtin_game("full")


@pytest.fixture(scope="session")
def full_chain(full_game):
    return compile_game(full_game)


@pytest.fixture(scope="session")
def full_record_60(full_chain):
    return run_absorption(full_chain, "1", 60)


@pytest.fixture(scope="session")
def full_record_80(full_chain):
    return run_absorption(full_chain, "1", 80)


@pytest.fixture(scope="session")
def full_stats_60(full_record_60):
    return summarize(full_record_60)


@pytest.fixture(scope="session")
def full_stats_80(full_record_80):
    return summarize(full_record_80)
