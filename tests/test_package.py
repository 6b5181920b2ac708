"""The package surface: every exported name, and which modules each entry point loads."""

from fractions import Fraction
from importlib import import_module

import pytest

import capchain
from capchain import MAX_DENOMINATOR_BITS, MAX_RECORD_BITS, MAX_ROUNDS, MAX_WINDOW
from capchain.cli import main

from _testlib import run_python

SUBMODULES = ("chain", "cli", "game", "poly", "simulator", "stats")


def modules(*names: str) -> list[str]:
    return [f"capchain.{name}" for name in names]


def command(*argv: str) -> str:
    return f"from capchain.cli import main\nassert main({list(argv)!r}) == 0\n"


# A probe, and the modules it must leave unloaded.  pytest itself imports
# most of these, so each probe runs in a fresh interpreter.
ENTRY_POINTS = {
    "import capchain": ("import capchain\n", modules(*SUBMODULES)),
    "import capchain.cli": ("import capchain.cli\n", ["dataclasses", "inspect"]),
    "GameSpecError": ("import capchain\ncapchain.GameSpecError\n", modules(*SUBMODULES)),
    "UsageError": ("import capchain\ncapchain.UsageError\n", modules(*SUBMODULES)),
    "builtin_game": (
        "import capchain\ncapchain.builtin_game('full')\n",
        modules("chain", "cli", "poly", "simulator", "stats"),
    ),
    "compile_game": ("import capchain\ncapchain.compile_game(capchain.builtin_game('full'))\n", modules("poly")),
    "simulate": (
        command("simulate", "--builtin", "full", "--trials", "1"),
        [*modules("chain", "poly", "stats"), "fractions", "decimal", "dataclasses", "inspect"],
    ),
    "analyze": (command("analyze", "--builtin", "simplified", "-M", "2"), modules("simulator")),
    # The chain file is the probe's first argument.
    "analyze <chain.json>": (
        "import sys\nfrom capchain.cli import main\nassert main(['analyze', sys.argv[1], '-M', '2']) == 0\n",
        modules("game", "simulator"),
    ),
}


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    assert main(["dump-chain", "--builtin", "simplified", "--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("probe, absent", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_each_entry_point_loads_only_what_it_uses(probe, absent, chain_path):
    proc = run_python(f"import sys\n{probe}print(sorted(set({absent!r}) & set(sys.modules)))\n", chain_path)
    assert (proc.returncode, proc.stdout.splitlines()[-1:]) == (0, ["[]"]), proc.stderr


def test_star_import_binds_every_exported_name():
    probe = "from capchain import *\nimport capchain\nprint([n for n in capchain.__all__ if n not in globals()])\n"
    proc = run_python(probe)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_each_exported_name_is_its_home_module_object():
    assert len(capchain.__all__) == len(set(capchain.__all__))
    for name, home in capchain._HOME.items():
        assert getattr(capchain, name) is getattr(import_module(f"capchain.{home}"), name), name
    assert capchain.__version__ == "1.0.0"


def test_dir_lists_every_exported_name_before_it_is_read():
    proc = run_python("import capchain\nprint(sorted(set(capchain.__all__) - set(dir(capchain))))\n")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_submodules_import_from_the_package():
    proc = run_python("from capchain import poly, stats\nprint(poly.__name__, stats.__name__)\n")
    assert (proc.returncode, proc.stdout) == (0, "capchain.poly capchain.stats\n"), proc.stderr


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'capchain' has no attribute 'nope'$"):
        capchain.nope
    assert not hasattr(capchain, "nope")


def test_the_input_limits_still_import_from_the_engine():
    from capchain.chain import MAX_DENOMINATOR_BITS as bits, MAX_RECORD_BITS as record, MAX_ROUNDS as rounds
    from capchain.chain import MAX_WINDOW as window

    assert (bits, record, rounds, window) == (MAX_DENOMINATOR_BITS, MAX_RECORD_BITS, MAX_ROUNDS, MAX_WINDOW)
    assert (bits, record, rounds, window) == (64, 100_000_000, 1_000, 10_000)


# str() of an int past 4300 digits raises ValueError, so each of these
# refusals raised that in place of its own error; `shown` names the type.
BIG = 10**5000


def _chain(transient=("a",), src="a", dst="z", prob="1", weight=0, support=(0, 1)):
    return capchain.WeightedMarkovChain(list(transient), ["z"], [capchain.Edge(src, dst, prob, weight)], support)


def _game(animals=("a",), squares=("0", "a", "*"), blue=(), win_threshold=2):
    return capchain.GameSpec(animals=animals, squares=squares, blue=blue, win_threshold=win_threshold)


REFUSALS = {
    "state id": (capchain.InvalidChainError, lambda: _chain(transient=("a", BIG))),
    "edge end": (capchain.InvalidChainError, lambda: _chain(dst=BIG)),
    "edge end of an unread probability": (capchain.InvalidChainError, lambda: _chain(src=BIG, prob="x")),
    "probability": (capchain.InvalidChainError, lambda: _chain(prob=[BIG])),
    "weight": (capchain.InvalidChainError, lambda: _chain(weight=Fraction(BIG, 3))),
    "support": (capchain.InvalidChainError, lambda: _chain(support=(0.5, BIG))),
    "tag": (capchain.GameSpecError, lambda: _game(animals=(BIG,))),
    "label": (capchain.GameSpecError, lambda: _game(squares=("0", BIG, "*"))),
    "blue square": (capchain.GameSpecError, lambda: _game(blue=(BIG,))),
    "non-integer blue square": (capchain.GameSpecError, lambda: _game(blue=(Fraction(BIG, 3),))),
    "win_threshold": (capchain.GameSpecError, lambda: _game(win_threshold=BIG)),
    "negative win_threshold": (capchain.GameSpecError, lambda: _game(win_threshold=-BIG)),
    "non-integer win_threshold": (capchain.GameSpecError, lambda: _game(win_threshold=Fraction(BIG, 3))),
    "builtin name": (capchain.UsageError, lambda: capchain.builtin_game(BIG)),
    "horizon": (capchain.UsageError, lambda: capchain.run_absorption(_chain(), "a", BIG)),
    "start state": (capchain.UsageError, lambda: capchain.run_absorption(_chain(), BIG, 1)),
    "report digits": (capchain.UsageError, lambda: capchain.render_stats(None, BIG)),
    "fraction digits": (capchain.UsageError, lambda: capchain.format_fraction(Fraction(1, 3), -BIG)),
    "fraction digits +BIG": (capchain.UsageError, lambda: capchain.format_fraction(Fraction(1, 3), BIG)),
    "scientific digits +BIG": (capchain.UsageError, lambda: capchain.format_fraction_scientific(Fraction(1, 3), BIG)),
    "trials": (capchain.UsageError, lambda: capchain.simulate(_game(), -BIG, 1)),
    "seed": (capchain.UsageError, lambda: capchain.simulate(_game(), 1, Fraction(BIG, 3))),
}


@pytest.mark.parametrize("error, refused", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_names_a_value_too_long_to_print(error, refused):
    with pytest.raises(error) as excinfo:
        refused()
    assert excinfo.type is error
    assert "too long to print>" in str(excinfo.value)
