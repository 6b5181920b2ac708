"""The package surface: every exported name, and which modules each entry point loads."""

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
