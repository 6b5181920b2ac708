"""Golden CLI outputs: sha256 of stdout and stderr, and the exit code, per invocation.

Each case runs `cli.main` in process.  The digests pin every byte a
report prints, so a refactor that must not change output is checked
here instead of by diffing output trees by hand.  After a deliberate
output change, print the new table with
`PYTHONPATH=src python tests/test_golden.py` and say why in CHANGES.md.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from capchain.cli import main

INVALID_CHAIN = {
    "transient": ["a", "b"],
    "absorbing": ["z"],
    "support": {"min": 0, "max": 3},
    "edges": [
        {"src": "a", "dst": "b", "prob": "1/2", "weight": 1},
        {"src": "a", "dst": "ghost", "prob": "1/3", "weight": 3},
        {"src": "b", "dst": "z", "prob": "1", "weight": 2},
    ],
}

INVALID_GAME = {"animals": ["S"], "board": ["0", "X", "S"], "blue": [99]}

# A sound chain with a "start" whose record absorbs mass at t^0.
RECORD_CHAIN = {
    "transient": ["a", "b"],
    "absorbing": ["z"],
    "support": {"min": 0, "max": 3},
    "start": "b",
    "edges": [
        {"src": "b", "dst": "a", "prob": "2/3", "weight": -1},
        {"src": "b", "dst": "z", "prob": "1/3", "weight": 5},
        {"src": "a", "dst": "z", "prob": "1/2", "weight": 0},
        {"src": "a", "dst": "z", "prob": "1/2", "weight": 2},
    ],
}

# Absorbing states whose names JSON must escape: a quote, a backslash, non-ASCII.
ESCAPED_CHAIN = {
    "transient": ["a", "b"],
    "absorbing": ['q"uote', "back\\slash", "\u00fcn\u00ef"],
    "support": {"min": -1, "max": 4},
    "edges": [
        {"src": "a", "dst": "b", "prob": "2/7", "weight": 2},
        {"src": "a", "dst": "\u00fcn\u00ef", "prob": "3/7", "weight": -2},
        {"src": "a", "dst": 'q"uote', "prob": "2/7", "weight": 1},
        {"src": "b", "dst": "a", "prob": "1/3", "weight": 3},
        {"src": "b", "dst": "back\\slash", "prob": "2/3", "weight": 0},
    ],
}

CASES = {
    **{
        f"analyze-{board}-{fmt}{'-record' if record else ''}": [
            "analyze", "--builtin", board, "-M", "60", "--format", fmt,
            *(["--full-record"] if record else []),
        ]
        for board in ("simplified", "full")
        for fmt in ("text", "json")
        for record in (False, True)
    },
    "dump-chain-full": ["dump-chain", "--builtin", "full"],
    "compare-simplified-json": [
        "compare", "--builtin", "simplified", "--trials", "20000", "--seed", "3",
        "--format", "json",
    ],
    "simulate-full-json": [
        "simulate", "--builtin", "full", "--trials", "20000", "--seed", "7",
        "--format", "json",
    ],
    # The benchmark's game-montecarlo invocation at seed 1: perfbench checks
    # its output only statistically, so its bytes are pinned here.
    "simulate-full-60000-json": [
        "simulate", "--builtin", "full", "--trials", "60000", "--seed", "1",
        "--format", "json",
    ],
    # -M 2 caps each play at 20 rounds, which censors some of the trials.
    "simulate-full-censored-json": [
        "simulate", "--builtin", "full", "--trials", "3000", "--seed", "9", "-M", "2",
        "--format", "json",
    ],
    "compare-simplified-text": [
        "compare", "--builtin", "simplified", "--trials", "20000", "--seed", "3",
    ],
    "compare-simplified-M1": [
        "compare", "--builtin", "simplified", "--trials", "50", "-M", "1",
    ],
    "simulate-simplified-text": [
        "simulate", "--builtin", "simplified", "--trials", "2000", "--seed", "7",
    ],
    "analyze-simplified-M1-text": ["analyze", "--builtin", "simplified", "-M", "1"],
    "analyze-simplified-M1-json-record": [
        "analyze", "--builtin", "simplified", "-M", "1", "--format", "json", "--full-record",
    ],
    "analyze-chain-text-record": ["analyze", "{record}", "--full-record"],
    "analyze-chain-json-record": ["analyze", "{record}", "--full-record", "--format", "json"],
    "analyze-escaped-text-record": ["analyze", "{escaped}", "-M", "20", "--full-record"],
    "analyze-escaped-json-record": ["analyze", "{escaped}", "-M", "20", "--full-record", "--format", "json"],
    "invalid-chain": ["analyze", "{chain}"],
    "invalid-game": ["analyze", "{game}"],
    "horizon-over-limit": ["analyze", "--builtin", "simplified", "-M", "1001"],
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# case: (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "analyze-chain-json-record": (
        0,
        "a93be03de8d617e9d817944ae1718f0e9c887d069a911aae0f49e2b4ac96bf08",
        EMPTY,
    ),
    "analyze-chain-text-record": (
        0,
        "31a378897e09fe18eeacd2a2cee30361688f30416655ba38377a5e0f8f2f5ecb",
        EMPTY,
    ),
    "analyze-escaped-json-record": (
        0,
        "3d20ef1fb29d97c637876f0a7c76b8f63a10683badc10d869a894243ccec02b0",
        EMPTY,
    ),
    "analyze-escaped-text-record": (
        0,
        "9be2697c40b91f906214414cd3f2a30ee952ef89fdf8a4f54266128ee4e51a54",
        EMPTY,
    ),
    "analyze-full-json": (
        0,
        "0be1ec9dda474d3ddcbb6046c017dfd501a895286c2c2c83fc970485b7376e2a",
        EMPTY,
    ),
    "analyze-full-json-record": (
        0,
        "2800a26e5139e55b58952eadf77883add1272d37f9f1de6c23a1021bcf2f364c",
        EMPTY,
    ),
    "analyze-full-text": (
        0,
        "a9306e5c75f7824e7565ad17186df8418c9a72d3651bc02d68abad6ee4168142",
        EMPTY,
    ),
    "analyze-full-text-record": (
        0,
        "c42a14f9e74b1b617f670046618e0e02af329d87ba64b0fb964d614f9dbeeb37",
        EMPTY,
    ),
    "analyze-simplified-M1-json-record": (
        0,
        "163893ca16be6afa9d8e6532f7940dc364d1b3382b0087fced57ceb22f823c5d",
        EMPTY,
    ),
    "analyze-simplified-M1-text": (
        0,
        "84f5531ef3ca22b6718af307c7a521420092d494ae5dfe8166712b15d66c5194",
        EMPTY,
    ),
    "analyze-simplified-json": (
        0,
        "5c2bf10c600b2bfd084e4dc92a4f574ea0f5d6b8e81c83ab9f8edc8141502bea",
        EMPTY,
    ),
    "analyze-simplified-json-record": (
        0,
        "bd59c3123f8bb07cca0d8ff5160077ed434ae9f72dc1400ed3751d07a1e12bb4",
        EMPTY,
    ),
    "analyze-simplified-text": (
        0,
        "b5b121b69fefb03cb1778f0b5626d210eccc8bda743b5772abedbdab8cba00bd",
        EMPTY,
    ),
    "analyze-simplified-text-record": (
        0,
        "e646f6101ecbb9da09fc3991d06cffa02f94d8e7db219228ae9fec0e2a51cf02",
        EMPTY,
    ),
    "compare-simplified-M1": (
        2,
        EMPTY,
        "3a6326468719bbe191d9fc06abea16c18bffb3f97ee77285963a95abf7032475",
    ),
    "compare-simplified-json": (
        0,
        "3b254f6b28a6302f4fce0aa3daf1d838b381e73d152cd9ac73609a9a6ad137a3",
        EMPTY,
    ),
    "compare-simplified-text": (
        0,
        "d41997ae3ca1362f8463018428e9d1a48b2c636d4ebeda554092efccc43fe9f6",
        EMPTY,
    ),
    "dump-chain-full": (
        0,
        "dbf0276fa7d0c0d0c4782b5bc673b8e6493cfc1120ecdb1a7c5819bd6047cbf8",
        EMPTY,
    ),
    "horizon-over-limit": (
        2,
        EMPTY,
        "80b4d868ba2789613dddfb9df1f9a3474f84ad6de1f58fd3abf833e9842f60e0",
    ),
    "invalid-chain": (
        2,
        EMPTY,
        "ebca7788330ddd40229a8295661acbb9a9efe9d268fa5f19707fd90d22af7672",
    ),
    "invalid-game": (
        2,
        EMPTY,
        "c3347fa027988d0b8e4eea7e412813ce2e93f36c754cf95b5d5d06dd677f1058",
    ),
    "simulate-full-60000-json": (
        0,
        "b95f6f93a1d38f133144b4acadbd1ac6c20bf33e4382c71e6dbf7736601da903",
        EMPTY,
    ),
    "simulate-full-censored-json": (
        0,
        "93b321286f96d11f24d113320fbb57369a5ff39bf5886d9554b26eda8a8f8ba5",
        EMPTY,
    ),
    "simulate-full-json": (
        0,
        "425805f7a7a4008902883f56c2027115016e9ff99a2db122d4744bed0c06175d",
        EMPTY,
    ),
    "simulate-simplified-text": (
        0,
        "dd04ccaa1cbbb45492d83faf3116c301c2669db435c58103cf2efe743212afa9",
        EMPTY,
    ),
}


def run_case(name, directory):
    documents = {"chain": INVALID_CHAIN, "game": INVALID_GAME, "record": RECORD_CHAIN, "escaped": ESCAPED_CHAIN}
    paths = {key: directory / f"{key}.json" for key in documents}
    for key, document in documents.items():
        paths[key].write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**paths) for arg in CASES[name]])
    return code, sha256(out.getvalue()), sha256(err.getvalue())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_its_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        print("GOLDEN = {")
        for name in sorted(CASES):
            code, out, err = run_case(name, Path(directory))
            out, err = ("EMPTY" if d == EMPTY else f'"{d}"' for d in (out, err))
            print(f'    "{name}": (\n        {code},\n        {out},\n        {err},\n    ),')
        print("}")
