"""Command-line wiring: exit codes, formats, and library agreement."""

import argparse
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from capchain import (
    MAX_MOVES,
    ChainFormatError,
    Edge,
    GameSpecError,
    InvalidChainError,
    RecordTooLargeError,
    UsageError,
    WeightedMarkovChain,
    builtin_game,
    check_digits,
    check_rounds,
    check_trials,
    compile_game,
    format_fraction,
    render_stats,
    run_absorption,
    simulate,
    stats_json_dict,
    summarize,
)
from capchain import cli
from capchain.chain import MAX_DENOMINATOR_BITS, MAX_RECORD_BITS, MAX_ROUNDS, MAX_WINDOW
from capchain.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    compare_statistics,
    main,
)

from _testlib import COPRIME_CHAIN, fraction_text, run_python, small_chains

CHAIN_DOC = {
    "transient": ["a", "b"],
    "absorbing": ["z"],
    "support": {"min": 0, "max": 3},
    "start": "b",
    "edges": [
        {"src": "a", "dst": "b", "prob": "1/2", "weight": 1},
        {"src": "a", "dst": "z", "prob": "1/2", "weight": 3},
        {"src": "b", "dst": "z", "prob": "1", "weight": 2},
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# analyze


def test_analyze_text_matches_library_render(capsys):
    code, out, err = run_cli(capsys, "analyze", "--builtin", "simplified")
    assert code == EXIT_OK
    assert err == ""
    spec = builtin_game("simplified")
    record = run_absorption(compile_game(spec), "1", 60)
    assert out == render_stats(summarize(record), 13)


def test_analyze_is_bit_identical_across_runs(capsys):
    first = run_cli(capsys, "analyze", "--builtin", "simplified", "--format", "json")
    second = run_cli(capsys, "analyze", "--builtin", "simplified", "--format", "json")
    assert first == second
    assert first[0] == EXIT_OK


def test_analyze_json_document(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "simplified", "--format", "json", "-M", "40"
    )
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["M"] == 40
    assert set(document) == {
        "win_probability",
        "chicks",
        "rounds",
        "correlation",
        "epsilon",
        "M",
    }


def test_analyze_full_record_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--builtin",
        "simplified",
        "--format",
        "json",
        "--full-record",
        "-M",
        "10",
    )
    assert code == EXIT_OK
    document = json.loads(out)
    entries = document["record"]
    assert entries
    assert all(entry["state"] == "9" for entry in entries)
    assert [entry["round"] for entry in entries] == sorted(
        entry["round"] for entry in entries
    )
    assert all(set(entry) == {"round", "state", "mass", "coefficients"} for entry in entries)


def test_analyze_full_record_text(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "simplified", "--full-record", "-M", "5"
    )
    assert code == EXIT_OK
    assert "absorbed polynomials (conditional on absorption):" in out
    assert "round   3  state    9" in out


def fraction_built_report(record, fmt):
    """The full-record report built the plain way: a Fraction per cell, `json.dumps` over the record.

    Rows are written with `fraction_text`, never `str(poly)`, which is the code under test.
    """
    stats = summarize(record)
    entries = sorted(record.conditional().absorbed.items())
    if fmt == "text":
        return render_stats(stats, 13) + "\nabsorbed polynomials (conditional on absorption):\n" + "".join(
            f"round {round_index:>3}  state {state:>4}  {fraction_text(poly)}\n" for (round_index, state), poly in entries
        )
    report = stats_json_dict(stats, 13)
    report["record"] = [
        {
            "round": round_index,
            "state": state,
            "mass": str(poly.mass()),
            "coefficients": {str(exponent): str(coeff) for exponent, coeff in poly.terms()},
        }
        for (round_index, state), poly in entries
    ]
    return json.dumps(report, indent=2) + "\n"


# All mass is absorbed by round 2, so epsilon is 0 and conditional() scales each row by 1.
CERTAIN_CHAIN = WeightedMarkovChain(
    ("t0", "t1"), ("a0",), (Edge("t0", "t1", Fraction(1), 1), Edge("t1", "a0", Fraction(1), 2)), (0, 3)
)


@settings(deadline=None)
@given(chain=small_chains(), rounds=st.integers(1, 10), fmt=st.sampled_from(["text", "json"]))
@example(chain=CERTAIN_CHAIN, rounds=3, fmt="text")
@example(chain=CERTAIN_CHAIN, rounds=3, fmt="json")
@example(chain=COPRIME_CHAIN, rounds=8, fmt="text")
@example(chain=COPRIME_CHAIN, rounds=8, fmt="json")
def test_full_record_matches_the_fraction_built_report(chain, rounds, fmt):
    record = run_absorption(chain, chain.transient[0], rounds)
    assume(record.epsilon != 1)
    config = argparse.Namespace(format=fmt, full_record=True, digits=13)
    expected = fraction_built_report(record, fmt)
    assert "".join(cli._analysis_report(record, config)) == expected


def test_analyze_degenerate_horizon(capsys):
    code, out, err = run_cli(capsys, "analyze", "--builtin", "simplified", "-M", "1")
    assert code == EXIT_OK
    assert "no mass absorbed within the horizon; statistics undefined" in out
    assert err == ""


def test_analyze_degenerate_horizon_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--builtin",
        "simplified",
        "-M",
        "1",
        "--format",
        "json",
        "--full-record",
    )
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["statistics"] is None
    assert document["epsilon"] == {"decimal": "1", "fraction": "1"}
    assert document["record"] == []


def test_analyze_accepts_game_file(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(
        json.dumps({"animals": ["C", "S"], "board": "0,0,S,C,0,C,0,S,*", "blue": [3, 6]})
    )
    _, from_file, _ = run_cli(capsys, "analyze", str(path))
    _, from_builtin, _ = run_cli(capsys, "analyze", "--builtin", "simplified")
    assert from_file == from_builtin


def test_analyze_chain_document_with_start(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOC))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_OK
    document = json.loads(out)
    # From "b" the single edge absorbs at capital 2; the window top (3) wins.
    assert document["chicks"]["mean"]["fraction"] == "2"
    assert document["win_probability"]["fraction"] == "0"
    assert document["rounds"]["mean"]["fraction"] == "1"


def test_analyze_chain_unknown_start(tmp_path, capsys):
    doc = dict(CHAIN_DOC, start="nope")
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "start state" in err


def test_analyze_invalid_chain_reports_violations(tmp_path, capsys):
    doc = {
        "transient": ["a"],
        "absorbing": ["z"],
        "support": {"min": 0, "max": 2},
        "edges": [{"src": "a", "dst": "z", "prob": "1/3", "weight": 1}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "error:" in err
    assert "sum to 1/3" in err


def test_analyze_chain_without_transient_states_is_a_usage_error(tmp_path, capsys):
    doc = {"transient": [], "absorbing": ["z"], "support": {"min": 0, "max": 2}, "edges": []}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dict(doc, start="z")))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "error: chain has no transient state" in err


# A window one cell over the limit: an engine without the check runs it
# quickly, so this test cannot exhaust memory on such an engine either.
@pytest.mark.parametrize(
    "doc",
    [
        dict(CHAIN_DOC, support={"min": 0, "max": MAX_WINDOW}),
        {"animals": ["C"], "board": ["0"] * MAX_WINDOW},
    ],
    ids=["chain-support", "game-win-threshold"],
)
def test_capital_window_over_the_limit_is_a_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: capital window [0, {MAX_WINDOW}] exceeds the {MAX_WINDOW}-cell limit" in err


# 3000 animals on 3001 playable squares, a 52 KB document: `GameSpec.moves`
# held 9,003,000 moves (865 MB) and `compile_game` made 4.5 million edges.
# Each command refuses the board before it builds either, in a child with
# 1.5 GB of address space, so code without the limit fails here instead of
# exhausting memory.  The child reports its own peak, VmHWM in kB, which exec
# resets: ru_maxrss would start at the high-water mark of the forking process.
@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--trials", "10"], ["compare", "--trials", "10"], ["dump-chain"]])
def test_a_board_past_the_move_limit_is_a_usage_error(tmp_path, argv):
    tags = [f"t{index}" for index in range(3000)]
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"animals": tags, "board": ["0", *tags]}))
    measured = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        "from capchain.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    proc = run_python(measured, *argv, str(path), timeout=60)
    refusal = f"error: board of 3002 squares x 3000 animals exceeds the limit of {MAX_MOVES} square-animal pairs\n"
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, refusal)
    assert int(proc.stdout) < 64 * 1024


def leaky_chain(denominator):
    """A one-state chain that stays put with probability 1 - 1/denominator."""
    stay = Fraction(denominator - 1, denominator)
    return {
        "transient": ["a"],
        "absorbing": ["z"],
        "support": {"min": 0, "max": 3},
        "edges": [
            {"src": "a", "dst": "a", "prob": str(stay), "weight": 1},
            {"src": "a", "dst": "z", "prob": str(1 - stay), "weight": 1},
        ],
    }


# 2**(bits - 1) is the smallest denominator with that many bits.  The
# third document's probabilities do not sum to 1, and that sum has an
# 8000-digit denominator: it is refused for the lcm, not added up.
@pytest.mark.parametrize(
    "doc, refused",
    [
        (leaky_chain(2 ** (MAX_DENOMINATOR_BITS - 1)), False),
        (leaky_chain(2**MAX_DENOMINATOR_BITS), True),
        (
            dict(
                leaky_chain(2),
                edges=[
                    {"src": "a", "dst": "z", "prob": f"1/{10**3999 + odd}", "weight": 1}
                    for odd in (1, 3)
                ],
            ),
            True,
        ),
    ],
    ids=["at-limit", "one-bit-over", "huge-unsound-sum"],
)
def test_denominator_over_the_limit_is_a_usage_error(tmp_path, capsys, doc, refused):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", str(path), "-M", "5")
    if not refused:
        assert (code, err) == (EXIT_OK, "")
        return
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: the lcm of the edge probability denominators exceeds the "
        f"{MAX_DENOMINATOR_BITS}-bit limit\n"
    )


# 4300 digits is the longest integer the interpreter converts to text by
# default; the sum of two such numbers, or the number itself in a
# diagnostic, used to end in a traceback.
@pytest.mark.parametrize(
    "prob, problem",
    [("9" * 4300, "exceeds 1"), ("-" + "9" * 4300, "is not positive")],
    ids=["huge-positive", "huge-negative"],
)
def test_huge_probabilities_are_a_usage_error(tmp_path, capsys, prob, problem):
    edge = {"src": "a", "dst": "z", "prob": prob, "weight": 1}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dict(leaky_chain(2), edges=[edge, edge])))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "".join(
        f"error: edge[{index}] 'a'->'z': probability {problem}\n" for index in (0, 1)
    )


@pytest.mark.parametrize(
    "prob, message", [("3/2", "probability 3/2 exceeds 1"), (0, "probability 0 is not positive")]
)
def test_short_bad_probabilities_are_printed(tmp_path, capsys, prob, message):
    edge = {"src": "a", "dst": "z", "prob": prob, "weight": 1}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dict(leaky_chain(2), edges=[edge])))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: edge[0] 'a'->'z': {message}\n")


@pytest.mark.parametrize("full_record", [False, True])
def test_fractions_past_the_int_digit_limit_render(tmp_path, capsys, full_record):
    # epsilon's denominator, 100000**450, has 2251 digits; its statistics'
    # denominators run past the interpreter's 4300-digit int -> str limit.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(leaky_chain(100000)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    argv = ["analyze", str(path), "-M", "450", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, *(["--full-record"] if full_record else []))
    assert (code, err) == (EXIT_OK, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    document = json.loads(out)
    assert Fraction(document["epsilon"]["fraction"]) == Fraction(99999, 100000) ** 450
    assert len(document.get("record", [])) == (450 if full_record else 0)


# A walk whose rows spread over a 10000-cell window: its record at M = 1000
# sums to 3.3e9 cell bits, and printing it used to pass 2 GB.  Run to the end
# it needs about 450 MB; the child gets 1.5 GB of address space and two minutes,
# so an engine without the limit fails here instead of exhausting memory.
def test_full_record_over_the_limit_is_a_usage_error(tmp_path):
    walk = {
        "transient": ["a"],
        "absorbing": ["z"],
        "support": {"min": -5000, "max": 4999},
        "edges": [
            {"src": "a", "dst": "a", "prob": "1/2", "weight": 3},
            {"src": "a", "dst": "a", "prob": "1/4", "weight": -2},
            {"src": "a", "dst": "z", "prob": "1/4", "weight": 0},
        ],
    }
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(walk))
    limited = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        "from capchain.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = run_python(limited, "analyze", str(path), "-M", "1000", "--format", "json", "--full-record", timeout=120)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith("error: the full record holds ")
    assert proc.stderr.endswith(f" cells x denominator bits, over the {MAX_RECORD_BITS} limit\n")
    # Stopped within a round of the limit, not after all 1000 rounds (3.3e9).
    held = int(proc.stderr.removeprefix("error: the full record holds at least ").split(" ", 1)[0])
    assert MAX_RECORD_BITS < held < 2 * MAX_RECORD_BITS


@pytest.mark.parametrize("command", ["analyze", "compare", "simulate"])
def test_horizon_over_the_limit_is_a_usage_error(capsys, command):
    argv = [command, "--builtin", "simplified", "-M", str(MAX_ROUNDS + 1)]
    if command != "analyze":
        argv += ["--trials", "10"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: horizon must be an integer between 1 and {MAX_ROUNDS}, got {MAX_ROUNDS + 1}\n"


def report_rows(out):
    """(label, value) per line of a text report; labels hold single spaces only."""
    return [tuple(part.strip() for part in line.split("  ", 1)) for line in out.splitlines()]


@pytest.mark.parametrize("digits", [28, 40])
def test_long_digits_round_to_the_default_report(capsys, digits):
    _, reference, _ = run_cli(capsys, "analyze", "--builtin", "full")
    code, out, err = run_cli(capsys, "analyze", "--builtin", "full", "--digits", str(digits))
    assert (code, err) == (EXIT_OK, "")
    rows, expected = report_rows(out), report_rows(reference)
    assert [label for label, _ in rows] == [label for label, _ in expected]
    for (label, value), (_, short) in zip(rows, expected):
        if label == "epsilon":
            with localcontext() as ctx:
                ctx.prec = 13
                assert str(+Decimal(value)) == short
        elif "." in value:
            assert len(value.split(".")[1]) == digits
            assert format_fraction(Fraction(value), 13) == short
        else:
            assert value == short


# Refused before any document is read: a missing file would be refused with its own line.
def test_digits_over_the_limit_is_a_usage_error(capsys, tmp_path):
    for command in (["analyze"], ["compare", "--trials", "10"]):
        for source in (["--builtin", "simplified"], [str(tmp_path / "missing.json")]):
            code, out, err = run_cli(capsys, *command, *source, "--digits", "41")
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error: digits 41 exceeds the limit of 40 places\n"


def test_zero_skewness_renders_in_fixed_point(tmp_path, capsys):
    path = tmp_path / "symmetric.json"
    edges = [{"src": "a", "dst": "z", "prob": "1/2", "weight": w} for w in (1, 3)]
    path.write_text(
        json.dumps(
            {"transient": ["a"], "absorbing": ["z"], "support": {"min": 0, "max": 4}, "edges": edges}
        )
    )
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert dict(report_rows(out))["chick skewness"] == "0.0000000000000"
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert json.loads(out)["chicks"]["skewness"] == "0.0000000000000"


# dump-chain and chain round trips


def test_dump_chain_uses_exact_probability_strings(capsys):
    code, out, _ = run_cli(capsys, "dump-chain", "--builtin", "simplified")
    assert code == EXIT_OK
    document = json.loads(out)
    probs = {edge["prob"] for edge in document["edges"]}
    assert probs == {"1/3", "2/3"}
    assert "0.3" not in out
    assert document["support"] == {"min": 0, "max": 8}


def test_dumped_chain_analyzes_identically_to_the_game(tmp_path, capsys):
    _, dumped, _ = run_cli(capsys, "dump-chain", "--builtin", "simplified")
    path = tmp_path / "chain.json"
    path.write_text(dumped)
    _, as_chain, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    _, as_game, _ = run_cli(
        capsys, "analyze", "--builtin", "simplified", "--format", "json"
    )
    assert as_chain == as_game


def test_dump_chain_refuses_chain_input(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOC))
    code, _, err = run_cli(capsys, "dump-chain", str(path))
    assert code == EXIT_USAGE
    assert "needs a game spec" in err


# simulate


def test_simulate_cli_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--builtin",
        "simplified",
        "--trials",
        "400",
        "--seed",
        "11",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    report = simulate(builtin_game("simplified"), 400, 11, round_cap=600)
    assert json.loads(out) == json.loads(json.dumps(report.to_json_dict()))


def test_simulate_cli_is_deterministic(capsys):
    argv = ("simulate", "--builtin", "simplified", "--trials", "500", "--seed", "9")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_simulate_text_report(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--builtin", "simplified", "--trials", "200", "--seed", "1"
    )
    assert code == EXIT_OK
    rows = {}
    for line in out.splitlines():
        label, value = line.rsplit("  ", 1)
        rows[label.rstrip()] = value
    assert rows["trials"] == "200"
    assert rows["round cap"] == "600"
    assert rows["censored"] == "0"
    assert float(rows["win rate"]) == int(rows["wins"]) / 200


# Each count has one owner, its check in the package root: the command line
# prints that check's one message, with no usage banner, and refuses the count
# before it reads any document (the input path does not exist).
@pytest.mark.parametrize(
    "argv, check",
    [
        (["analyze", "-M", "0"], check_rounds),
        (["analyze", "-M", "-3"], check_rounds),
        (["analyze", "-M", str(MAX_ROUNDS + 1)], check_rounds),
        (["analyze", "--digits", "0"], check_digits),
        (["analyze", "--digits", "41"], check_digits),
        (["simulate", "--trials", "0"], check_trials),
        (["compare", "--trials", "0"], check_trials),
    ],
    ids=["M-0", "M-negative", "M-over", "digits-0", "digits-over", "simulate-trials-0", "compare-trials-0"],
)
def test_each_count_is_refused_by_its_library_check(tmp_path, capsys, argv, check):
    with pytest.raises(UsageError) as refusal:
        check(int(argv[-1]))
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing.json"))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {refusal.value}\n")


@pytest.mark.parametrize(
    "argv, flag", [(["--trials", "x"], "--trials"), (["--trials", "1", "-M", "x"], "-M/--rounds")], ids=["trials", "M"]
)
def test_a_non_integer_count_is_refused_by_the_parser(capsys, argv, flag):
    code, out, err = run_cli(capsys, "simulate", "--builtin", "full", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: ")
    assert err.endswith(f"error: argument {flag}: invalid int value: 'x'\n")


def test_an_unknown_board_is_refused_by_builtin_game(capsys):
    code, out, err = run_cli(capsys, "analyze", "--builtin", "nope")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: unknown builtin game 'nope'; expected one of ['full', 'simplified']\n"


# compare


def test_compare_passes_on_the_builtin_game(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--builtin",
        "simplified",
        "--trials",
        "50000",
        "--seed",
        "3",
    )
    assert code == EXIT_OK
    assert "result    PASS (6/6)" in out
    assert "FAIL" not in out


def test_compare_json_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--builtin",
        "simplified",
        "--trials",
        "20000",
        "--seed",
        "3",
        "--format",
        "json",
    )
    document = json.loads(out)
    assert document["pass"] is (code == EXIT_OK)
    assert len(document["statistics"]) == 6
    assert {row["name"] for row in document["statistics"]} == {
        "win rate",
        "chick mean",
        "chick variance",
        "rounds mean",
        "rounds variance",
        "correlation",
    }


def test_compare_statistics_rejects_a_shifted_mean():
    spec = builtin_game("simplified")
    chain = compile_game(spec)
    record = run_absorption(chain, "1", 60)
    stats = summarize(record)
    report = simulate(spec, 20000, seed=3)
    rows, all_pass = compare_statistics(stats, report)
    assert all_pass

    doctored = report._replace(chick_mean=report.chick_mean + 1.0)
    rows, all_pass = compare_statistics(stats, doctored)
    assert not all_pass
    failures = {row.name for row in rows if not row.passed}
    assert failures == {"chick mean"}


def test_compare_statistics_fails_every_row_when_every_trial_was_censored():
    spec = builtin_game("simplified")
    stats = summarize(run_absorption(compile_game(spec), "1", 60))
    report = simulate(spec, 50, seed=3, round_cap=1)
    assert report.censored == report.trials
    rows, all_pass = compare_statistics(stats, report)
    assert not all_pass
    assert [(row.stderr, row.z, row.passed) for row in rows] == [(0.0, None, False)] * 6


@pytest.mark.parametrize("shift, z, passed", [(0.0, None, True), (0.5, inf, False)], ids=["equal", "different"])
def test_a_zero_variance_statistic_passes_only_on_its_exact_value(shift, z, passed):
    spec = builtin_game("simplified")
    stats = summarize(run_absorption(compile_game(spec), "1", 60))
    stats = stats._replace(chick_variance=Fraction(0))  # the chick mean's sampling variance
    report = simulate(spec, 200, seed=3)._replace(chick_mean=float(stats.chick_mean) + shift)
    row = next(row for row in compare_statistics(stats, report)[0] if row.name == "chick mean")
    assert (row.stderr, row.z, row.passed) == (0.0, z, passed)


def test_compare_exit_code_signals_failure(capsys):
    # Seed 180 was hunted to land a > 4 standard error fluctuation at
    # 120 trials, so this run must report the failure and exit 1.
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--builtin",
        "simplified",
        "--trials",
        "120",
        "--seed",
        "180",
    )
    assert code == EXIT_RUNTIME
    assert "FAIL" in out
    assert "result    FAIL" in out


def test_compare_degenerate_horizon_is_a_usage_error(capsys):
    # One round absorbs nothing, so there is no exact distribution to
    # compare against; the CLI reports the condition rather than crash.
    code, _, err = run_cli(
        capsys,
        "compare",
        "--builtin",
        "simplified",
        "--trials",
        "50",
        "-M",
        "1",
    )
    assert code == EXIT_USAGE
    assert "no mass was absorbed" in err


# shared plumbing


def test_output_flag_writes_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--builtin",
        "simplified",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["M"] == 60
    # The file gets byte for byte what stdout gets: a JSON report, and a full
    # record in either format, which is written as a list of parts.
    for extra in (["--format", "json"], ["--format", "json", "--full-record"], ["--full-record"]):
        argv = ["analyze", "--builtin", "simplified", "-M", "20", *extra]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert run_cli(capsys, *argv, "--output", str(target)) == (EXIT_OK, "", "")
        assert target.read_bytes() == out.encode()


def test_output_into_a_missing_directory_is_a_runtime_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "analyze", "--builtin", "simplified", "--output", str(target))
    assert (code, out) == (EXIT_RUNTIME, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


def test_missing_input_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == EXIT_USAGE
    assert "exactly one input" in err


def test_two_inputs_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "analyze", str(path), "--builtin", "full")
    assert code == EXIT_USAGE
    assert "exactly one input" in err


def test_unreadable_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_invalid_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{}", "cannot read"), (b'{"edges": ' + b"1" * 5000 + b"}", "invalid JSON")],
)
def test_undecodable_file_is_a_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert message in err


def test_files_are_read_and_written_as_utf8_whatever_the_locale(tmp_path, capsys):
    # JSON is UTF-8 (RFC 8259); an ASCII locale must not decide how a document is read or a report written.
    name = "\u00fcn\u00ef"
    edges = [{**edge, "dst": name} if edge["dst"] == "z" else edge for edge in CHAIN_DOC["edges"]]
    path, target = tmp_path / "chain.json", tmp_path / "record.txt"
    path.write_bytes(json.dumps({**CHAIN_DOC, "absorbing": [name], "edges": edges}, ensure_ascii=False).encode())
    code, expected, _ = run_cli(capsys, "analyze", str(path), "--full-record")
    assert code == EXIT_OK and name in expected
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    probe = "import sys\nfrom capchain.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = run_python(probe, "analyze", str(path), "--full-record", "--output", str(target), env=ascii_locale)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
    assert target.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("wrapper", ["{}", '{{"board": {}}}'], ids=["top-level", "under-board"])
def test_too_deeply_nested_json_is_a_usage_error(tmp_path, capsys, wrapper):
    path = tmp_path / "deep.json"
    path.write_text(wrapper.format("[" * 100_000 + "]" * 100_000))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {path}: invalid JSON: ")


def test_document_without_board_or_edges(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"stuff": 1}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "neither" in err


def test_bad_game_spec_lists_diagnostics(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"animals": ["C"], "board": ["0", "X", "*"]}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_USAGE
    assert "unknown animal tag" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # Only the package's own input errors map to exit 2; a ValueError
    # from inside the program is a bug and must surface as one.
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "summarize", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", "--builtin", "simplified"])
    monkeypatch.setattr(cli, "simulate", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["simulate", "--builtin", "simplified", "--trials", "1"])


@pytest.mark.parametrize(
    "error", [UsageError, RecordTooLargeError, ChainFormatError, InvalidChainError, GameSpecError],
    ids=lambda error: error.__name__,
)
def test_exit_2_follows_the_usage_error_type(monkeypatch, capsys, error):
    # `main` maps the type, whichever layer raised it: one line per problem.
    assert issubclass(error, UsageError) and issubclass(error, ValueError)

    def refuse(*args, **kwargs):
        raise error(["first problem", "second problem"])

    monkeypatch.setattr(cli, "summarize", refuse)
    assert main(["analyze", "--builtin", "simplified"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: first problem\nerror: second problem\n")


def test_unknown_subcommand_exits_with_usage(capsys):
    assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE


def test_no_subcommand_exits_with_usage(capsys):
    assert run_cli(capsys)[0] == EXIT_USAGE


# The names perfbench's tracer wraps in this module, and the layer each lives in.
TRACED = {
    "parse_game_spec": "game",
    "compile_game": "game",
    "chain_from_json_dict": "chain",
    "run_absorption": "chain",
    "summarize": "stats",
    "render_stats": "stats",
    "stats_json_dict": "stats",
    "simulate": "simulator",
}


def test_layer_functions_resolve_before_any_command_and_a_wrapper_wins():
    # A fresh interpreter, so no command has bound anything yet.
    probe = (
        "import sys\nfrom capchain import cli\n"
        f"for name, layer in {TRACED!r}.items():\n"
        "    assert getattr(cli, name) is getattr(sys.modules['capchain.' + layer], name), name\n"
        "def wrapper(*args, **kwargs):\n    raise ValueError('wrapped')\n"
        "cli.simulate = wrapper\n"
        "try:\n    cli.main(['simulate', '--builtin', 'simplified', '--trials', '1'])\n"
        "except ValueError as exc:\n    print(exc)\n"
    )
    proc = run_python(probe)
    assert (proc.returncode, proc.stdout) == (0, "wrapped\n"), proc.stderr
    with pytest.raises(AttributeError, match=r"^module 'capchain\.cli' has no attribute 'nope'$"):
        cli.nope


def test_simulate_refuses_an_unsound_game_without_loading_the_engine(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"animals": ["C"], "board": ["0", "X", "*"], "blue": [1]}))
    probe = (
        "import sys\nfrom capchain.cli import main\n"
        "code = main(['simulate', sys.argv[1], '--trials', '1'])\n"
        "print(code, 'capchain.chain' in sys.modules)\n"
    )
    proc = run_python(probe, str(path))
    assert (proc.stdout, proc.stderr) == (
        f"{EXIT_USAGE} False\n",
        "error: square 2: unknown animal tag 'X'\nerror: blue square 1 is outside 2..3\n",
    )
