"""Acceptance gate: one test per criterion, one printed line per criterion.

Each test prints `ACCEPTANCE criterion N: PASS/FAIL - summary` directly
to the real stderr so the verdicts are visible in any pytest run, then
asserts, so a regression fails the suite as usual.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from capchain import (
    CappedPolynomial,
    builtin_game,
    compile_game,
    render_stats,
    run_absorption,
    umbra_step,
)

from _oracle import brute_force_record, random_chain_data
from _testlib import chain_from_plain, plain_form, record_as_dicts, total_absorbed_mass

ROOT = Path(__file__).resolve().parent.parent


class _Outcome:
    def __init__(self):
        self.problems = []
        self.notes = []

    def check(self, condition, problem):
        if not condition:
            self.problems.append(problem)

    def note(self, text):
        self.notes.append(text)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_announcements(capsys):
    # Let verdict lines bypass pytest's output capture.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _announce(line):
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stderr__, flush=True)


@contextmanager
def criterion(number, summary):
    outcome = _Outcome()
    try:
        yield outcome
    except BaseException as exc:
        _announce(f"ACCEPTANCE criterion {number}: FAIL - {summary} ({exc!r})")
        raise
    detail = summary if not outcome.notes else f"{summary} ({'; '.join(outcome.notes)})"
    status = "PASS" if not outcome.problems else "FAIL"
    _announce(f"ACCEPTANCE criterion {number}: {status} - {detail}")
    assert not outcome.problems, outcome.problems


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "capchain.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def report_rows(text):
    rows = {}
    for line in text.splitlines():
        label, value = line.rsplit("  ", 1)
        rows[label.rstrip()] = value
    return rows


def mono(exponent, coeff, lo=0, hi=8):
    return CappedPolynomial.monomial(exponent, Fraction(coeff), lo, hi)


def as_dicts(vector):
    return {state: dict(poly.terms()) for state, poly in vector.items()}


# Frozen reference values for the full game at horizon 60, each checked
# at its own rendering precision.
REFERENCE_ROWS = [
    (13, {"win probability": "0.6410373996231", "chick variance": "1.2907513179745",
          "epsilon": "2.824702601091E-24"}),
    (14, {"chick mean": "39.32230439142343"}),
    (8, {"chick skewness": "-2.05489022", "rounds mean": "11.44706710",
         "rounds variance": "6.28030112"}),
    (7, {"chick kurtosis (raw)": "7.8590953"}),
    (12, {"correlation": "-0.527785421907"}),
]


def test_criterion_1_full_game_reference_report():
    with criterion(1, "full-game report reproduced digit for digit") as outcome:
        started = time.monotonic()
        for digits, expected in REFERENCE_ROWS:
            proc = run_cli(
                "analyze", "--builtin", "full", "-M", "60", "--digits", str(digits)
            )
            outcome.check(
                proc.returncode == 0,
                f"exit code {proc.returncode} at {digits} digits: {proc.stderr}",
            )
            rows = report_rows(proc.stdout)
            for label, value in expected.items():
                outcome.check(
                    rows.get(label) == value,
                    f"{label} at {digits} digits: got {rows.get(label)!r}, want {value!r}",
                )
        elapsed = time.monotonic() - started
        outcome.check(elapsed < 10, f"took {elapsed:.2f}s, budget 10s")
        outcome.note("kurtosis convention: raw, excess is raw minus 3")
        outcome.note(f"{elapsed:.1f}s for 5 CLI runs")


def test_criterion_2_exact_mass_conservation():
    with criterion(2, "absorbed mass plus live mass is exactly 1 every round") as outcome:
        rng = random.Random(20260821)
        targets = [
            ("simplified", compile_game(builtin_game("simplified"))),
            ("full", compile_game(builtin_game("full"))),
        ]
        targets += [
            (f"random chain {index}", chain_from_plain(random_chain_data(rng)))
            for index in range(50)
        ]
        for name, chain in targets:
            lo, hi = chain.support
            start = chain.transient[0]
            vector = {start: CappedPolynomial.monomial(min(max(0, lo), hi), Fraction(1), lo, hi)}
            absorbed_total = Fraction(0)
            for round_index in range(1, 61):
                vector, absorbed = umbra_step(chain, vector)
                absorbed_total += sum(
                    (poly.mass() for poly in absorbed.values()), Fraction(0)
                )
                live = sum((poly.mass() for poly in vector.values()), Fraction(0))
                if absorbed_total + live != 1:
                    outcome.check(
                        False, f"{name}: drift at round {round_index}"
                    )
                    break
            record = run_absorption(chain, start, 60)
            outcome.check(
                total_absorbed_mass(record) + record.epsilon == 1,
                f"{name}: record total differs from 1",
            )
        outcome.note("2 builtin games and 50 random chains, 60 rounds each")


def test_criterion_3_enumeration_equivalence():
    with criterion(3, "engine equals exhaustive path enumeration exactly") as outcome:
        chain = compile_game(builtin_game("simplified"))
        record = run_absorption(chain, "1", 8)
        oracle = brute_force_record(*plain_form(chain), start="1", rounds=8)
        outcome.check(
            record_as_dicts(record) == oracle, "simplified game differs at 8 rounds"
        )
        rng = random.Random(1009)
        for index in range(25):
            data = random_chain_data(rng)
            chain = chain_from_plain(data)
            rounds = rng.randint(1, 8)
            start = chain.transient[0]
            record = run_absorption(chain, start, rounds)
            oracle = brute_force_record(*data, start=start, rounds=rounds)
            outcome.check(
                record_as_dicts(record) == oracle,
                f"random chain {index} differs at {rounds} rounds",
            )
        outcome.note("simplified game at 8 rounds plus 25 random chains")


def test_criterion_4_single_step_evolutions():
    with criterion(4, "documented one-step evolutions reproduced") as outcome:
        chain = compile_game(builtin_game("simplified"))
        third = Fraction(1, 3)
        worked = {
            "1": ({"1": mono(0, third), "3": mono(3, third), "4": mono(3, third)}, {}),
            "4": ({"4": mono(0, third), "6": mono(3, third), "8": mono(4, third)}, {}),
            "6": ({"6": mono(0, third), "8": mono(2, third)}, {"9": mono(3, third)}),
        }
        for square, (expected_vector, expected_absorbed) in worked.items():
            vector, absorbed = umbra_step(chain, {square: mono(0, 1)})
            outcome.check(vector == expected_vector, f"square {square}: live part")
            outcome.check(absorbed == expected_absorbed, f"square {square}: absorbed part")
        # The remaining squares are checked against the enumeration
        # oracle rather than against any written-out line.
        for square in ("3", "8"):
            vector, absorbed = umbra_step(chain, {square: mono(0, 1)})
            oracle_absorbed, oracle_residual, _ = brute_force_record(
                *plain_form(chain), start=square, rounds=1
            )
            outcome.check(
                as_dicts(vector) == oracle_residual,
                f"square {square}: live part differs from oracle",
            )
            outcome.check(
                as_dicts(absorbed)
                == {state: cells for (_, state), cells in oracle_absorbed.items()},
                f"square {square}: absorbed part differs from oracle",
            )


def test_criterion_5_monte_carlo_agreement():
    with criterion(5, "one million seeded trials agree at 4 standard errors") as outcome:
        started = time.monotonic()
        proc = run_cli(
            "compare", "--builtin", "full", "--trials", "1000000", "--seed", "1",
            "--format", "json",
        )
        elapsed = time.monotonic() - started
        outcome.check(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr}")
        document = json.loads(proc.stdout)
        rows = {row["name"]: row for row in document["statistics"]}
        for name in ("win rate", "chick mean", "rounds mean"):
            outcome.check(rows[name]["pass"], f"{name}: z = {rows[name]['z']}")
        outcome.check(document["pass"], "not every statistic passed")
        outcome.check(elapsed < 60, f"took {elapsed:.1f}s, budget 60s")
        outcome.note(f"{elapsed:.1f}s, censored {document['censored']}")


def test_criterion_6_horizon_stability(
    full_stats_60, full_stats_80, full_record_60, full_record_80
):
    with criterion(6, "horizons 60 and 80 agree to 10 digits") as outcome:
        rows_60 = report_rows(render_stats(full_stats_60, 10))
        rows_80 = report_rows(render_stats(full_stats_80, 10))
        for label in sorted(set(rows_60) - {"horizon M", "epsilon"}):
            outcome.check(
                rows_60[label] == rows_80[label],
                f"{label}: {rows_60[label]} vs {rows_80[label]}",
            )
        outcome.check(
            full_record_80.epsilon < full_record_60.epsilon,
            "epsilon did not shrink with the horizon",
        )
        ratio = full_record_80.epsilon / full_record_60.epsilon
        outcome.note(f"epsilon shrank by a factor of {float(1 / ratio):.3g}")


def test_criterion_7_property_suite_standalone():
    with criterion(7, "property suite passes on its own") as outcome:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "tests/test_properties.py",
                "-q",
                "-p",
                "no:cacheprovider",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        outcome.check(
            proc.returncode == 0,
            f"exit code {proc.returncode}:\n{proc.stdout[-2000:]}",
        )
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        outcome.note(summary)
