"""Command-line front door: analyze, simulate, compare, dump-chain.

`analyze` runs the exact engine on a game board or a chain file and
prints the summary statistics; `simulate` plays the game with the
seeded Monte Carlo sampler; `compare` runs both and checks every
statistic at 4 standard errors; `dump-chain` prints the compiled
chain as JSON.  Input documents are autodetected: a top-level "board"
field means a game spec, a top-level "edges" field means a chain.
`_run_exact` is the one exact run and `_emit` the one writer; a report
stays a text string or a JSON dict until `_emit` writes it, except a report
with the full record: `_analysis_report` writes it out itself as a list of
text parts, which `_emit` writes one by one.  A record row prints itself
(`str(poly)`, `poly.texts()`): this module keeps only the report layout.

A command reads each layer function as an attribute of this module
(`_cli.simulate`), which the package's table of homes resolves on first
read, so a command loads exactly the layers it calls: `simulate` loads
the game and the simulator, never the exact engine, the statistics,
`fractions` or `decimal`; `analyze` never loads the simulator, and loads
the game only for a game input.

Exit codes: 0 success, 1 runtime failure (including a failed comparison),
2 any `capchain.UsageError`, one `error:` line per problem.  The layer whose
argument is at fault raises it; this module checks only flags and files.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from math import inf, sqrt
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

from . import MAX_DIGITS, MAX_RECORD_BITS, MAX_ROUNDS, UsageError, decode_json, format_rows

if TYPE_CHECKING:
    from fractions import Fraction

    from .chain import AbsorptionRecord
    from .game import GameSpec
    from .simulator import SimulationReport
    from .stats import SummaryStats

# Commands call each layer function as an attribute of this module
# (`_cli.summarize`), so a wrapper or a patch set on the module wins.  The
# handle is the running module even under `python -m capchain.cli`, where
# importing `capchain.cli` would make a second one.  `__getattr__` binds a
# name here on first read, through the package's table of homes.
_cli = sys.modules[__name__]


def __getattr__(name: str) -> object:
    package = sys.modules[__package__]
    if name not in package._HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _load_document(config: argparse.Namespace) -> Union[GameSpec, dict]:
    """Load the input as a GameSpec or a raw chain dict, autodetected."""
    if (config.builtin is None) == (config.input_path is None):
        raise UsageError("provide exactly one input: a file path or --builtin")
    if config.builtin is not None:
        return _cli.builtin_game(config.builtin)
    try:
        with open(config.input_path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {config.input_path}: {exc}") from None
    data = decode_json(text, where=f"{config.input_path}: ")
    if isinstance(data, dict) and "board" in data:
        return _cli.parse_game_spec(data)
    if isinstance(data, dict) and "edges" in data:
        return data
    raise UsageError(
        f"{config.input_path}: document has neither a 'board' (game) nor an "
        f"'edges' (chain) field"
    )


def _run_exact(document: Union[GameSpec, dict], rounds: int, max_record_bits: float = inf) -> AbsorptionRecord:
    """Run the exact engine on a loaded input and return its record.

    A game starts on square "1"; a chain starts at its "start" state (default: its
    first transient state), which `run_absorption` checks.  Both win at the window's
    top, `record.support[1]`: a game's window is 0..win_threshold.  A record past
    `max_record_bits` raises RecordTooLargeError during the run.
    """
    if isinstance(document, dict):
        chain = _cli.chain_from_json_dict(document)
        start = document.get("start", chain.transient[0])
    else:
        chain, start = _cli.compile_game(document), "1"
    return _cli.run_absorption(chain, start, rounds, max_record_bits)


def _require_game(config: argparse.Namespace) -> GameSpec:
    document = _load_document(config)
    if isinstance(document, dict):
        raise UsageError(f"{config.command} needs a game spec, not a chain document")
    return document


@contextmanager
def _unlimited_int_text():
    """Lift the int -> str digit limit while exact results render; input parsing keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _emit(report: Union[str, list[str], dict], config: argparse.Namespace) -> None:
    """Write a text report or a list of text parts as is, or a JSON report dict as an indented document."""
    if isinstance(report, dict):
        report = json.dumps(report, indent=2) + "\n"
    parts = [report] if isinstance(report, str) else report
    if config.output:
        with open(config.output, "w", encoding="utf-8") as out:
            out.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _analysis_report(record: AbsorptionRecord, config: argparse.Namespace) -> Union[str, list[str], dict]:
    """The analyze report: text, or the JSON report dict; with the full record, a list of text parts.

    A full record is never joined into one string: `_emit` writes its parts as they are.

    The record's JSON is written here as `json.dumps(report, indent=2)` would write
    it, an array after the statistics (absorbed rows are never zero), because with
    an indent `json.dumps` runs its pure-Python encoder over every cell.
    """
    as_json = config.format == "json"
    if record.epsilon == 1:
        if not as_json:
            note = "no mass absorbed within the horizon; statistics undefined\n"
            return format_rows([("horizon M", record.rounds_run), ("epsilon", 1)]) + note
        epsilon = _cli.epsilon_pair(record.epsilon, config.digits)
        empty = {"record": []} if config.full_record else {}
        return {"M": record.rounds_run, "epsilon": epsilon, "statistics": None, **empty}
    stats = _cli.summarize(record)
    report = (_cli.stats_json_dict if as_json else _cli.render_stats)(stats, config.digits)
    if not config.full_record:
        return report
    entries = sorted(record.conditional().absorbed.items())
    if not as_json:
        parts = [report, "\nabsorbed polynomials (conditional on absorption):\n"]
        parts += [f"round {round_index:>3}  state {state:>4}  {poly}\n" for (round_index, state), poly in entries]
        return parts
    parts = [json.dumps(report, indent=2)[:-2], ',\n  "record": [']  # the statistics less their closing "\n}"
    for (round_index, state), poly in entries:
        mass, cells = poly.texts()
        coefficients = ",".join(f'\n        "{exponent}": "{text}"' for exponent, text in cells)
        parts.append(
            f'\n    {{\n      "round": {round_index},\n      "state": {encode_basestring_ascii(state)},'
            f'\n      "mass": "{mass}",\n      "coefficients": {{{coefficients}\n      }}\n    }},'
        )
    parts[-1] = parts[-1][:-1]  # no comma after the last entry
    parts.append("\n  ]\n}\n")
    return parts


def cmd_analyze(config: argparse.Namespace) -> int:
    limit = MAX_RECORD_BITS if config.full_record else inf
    record = _run_exact(_load_document(config), config.rounds, limit)
    with _unlimited_int_text():
        _emit(_analysis_report(record, config), config)
    return EXIT_OK


def cmd_simulate(config: argparse.Namespace) -> int:
    spec = _require_game(config)
    report = _cli.simulate(spec, config.trials, config.seed, round_cap=10 * config.rounds)
    fields = report.to_json_dict()
    if config.format == "json":
        _emit(fields, config)
    else:
        # Every scalar field, with the win rate after the win count.
        rows = [(key.replace("_", " "), value) for key, value in fields.items()
                if not key.endswith("histogram")]
        rows.insert(6, ("win rate", report.wins / report.completed if report.completed else None))
        _emit(format_rows(rows), config)
    return EXIT_OK


class ComparisonRow(NamedTuple):
    name: str
    exact: float
    empirical: Optional[float]
    stderr: float
    z: Optional[float]
    passed: bool


def compare_statistics(
    stats: SummaryStats, report: SimulationReport
) -> tuple[list[ComparisonRow], bool]:
    """Check each empirical statistic against its exact value at 4 standard errors.

    Standard errors come from the exact moments `summarize` put in
    `stats` (for example sqrt(p(1-p)/n) for the win rate and
    sqrt((m4 - var^2)/n) for a variance, m4 being the exact fourth
    central moment), so the check needs no confidence machinery on the
    empirical side and recomputes nothing from the record.
    """
    n = report.completed
    p, m2_c, m2_r = stats.win_probability, stats.chick_variance, stats.rounds_variance
    targets: list[tuple[str, Union[Fraction, float], Optional[float], Union[Fraction, float]]] = [
        ("win rate", p, report.wins / n if n else None, p * (1 - p)),
        ("chick mean", stats.chick_mean, report.chick_mean, m2_c),
        ("chick variance", m2_c, report.chick_variance, stats.chick_m4 - m2_c**2),
        ("rounds mean", stats.rounds_mean, report.rounds_mean, m2_r),
        ("rounds variance", m2_r, report.rounds_variance, stats.rounds_m4 - m2_r**2),
    ]
    if stats.correlation is not None:
        rho = float(stats.correlation)
        # Delta-method spread of a sample correlation around rho.
        targets.append(("correlation", rho, report.correlation, (1 - rho * rho) ** 2))
    rows = [_compare_one(name, float(exact), empirical, variance, n) for name, exact, empirical, variance in targets]
    return rows, all(row.passed for row in rows)


def _compare_one(
    name: str,
    exact: float,
    empirical: Optional[float],
    sampling_variance: Union[Fraction, float],
    n: int,
) -> ComparisonRow:
    if empirical is None or n == 0:
        return ComparisonRow(name, exact, empirical, 0.0, None, False)
    stderr = sqrt(sampling_variance / n) if sampling_variance > 0 else 0.0
    difference = abs(exact - empirical)
    if stderr == 0.0:
        return ComparisonRow(
            name, exact, empirical, 0.0, None if difference == 0 else inf,
            difference == 0,
        )
    z = difference / stderr
    return ComparisonRow(name, exact, empirical, stderr, z, z <= 4.0)


def cmd_compare(config: argparse.Namespace) -> int:
    spec = _require_game(config)
    stats = _cli.summarize(_run_exact(spec, config.rounds))
    report = _cli.simulate(spec, config.trials, config.seed, round_cap=10 * config.rounds)
    rows, all_pass = compare_statistics(stats, report)
    with _unlimited_int_text():
        epsilon = _cli.epsilon_pair(stats.epsilon, config.digits)
    if config.format == "json":
        payload = {
            "trials": report.trials,
            "seed": report.seed,
            "round_cap": report.round_cap,
            "censored": report.censored,
            "epsilon": epsilon,
            "statistics": [
                {
                    "name": row.name,
                    "exact": row.exact,
                    "empirical": row.empirical,
                    "stderr": row.stderr,
                    "z": row.z,
                    "pass": row.passed,
                }
                for row in rows
            ],
            "pass": all_pass,
        }
        _emit(payload, config)
    else:
        header = f"{'statistic':<16} {'exact':>14} {'empirical':>14} {'stderr':>12} {'z':>7}  result"
        lines = [header]
        for row in rows:
            empirical = "-" if row.empirical is None else f"{row.empirical:.10g}"
            z = "-" if row.z is None else f"{row.z:.2f}"
            lines.append(
                f"{row.name:<16} {row.exact:>14.10g} {empirical:>14} "
                f"{row.stderr:>12.3g} {z:>7}  {'pass' if row.passed else 'FAIL'}"
            )
        passed = sum(row.passed for row in rows)
        tail = [
            ("epsilon", epsilon["decimal"]),
            ("censored", report.censored),
            ("result", f"{'PASS' if all_pass else 'FAIL'} ({passed}/{len(rows)})"),
        ]
        _emit("".join(line + "\n" for line in lines) + format_rows(tail), config)
    return EXIT_OK if all_pass else EXIT_RUNTIME


def cmd_dump_chain(config: argparse.Namespace) -> int:
    spec = _require_game(config)
    _emit(_cli.dumps_chain(_cli.compile_game(spec)), config)
    return EXIT_OK


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "dump-chain": cmd_dump_chain,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capchain",
        description="Exact and Monte Carlo analysis of capped-capital absorbing chains.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, with_horizon: bool = True) -> None:
        sub.add_argument("input_path", nargs="?", metavar="input", help="game or chain JSON file")
        sub.add_argument(
            "--builtin",
            choices=["simplified", "full"],
            help="use a shipped board instead of a file",
        )
        if with_horizon:
            sub.add_argument(
                "-M",
                "--rounds",
                type=_positive_int,
                default=60,
                help="analysis horizon in rounds (default %(default)s)",
            )
        sub.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="output format",
        )
        sub.add_argument("--output", help="write the report to this path instead of stdout")

    digits = dict(type=_positive_int, default=13, help="rendered decimal places")
    analyze = subparsers.add_parser("analyze", help="exact absorption analysis")
    add_common(analyze)
    analyze.add_argument("--digits", **digits)
    analyze.add_argument(
        "--full-record",
        action="store_true",
        help="also emit every (round, state) absorbed polynomial",
    )

    sim = subparsers.add_parser("simulate", help="seeded Monte Carlo play")
    compare = subparsers.add_parser("compare", help="exact vs empirical at 4 standard errors")
    for sub in (sim, compare):
        add_common(sub)
        sub.add_argument("--trials", type=_positive_int, required=True)
        sub.add_argument("--seed", type=int, default=1)
    compare.add_argument("--digits", **digits)

    dump = subparsers.add_parser("dump-chain", help="print the compiled chain JSON")
    add_common(dump, with_horizon=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # dump-chain takes no -M, and simulate and dump-chain no --digits.
        if getattr(config, "rounds", 0) > MAX_ROUNDS:
            raise UsageError(f"horizon {config.rounds} exceeds the limit of {MAX_ROUNDS} rounds")
        if getattr(config, "digits", 0) > MAX_DIGITS:
            raise UsageError(f"--digits {config.digits} exceeds the limit of {MAX_DIGITS} places")
        return _COMMANDS[config.command](config)
    except UsageError as exc:
        for line in exc.problems:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
