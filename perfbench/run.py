#!/usr/bin/env python3
"""The capchain benchmark: run one workload with one seed, check every output.

    python3 perfbench/run.py --workload game-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  An untraced run (`--trace 0`) times fresh `capchain`
processes and prints the end-to-end metrics.  A traced run
(`--trace 1`) calls `cli.main` in process for the same invocations,
with spans around every layer, and prints the per-layer metrics.
Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  See README.md here.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import chains
import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_OUTPUT = "6295135 597283\n"

SETUP_SAMPLES = 31  # fresh interpreters timed for setup_s, per run
IMPORT_SAMPLES = 9  # fresh interpreters timed for import_s, per traced run
MIN_CALLS = 3  # timed invocations per run even when --seconds is short
BATCHES = 6  # a reported timing is the median of this many batch means
PROCESS_TIMEOUT_S = 150  # a child still running after this is killed
CHAIN_DOCUMENTS = 24
CHAIN_HORIZON = chains.PARAMETERS["horizon"]
MC_TRIALS = 60_000
MC_REFERENCE_HORIZON = 60
FULL_GAME_WIN = 40  # win threshold of the builtin full board

END_TO_END = {
    "setup_s": "s",
    "report_rel": "x",
    "peak_rss_mb": "MB",
}

# Printed for people after the end-to-end metrics, not in the result line:
# on a shared machine these swing with the host's speed (see README.md).
RAW_TIMES = {
    "report_s": "s",
    "reference_s": "s",
}

PER_LAYER = {
    "parse.self_s": "s",
    "parse.calls": "count",
    "parse.doc_bytes": "bytes",
    "compile.self_s": "s",
    "compile.states": "count",
    "compile.edges": "count",
    "evolve.self_s": "s",
    "evolve.step_s": "s",
    "evolve.rounds": "count",
    "evolve.scatter_ops": "count",
    "evolve.scatter_ops_per_s": "1/s",
    "evolve.live_states_max": "count",
    "evolve.coeff_bits_max": "bits",
    "summarize.self_s": "s",
    "summarize.calls": "count",
    "conditional.self_s": "s",
    "conditional.calls": "count",
    "render.self_s": "s",
    "render.bytes_out": "bytes",
    "simulate.self_s": "s",
    "simulate.trials": "count",
    "simulate.draws": "count",
    "simulate.draws_per_s": "1/s",
    "simulate.censored": "count",
    "cli.self_s": "s",
    "import_s": "s",
    "trace.count_s": "s",
    "trace.overhead_s": "s",
}

# What a fresh interpreter runs to measure set-up: import the package,
# load the workload's input and compile or decode it, then say "ready".
SETUP_GAME = "import capchain\ncapchain.compile_game(capchain.builtin_game('full'))\n"
SETUP_SPEC = "import capchain\ncapchain.builtin_game('full')\n"
SETUP_CHAIN = (
    "import json, sys\nimport capchain\n"
    "with open(sys.argv[1]) as handle:\n"
    "    chain = capchain.chain_from_json_dict(json.load(handle))\n"
    "if chain.validate():\n    sys.exit(1)\n"
)
READY = "print('ready', flush=True)\n"
IMPORT_CODE = (
    "from time import perf_counter\nstart = perf_counter()\nimport capchain\n"
    "print(perf_counter() - start)\n"
)


@dataclass
class Call:
    """One `capchain` invocation of a workload and the check of its output."""

    argv: list[str]
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    calls: list[Call]
    setup: list[list[str]]  # child commands timed for setup_s, used in turn
    self_check: Callable[[str], list[str]]  # run on the first good output


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")


class RunClock:
    """Decides whether one more iteration of a run's loop is due.

    It is while fewer than `minimum` iterations are done, or while the
    median iteration so far still fits in `seconds`; so a run of long
    iterations ends near its time instead of one iteration late.
    """

    def __init__(self, seconds: float, minimum: int) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.start = self.last = perf_counter()
        self.durations: list[float] = []
        self.running = False

    @property
    def iterations(self) -> int:
        """Iterations completed so far."""
        return len(self.durations)

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def another(self) -> bool:
        """Call once before each iteration; whether to run it."""
        now = perf_counter()
        if self.running:
            self.durations.append(now - self.last)
        self.running, self.last = True, now
        if self.iterations < self.minimum:
            return True
        return now - self.start + statistics.median(self.durations) <= self.seconds


# --- processes ---------------------------------------------------------------

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(argv: list[str], stdout, stderr) -> subprocess.Popen:
    return subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, cwd=ROOT, env=CHILD_ENV
    )


@contextmanager
def _killed_after_timeout(proc: subprocess.Popen):
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def run_cli(argv: list[str], stderr) -> tuple[float, float, int, str]:
    """Run `capchain ARGV` in a fresh interpreter; see `run_child`."""
    return run_child([sys.executable, "-m", "capchain.cli", *argv], stderr)


def run_child(argv: list[str], stderr) -> tuple[float, float, int, str]:
    """Run `argv` to its end.

    Returns the start time, the child's peak RSS in MB, its exit code and
    its standard output.
    """
    start = perf_counter()
    proc = _spawn(argv, subprocess.PIPE, stderr)
    with _killed_after_timeout(proc):
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it also returns this child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, usage.ru_maxrss / 1024, proc.returncode, out.decode()


def time_setup(argv: list[str]) -> tuple[float, bool]:
    """Seconds from spawning `argv` to its "ready" line, and whether it succeeded."""
    start = perf_counter()
    proc = _spawn(argv, subprocess.PIPE, subprocess.DEVNULL)
    with _killed_after_timeout(proc):
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        code = proc.wait()
    return ready, code == 0 and line == b"ready\n"


def call_main(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str]:
    """Call a `cli.main`-like function in process; returns exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def output_problems(call: Call, code: int, text: str) -> list[str]:
    return [f"exit code {code}"] if code else call.check(text)


# --- workloads ---------------------------------------------------------------


def _repeatable(check: Callable[[str], list[str]]) -> Callable[[str], list[str]]:
    """`check`, plus: every output equals the first one (same inputs, same seed)."""
    first: list[str] = []

    def checked(text: str) -> list[str]:
        problems = check(text)
        if not first:
            first.append(text)
        elif text != first[0]:
            problems.append("a repeated invocation is not byte-identical")
        return problems

    return checked


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from the seed and bind their checks."""
    setup_game = [sys.executable, "-c", SETUP_GAME + READY]
    if name == "game-exact":
        # The input is the frozen full board, so the seed changes nothing here.
        argv = ["analyze", "--builtin", "full", "-M", "120", "--format", "json", "--full-record"]
        return Workload(
            calls=[Call(argv, checks.check_game_exact)],
            setup=[setup_game],
            self_check=partial(
                checks.self_check, name, checks.check_game_exact, alter=checks.alter_fraction
            ),
        )
    if name == "chain-random":
        documents = chains.generate(seed, CHAIN_DOCUMENTS)
        calls, setup = [], []
        for index, document in enumerate(documents):
            path = workdir / f"chain-{index:02d}.json"
            path.write_text(json.dumps(document))
            check = partial(
                checks.check_chain_report,
                win_capital=document["support"]["max"],
                horizon=CHAIN_HORIZON,
            )
            argv = ["analyze", str(path), "-M", str(CHAIN_HORIZON), "--format", "json", "--full-record"]
            calls.append(Call(argv, check))
            setup.append([sys.executable, "-c", SETUP_CHAIN + READY, str(path)])
        return Workload(
            calls=calls,
            setup=setup,
            self_check=partial(
                checks.self_check, name, calls[0].check, alter=checks.alter_fraction
            ),
        )
    if name == "game-montecarlo":
        from capchain import cli

        code, text = call_main(
            cli.main,
            ["analyze", "--builtin", "full", "-M", str(MC_REFERENCE_HORIZON), "--format", "json", "--full-record"],
        )
        if code:
            raise RuntimeError(f"exact reference analysis exited with {code}")
        check = partial(
            checks.check_simulate_report,
            trials=MC_TRIALS,
            seed=seed,
            win_capital=FULL_GAME_WIN,
            reference=checks.exact_reference(text, FULL_GAME_WIN),
        )
        argv = ["simulate", "--builtin", "full", "--trials", str(MC_TRIALS), "--seed", str(seed), "--format", "json"]
        return Workload(
            calls=[Call(argv, _repeatable(check))],
            setup=[[sys.executable, "-c", SETUP_SPEC + READY]],
            self_check=partial(
                checks.self_check, name, check, alter=checks.bump_histogram_count
            ),
        )
    raise ValueError(name)


# --- runs --------------------------------------------------------------------


def run_untraced(workload: Workload, seconds: float, tally: Tally, workdir: Path):
    """Time fresh processes; returns samples per end-to-end metric and self-check problems.

    Timed invocations alternate with runs of the fixed reference
    computation, and a `report_rel` sample is an invocation's time over
    the mean of the two reference runs on either side of it.
    """
    samples: dict[str, list[float]] = {name: [] for name in [*END_TO_END, *RAW_TIMES]}

    def run_reference() -> float:
        start, _, code, text = run_child([sys.executable, str(REFERENCE)], stderr)
        elapsed = perf_counter() - start
        good = code == 0 and text == REFERENCE_OUTPUT
        tally.record("reference", [] if good else [f"reference printed {text!r}, exit code {code}"])
        return elapsed

    def set_up_until(count: int) -> None:
        while len(samples["setup_s"]) < count:
            argv = workload.setup[len(samples["setup_s"]) % len(workload.setup)]
            ready, ok = time_setup(argv)
            samples["setup_s"].append(ready)
            tally.record("setup", [] if ok else ["set-up process failed"])

    with open(workdir / "stderr.txt", "wb") as stderr:
        # One untimed invocation first, so the timed ones all find the
        # interpreter, the package's bytecode and the inputs in the page cache.
        call = workload.calls[0]
        _, _, code, text = run_cli(call.argv, stderr)
        problems = output_problems(call, code, text)
        tally.record("warm-up " + " ".join(call.argv), problems)
        self_problems = None if problems else workload.self_check(text)
        reference_before = run_reference()
        clock = RunClock(seconds, MIN_CALLS)
        while clock.another():
            # Set-up samples are spread over the run, so they see the same
            # machine as the invocations they alternate with.
            set_up_until(1 + int(SETUP_SAMPLES * clock.elapsed() / seconds))
            call = workload.calls[clock.iterations % len(workload.calls)]
            start, rss_mb, code, text = run_cli(call.argv, stderr)
            problems = output_problems(call, code, text)
            # The report is done once its output has been checked.
            elapsed = perf_counter() - start
            tally.record(" ".join(call.argv), problems)
            if self_problems is None and not problems:
                self_problems = workload.self_check(text)
            reference_after = run_reference()
            samples["report_s"].append(elapsed)
            samples["reference_s"].append(reference_after)
            samples["report_rel"].append(2 * elapsed / (reference_before + reference_after))
            samples["peak_rss_mb"].append(rss_mb)
            reference_before = reference_after
        set_up_until(SETUP_SAMPLES)
    return samples, self_problems


def run_traced(workload: Workload, seconds: float, tally: Tally, spans_path: Path):
    """Trace in-process passes over the workload's calls; returns per-layer samples."""
    import_s = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV, timeout=PROCESS_TIMEOUT_S,
        )
        tally.record("import", [] if proc.returncode == 0 else [proc.stderr[-200:]])
        if proc.returncode == 0:
            import_s.append(float(proc.stdout))

    from capchain import cli

    tracer = tracing.Tracer()
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    residuals = []
    self_problems: Optional[list[str]] = None
    clock = RunClock(seconds, 1)
    while clock.another():
        untraced = 0.0
        invocations, bytes_out = [], 0
        for call in workload.calls:
            start = perf_counter()
            code, text = call_main(cli.main, call.argv)
            untraced += perf_counter() - start
            tally.record(" ".join(call.argv), output_problems(call, code, text))
            with tracer.installed():
                code, text = call_main(partial(tracer.run, cli.main), call.argv)
            problems = output_problems(call, code, text)
            tally.record("traced " + " ".join(call.argv), problems)
            if self_problems is None and not problems:
                self_problems = workload.self_check(text)
            invocations.append(tracer.current)
            bytes_out += len(text.encode())
        for name, value in pass_metrics(invocations, untraced, bytes_out).items():
            samples[name].append(value)
        residuals += [abs(inv.duration("cli") - sum(inv.self_times().values())) for inv in invocations]
    samples["import_s"] = import_s

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path.write_text(tracer.spans_json())
    return samples, self_problems, max(residuals)


def pass_metrics(invocations: list[tracing.Invocation], untraced_s: float, bytes_out: int) -> dict:
    """Per-layer metrics of one pass over a workload's calls."""
    selfs = {layer: 0.0 for layer in tracing.LAYERS}
    counts: dict[str, int] = {}
    for inv in invocations:
        for layer, seconds in inv.self_times().items():
            selfs[layer] += seconds
        for name, value in inv.counts.items():
            merge = max if name.endswith("_max") else int.__add__
            counts[name] = merge(counts.get(name, 0), value)

    def total(name):
        return sum(inv.duration(name) for inv in invocations)

    def calls(name):
        return sum(inv.calls(name) for inv in invocations)

    metrics = {f"{layer}.self_s": selfs[layer] for layer in tracing.LAYERS if layer != "trace"}
    metrics.update({name: counts.get(name, 0) for name in PER_LAYER if PER_LAYER[name] in ("count", "bits")})
    step_s = total("evolve.step")
    metrics.update(
        {
            "parse.calls": calls("parse"),
            "parse.doc_bytes": counts.get("parse.doc_bytes", 0),
            "evolve.step_s": step_s,
            "evolve.scatter_ops_per_s": counts.get("evolve.scatter_ops", 0) / step_s if step_s else 0.0,
            "summarize.calls": calls("summarize"),
            "conditional.calls": calls("conditional"),
            "render.bytes_out": bytes_out,
            "simulate.draws_per_s": (
                counts.get("simulate.draws", 0) / selfs["simulate"] if selfs["simulate"] else 0.0
            ),
            "trace.count_s": selfs["trace"],
            "trace.overhead_s": total("cli") - untraced_s,
        }
    )
    return metrics


# --- environment and reporting -----------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _calibration_s() -> float:
    """Median time of a fixed pure-Python loop, so machine speed shows."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total = (total + i * i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg": os.getloadavg(),
        "calibration_s": _calibration_s(),
    }


def batch_median(values: list[float]) -> float:
    """Median of the means of up to BATCHES runs of consecutive samples.

    On a shared machine the speed flips between a fast and a slow state,
    so short samples (a 0.08 s set-up) are bimodal and their plain
    median jumps between the modes as the mix shifts from run to run.
    A batch mean averages over the flips.  With no more samples than
    BATCHES this is the plain median.
    """
    count = min(BATCHES, len(values))
    bounds = [len(values) * i // count for i in range(count + 1)]
    return statistics.median(
        statistics.fmean(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    )


def summary(name: str, values: list[float]) -> float:
    """The figure reported for a metric's samples.

    A `report_rel` sample is a ratio to the reference runs around it, so
    the host's speed has already cancelled out of it and the plain median
    serves; every other timing gets the batch median.
    """
    return statistics.median(values) if name == "report_rel" else batch_median(values)


def _describe(name: str, unit: str, values: list[float]) -> str:
    def text(value: float) -> str:
        return str(int(value)) if float(value).is_integer() else f"{value:.6g}"

    line = f"{name:<26} {text(summary(name, values))} {unit}"
    if len(values) < 2:
        return f"{line}  (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    how = "median" if name == "report_rel" else f"median of {min(BATCHES, len(values))} batch means"
    return f"{line}  ({how} of n={len(values)} samples; sample quartiles {text(q1)} .. {text(q3)})"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["game-exact", "chain-random", "game-montecarlo"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "capchain" / "cli.py").is_file():
        print(f"error: no capchain sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("environment " + json.dumps(environment()))
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        workload = prepare(args.workload, args.seed, workdir)
        if args.trace:
            spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            samples, self_problems, residual = run_traced(workload, args.seconds, tally, spans_path)
            units = PER_LAYER
            print(f"spans written to {spans_path.relative_to(ROOT)}; "
                  f"largest unaccounted root time {residual:.3g} s")
        else:
            samples, self_problems = run_untraced(workload, args.seconds, tally, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        print(_describe(name, unit, samples[name]))
        metrics[name] = {"value": summary(name, samples[name]), "unit": unit}
    print(f"{'error_rate':<26} {tally.failed / tally.attempted:.6g} ratio  ({tally.failed} of {tally.attempted} operations failed)")
    if not args.trace:
        for name, unit in RAW_TIMES.items():
            print(_describe(name, unit, samples[name]))
        if args.workload == "game-montecarlo":
            print(f"{'trials_per_s':<26} {MC_TRIALS / summary('report_s', samples['report_s']):.6g} 1/s")
    self_problems = ["no output passed its check"] if self_problems is None else self_problems
    for problem in tally.problems[:10] + self_problems:
        print(f"FAIL {problem}")
    result = {
        "correct": tally.failed == 0 and not self_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
