"""Spans and counts around capchain's layer entry points, recorded from outside.

`Tracer.installed()` swaps wrappers in for the public functions each
layer is entered through, as the calling module resolves them at call
time (`capchain.cli`, `capchain.chain`, `capchain.game`), plus the
`WeightedMarkovChain.validate` and `AbsorptionRecord.conditional`
methods.  Each wrapper records a span: name, start, end, parent span and
invocation id.  Spans stay in memory until the run ends.

Counts are taken at the same boundaries but outside the layer spans:
the counting work runs in its own `trace` spans, so no layer's self time
includes it and the root `cli` span is still fully accounted for.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

# Layers in pipeline order.  A span's layer is its name up to the first
# dot, and its self time is billed to that layer.
LAYERS = ("parse", "compile", "evolve", "summarize", "conditional", "render", "simulate", "cli", "trace")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    invocation: int
    start: float
    end: float = 0.0


@dataclass
class Invocation:
    """Spans and counts of one traced `cli.main` call."""

    id: int
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer of span time not covered by child spans."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            layer = span.name.split(".")[0]
            totals[layer] += span.end - span.start - child_time.get(span.id, 0.0)
        return totals

    def duration(self, name: str) -> float:
        return sum(span.end - span.start for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)


class Tracer:
    def __init__(self) -> None:
        self.invocations: list[Invocation] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @property
    def current(self) -> Invocation:
        return self.invocations[-1]

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, name, self.current.id, perf_counter())
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.current.spans.append(span)

    def run(self, main: Callable[..., int], argv: list[str]) -> int:
        """Call `main(argv)` as a new invocation under a root `cli` span."""
        self.invocations.append(Invocation(len(self.invocations)))
        with self.span("cli"):
            return main(argv)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                with tracer.span("trace"):
                    before(tracer.current, *args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with tracer.span("trace"):
                    after(tracer.current, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        from capchain import chain, cli, game
        from capchain.chain import AbsorptionRecord, WeightedMarkovChain

        points = [
            (game, "parse_game_spec", "parse", _count_doc_bytes, None),
            (cli, "parse_game_spec", "parse", _count_doc_bytes, None),
            (cli, "chain_from_json_dict", "parse", _count_doc_bytes, None),
            (WeightedMarkovChain, "validate", "parse", None, None),
            (cli, "compile_game", "compile", None, _count_compiled),
            (cli, "run_absorption", "evolve", None, None),
            (chain, "umbra_step", "evolve.step", _count_step_input, _count_step_output),
            (cli, "summarize", "summarize", None, None),
            (AbsorptionRecord, "conditional", "conditional", None, None),
            (cli, "render_stats", "render", None, None),
            (cli, "stats_json_dict", "render", None, None),
            (cli, "simulate", "simulate", None, _count_simulated),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in points]
        try:
            for (owner, attr, name, before, after), (_, _, fn) in zip(points, originals):
                setattr(owner, attr, self._wrap(name, fn, before, after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def spans_json(self) -> str:
        return json.dumps(
            [vars(span) for invocation in self.invocations for span in invocation.spans]
        )


def _count_doc_bytes(counts: Invocation, source, *args, **kwargs) -> None:
    text = source if isinstance(source, str) else json.dumps(source)
    counts.add("parse.doc_bytes", len(text.encode()))


def _count_compiled(counts: Invocation, chain, *args, **kwargs) -> None:
    counts.add("compile.states", len(chain.transient) + len(chain.absorbing))
    counts.add("compile.edges", len(chain.edges))


def _count_step_input(counts: Invocation, chain, vector, *args, **kwargs) -> None:
    counts.add("evolve.rounds", 1)
    counts.peak("evolve.live_states_max", len(vector))
    counts.add(
        "evolve.scatter_ops",
        sum(
            sum(1 for coeff in poly.coeffs if coeff) * len(chain.out_edges[state])
            for state, poly in vector.items()
        ),
    )


def _count_step_output(counts: Invocation, result, *args, **kwargs) -> None:
    bits = 0
    for polys in result:
        for poly in polys.values():
            for coeff in poly.coeffs:
                bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    counts.peak("evolve.coeff_bits_max", bits)


def _count_simulated(counts: Invocation, report, *args, **kwargs) -> None:
    counts.add("simulate.trials", report.trials)
    counts.add("simulate.censored", report.censored)
    # One spin per round: a completed trial draws its round count, a
    # censored one the round cap.
    counts.add(
        "simulate.draws",
        sum(r * n for r, n in report.rounds_histogram.items())
        + report.censored * report.round_cap,
    )
