"""Chick-counting race games: data model, parsing, rules, and compilation.

The game is played on a row of squares.  Square 1 is the start; every
other square is empty, labeled with one animal, or the terminal square
(always last, matching every animal).  A spinner with one face per
animal plus a fox drives the piece.  An animal outcome moves the piece
forward to the next square matching that animal and collects one chick
per square moved, plus a bonus chick when the landing square is blue.
The fox outcome costs one chick (never dropping below zero) and does
not move the piece.  The game ends on the terminal square and is won
with at least `win_threshold` chicks.

`compile_game` turns a GameSpec into a WeightedMarkovChain whose edge
weights are chick gains, so the exact absorption machinery applies
as-is: the fox is a weight −1 self-loop and the chick cap is the
capital window's upper clamp.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from typing import TYPE_CHECKING, Collection, Mapping, Sequence, Union

from . import MAX_MOVES, GameSpecError, UsageError, decode_json, is_int, shown

if TYPE_CHECKING:  # only `compile_game` loads the engine
    from .chain import WeightedMarkovChain

EMPTY = "0"
TERMINAL = "*"

_RESERVED_TAGS = {EMPTY, TERMINAL}


class GameSpec(namedtuple("GameSpec", "animals squares blue win_threshold")):
    """A sound game board: constructing an unsound one raises GameSpecError.

    `animals` is a tuple of tags and `blue` a frozenset of square numbers.
    `squares` holds the labels of squares 1..N+1 (1-based board
    positions), terminal last.  Square 1 is the start; any label on it
    is ignored, because no spin ever lands there.  `win_threshold` is
    N, the chick count needed to win, and also the capital cap.
    """

    def __new__(
        cls, animals: Sequence[str], squares: Sequence[str], blue: Collection[int], win_threshold: int
    ) -> GameSpec:
        # Each field's shape first, with no field expanded (a `str` in a list's place is never read
        # tag by tag); every problem here is reported, in the game document's terms, none echoing a field.
        problems = []
        if not isinstance(animals, (list, tuple)):
            problems.append("animals: must be a list of tag strings")
        if not isinstance(squares, (list, tuple)):
            problems.append("board: must be a list of square labels or one comma-separated string")
        if not isinstance(blue, (list, tuple, set, frozenset)):
            problems.append("blue: must be a list of square numbers")
        else:
            try:
                blue = frozenset(blue)
            except TypeError:  # an unhashable entry, a list say
                problems.append("blue: every entry must be an integer square number")
        if problems:
            raise GameSpecError(problems)
        self = super().__new__(cls, tuple(animals), tuple(squares), blue, win_threshold)
        diagnostics = self.validate()
        if diagnostics:
            raise GameSpecError(diagnostics)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    @property
    def terminal_square(self) -> int:
        return self.win_threshold + 1

    def label(self, square: int) -> str:
        return self.squares[square - 1]

    @cached_property
    def moves(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """(destination, chick gain) per animal, in declared order, per square.

        Keys are the squares a piece can stand on, in board order: the
        start and every labeled square before the terminal.  Built in one
        pass from the terminal down, keeping each animal's next square.
        """
        nearest = dict.fromkeys(self.animals, self.terminal_square)
        table: dict[int, tuple[tuple[int, int], ...]] = {}
        for square in range(self.win_threshold, 0, -1):
            if square == 1 or self.label(square) != EMPTY:
                table[square] = tuple((t, self.chick_gain(square, t)) for t in map(nearest.get, self.animals))
                nearest[self.label(square)] = square
        return dict(sorted(table.items()))

    def validate(self) -> list[str]:
        """Return diagnostics with board positions, empty when the game is sound."""
        diagnostics: list[str] = []
        if not self.animals:
            diagnostics.append("animals: at least one tag is required")
        seen: set[str] = set()
        for tag in self.animals:
            if not isinstance(tag, str) or not tag or tag in _RESERVED_TAGS:
                diagnostics.append(f"animals: {shown(tag)} is not a usable tag")
            elif tag in seen:
                diagnostics.append(f"animals: duplicate tag {tag!r}")
            if isinstance(tag, str):
                seen.add(tag)
        if not is_int(self.win_threshold):  # the checks below count with it
            return diagnostics + [f"win_threshold must be an integer, got {shown(self.win_threshold)}"]
        if self.win_threshold < 1:
            diagnostics.append(f"win_threshold must be >= 1, got {shown(self.win_threshold)}")
        if len(self.squares) < 2:
            diagnostics.append("board must have at least a start and a terminal square")
        if self.squares and self.squares[-1] != TERMINAL:
            diagnostics.append("missing terminal: the last square must be '*'")
        for position, label in enumerate(self.squares[:-1], start=1):
            if label == TERMINAL:
                diagnostics.append(
                    f"square {position}: terminal marker before the last square"
                )
            elif not isinstance(label, str) or (label != EMPTY and label not in seen):
                diagnostics.append(f"square {position}: unknown animal tag {shown(label)}")
        if len(self.squares) * len(self.animals) > MAX_MOVES:  # checked before `moves` builds a move per pair
            diagnostics.append(
                f"board of {len(self.squares)} squares x {len(self.animals)} animals exceeds the "
                f"limit of {MAX_MOVES} square-animal pairs"
            )
        if len(self.squares) >= 2 and len(self.squares) != self.win_threshold + 1:  # else reported above
            diagnostics.append(
                f"wrong square count: board has {len(self.squares)} squares, "
                f"win_threshold {shown(self.win_threshold)} needs {shown(self.win_threshold + 1)}"
            )
        upper = self.win_threshold + 1
        for square in sorted(square for square in self.blue if is_int(square)):
            if not 2 <= square <= upper:
                diagnostics.append(f"blue square {shown(square)} is outside 2..{shown(upper)}")
        diagnostics += sorted(f"blue square {shown(b)} is not an integer" for b in self.blue if not is_int(b))
        return diagnostics

    def chick_gain(self, src: int, dst: int) -> int:
        """Chicks collected moving src -> dst: squares moved, plus 1 on a blue landing."""
        return dst - src + (1 if dst in self.blue else 0)


def parse_game_spec(source: Union[str, Mapping]) -> GameSpec:
    """Parse and validate a game document (JSON text or an equivalent mapping).

    The board is a list of per-square labels, or one comma-separated
    string.  The terminal "*" may be left implicit (it is appended) or
    written explicitly as the last entry.  `win_threshold` is optional:
    it must equal the number of playable squares, the board length
    without the terminal, and defaults to it.  `blue` defaults to none.

    This checks only what the JSON encoding adds: text that parses, and a
    document that is an object.  `GameSpec` owns every rule of the fields
    themselves (lists of string tags and labels, integer blue squares and
    threshold, ...) and raises GameSpecError carrying every diagnostic.
    """
    data = decode_json(source, GameSpecError) if isinstance(source, str) else source
    if not isinstance(data, Mapping):
        raise GameSpecError(["game document must be a JSON object"])
    board = data.get("board")
    if isinstance(board, str):
        board = [entry.strip() for entry in board.split(",")]
    threshold = data.get("win_threshold")
    if isinstance(board, (list, tuple)):  # anything else is the constructor's to refuse
        board = board if TERMINAL in board else [*board, TERMINAL]
        threshold = data.get("win_threshold", len(board) - 1)
    return GameSpec(animals=data.get("animals"), squares=board, blue=data.get("blue", []), win_threshold=threshold)


SIMPLIFIED_GAME_JSON = """\
{
  "animals": ["C", "S"],
  "board": ["0", "0", "S", "C", "0", "C", "0", "S"],
  "blue": [3, 6]
}
"""

FULL_GAME_JSON = """\
{
  "animals": ["C", "D", "P", "S", "T"],
  "board": ["0", "0", "S", "P", "T", "C", "D", "P", "C", "D",
            "S", "T", "0", "C", "P", "0", "0", "0", "T", "0",
            "T", "D", "S", "C", "D", "P", "T", "0", "S", "C",
            "0", "0", "T", "P", "S", "D", "0", "S", "C", "P"],
  "blue": [5, 9, 23, 36, 40]
}
"""

_BUILTIN_GAMES = {
    "simplified": SIMPLIFIED_GAME_JSON,
    "full": FULL_GAME_JSON,
}


def builtin_game(name: str) -> GameSpec:
    """One of the two shipped boards: "simplified" (N=8, K=2) or "full" (N=40, K=5)."""
    try:
        text = _BUILTIN_GAMES[name]
    except KeyError:
        raise UsageError(
            f"unknown builtin game {shown(name)}; expected one of {sorted(_BUILTIN_GAMES)}"
        ) from None
    return parse_game_spec(text)


def compile_game(spec: GameSpec) -> WeightedMarkovChain:
    """Compile a game into a weighted chain over its non-empty squares.

    States are square numbers as strings: the start plus every labeled
    square is transient, the terminal is the single absorbing state.
    Each transient square carries the fox self-loop (weight −1) first,
    then one edge per distinct (square, gain) landing in first-animal
    order, with the probabilities of the animals that share it summed.
    The capital window is [0, N], so the upper clamp realises the "at
    least N chicks" win cap.
    """
    from fractions import Fraction

    from .chain import Edge, WeightedMarkovChain

    faces = len(spec.animals) + 1
    edges: list[Edge] = []
    for square, moves in spec.moves.items():
        src = str(square)
        edges.append(Edge(src=src, dst=src, prob=Fraction(1, faces), weight=-1))
        # Counter keeps first-landing order and counts the animals per landing.
        for (target, gain), count in Counter(moves).items():
            edges.append(Edge(src=src, dst=str(target), prob=Fraction(count, faces), weight=gain))
    return WeightedMarkovChain(
        transient=tuple(str(square) for square in spec.moves),
        absorbing=(str(spec.terminal_square),),
        edges=tuple(edges),
        support=(0, spec.win_threshold),
    )
