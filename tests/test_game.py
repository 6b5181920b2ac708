"""Game parsing, rule semantics, and compilation to chains."""

import json
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from capchain import (
    MAX_MOVES,
    Edge,
    GameSpec,
    GameSpecError,
    UsageError,
    builtin_game,
    compile_game,
    parse_game_spec,
    run_absorption,
)

from _oracle import brute_force_record, matches, next_location
from _testlib import analyze_refusal, marginal_capital, record_as_dicts


def out_edges(chain, src):
    return [edge for edge in chain.edges if edge.src == src]


# parsing and validation


def test_full_board_parses_to_forty_playable_squares(full_game):
    assert full_game.win_threshold == 40
    assert len(full_game.animals) == 5
    assert len(full_game.squares) == 41
    assert full_game.squares[-1] == "*"
    assert full_game.blue == frozenset({5, 9, 23, 36, 40})


def test_simplified_board_parses(simplified_game):
    assert simplified_game.win_threshold == 8
    assert len(simplified_game.animals) == 2
    assert simplified_game.blue == frozenset({3, 6})


def test_explicit_and_implicit_terminal_agree():
    implicit = parse_game_spec('{"animals": ["S"], "board": ["0", "S"]}')
    explicit = parse_game_spec('{"animals": ["S"], "board": ["0", "S", "*"]}')
    assert implicit == explicit
    assert implicit.win_threshold == 2


def test_compact_board_string_form(simplified_game):
    spec = parse_game_spec(
        '{"animals": ["C", "S"], "board": "0, 0, S, C, 0, C, 0, S", "blue": [3, 6]}'
    )
    assert spec == simplified_game


def test_missing_terminal_diagnostic():
    with pytest.raises(GameSpecError) as excinfo:
        GameSpec(animals=("S",), squares=("0", "S", "0"), blue=frozenset(), win_threshold=2)
    assert any("missing terminal" in d for d in excinfo.value.problems)


def test_misplaced_terminal_diagnostics():
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec('{"animals": ["S"], "board": ["0", "*", "S"]}')
    assert any("square 2" in d for d in excinfo.value.problems)


def test_unknown_tag_diagnostic_carries_its_position():
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec('{"animals": ["S"], "board": ["0", "X", "S"]}')
    assert any("square 2" in d and "'X'" in d for d in excinfo.value.problems)


def test_blue_out_of_range_diagnostic():
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec('{"animals": ["S"], "board": ["0", "S"], "blue": [99]}')
    assert any("99" in d for d in excinfo.value.problems)


def test_wrong_square_count_diagnostic():
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec(
            '{"animals": ["S"], "board": ["0", "S"], "win_threshold": 7}'
        )
    assert any("wrong square count" in d for d in excinfo.value.problems)


# squares x animals bounds the move table, checked before `moves` builds it:
# 2 animals on 65536 squares (terminal included) sit at the limit.
def test_a_board_past_the_move_limit_is_refused():
    board = ("0",) + ("a", "b") * (MAX_MOVES // 4 - 1) + ("*",)
    spec = GameSpec(animals=("a", "b"), squares=board, blue=(), win_threshold=len(board) - 1)
    assert len(spec.squares) * len(spec.animals) == MAX_MOVES
    with pytest.raises(GameSpecError) as excinfo:
        spec._replace(squares=("0",) + board, win_threshold=len(board))
    assert excinfo.value.problems == [
        f"board of {len(board) + 1} squares x 2 animals exceeds the limit of {MAX_MOVES} square-animal pairs"
    ]


# GameSpec's refusals of a field of the wrong shape, in the document's terms: parse_game_spec
# passes each field on as the document gives it (the board split and ended), so it gets them too.
ANIMALS_SHAPE = "animals: must be a list of tag strings"
BOARD_SHAPE = "board: must be a list of square labels or one comma-separated string"
BLUE_SHAPE = "blue: must be a list of square numbers"


def test_all_diagnostics_are_collected_at_once(tmp_path, capsys):
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec(
            '{"animals": ["S"], "board": ["0", "X", "S"], "blue": [99]}'
        )
    assert len(excinfo.value.problems) >= 2
    # Every field of the wrong shape, each reported.
    text = '{"animals": "S", "board": 5, "blue": 1.5}'
    shapes = [ANIMALS_SHAPE, BOARD_SHAPE, BLUE_SHAPE]
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec(text)
    assert excinfo.value.problems == shapes
    assert analyze_refusal(tmp_path, capsys, text) == "".join(f"error: {line}\n" for line in shapes)


@pytest.mark.parametrize(
    "text, diagnostics",
    [
        ('{"animals": "S", "board": ["0", "S"]}', [ANIMALS_SHAPE]),
        ('{"animals": ["S"], "board": 5}', [BOARD_SHAPE]),
        ('{"animals": ["S"], "board": ["0", "S"], "blue": "2"}', [BLUE_SHAPE]),
        ('{"animals": ["S"], "board": ["0", "S"], "win_threshold": 1e3}', ["win_threshold must be an integer, got 1000.0"]),
        ('{"animals": [], "board": ["0", "0"]}', ["animals: at least one tag is required"]),
        ('{"animals": ["*"], "board": ["0", "0"]}', ["animals: '*' is not a usable tag"]),
        ('{"animals": [""], "board": ["0", "0"]}', ["animals: '' is not a usable tag"]),
        ('{"animals": ["S", "S"], "board": ["0", "S"]}', ["animals: duplicate tag 'S'"]),
        (
            '{"animals": ["S"], "board": ["0", "S"], "win_threshold": 0}',
            ["win_threshold must be >= 1, got 0", "wrong square count: board has 3 squares, win_threshold 0 needs 1"],
        ),
        (
            '{"animals": ["S"], "board": [], "win_threshold": 1}',
            ["board must have at least a start and a terminal square"],
        ),
    ],
    ids=[
        "animals-shape", "board-shape", "blue-shape", "float-threshold", "no-animals", "reserved-tag",
        "empty-tag", "duplicate-tag", "threshold-below-1", "short-board",
    ],
)
def test_unsound_game_documents_are_refused(tmp_path, capsys, text, diagnostics):
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec(text)
    assert excinfo.value.problems == diagnostics
    assert analyze_refusal(tmp_path, capsys, text) == "".join(f"error: {line}\n" for line in diagnostics)


# A tag or a label must be a string and a blue square an integer; before, an unhashable one raised
# TypeError from a set lookup.  The animals and the board must be lists: before, a string was read
# tag by tag and an int raised TypeError.  A game document breaking the same rule gets the same diagnostic.
@pytest.mark.parametrize(
    "change, diagnostics",
    [
        ({"animals": ([1], "S")}, ["animals: [1] is not a usable tag"]),
        ({"animals": (5, "S")}, ["animals: 5 is not a usable tag"]),
        ({"squares": ("0", ["a"], "S", "*")}, ["square 2: unknown animal tag ['a']"]),
        ({"blue": ([2],)}, ["blue: every entry must be an integer square number"]),
        ({"animals": "S"}, [ANIMALS_SHAPE]),
        ({"animals": 5}, [ANIMALS_SHAPE]),
        ({"squares": 5}, [BOARD_SHAPE]),
        ({"animals": "S", "squares": 5, "blue": "2"}, [ANIMALS_SHAPE, BOARD_SHAPE, BLUE_SHAPE]),
    ],
    ids=[
        "unhashable-tag", "int-tag", "unhashable-label", "unhashable-blue", "str-animals", "int-animals",
        "int-squares", "every-shape",
    ],
)
def test_a_field_of_the_wrong_type_is_a_diagnostic(tmp_path, capsys, change, diagnostics):
    fields = {"animals": ("S",), "squares": ("0", "0", "S", "*"), "blue": (), "win_threshold": 3, **change}
    with pytest.raises(GameSpecError) as excinfo:
        GameSpec(**fields)
    assert excinfo.value.problems == diagnostics
    text = json.dumps({"animals": fields["animals"], "board": fields["squares"], "blue": fields["blue"]})
    with pytest.raises(GameSpecError) as excinfo:
        parse_game_spec(text)
    assert excinfo.value.problems == diagnostics
    assert analyze_refusal(tmp_path, capsys, text) == "".join(f"error: {line}\n" for line in diagnostics)


def test_invalid_json_is_a_diagnostic():
    with pytest.raises(GameSpecError, match="invalid JSON"):
        parse_game_spec("{not json")


@pytest.mark.parametrize("board", ["[" * 100_000 + "]" * 100_000, "1" * 5000], ids=["deep", "long-int"])
def test_json_past_the_parser_limits_is_a_diagnostic(board):
    with pytest.raises(GameSpecError, match="invalid JSON"):
        parse_game_spec('{"board": ' + board + "}")


def test_non_object_document_is_refused(tmp_path, capsys):
    with pytest.raises(GameSpecError, match="object"):
        parse_game_spec("[1, 2]")
    # The CLI tells a game from a chain by a top-level field, so it names both.
    assert analyze_refusal(tmp_path, capsys, "[1, 2]") == (
        f"error: {tmp_path / 'document.json'}: document has neither a 'board' (game) nor an 'edges' (chain) field\n"
    )


def test_start_square_label_is_tolerated_and_ignored():
    spec = parse_game_spec('{"animals": ["S"], "board": ["S", "S"]}')
    assert spec.validate() == []
    assert next_location(spec.squares, 1, "S") == 2


def test_builtin_games_are_hashable():
    assert hash(builtin_game("full")) == hash(builtin_game("full"))


def test_a_game_spec_is_immutable_and_validated_however_it_is_built(simplified_game):
    with pytest.raises(AttributeError):
        simplified_game.win_threshold = 9
    assert simplified_game.win_threshold == 8
    with pytest.raises(GameSpecError, match="missing terminal"):
        GameSpec(animals=("S",), squares=("0", "S"), blue=frozenset(), win_threshold=1)
    with pytest.raises(GameSpecError, match="outside"):
        simplified_game._replace(blue=[99])


@pytest.mark.parametrize("threshold", [8.9, "8", 8.0, True, False])
def test_a_non_integer_win_threshold_is_a_diagnostic(simplified_game, threshold):
    with pytest.raises(GameSpecError, match="win_threshold must be an integer, got"):
        simplified_game._replace(win_threshold=threshold)


def test_a_non_integer_blue_square_is_a_diagnostic(simplified_game):
    with pytest.raises(GameSpecError) as excinfo:
        simplified_game._replace(blue=[3, 3.7, "6"])
    assert excinfo.value.problems == ["blue square '6' is not an integer", "blue square 3.7 is not an integer"]
    for flag in (True, False):  # bool is an int subclass, and still not a square number
        with pytest.raises(GameSpecError) as excinfo:
            simplified_game._replace(blue=[3, flag])
        assert excinfo.value.problems == [f"blue square {flag!r} is not an integer"]


def test_unknown_builtin_is_an_error():
    with pytest.raises(UsageError, match="unknown builtin"):
        builtin_game("x")


# rule semantics on the simplified board


def test_next_location_examples(simplified_game):
    squares = simplified_game.squares
    assert next_location(squares, 1, "S") == 3
    assert next_location(squares, 4, "S") == 8
    assert next_location(squares, 8, "C") == 9
    assert next_location(squares, 8, "S") == 9


def test_chick_gain_examples(simplified_game):
    assert simplified_game.chick_gain(1, 3) == 3
    assert simplified_game.chick_gain(4, 6) == 3
    assert simplified_game.chick_gain(6, 8) == 2


@pytest.mark.parametrize("name", ["simplified", "full"])
def test_next_location_never_skips_a_matching_square(name):
    spec = builtin_game(name)
    for square in range(1, spec.terminal_square):
        for animal in spec.animals:
            target = next_location(spec.squares, square, animal)
            assert target > square
            assert matches(spec.label(target), animal)
            for skipped in range(square + 1, target):
                assert not matches(spec.label(skipped), animal)


@st.composite
def boards(draw):
    animals = tuple(draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True)))
    labels = draw(st.lists(st.sampled_from(animals + ("0",)), min_size=1, max_size=30))
    blue = draw(st.frozensets(st.integers(2, len(labels) + 1)))
    return GameSpec(animals=animals, squares=tuple(labels) + ("*",), blue=blue, win_threshold=len(labels))


@given(boards())
def test_moves_equal_the_next_location_table(spec):
    standing = [1] + [s for s in range(2, spec.terminal_square) if spec.label(s) != "0"]
    assert spec.moves == {
        square: tuple(
            (target, spec.chick_gain(square, target))
            for target in (next_location(spec.squares, square, animal) for animal in spec.animals)
        )
        for square in standing
    }
    assert list(spec.moves) == standing


def test_moves_of_a_long_sparse_board_take_linear_time():
    # Every square is "a" and "b" matches only the terminal: a forward scan
    # per (square, animal) would walk the whole board from every square.
    n = 10_000
    spec = GameSpec(animals=("a", "b"), squares=("a",) * n + ("*",), blue=(), win_threshold=n)
    start = perf_counter()
    moves = spec.moves
    assert perf_counter() - start < 2.0
    assert moves[1] == ((2, 1), (n + 1, n))
    assert moves[n] == ((n + 1, 1), (n + 1, 1))


# compilation


def test_simplified_compiles_to_six_states(simplified_chain):
    assert simplified_chain.transient == ("1", "3", "4", "6", "8")
    assert simplified_chain.absorbing == ("9",)
    assert simplified_chain.support == (0, 8)


def test_full_game_compiles_to_thirty_transient_states(full_chain):
    # start plus the 29 labeled squares
    assert len(full_chain.transient) == 30
    assert full_chain.absorbing == ("41",)
    assert full_chain.support == (0, 40)


def test_state_four_edges(simplified_chain):
    third = Fraction(1, 3)
    assert out_edges(simplified_chain, "4") == [
        Edge("4", "4", third, -1),
        Edge("4", "6", third, 3),
        Edge("4", "8", third, 4),
    ]


def test_state_eight_merges_its_two_animal_outcomes(simplified_chain):
    third = Fraction(1, 3)
    assert out_edges(simplified_chain, "8") == [
        Edge("8", "8", third, -1),
        Edge("8", "9", Fraction(2, 3), 1),
    ]


@pytest.mark.parametrize("name", ["simplified", "full"])
def test_compiled_chains_validate(name):
    assert compile_game(builtin_game(name)).validate() == []


@pytest.mark.parametrize("name", ["simplified", "full"])
def test_fox_is_the_only_negative_weight(name):
    chain = compile_game(builtin_game(name))
    foxes = 0
    for edge in chain.edges:
        if edge.weight == -1 and edge.src == edge.dst:
            foxes += 1
        else:
            assert edge.weight >= 1
    assert foxes == len(chain.transient)


def test_compile_rejects_invalid_specs():
    # An unsound spec cannot be built, so it never reaches compile_game.
    with pytest.raises(GameSpecError):
        GameSpec(animals=("S",), squares=("0", "S", "0"), blue=frozenset(), win_threshold=2)


def test_merging_parallel_edges_does_not_change_absorption(simplified_game):
    # The oracle walks one edge per spin outcome, parallel ones unmerged.
    third = Fraction(1, len(simplified_game.animals) + 1)
    unmerged = []
    for square, moves in simplified_game.moves.items():
        unmerged.append((str(square), str(square), third, -1))
        unmerged.extend((str(square), str(target), third, gain) for target, gain in moves)
    merged = compile_game(simplified_game)
    assert len(unmerged) > len(merged.edges)
    oracle = brute_force_record(
        list(merged.transient), list(merged.absorbing), unmerged, merged.support, "1", 8
    )
    assert record_as_dicts(run_absorption(merged, "1", 8)) == oracle


def test_win_capital_is_reachable_in_both_games(full_record_60, simplified_chain):
    full_capital = marginal_capital(full_record_60)
    assert max(exponent for exponent, _ in full_capital.terms()) == 40
    simplified_capital = marginal_capital(run_absorption(simplified_chain, "1", 60))
    assert max(exponent for exponent, _ in simplified_capital.terms()) == 8
