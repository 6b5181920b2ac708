"""Monte Carlo oracle: PRNG reference vectors, game play, batch reports."""

import math
import tracemalloc

import pytest

import capchain.simulator
from capchain import (
    GameSpec,
    GameSpecError,
    SimulationReport,
    UsageError,
    builtin_game,
    compile_game,
    run_absorption,
    simulate,
    summarize,
)
from capchain.simulator import _PAIR_CELLS, LANES, _lanes, _mix_lanes, _step_table

from _oracle import SplitMix64, longest_animal_only_path, next_location, play_once
from _testlib import (
    chi_square_upper_tail,
    fold_single_plays,
    marginal_capital,
    marginal_rounds,
    pooled_cells,
    run_python,
)


class FoxOnly:
    """Stand-in rng whose every spin is the fox outcome."""

    def __init__(self):
        self.calls = 0

    def randbelow(self, bound):
        self.calls += 1
        return 0


class AnimalCycle:
    """Stand-in rng that cycles through the animal outcomes, never the fox."""

    def __init__(self, faces):
        self.faces = faces
        self.calls = 0

    def randbelow(self, bound):
        assert bound == self.faces
        self.calls += 1
        return 1 + (self.calls - 1) % (self.faces - 1)


_MASK = (1 << 64) - 1


def unmix64(value):
    """Inverse of SplitMix64.mix: undo each xorshift and odd multiplier, last step first."""
    value ^= value >> 31
    value ^= value >> 62
    value = (value * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK
    value ^= (value >> 27) ^ (value >> 54)
    value = (value * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK
    value ^= (value >> 30) ^ (value >> 60)
    return value


def play_from(monkeypatch, most):
    """Make simulate build its two-step table up to `most` cells, whatever its trials: 0 for the one-step table."""
    monkeypatch.setattr(capchain.simulator, "_step_table", lambda spec, _: _step_table(spec, most))


def on_both_tables(monkeypatch, spec, trials, seed, round_cap=600):
    """simulate's report from the one-step table, held equal to the one from the two-step table if it fits."""
    reports = []
    for most in (0, _PAIR_CELLS):
        play_from(monkeypatch, most)
        reports.append(simulate(spec, trials, seed, round_cap))
    monkeypatch.setattr(capchain.simulator, "_step_table", _step_table)
    assert reports[0] == reports[1]
    return reports[0]


def oracle_moves(spec):
    return {
        square: [next_location(spec.squares, square, animal) for animal in spec.animals]
        for square in range(1, spec.terminal_square)
    }


# the generator itself


def test_splitmix_reference_vectors():
    # First outputs of the published algorithm for two well-known seeds.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    # The simulator's packed finalizer gives the same first output in every slot.
    for width in (1, 8):
        rep, _, m64, _, _, _, low, _ = _lanes(width, 6)
        mixed = _mix_lanes(rep * 0x9E3779B97F4A7C15, m64)
        assert low.unpack(mixed.to_bytes(16 * width, "little")) == (16294208416658607535,) * width


def test_mix64_is_a_64_bit_permutation_sample():
    seen = {SplitMix64.mix(value) for value in range(2000)}
    assert len(seen) == 2000
    assert all(0 <= value < 1 << 64 for value in seen)


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).state == 0
    assert SplitMix64(-1).state == (1 << 64) - 1


def test_stream_is_a_pure_function_of_seed_and_index():
    assert SplitMix64.stream(9, 4).state == SplitMix64.stream(9, 4).state
    states = {SplitMix64.stream(9, index).state for index in range(100)}
    assert len(states) == 100


def test_randbelow_range_and_degenerate_bound():
    rng = SplitMix64(42)
    draws = [rng.randbelow(6) for _ in range(1000)]
    assert set(draws) <= set(range(6))
    assert set(draws) == set(range(6))
    assert all(SplitMix64(7).randbelow(1) == 0 for _ in range(5))
    with pytest.raises(ValueError) as excinfo:
        rng.randbelow(0)
    assert not isinstance(excinfo.value, UsageError)  # a kernel guard: only a bug reaches it


# single plays


def test_fox_forever_is_censored():
    spec = builtin_game("simplified")
    rng = FoxOnly()
    assert play_once(spec, rng, round_cap=25) is None
    assert rng.calls == 25


def test_animal_only_play_terminates_quickly_and_wins():
    # No fox means the capital telescopes to the full win threshold, and
    # the spin count is bounded by the longest no-fox path on the board.
    for name in ("simplified", "full"):
        spec = builtin_game(name)
        bound = longest_animal_only_path(
            oracle_moves(spec), 1, spec.terminal_square
        )
        faces = len(spec.animals) + 1
        for phase in range(faces - 1):
            rng = AnimalCycle(faces)
            rng.calls = phase
            rounds, chicks = play_once(spec, rng, round_cap=bound + 1)
            assert rounds <= bound
            assert chicks == spec.win_threshold


def test_play_outcomes_stay_in_bounds():
    spec = builtin_game("simplified")
    for trial in range(300):
        rounds, chicks = play_once(spec, SplitMix64.stream(13, trial), 600)
        assert rounds >= 1
        assert 0 <= chicks <= spec.win_threshold


def test_play_once_rejects_invalid_spec():
    # An unsound spec cannot be built, so it never reaches play_once.
    with pytest.raises(GameSpecError):
        GameSpec(animals=("C",), squares=("0", "0"), blue=(), win_threshold=5)


# batch reports


def test_simulate_is_deterministic():
    spec = builtin_game("simplified")
    assert simulate(spec, 2000, seed=5) == simulate(spec, 2000, seed=5)
    assert simulate(spec, 2000, seed=5) != simulate(spec, 2000, seed=6)


# A round cap of 10 or 11 censors some trials on both boards; of 600, none.
# simulate draws twice a pass, so at the odd cap a lane can finish in
# round 12, past the cap, and must count as censored.  At 1500 trials the
# simplified board plays from its two-step table (290 cells) and the full
# board from its one-step table (the two-step one has 4853 cells).
@pytest.mark.parametrize("round_cap", [600, 10, 11])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
@pytest.mark.parametrize("name", ["simplified", "full"])
def test_simulate_equals_a_fold_of_single_plays(name, seed, round_cap):
    spec = builtin_game(name)
    report = simulate(spec, 1500, seed, round_cap)
    assert report == fold_single_plays(spec, 1500, seed, round_cap)
    assert (report.censored > 0) == (round_cap != 600)


# A cap below one spin censors every trial: no pass plays, and every lane
# is still live when the steps reach the cap.
@pytest.mark.parametrize("trials", [1, LANES + 2])
@pytest.mark.parametrize("round_cap", [0, -3])
@pytest.mark.parametrize("name", ["simplified", "full"])
def test_a_round_cap_below_one_censors_every_trial(monkeypatch, name, round_cap, trials):
    spec = builtin_game(name)
    report = on_both_tables(monkeypatch, spec, trials, 5, round_cap)
    assert report == fold_single_plays(spec, trials, 5, round_cap)
    assert (report.censored, report.chick_histogram, report.chick_mean) == (trials, {}, None)


def test_a_rejected_draw_advances_the_stream_but_not_the_round(monkeypatch):
    # Pick the seed whose trial 0 first draws 2**64 - 1.  Six faces
    # accept only draws below 2**64 - 4, so that draw is redrawn.
    seed = unmix64((unmix64(_MASK) - 0x9E3779B97F4A7C15) & _MASK)
    assert seed == 0xBE12FE39FBD63F3C
    assert SplitMix64.stream(seed, 0).next_u64() == _MASK
    rng = SplitMix64.stream(seed, 0)
    start = rng.state
    rng.randbelow(6)
    assert rng.state == (start + 2 * 0x9E3779B97F4A7C15) & _MASK
    spec = builtin_game("full")
    assert len(spec.animals) + 1 == 6
    report = on_both_tables(monkeypatch, spec, 40, seed)
    assert report == fold_single_plays(spec, 40, seed, 600)


def test_a_rejection_in_a_later_batch_mid_game_is_redrawn(monkeypatch):
    # Pick the seed whose trial LANES + 3, in the second batch, draws
    # 2**64 - 1 on its 5th draw, after four rounds that do not finish
    # its game.
    golden = 0x9E3779B97F4A7C15
    trial = LANES + 3
    start = (unmix64(_MASK) - 5 * golden) & _MASK
    seed = (unmix64(start) - trial * golden) & _MASK
    rng = SplitMix64.stream(seed, trial)
    assert [rng.next_u64() for _ in range(5)][-1] == _MASK
    spec = builtin_game("full")
    assert play_once(spec, SplitMix64.stream(seed, trial), round_cap=4) is None
    report = on_both_tables(monkeypatch, spec, LANES + 10, seed)
    assert report == fold_single_plays(spec, LANES + 10, seed, 600)


def test_a_lane_that_finishes_before_a_rejected_second_draw_keeps_its_round(monkeypatch):
    # Pick the seed whose trial 0 draws 2**64 - 1 second.  Three faces
    # accept only draws below 2**64 - 1, so that draw is redrawn; but the
    # first draw is an animal, which ends the game in one round, so the
    # redraw must not be taken off its round count.
    seed = unmix64((unmix64(_MASK) - 2 * 0x9E3779B97F4A7C15) & _MASK)
    spec = GameSpec(animals=("a", "b"), squares=("0", "*"), blue=(), win_threshold=1)
    rng = SplitMix64.stream(seed, 0)
    assert [rng.next_u64() for _ in range(2)][-1] == _MASK
    assert play_once(spec, SplitMix64.stream(seed, 0)) == (1, 1)
    for round_cap in (1, 2, 600):
        report = on_both_tables(monkeypatch, spec, 40, seed, round_cap)
        assert report == fold_single_plays(spec, 40, seed, round_cap)
        assert on_both_tables(monkeypatch, spec, 1, seed, round_cap).rounds_histogram == {1: 1}


# Trial LANES + 3 of this seed draws 2**64 - 1 on its 4th draw, the second
# of a pass, after three rounds that do not finish its game; it finishes
# in 15 rounds, on its 16th draw, so caps of 14 to 16 straddle its end.
@pytest.mark.parametrize("round_cap", [14, 15, 16, 600])
def test_a_rejection_on_a_second_draw_mid_game_is_redrawn(monkeypatch, round_cap):
    golden = 0x9E3779B97F4A7C15
    trial = LANES + 3
    start = (unmix64(_MASK) - 4 * golden) & _MASK
    seed = (unmix64(start) - trial * golden) & _MASK
    rng = SplitMix64.stream(seed, trial)
    assert [rng.next_u64() for _ in range(4)][-1] == _MASK
    spec = builtin_game("full")
    assert play_once(spec, SplitMix64.stream(seed, trial), round_cap=3) is None
    assert play_once(spec, SplitMix64.stream(seed, trial))[0] == 15
    report = on_both_tables(monkeypatch, spec, LANES + 10, seed, round_cap)
    assert report == fold_single_plays(spec, LANES + 10, seed, round_cap)


# A rejected draw costs no round.  Trial 0 of this seed redraws its first
# draw, so it finishes on the draw after its round count r; caps of r - 1,
# r and r + 1 straddle that draw.
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_a_rejection_before_the_round_cap_does_not_count_as_a_round(monkeypatch, offset):
    seed = 0xBE12FE39FBD63F3C
    spec = builtin_game("full")
    rounds, _ = play_once(spec, SplitMix64.stream(seed, 0))
    round_cap = rounds + offset
    report = on_both_tables(monkeypatch, spec, LANES + 3, seed, round_cap)
    assert report == fold_single_plays(spec, LANES + 3, seed, round_cap)
    assert on_both_tables(monkeypatch, spec, 1, seed, round_cap).censored == (round_cap < rounds)


# From square 3, animal b reaches the blue terminal for 2 + 1 chicks, past
# the cap of 4 whenever it holds two or more; a fox at the start strikes
# at zero chicks.  The last move gains at least 2, so every final count
# lies in [2, 4]: a missing floor would leave some below 2, a missing
# cap some above 4.
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_the_chick_floor_and_cap_hold_at_both_edges(monkeypatch, seed):
    spec = GameSpec(animals=("a", "b"), squares=("0", "a", "b", "a", "*"), blue={5}, win_threshold=4)
    assert spec.moves[3][1] == (5, 3)
    report = on_both_tables(monkeypatch, spec, 2000, seed)
    assert report == fold_single_plays(spec, 2000, seed, 600)
    assert set(report.chick_histogram) == {2, 3, 4}


# simulate reads each spin off the packed draws by a multiply-high division
# that may fall one short, so a spin can come out as itself plus the face
# count; boards of 2 to 201 faces must still play every game as play_once.
@pytest.mark.parametrize("animals", [1, 2, 5, 127, 128, 200])
def test_every_face_count_plays_as_single_plays(monkeypatch, animals):
    tags = tuple(f"t{index}" for index in range(animals))
    squares = ("0",) + tuple(tags[index % animals] for index in range(2 * animals)) + ("*",)
    spec = GameSpec(animals=tags, squares=squares, blue=(), win_threshold=2 * animals + 1)
    for round_cap in (5, 600):
        assert on_both_tables(monkeypatch, spec, 300, 3, round_cap) == fold_single_plays(spec, 300, 3, round_cap)


def alternating_board(squares):
    """Animals a and b by turns after the start: every move gains 1 or 2, and a two-step row has 6 * 6 entries."""
    labels = ("0",) + tuple("ab"[index % 2] for index in range(squares - 1)) + ("*",)
    return GameSpec(animals=("a", "b"), squares=labels, blue=(), win_threshold=squares)


# A board plays a pass of two steps by one lookup while its rows and its
# fox-then-gain chick lists fit _PAIR_CELLS cells, and by two one-step
# lookups past that.  The full board's table has 30 rows of 12 * 12 entries.
def test_the_table_takes_two_steps_a_pass_while_it_fits():
    table, _, pairs = _step_table(builtin_game("full"), _PAIR_CELLS)
    assert (len(table), pairs) == (30 * 12 * 12, True)
    n = 5000
    spec = GameSpec(animals=("a",), squares=("a",) * n + ("*",), blue=(), win_threshold=n)
    table, _, pairs = _step_table(spec, _PAIR_CELLS)
    assert (len(table), pairs) == (n * 4, False)
    for squares, fits in ((1724, True), (1725, False)):
        cells = squares * 6 * 6 + 2 * (squares + 1)  # two gains, a chick list of cap + 1 cells each
        assert (cells <= _PAIR_CELLS) == fits
        assert _step_table(alternating_board(squares), _PAIR_CELLS)[2] == fits


# simulate builds the two-step table only for at least as many trials as
# it has cells: on the full board, 4320 entries and a chick list of 41
# cells (cap 40) for each of its 13 gains make 4853.
def test_the_two_step_table_waits_for_as_many_trials_as_it_has_cells(monkeypatch):
    taken = []

    def spy(spec, most):
        made = _step_table(spec, most)
        taken.append(made[2])
        return made

    monkeypatch.setattr(capchain.simulator, "_step_table", spy)
    for trials in (1, 4852, 4853):
        simulate(builtin_game("full"), trials, 1)
    assert taken == [False, False, True]


# Trial 0 of each seed draws 2**64 - 1, which three faces reject, as its
# third or its fourth draw: the first or the second draw of the second
# pass, on the boards just inside and just past the size rule.
@pytest.mark.parametrize("draw", [3, 4])
@pytest.mark.parametrize("squares", [1724, 1725])
def test_a_rejection_on_either_side_of_the_table_size_rule_is_redrawn(monkeypatch, squares, draw):
    play_from(monkeypatch, _PAIR_CELLS)  # four trials play as if they were _PAIR_CELLS: the board decides
    seed = unmix64((unmix64(_MASK) - draw * 0x9E3779B97F4A7C15) & _MASK)
    rng = SplitMix64.stream(seed, 0)
    assert [rng.next_u64() for _ in range(draw)][-1] == _MASK
    spec = alternating_board(squares)
    for round_cap in (squares, 4 * squares):  # a cap that censors some plays, and one that censors none
        report = simulate(spec, 4, seed, round_cap)
        assert report == fold_single_plays(spec, 4, seed, round_cap)
        assert (0 < report.censored < 4) == (round_cap == squares)


# Trial 0 of this seed draws 2**64 - 1, which three faces reject, as its
# 209th draw, the first of pass 105, with its game still on.  51 of the
# 64 trials finish within 207 rounds, by pass 104, so the batch has
# repacked into 16 slots or fewer: the redraw advances trial 0's state in
# a narrowed slot, and its later draws must come from there.
def test_a_rejection_after_a_repack_is_redrawn_from_the_narrowed_slot(monkeypatch):
    draw, trials = 209, 64
    seed = unmix64((unmix64(_MASK) - draw * 0x9E3779B97F4A7C15) & _MASK)
    rng = SplitMix64.stream(seed, 0)
    assert [rng.next_u64() for _ in range(draw)][-1] == _MASK
    spec = alternating_board(200)
    assert play_once(spec, SplitMix64.stream(seed, 0), round_cap=draw - 1) is None
    early = [play_once(spec, SplitMix64.stream(seed, trial), round_cap=draw - 2) for trial in range(trials)]
    assert sum(result is not None for result in early) == 51
    report = on_both_tables(monkeypatch, spec, trials, seed)
    assert report == fold_single_plays(spec, trials, seed, 600)


def test_lane_constants_are_built_on_first_use_once_per_width():
    # Importing the package builds none; a run builds each power-of-two
    # width it needs once, so later batches and calls reuse them.
    probe = (
        "import capchain\n"
        "from capchain.simulator import LANES, _lanes\n"
        "assert _lanes.cache_info().currsize == 0\n"
        "capchain.simulate(capchain.builtin_game('full'), 3 * LANES + 5, 1)\n"
        "capchain.simulate(capchain.builtin_game('full'), 3 * LANES + 5, 2)\n"
        "info = _lanes.cache_info()\n"
        "assert info.misses == info.currsize <= LANES.bit_length(), info\n"
        "assert info.hits > info.misses, info\n"
    )
    proc = run_python(probe)
    assert proc.returncode == 0, proc.stderr


# Each trial draws from its own stream, so the batch width changes the
# order of play and nothing else: widths from one lane to LANES give one
# report, with a cap that censors and one that censors nothing.
@pytest.mark.parametrize("round_cap", [10, 600])
@pytest.mark.parametrize("name", ["simplified", "full"])
def test_the_report_does_not_depend_on_the_batch_width(monkeypatch, name, round_cap):
    spec = builtin_game(name)
    trials = 2 * LANES + 3
    reports = []
    for width in (1, 8, 512, LANES):
        monkeypatch.setattr(capchain.simulator, "LANES", width)
        reports.append(simulate(spec, trials, 23, round_cap))
    assert all(report == reports[0] for report in reports)
    assert (reports[0].censored > 0) == (round_cap == 10)


# LANES - 1 to 2 * LANES + 3 straddle the batch edges; 511 to 1027 straddle
# slot-width edges inside one batch (and were the batch edges at 512 lanes).
# Past one trial the simplified board plays from its two-step table and
# the full board from its one-step table.
@pytest.mark.parametrize("trials", [1, 511, 512, 513, 1027, LANES - 1, LANES, LANES + 1, 2 * LANES + 3])
@pytest.mark.parametrize("name", ["simplified", "full"])
def test_batch_edges_equal_a_fold_of_single_plays(name, trials):
    spec = builtin_game(name)
    assert simulate(spec, trials, 11) == fold_single_plays(spec, trials, 11, 600)


# 61 animal moves with the fox up half the time: games take 95 to 165
# rounds, so each batch repacks as its lanes finish.  A cap of 130 or 131
# comes after the first repack of every batch and censors about a quarter
# of the lanes (at 131, a lane can finish in round 132, past the cap); a
# cap of 100000 censors none.
@pytest.mark.parametrize("round_cap", [130, 131, 100_000])
def test_a_long_tailed_board_equals_a_fold_of_single_plays(round_cap):
    spec = GameSpec(
        animals=("a",), squares=("0",) + ("a",) * 60 + ("*",), blue=(), win_threshold=61
    )
    trials = 2 * LANES + 3
    report = simulate(spec, trials, 5, round_cap)
    assert report == fold_single_plays(spec, trials, 5, round_cap)
    assert (report.censored > 0) == (round_cap != 100_000)


def test_simulate_memory_grows_with_the_board_not_with_board_times_cap():
    # One animal on each of 3000 squares, a cap of 3000 chicks: a table over
    # (square, chicks) would hold 18 million entries, one over squares 6000.
    n = 3000
    spec = GameSpec(animals=("a",), squares=("a",) * n + ("*",), blue=(), win_threshold=n)
    spec.moves  # the spec's own table, built before the measurement
    tracemalloc.start()
    try:
        report = simulate(spec, 2, seed=1, round_cap=4 * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * n
    assert report.censored == 0
    assert report == fold_single_plays(spec, 2, 1, 4 * n)


# The two-step table of a 1724-square board just inside _PAIR_CELLS: a
# pointer a cell, and one shared (next row, offset) pair per first and
# second move of a square, about 41 bytes a cell in all.  A table with a
# pair of its own in every cell takes about 77.
def test_the_two_step_table_memory_stays_within_its_cell_budget(monkeypatch):
    play_from(monkeypatch, _PAIR_CELLS)
    n = 1724
    spec = alternating_board(n)
    spec.moves
    assert _step_table(spec, _PAIR_CELLS)[2]
    tracemalloc.start()
    try:
        report = simulate(spec, 2, seed=1, round_cap=4 * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * _PAIR_CELLS
    assert report == fold_single_plays(spec, 2, 1, 4 * n)


def test_single_trial_report():
    spec = builtin_game("simplified")
    report = simulate(spec, 1, seed=99)
    assert report.trials == 1
    assert report.censored == 0
    assert sum(report.chick_histogram.values()) == 1
    assert sum(report.rounds_histogram.values()) == 1
    assert report.wins in (0, 1)
    assert report.correlation is None


def test_all_censored_report_has_no_moments():
    # One spin can never finish the simplified game, so every trial is censored.
    spec = builtin_game("simplified")
    report = simulate(spec, 50, seed=4, round_cap=1)
    assert report.censored == 50
    assert report.completed == 0
    assert report.chick_histogram == {}
    assert report.chick_mean is None
    assert report.rounds_variance is None
    assert report.correlation is None
    assert report.wins == 0


def test_histogram_counts_cover_completed_trials():
    spec = builtin_game("simplified")
    report = simulate(spec, 4000, seed=8)
    assert sum(report.chick_histogram.values()) == report.completed
    assert sum(report.rounds_histogram.values()) == report.completed
    assert report.censored == 0
    assert set(report.chick_histogram) <= set(range(spec.win_threshold + 1))


def test_report_round_trips_to_json_dict():
    spec = builtin_game("simplified")
    report = simulate(spec, 300, seed=2)
    document = report.to_json_dict()
    assert document["trials"] == 300
    assert document["completed"] == 300 - document["censored"]
    assert document["chick_histogram"] == [
        [value, count] for value, count in sorted(report.chick_histogram.items())
    ]
    assert document["wins"] == report.wins
    # A hand-built report: every field in order, `completed` after `censored`, histograms sorted.
    built = SimulationReport(10, 4, 600, 3, 2, 1.5, 0.25, 5.0, 1.0, -0.5, {3: 1, 0: 4, 1: 2}, {9: 3, 2: 4})
    document = built.to_json_dict()
    assert list(document) == [*SimulationReport._fields[:4], "completed", *SimulationReport._fields[4:]]
    assert document["completed"] == 7
    assert document["chick_histogram"] == [[0, 4], [1, 2], [3, 1]]
    assert document["rounds_histogram"] == [[2, 4], [9, 3]]
    assert [document[key] for key in SimulationReport._fields[:10]] == list(built[:10])


def test_simulate_rejects_empty_batch():
    for trials in (0, True, 2.5):  # none, or not an int
        with pytest.raises(UsageError, match="^trials must be an integer >= 1"):
            simulate(builtin_game("simplified"), trials, seed=1)


# A seed or cap that is not an int, bool included, ended up in the report
# (round_cap 2.5 or True) or raised TypeError from inside the generator.
@pytest.mark.parametrize("value", [True, False, 2.5, "7", None])
@pytest.mark.parametrize("name", ["seed", "round_cap"])
def test_simulate_rejects_a_seed_or_round_cap_that_is_not_an_int(name, value):
    arguments = {"seed": 1, "round_cap": 600, name: value}
    with pytest.raises(UsageError, match=f"^{name} must be an integer, got {value!r}$"):
        simulate(builtin_game("simplified"), 3, **arguments)


def test_empirical_statistics_agree_with_exact_engine():
    spec = builtin_game("simplified")
    chain = compile_game(spec)
    stats = summarize(run_absorption(chain, "1", 60))
    trials = 100_000
    report = simulate(spec, trials, seed=17)
    assert report.censored == 0

    win_rate = float(stats.win_probability)
    win_se = math.sqrt(win_rate * (1 - win_rate) / trials)
    assert abs(report.wins / trials - win_rate) <= 4 * win_se

    mean = float(stats.chick_mean)
    mean_se = math.sqrt(float(stats.chick_variance) / trials)
    assert abs(report.chick_mean - mean) <= 4 * mean_se

    rounds_mean = float(stats.rounds_mean)
    rounds_se = math.sqrt(float(stats.rounds_variance) / trials)
    assert abs(report.rounds_mean - rounds_mean) <= 4 * rounds_se


def test_chi_square_upper_tail_matches_known_quantiles():
    # (degrees of freedom, quantile, upper-tail probability) from tables.
    for dof, quantile, tail in [
        (1, 3.8414588206941285, 0.05),
        (2, 9.210340371976182, 0.01),
        (7, 0.598493752375376, 0.999),
        (10, 18.30703805327515, 0.05),
        (30, 20.599234614585345, 0.9),
        (60, 127.0963602497362, 1e-6),
        (100, 124.34211340400408, 0.05),
    ]:
        assert chi_square_upper_tail(quantile, dof) == pytest.approx(tail, rel=1e-9)
    assert chi_square_upper_tail(0.0, 4) == 1.0


def test_simulated_histograms_fit_the_exact_distribution(full_game, full_record_60):
    # Chi-square goodness of fit of one million trials against the exact
    # M=60 conditional record; seed, trial count and the p < 1e-6 failure
    # threshold were fixed before the first run.
    exact = full_record_60.conditional()
    capital = marginal_capital(exact)
    lo, _ = capital.support
    report = simulate(full_game, 1_000_000, seed=1)
    for histogram, probabilities in [
        (report.chick_histogram, {lo + k: p for k, p in enumerate(capital.coeffs)}),
        (report.rounds_histogram, marginal_rounds(exact)),
    ]:
        cells = pooled_cells(histogram, probabilities)
        assert all(expected >= 5 for expected, _ in cells)
        statistic = float(sum((observed - expected) ** 2 / expected for expected, observed in cells))
        p_value = chi_square_upper_tail(statistic, len(cells) - 1)
        assert p_value >= 1e-6, (statistic, len(cells) - 1, p_value)
