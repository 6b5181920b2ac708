"""Monte Carlo oracle: PRNG reference vectors, game play, batch reports."""

import math

import pytest

from capchain import (
    GameSpec,
    GameSpecError,
    SplitMix64,
    builtin_game,
    compile_game,
    mix64,
    play_once,
    run_absorption,
    simulate,
    summarize,
)

from _oracle import longest_animal_only_path


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


def oracle_moves(spec):
    return {
        square: [spec.next_location(square, animal) for animal in spec.animals]
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


def test_mix64_is_a_64_bit_permutation_sample():
    seen = {mix64(value) for value in range(2000)}
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
    with pytest.raises(ValueError):
        rng.randbelow(0)


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


def test_simulate_matches_a_manual_fold_of_single_plays():
    spec = builtin_game("simplified")
    trials, seed, cap = 500, 321, 80
    report = simulate(spec, trials, seed, round_cap=cap)

    chick_histogram: dict[int, int] = {}
    rounds_histogram: dict[int, int] = {}
    results = []
    for index in range(trials):
        result = play_once(spec, SplitMix64.stream(seed, index), cap)
        if result is None:
            continue
        results.append(result)
        rounds, chicks = result
        chick_histogram[chicks] = chick_histogram.get(chicks, 0) + 1
        rounds_histogram[rounds] = rounds_histogram.get(rounds, 0) + 1

    assert report.censored == trials - len(results)
    assert report.chick_histogram == chick_histogram
    assert report.rounds_histogram == rounds_histogram
    assert report.wins == chick_histogram.get(spec.win_threshold, 0)
    n = len(results)
    sum_c = sum(chicks for _, chicks in results)
    sum_r = sum(rounds for rounds, _ in results)
    assert report.chick_mean == sum_c / n
    assert report.rounds_mean == sum_r / n
    assert report.completed == n


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


def test_simulate_rejects_empty_batch():
    with pytest.raises(ValueError):
        simulate(builtin_game("simplified"), 0, seed=1)


def test_empirical_statistics_agree_with_exact_engine():
    spec = builtin_game("simplified")
    chain = compile_game(spec)
    stats = summarize(run_absorption(chain, "1", 60), spec.win_threshold)
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
