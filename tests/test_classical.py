"""Normal-form game analysis: payoffs, dominance, equilibria, Pareto order."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_game
from qgames.catalog import load
from qgames.classical import (
    ClassicalGame,
    MixedProfile,
    dominant_strategies,
    expected_payoffs,
    max_pure_deviation_gain,
    mixed_nash_two_player,
    pareto_optimal_plays,
    pareto_relation,
    pure_nash,
)
from qgames.errors import ShapeError, UnsupportedError, ValidationError


@pytest.fixture(scope="module")
def dilemma():
    return load("prisoners_dilemma", verify=False).classical


@pytest.fixture(scope="module")
def coordination():
    return load("battle_of_sexes", verify=False).classical


@pytest.fixture(scope="module")
def penny():
    return load("penny_flip", verify=False).classical


def brute_force_pure_nash(game, strict=False):
    """Deviation check by explicit loops; intentionally unlike pure_nash."""
    result = []
    for play in itertools.product(*(range(k) for k in game.shape)):
        is_equilibrium = True
        for i in range(game.players):
            current = game.payoffs[i][play]
            for alt in range(game.shape[i]):
                if alt == play[i]:
                    continue
                deviated = list(play)
                deviated[i] = alt
                other = game.payoffs[i][tuple(deviated)]
                if (other >= current) if strict else (other > current):
                    is_equilibrium = False
                    break
            if not is_equilibrium:
                break
        if is_equilibrium:
            result.append(play)
    return result


class TestExpectedPayoffs:
    def test_pure_play_lookup(self, dilemma):
        profile = MixedProfile.pure(dilemma, (1, 1))
        np.testing.assert_allclose(expected_payoffs(dilemma, profile), [-3.0, -3.0])

    def test_penny_uniform_value_zero(self, penny):
        profile = MixedProfile((np.array([0.5, 0.5]), np.full(4, 0.25)))
        np.testing.assert_allclose(expected_payoffs(penny, profile), [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_profile_equals_table(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(rng)
        play = tuple(int(rng.integers(0, k)) for k in game.shape)
        np.testing.assert_allclose(
            expected_payoffs(game, MixedProfile.pure(game, play)),
            game.payoff_vector(play),
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_multilinear_in_each_player(self, seed):
        rng = np.random.default_rng(seed + 100)
        game = random_game(rng)
        base = [rng.dirichlet(np.ones(k)) for k in game.shape]
        for i in range(game.players):
            alt = rng.dirichlet(np.ones(game.shape[i]))
            t = rng.uniform()
            mixed = list(base)
            mixed[i] = t * base[i] + (1 - t) * alt
            left = expected_payoffs(game, MixedProfile(tuple(mixed)))
            at_base = expected_payoffs(game, MixedProfile(tuple(base)))
            swapped = list(base)
            swapped[i] = alt
            at_alt = expected_payoffs(game, MixedProfile(tuple(swapped)))
            np.testing.assert_allclose(left, t * at_base + (1 - t) * at_alt, atol=1e-10)

    def test_shape_mismatch(self, dilemma):
        profile = MixedProfile((np.array([1.0]), np.array([0.5, 0.5])))
        with pytest.raises(ShapeError):
            expected_payoffs(dilemma, profile)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValidationError, match="player 1 has non-finite"):
            MixedProfile((np.array([0.5, 0.5]), np.array([bad, 1.0])))


class TestDominantStrategies:
    def test_dilemma_defection(self, dilemma):
        assert dominant_strategies(dilemma) == (1, 1)
        assert dominant_strategies(dilemma, strict=True) == (1, 1)

    def test_penny_has_none(self, penny):
        assert dominant_strategies(penny) == (None, None)

    def test_single_strategy_game(self):
        game = ClassicalGame((("only",), ("one",)), (np.array([[1.0]]), np.array([[2.0]])))
        assert dominant_strategies(game) == (0, 0)
        assert dominant_strategies(game, strict=True) == (0, 0)

    def test_weak_tie_resolves_to_lowest_index(self):
        payoff = np.array([[1.0, 1.0], [1.0, 1.0]])
        game = ClassicalGame((("a", "b"), ("c", "d")), (payoff, payoff))
        assert dominant_strategies(game) == (0, 0)
        assert dominant_strategies(game, strict=True) == (None, None)

    @pytest.mark.parametrize("seed", range(30))
    def test_dominant_profile_is_nash(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(rng)
        dominant = dominant_strategies(game)
        if any(d is None for d in dominant):
            return
        assert tuple(dominant) in pure_nash(game)


class TestPureNash:
    def test_coordination_equilibria(self, coordination):
        assert pure_nash(coordination) == [(0, 0), (1, 1)]

    def test_penny_has_no_pure_equilibrium(self, penny):
        assert pure_nash(penny) == []

    def test_dilemma(self, dilemma):
        assert pure_nash(dilemma) == [(1, 1)]

    @pytest.mark.parametrize("strict", [False, True])
    def test_agrees_with_brute_force(self, strict):
        rng = np.random.default_rng(2024 + strict)
        for _ in range(200):
            game = random_game(rng, integer_payoffs=bool(rng.integers(0, 2)))
            assert pure_nash(game, strict) == brute_force_pure_nash(game, strict)


class TestMixedNash:
    def test_coordination_interior_point(self, coordination):
        profiles = mixed_nash_two_player(coordination)
        target = (np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3]))
        hit = [
            p
            for p in profiles
            if np.allclose(p.distributions[0], target[0], atol=1e-9)
            and np.allclose(p.distributions[1], target[1], atol=1e-9)
        ]
        assert len(hit) == 1
        np.testing.assert_allclose(
            expected_payoffs(coordination, hit[0]), [5 / 3, 5 / 3], atol=1e-9
        )

    def test_penny_contains_uniform(self, penny):
        profiles = mixed_nash_two_player(penny)
        assert any(
            np.allclose(p.distributions[0], [0.5, 0.5], atol=1e-9)
            and np.allclose(p.distributions[1], [0.25] * 4, atol=1e-9)
            for p in profiles
        )

    def test_matching_pennies_unique(self):
        pay = np.array([[1.0, -1.0], [-1.0, 1.0]])
        game = ClassicalGame((("H", "T"), ("H", "T")), (pay, -pay))
        profiles = mixed_nash_two_player(game)
        assert len(profiles) == 1
        np.testing.assert_allclose(profiles[0].distributions[0], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(profiles[0].distributions[1], [0.5, 0.5], atol=1e-9)

    def test_dilemma_has_only_the_dominant_equilibrium(self, dilemma):
        profiles = mixed_nash_two_player(dilemma)
        assert len(profiles) == 1
        np.testing.assert_allclose(profiles[0].distributions[0], [0, 1], atol=1e-9)
        np.testing.assert_allclose(profiles[0].distributions[1], [0, 1], atol=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_every_result_passes_best_response_check(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(rng, players=2, max_strategies=3)
        for profile in mixed_nash_two_player(game):
            assert max_pure_deviation_gain(game, profile) <= 1e-7

    def test_three_players_unsupported(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, players=3)
        with pytest.raises(UnsupportedError):
            mixed_nash_two_player(game)

    def test_large_strategy_sets_unsupported(self):
        payoff = np.zeros((5, 2))
        game = ClassicalGame(
            (tuple("abcde"), ("x", "y")), (payoff, payoff.copy())
        )
        with pytest.raises(UnsupportedError):
            mixed_nash_two_player(game)


class TestParetoRelation:
    def test_mutual_cooperation_dominates(self):
        assert pareto_relation([-1, -1], [-3, -3]) == "a_dominates"

    def test_incomparable(self):
        assert pareto_relation([1, 0], [0, 1]) == "incomparable"

    def test_matched_play_values_dominate_mixture(self):
        assert pareto_relation([2.5, 2.5], [1.75, 1.75]) == "a_dominates"

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pareto_relation([1, 2], [1, 2, 3])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=4),
        st.lists(st.floats(-100, 100), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric_and_reflexive(self, a, b):
        assert pareto_relation(a, a) == "equal"
        if len(a) == len(b):
            forward = pareto_relation(a, b)
            backward = pareto_relation(b, a)
            flipped = {
                "a_dominates": "b_dominates",
                "b_dominates": "a_dominates",
                "equal": "equal",
                "incomparable": "incomparable",
            }
            assert backward == flipped[forward]


class TestParetoOptimalPlays:
    def test_dilemma(self, dilemma):
        optimal = pareto_optimal_plays(dilemma)
        assert (0, 0) in optimal
        assert (1, 1) not in optimal

    def test_constant_game_keeps_all_plays(self):
        payoff = np.ones((2, 2))
        game = ClassicalGame((("a", "b"), ("c", "d")), (payoff, payoff))
        assert len(pareto_optimal_plays(game)) == 4

    def test_coordination(self, coordination):
        assert pareto_optimal_plays(coordination) == [(0, 0), (1, 1)]
