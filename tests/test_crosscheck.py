"""Quantum certifiers against the classical solvers.

On the product start |0…0⟩ measured in the computational basis, every
player's move acts on their own qubit alone, and the outcome is the product
of the distributions |⟨k|U_i|0⟩|². Every SU(2) family member has
|⟨0|U|0⟩|² = cos²(θ/2), and every phase drops out, so the quantum game is
the classical mixed extension with p_i = (cos²(θ_i/2), sin²(θ_i/2)). A
family reaches every such p_i, so a best response is worth the best pure
deviation. A menu of cyclic shifts |0⟩ → |k⟩ plays strategy k outright, so
a mixture over it is the same mixture of strategies.

Two maps leave the verdicts alone on any start and basis. A positive affine
payoff map a·π + b scales every gain by a. A local frame change, the start
WρW† with W = ⊗W_i played against U_i W_i†, leaves every final state as it
was; right multiplication by W_i† maps SU(2) onto itself, so over
three_param every best response is worth the same too.
"""
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_game, random_projective_basis
from qgames.classical import ClassicalGame, MixedProfile, expected_payoffs, max_pure_deviation_gain
from qgames.equilibrium import verify_nash, verify_nash_mixed_finite
from qgames.quantum import DensityMatrix, dagger
from qgames.quantumize import OperatorMixture, build_ewl
from qgames.strategies import StrategyFamily, unitary_matrix

TOL = 1e-9
SEEDS = st.integers(0, 2**32 - 1)
FAMILIES = (StrategyFamily.one_param(), StrategyFamily.two_param(), StrategyFamily.three_param())


def _product_start(shape) -> DensityMatrix:
    ket = np.zeros(int(np.prod(shape)))
    ket[0] = 1.0
    return DensityMatrix.from_pure(ket)


def _random_point(rng, family) -> tuple[float, ...]:
    return tuple(float(rng.uniform(r.lo, r.hi)) for r in family.ranges)


def _shift(d: int, k: int) -> np.ndarray:
    """The cyclic shift |j⟩ → |j + k mod d⟩."""
    return np.roll(np.eye(d), k, axis=0)


def _shift_menu(d: int) -> StrategyFamily:
    return StrategyFamily.finite(tuple((f"s{k}", _shift(d, k)) for k in range(d)))


def _per_player_gains(game: ClassicalGame, profile: MixedProfile) -> np.ndarray:
    current = expected_payoffs(game, profile)
    gains = []
    for i in range(game.players):
        acc = np.moveaxis(game.payoffs[i], i, 0)
        for p in reversed([d for j, d in enumerate(profile.distributions) if j != i]):
            acc = acc @ p
        gains.append(acc.max() - current[i])
    return np.array(gains)


class TestSU2FamiliesAreTheMixedExtension:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    @given(seed=SEEDS)
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_payoffs_and_gains(self, family, seed):
        rng = np.random.default_rng(seed)
        players = int(rng.integers(2, 5))
        game = random_game(rng, players, max_strategies=2)
        qg = build_ewl(game, _product_start(game.shape))
        profile = [_random_point(rng, family) for _ in range(players)]
        report = verify_nash(qg, profile, family)
        classical = MixedProfile(
            tuple(np.array([np.cos(p[0] / 2) ** 2, np.sin(p[0] / 2) ** 2]) for p in profile)
        )
        np.testing.assert_allclose(report.payoffs, expected_payoffs(game, classical), atol=TOL)
        np.testing.assert_allclose(report.gains, _per_player_gains(game, classical), atol=TOL)
        assert abs(report.max_unilateral_gain - max_pure_deviation_gain(game, classical)) <= TOL


class TestShiftMenusAreTheMixedExtension:
    @given(seed=SEEDS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_payoffs_and_gains(self, seed):
        rng = np.random.default_rng(seed)
        game = random_game(rng, int(rng.integers(2, 4)), max_strategies=3)
        qg = build_ewl(game, _product_start(game.shape))
        menus = [_shift_menu(d) for d in game.shape]
        distributions = tuple(rng.dirichlet(np.ones(d)) for d in game.shape)
        mixtures = [OperatorMixture.over_family(m, p) for m, p in zip(menus, distributions)]
        report = verify_nash_mixed_finite(qg, mixtures, menus)
        classical = MixedProfile(distributions)
        np.testing.assert_allclose(report.payoffs, expected_payoffs(game, classical), atol=TOL)
        np.testing.assert_allclose(report.gains, _per_player_gains(game, classical), atol=TOL)
        assert abs(report.max_unilateral_gain - max_pure_deviation_gain(game, classical)) <= TOL


def _swap_players(game: ClassicalGame, rho: np.ndarray, i: int, j: int):
    """The same game with players ``i`` and ``j`` relabelled, and the start
    with their tensor factors exchanged."""
    n = game.players
    order = list(range(n))
    order[i], order[j] = order[j], order[i]
    payoffs = [np.transpose(game.payoffs[k], order) for k in order]
    swapped = ClassicalGame(tuple(game.strategy_sets[k] for k in order), tuple(payoffs))
    factors = rho.reshape(game.shape * 2)
    rho = np.transpose(factors, order + [n + k for k in order]).reshape(rho.shape)
    return swapped, DensityMatrix(rho)


class TestSwappingPlayers:
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_swaps_payoffs_and_gains(self, seed):
        rng = np.random.default_rng(seed)
        players = int(rng.integers(2, 5))
        family = FAMILIES[int(rng.integers(0, 3))]
        game = random_game(rng, players, max_strategies=2)
        start = random_density(rng, 2**players)
        i, j = (int(k) for k in rng.choice(players, size=2, replace=False))
        profile = [_random_point(rng, family) for _ in range(players)]
        report = verify_nash(build_ewl(game, start), profile, family)
        game2, start2 = _swap_players(game, start.matrix, i, j)
        profile2 = list(profile)
        profile2[i], profile2[j] = profile[j], profile[i]
        report2 = verify_nash(build_ewl(game2, start2), profile2, family)
        order = list(range(players))
        order[i], order[j] = order[j], order[i]
        np.testing.assert_allclose(report2.payoffs, np.array(report.payoffs)[order], atol=TOL)
        np.testing.assert_allclose(report2.gains, np.array(report.gains)[order], atol=TOL)


def _random_ewl(rng, players):
    """A random qubit game on a random start and a random basis."""
    game = random_game(rng, players, max_strategies=2)
    return game, random_density(rng, 2**players), random_projective_basis(rng, list(game.plays()))


class TestAffinePayoffMap:
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_scales_gains_and_keeps_the_verdict(self, seed):
        rng = np.random.default_rng(seed)
        players = int(rng.integers(2, 5))
        family = FAMILIES[int(rng.integers(0, 3))]
        game, start, basis = _random_ewl(rng, players)
        a, b = float(rng.uniform(0.1, 10.0)), rng.uniform(-5.0, 5.0, size=players)
        mapped = ClassicalGame(game.strategy_sets, tuple(a * p + c for p, c in zip(game.payoffs, b)))
        qg, qg2 = build_ewl(game, start, basis), build_ewl(mapped, start, basis)
        profile = [_random_point(rng, family) for _ in range(players)]
        gain = verify_nash(qg, profile, family).max_unilateral_gain
        # a threshold well clear of the gain, on either side of it
        epsilon = max(gain, 1e-6) * float(rng.choice([0.05, 0.5, 2.0]))
        report = verify_nash(qg, profile, family, epsilon)
        report2 = verify_nash(qg2, profile, family, a * epsilon)
        np.testing.assert_allclose(report2.payoffs, a * np.array(report.payoffs) + b, atol=TOL)
        np.testing.assert_allclose(report2.gains, a * np.array(report.gains), atol=TOL)
        assert (report2.certified, report2.refuted) == (report.certified, report.refuted)


def _three_param_point(u: np.ndarray) -> tuple[float, float, float]:
    """(θ, φ, λ) of u = [[e^{iφ}cos(θ/2), e^{−iλ}sin(θ/2)], [·, ·]] in SU(2)."""
    theta = 2.0 * np.arctan2(abs(u[0, 1]), abs(u[0, 0]))
    phi, lam = np.angle(u[0, 0]) % (2 * np.pi), -np.angle(u[0, 1]) % (2 * np.pi)
    return float(theta), float(phi), float(lam)


class TestLocalFrameChange:
    @given(seed=SEEDS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_keeps_payoffs_and_three_param_gains(self, seed):
        rng = np.random.default_rng(seed)
        players = int(rng.integers(2, 4))
        three = FAMILIES[2]
        game, start, basis = _random_ewl(rng, players)
        profile = [_random_point(rng, three) for _ in range(players)]
        frames = [unitary_matrix(three, _random_point(rng, three)) for _ in range(players)]
        w = reduce(np.kron, frames)
        moved = DensityMatrix(w @ start.matrix @ dagger(w))
        profile2 = []
        for point, frame in zip(profile, frames):
            u = unitary_matrix(three, point) @ dagger(frame)
            profile2.append(_three_param_point(u))
            np.testing.assert_allclose(unitary_matrix(three, profile2[-1]), u, atol=1e-12)
        report = verify_nash(build_ewl(game, start, basis), profile, three)
        report2 = verify_nash(build_ewl(game, moved, basis), profile2, three)
        np.testing.assert_allclose(report2.payoffs, report.payoffs, atol=TOL)
        np.testing.assert_allclose(report2.gains, report.gains, atol=TOL)
