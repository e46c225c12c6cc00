"""Acceptance suite: the ten headline behaviours, one test per criterion.

Each test prints a PASS line on the way out (visible with ``pytest -s`` or
``-v``); every tolerance is pinned in the assertion itself. Run with::

    pytest tests/test_acceptance.py -v
"""
import itertools

import numpy as np
import pytest

from helpers import random_density, random_projective_basis, random_unitary
from qgames.catalog import load
from qgames.classical import (
    ClassicalGame,
    MixedProfile,
    dominant_strategies,
    expected_payoffs,
    max_pure_deviation_gain,
    pure_nash,
)
from qgames.equilibrium import (
    best_response,
    forcing_response,
    pareto_report,
    verify_nash,
    verify_nash_mixed_finite,
)
from qgames.quantum import (
    DensityMatrix,
    UnitaryOperator,
    commutator_norm,
    outcome_probabilities,
    sample_outcome,
)
from qgames.quantumize import (
    OperatorMixture,
    build_ewl,
    expected_payoffs_q,
    final_state,
    mixed_final_state,
    outcome_distribution,
    play_sequential,
    sequential_basis,
)
from qgames.strategies import (
    DEFECT,
    HADAMARD,
    StrategyFamily,
    param_unitary,
    parameter_grid,
)

ONE = StrategyFamily.one_param()
TWO = StrategyFamily.two_param()
THREE = StrategyFamily.three_param()


@pytest.fixture(scope="module")
def penny():
    return load("penny_flip", verify=False)


@pytest.fixture(scope="module")
def dilemma():
    return load("prisoners_dilemma", verify=False)


@pytest.fixture(scope="module")
def coordination():
    return load("battle_of_sexes", verify=False)


def _passed(msg):
    print(f"ACCEPTANCE PASS: {msg}")


def test_01_sequential_player_always_wins(penny):
    """Both classical replies lose to the superposition sandwich, exactly."""
    sg = penny.quantum
    for reply in ("F", "N"):
        move = sg.classical_moves[reply]
        payoffs = play_sequential(sg, [UnitaryOperator(HADAMARD), move, UnitaryOperator(HADAMARD)])
        assert abs(payoffs[0] - 1.0) <= 1e-12
        assert abs(payoffs[1] + 1.0) <= 1e-12
    _passed("criterion 1: sequential protagonist wins against F and N within 1e-12")


def test_02_penny_flip_classical_solutions(penny):
    game = penny.classical
    assert dominant_strategies(game) == (None, None)
    assert pure_nash(game) == []
    profile = MixedProfile((np.array([0.5, 0.5]), np.full(4, 0.25)))
    payoffs = expected_payoffs(game, profile)
    assert np.all(np.abs(payoffs) <= 1e-9)
    assert max_pure_deviation_gain(game, profile) <= 1e-9
    _passed("criterion 2: penny flip has no dominant/pure solutions; uniform mix is a 0-value equilibrium")


def test_03_one_parameter_reduction(dilemma):
    """Rotations reproduce the classical mixture with p(cooperate) = cos²(θ/2)."""
    qg = dilemma.quantum
    grid = parameter_grid(ONE, 16)[:, 0]
    for ta in grid:
        ua = param_unitary(ONE, (ta,))
        pa = np.cos(ta / 2) ** 2
        for tb in grid:
            ub = param_unitary(ONE, (tb,))
            pb = np.cos(tb / 2) ** 2
            dist = dict(outcome_distribution(qg, [ua, ub]))
            expected = {
                (0, 0): pa * pb,
                (0, 1): pa * (1 - pb),
                (1, 0): (1 - pa) * pb,
                (1, 1): (1 - pa) * (1 - pb),
            }
            for play, want in expected.items():
                assert abs(dist[play] - want) <= 1e-9
    _passed("criterion 3: 16x16 rotation grid matches the classical product distribution within 1e-9")


def test_04_two_parameter_equilibrium(dilemma):
    qg = dilemma.quantum
    phase = (0.0, np.pi / 2)
    report = verify_nash(qg, (phase, phase), TWO, epsilon=1e-6)
    assert report.certified
    assert np.all(np.abs(np.asarray(report.payoffs) - (-1.0)) <= 1e-9)
    point, value = best_response(qg, 0, {1: UnitaryOperator(DEFECT)}, TWO)
    assert np.allclose(point, phase, atol=1e-9)
    assert abs(value) <= 1e-9
    _passed("criterion 4: phase-move profile certifies at 1e-6 with payoffs (-1, -1); best reply to defection is (0, pi/2)")


def test_05_three_parameter_no_equilibrium(dilemma):
    """Every profile is refuted; the forcing response witnesses the gap.

    The closed-form witness steers the entangled start onto the responding
    player's best play for any opponent; the quoted product-of-endpoints
    shorthand only matches it at special opponents (see the strategy tests),
    so the exact construction is used here.
    """
    qg = dilemma.quantum
    rng = np.random.default_rng(501)
    for _ in range(20):
        profile = tuple(
            (
                float(rng.uniform(0, np.pi)),
                float(rng.uniform(0, 2 * np.pi)),
                float(rng.uniform(0, 2 * np.pi)),
            )
            for _ in range(2)
        )
        units = [param_unitary(THREE, p) for p in profile]
        report = verify_nash(qg, profile, THREE)
        assert report.refuted
        for player in range(2):
            gap = 0.0 - report.payoffs[player]  # each player's maximum is 0
            assert report.gains[player] >= 0.5 * gap - 1e-9
            witness = forcing_response(qg, player, units[1 - player])
            play = [None, None]
            play[player] = UnitaryOperator(witness)
            play[1 - player] = units[1 - player]
            witness_payoff = expected_payoffs_q(qg, play)[player]
            assert abs(witness_payoff - 0.0) <= 1e-9
    _passed("criterion 5: 20 random full-unitary profiles refuted; forcing witness reaches the maximum within 1e-9")


def _random_corpus(rng, count=50):
    games = []
    for _ in range(count):
        n = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(2, 4)) for _ in range(n))
        sets = tuple(tuple(f"s{i}{a}" for a in range(k)) for i, k in enumerate(shape))
        payoffs = tuple(rng.uniform(-5, 5, size=shape) for _ in range(n))
        game = ClassicalGame(sets, payoffs)
        dim = int(np.prod(shape))
        basis = random_projective_basis(rng, list(game.plays()))
        games.append(build_ewl(game, random_density(rng, dim), basis))
    return games


@pytest.fixture(scope="module")
def random_corpus():
    return _random_corpus(np.random.default_rng(606))


def test_06_payoff_operator_commutation(random_corpus):
    worst = 0.0
    for qg in random_corpus:
        for i, j in itertools.combinations(range(qg.base.players), 2):
            worst = max(
                worst, commutator_norm(qg.payoff_operators[i], qg.payoff_operators[j])
            )
    assert worst <= 1e-9
    _passed(f"criterion 6: max pairwise payoff-operator commutator over 50 random games = {worst:.2e} <= 1e-9")


def test_07_two_path_payoff_agreement(random_corpus):
    rng = np.random.default_rng(707)
    worst = 0.0
    for qg in random_corpus:
        for _ in range(100):
            play = [UnitaryOperator(random_unitary(rng, d)) for d in qg.local_dims]
            via_operator = expected_payoffs_q(qg, play)
            probs = outcome_probabilities(final_state(qg, play), qg.basis)
            via_sum = np.zeros(qg.base.players)
            for p, label in zip(probs, qg.basis.labels):
                via_sum += p * qg.base.payoff_vector(label)
            worst = max(worst, float(np.abs(via_operator - via_sum).max()))
    assert worst <= 1e-9
    _passed(f"criterion 7: operator vs probability-sum payoff discrepancy = {worst:.2e} <= 1e-9 over 5000 plays")


def test_08_coordination_game_reproduction(coordination):
    game = coordination.classical
    a, b, g = 3.0, 2.0, 1.0
    # independent indifference oracle: solve each opponent's two-way tie as
    # a linear system in (probability of O, tied payoff value)
    p_o, _ = np.linalg.solve(
        np.array([[b - g, -1.0], [g - a, -1.0]]), np.array([-g, -a])
    )
    q_o, _ = np.linalg.solve(
        np.array([[a - g, -1.0], [g - b, -1.0]]), np.array([-g, -b])
    )
    assert p_o == pytest.approx((a - g) / (a + b - 2 * g), abs=1e-12)
    assert q_o == pytest.approx((b - g) / (a + b - 2 * g), abs=1e-12)
    profile = MixedProfile((np.array([p_o, 1 - p_o]), np.array([q_o, 1 - q_o])))
    payoffs = expected_payoffs(game, profile)
    value = (a * b - g * g) / (a + b - 2 * g)
    assert np.all(np.abs(payoffs - value) <= 1e-9)
    assert abs(payoffs[0] - 5 / 3) <= 1e-9
    assert max_pure_deviation_gain(game, profile) <= 1e-9

    qg = coordination.quantum
    family = coordination.strategy_family
    for label in ("I", "X"):
        op = family.operator(label)
        mixtures = [OperatorMixture.pure(op), OperatorMixture.pure(op)]
        report = verify_nash_mixed_finite(qg, mixtures, (family, family))
        assert report.certified
        assert np.all(np.abs(np.asarray(report.payoffs) - 2.5) <= 1e-9)  # (a+b)/2
    uniform = OperatorMixture.over_family(family, [0.5, 0.5])
    report = verify_nash_mixed_finite(qg, [uniform, uniform], (family, family))
    assert report.certified
    assert np.all(np.abs(np.asarray(report.payoffs) - 1.75) <= 1e-9)  # (a+b+2g)/4

    ranking = pareto_report(
        [
            ("classical_mixed", (value, value)),
            ("quantum_pure_II", (2.5, 2.5)),
            ("quantum_pure_XX", (2.5, 2.5)),
            ("quantum_mixed", (1.75, 1.75)),
        ]
    )
    assert set(ranking.optimal) == {"quantum_pure_II", "quantum_pure_XX"}
    _passed("criterion 8: coordination game values 5/3, 2.5, 1.75 reproduced; pure quantum equilibria are the Pareto set")


def test_09_sampling_consistency(penny, dilemma, coordination):
    """1e5 seeded draws per game reproduce the equilibrium-state outcome
    probabilities within 0.01 per outcome."""
    n = 100_000
    cases = []
    # penny: state after the winning sandwich, measured in the state basis
    sg = penny.quantum
    u = HADAMARD @ sg.classical_moves["F"].matrix @ HADAMARD
    rho = DensityMatrix(u @ sg.initial_state.matrix @ u.conj().T)
    cases.append(("penny_flip", rho, sequential_basis(sg)))
    # dilemma: the certified phase-move profile
    qg = dilemma.quantum
    phase = param_unitary(TWO, (0.0, np.pi / 2))
    cases.append(("prisoners_dilemma", final_state(qg, [phase, phase]), qg.basis))
    # coordination: the uniform-mixture equilibrium
    qg = coordination.quantum
    family = coordination.strategy_family
    uniform = OperatorMixture.over_family(family, [0.5, 0.5])
    cases.append(("battle_of_sexes", mixed_final_state(qg, [uniform, uniform]), qg.basis))

    for name, rho, basis in cases:
        analytic = outcome_probabilities(rho, basis)
        counts = dict.fromkeys(basis.labels, 0)
        rng = np.random.default_rng(909)
        for _ in range(n):
            label, rng = sample_outcome(rho, basis, rng)
            counts[label] += 1
        for label, want in zip(basis.labels, analytic):
            assert abs(counts[label] / n - want) < 0.01, (name, label)
    _passed("criterion 9: 1e5 seeded samples match analytic probabilities within 0.01 for all three games")


def _brute_force_pure_nash(game):
    result = []
    for play in itertools.product(*(range(k) for k in game.shape)):
        good = True
        for i in range(game.players):
            current = game.payoffs[i][play]
            for alt in range(game.shape[i]):
                if alt == play[i]:
                    continue
                deviated = list(play)
                deviated[i] = alt
                if game.payoffs[i][tuple(deviated)] > current:
                    good = False
                    break
            if not good:
                break
        if good:
            result.append(play)
    return result


def test_10_pure_nash_oracle_equivalence():
    rng = np.random.default_rng(1010)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(2, 4)) for _ in range(n))
        sets = tuple(tuple(f"s{i}{a}" for a in range(k)) for i, k in enumerate(shape))
        if rng.integers(0, 2):
            payoffs = tuple(rng.integers(-3, 4, size=shape).astype(float) for _ in range(n))
        else:
            payoffs = tuple(rng.uniform(-5, 5, size=shape) for _ in range(n))
        game = ClassicalGame(sets, payoffs)
        if pure_nash(game) != _brute_force_pure_nash(game):
            disagreements += 1
    assert disagreements == 0
    _passed("criterion 10: vectorized and brute-force equilibrium finders agree on 200 random games")
