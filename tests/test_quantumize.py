"""Both quantumization protocols: construction, payoffs, mixtures, sequences."""
import itertools

import numpy as np
import pytest

from helpers import random_quantum_game, random_unitary
from qgames.catalog import eta_basis, load
from qgames.classical import ClassicalGame, MixedProfile, expected_payoffs
from qgames.errors import ShapeError, ValidationError
from qgames.quantum import (
    DensityMatrix,
    UnitaryOperator,
    apply_channel,
    commutator_norm,
    outcome_probabilities,
)
from qgames.quantumize import (
    OperatorMixture,
    build_ewl,
    build_sequential,
    computational_basis,
    expected_payoffs_mixed,
    expected_payoffs_q,
    final_state,
    joint_unitary,
    mixed_final_state,
    outcome_distribution,
    play_index,
    play_sequential,
    product_channel,
)
from qgames.strategies import (
    DEFECT,
    FLIP,
    HADAMARD,
    IDENTITY,
    QUANTUM_MOVE,
    StrategyFamily,
    unitary_matrix,
)


@pytest.fixture(scope="module")
def dilemma_q():
    return load("prisoners_dilemma", verify=False).quantum


@pytest.fixture(scope="module")
def coordination_q():
    return load("battle_of_sexes", verify=False).quantum


@pytest.fixture(scope="module")
def penny_seq():
    return load("penny_flip", verify=False).quantum


def _u(op):
    return UnitaryOperator(op)


class TestBuildEwl:
    def test_dilemma_payoff_spectrum(self, dilemma_q):
        # eigenvalues on the play labels CC, CD, DC, DD for the first player
        spectrum = dilemma_q.payoff_eigenvalues()[0]
        assert spectrum[(0, 0)] == -1.0
        assert spectrum[(0, 1)] == -5.0
        assert spectrum[(1, 0)] == 0.0
        assert spectrum[(1, 1)] == -3.0
        # and the operator diagonalizes accordingly in the entangled basis
        basis = eta_basis()
        for k, label in enumerate(basis.labels):
            v = basis.projectors[k]
            np.testing.assert_allclose(
                dilemma_q.payoff_operators[0] @ v, spectrum[label] * v, atol=1e-12
            )

    def test_coordination_operators_are_diagonal(self, coordination_q):
        np.testing.assert_allclose(
            coordination_q.payoff_operators[0], np.diag([3.0, 1.0, 1.0, 2.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            coordination_q.payoff_operators[1], np.diag([2.0, 1.0, 1.0, 3.0]), atol=1e-12
        )

    def test_classical_diagonal_embedding(self):
        rng = np.random.default_rng(8)
        game = ClassicalGame(
            (("a", "b"), ("c", "d", "e")),
            (rng.uniform(-4, 4, (2, 3)), rng.uniform(-4, 4, (2, 3))),
        )
        play = (1, 2)
        vec = np.zeros(6, dtype=complex)
        vec[play_index(game, play)] = 1.0
        qg = build_ewl(game, DensityMatrix.from_pure(vec))
        identity_play = [_u(np.eye(2)), _u(np.eye(3))]
        np.testing.assert_allclose(
            expected_payoffs_q(qg, identity_play), game.payoff_vector(play), atol=1e-12
        )

    def test_label_play_mismatch_rejected(self, dilemma_q):
        game = dilemma_q.base
        bad = computational_basis(game)
        relabeled = type(bad)(bad.unitary, ((0, 0), (0, 1), (1, 0), (2, 2)))
        with pytest.raises(ValidationError):
            build_ewl(game, dilemma_q.initial_state, relabeled)

    def test_dim_mismatch_rejected(self, dilemma_q):
        with pytest.raises(ShapeError):
            build_ewl(dilemma_q.base, DensityMatrix.from_pure([1, 0]))


class TestExpectedPayoffsQ:
    def test_mutual_defection(self, dilemma_q):
        payoffs = expected_payoffs_q(dilemma_q, [_u(DEFECT), _u(DEFECT)])
        np.testing.assert_allclose(payoffs, [-3.0, -3.0], atol=1e-12)

    def test_mutual_phase_move(self, dilemma_q):
        payoffs = expected_payoffs_q(dilemma_q, [_u(QUANTUM_MOVE), _u(QUANTUM_MOVE)])
        np.testing.assert_allclose(payoffs, [-1.0, -1.0], atol=1e-12)

    def test_unilateral_defection(self, dilemma_q):
        payoffs = expected_payoffs_q(dilemma_q, [_u(IDENTITY), _u(DEFECT)])
        np.testing.assert_allclose(payoffs, [-5.0, 0.0], atol=1e-12)
        dist = dict(outcome_distribution(dilemma_q, [_u(IDENTITY), _u(DEFECT)]))
        assert dist[(0, 1)] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_paths_agree(self, seed):
        # operator expectation vs probability-weighted classical payoffs
        rng = np.random.default_rng(seed)
        qg = random_quantum_game(rng)
        for _ in range(20):
            play = [_u(random_unitary(rng, d)) for d in qg.local_dims]
            via_operator = expected_payoffs_q(qg, play)
            probs = outcome_probabilities(final_state(qg, play), qg.basis)
            via_sum = np.zeros(qg.base.players)
            for p, label in zip(probs, qg.basis.labels):
                via_sum += p * qg.base.payoff_vector(label)
            np.testing.assert_allclose(via_operator, via_sum, atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_payoff_operators_commute(self, seed):
        rng = np.random.default_rng(100 + seed)
        qg = random_quantum_game(rng)
        for i, j in itertools.combinations(range(qg.base.players), 2):
            assert commutator_norm(qg.payoff_operators[i], qg.payoff_operators[j]) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_plays_reproduce_classical_payoffs(self, seed):
        # computational start, computational basis, permutation locals
        rng = np.random.default_rng(200 + seed)
        game = ClassicalGame(
            (("a", "b"), ("c", "d"), ("e", "f")),
            tuple(rng.uniform(-4, 4, (2, 2, 2)) for _ in range(3)),
        )
        start = tuple(int(rng.integers(0, 2)) for _ in range(3))
        vec = np.zeros(8, dtype=complex)
        vec[play_index(game, start)] = 1.0
        qg = build_ewl(game, DensityMatrix.from_pure(vec))
        perms = [rng.permutation(2) for _ in range(3)]
        locals_ = []
        for perm in perms:
            m = np.zeros((2, 2), dtype=complex)
            for j, image in enumerate(perm):
                m[image, j] = 1.0
            locals_.append(_u(m))
        permuted = tuple(int(perm[s]) for perm, s in zip(perms, start))
        np.testing.assert_allclose(
            expected_payoffs_q(qg, locals_), game.payoff_vector(permuted), atol=0
        )

    def test_one_parameter_reduction_matches_classical_mixture(self, dilemma_q):
        # rotations by theta act like cooperating with probability cos²(θ/2)
        family = StrategyFamily.one_param()
        game = dilemma_q.base
        for ta in np.linspace(0, np.pi, 6):
            for tb in np.linspace(0, np.pi, 6):
                play = [_u(unitary_matrix(family, (ta,))), _u(unitary_matrix(family, (tb,)))]
                dist = dict(outcome_distribution(dilemma_q, play))
                pa, pb = np.cos(ta / 2) ** 2, np.cos(tb / 2) ** 2
                expected = {
                    (0, 0): pa * pb,
                    (0, 1): pa * (1 - pb),
                    (1, 0): (1 - pa) * pb,
                    (1, 1): (1 - pa) * (1 - pb),
                }
                for label, want in expected.items():
                    assert dist[label] == pytest.approx(want, abs=1e-9)
                profile = MixedProfile((np.array([pa, 1 - pa]), np.array([pb, 1 - pb])))
                np.testing.assert_allclose(
                    expected_payoffs_q(dilemma_q, play),
                    expected_payoffs(game, profile),
                    atol=1e-9,
                )


class TestExpectedPayoffsMixed:
    def test_uniform_mixture_value(self, coordination_q):
        family = StrategyFamily.finite((("I", IDENTITY), ("X", FLIP)))
        mixtures = [OperatorMixture.over_family(family, [0.5, 0.5])] * 2
        np.testing.assert_allclose(
            expected_payoffs_mixed(coordination_q, mixtures), [1.75, 1.75], atol=1e-12
        )

    def test_degenerate_mixture_equals_pure_play(self, dilemma_q):
        rng = np.random.default_rng(9)
        ops = [random_unitary(rng, 2) for _ in range(2)]
        mixtures = [OperatorMixture.pure(op) for op in ops]
        np.testing.assert_allclose(
            expected_payoffs_mixed(dilemma_q, mixtures),
            expected_payoffs_q(dilemma_q, [_u(o) for o in ops]),
            atol=1e-12,
        )

    def test_mismatched_operator_play(self, coordination_q):
        mixtures = [OperatorMixture.pure(IDENTITY), OperatorMixture.pure(FLIP)]
        np.testing.assert_allclose(
            expected_payoffs_mixed(coordination_q, mixtures), [1.0, 1.0], atol=1e-12
        )

    def test_invalid_mixture_rejected(self):
        with pytest.raises(ValidationError):
            OperatorMixture([0.7, 0.7], (IDENTITY, FLIP))
        with pytest.raises(ValidationError):
            OperatorMixture([1.5, -0.5], (IDENTITY, FLIP))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            OperatorMixture([0.5, bad], (IDENTITY, FLIP))


class TestSequential:
    def test_penny_always_win(self, penny_seq):
        for reply in ("F", "N"):
            move = penny_seq.classical_moves[reply]
            payoffs = play_sequential(penny_seq, [_u(HADAMARD), move, _u(HADAMARD)])
            np.testing.assert_allclose(payoffs, [1.0, -1.0], atol=1e-12)

    def test_all_classical_sequence(self, penny_seq):
        n, f = penny_seq.classical_moves["N"], penny_seq.classical_moves["F"]
        payoffs = play_sequential(penny_seq, [n, f, n])
        np.testing.assert_allclose(payoffs, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_sum_for_any_moves(self, penny_seq, seed):
        rng = np.random.default_rng(seed)
        moves = [_u(random_unitary(rng, 2)) for _ in range(3)]
        payoffs = play_sequential(penny_seq, moves)
        assert abs(payoffs.sum()) <= 1e-12

    def test_move_count_checked(self, penny_seq):
        with pytest.raises(ShapeError):
            play_sequential(penny_seq, [_u(HADAMARD)])

    def test_single_state_system_admits_identity_only(self):
        build_sequential(
            ("only",),
            DensityMatrix(np.array([[1.0]])),
            (0,),
            {"stay": np.array([[1.0]])},
            ((0.5,),),
        )
        with pytest.raises(ValidationError):
            build_sequential(
                ("only",),
                DensityMatrix(np.array([[1.0]])),
                (0,),
                {"spin": np.array([[1j]])},  # unitary but not a permutation
                ((0.5,),),
            )

    def test_three_state_cycle(self):
        cycle = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            cycle[(j + 1) % 3, j] = 1.0
        sg = build_sequential(
            ("r", "s", "t"),
            DensityMatrix.from_pure([1, 0, 0]),
            (0, 1, 0),
            {"shift": cycle},
            ((1.0, 0.0, -1.0), (-1.0, 0.0, 1.0)),
        )
        np.testing.assert_allclose(
            np.linalg.matrix_power(cycle, 3), np.eye(3), atol=1e-15
        )
        shift = sg.classical_moves["shift"]
        payoffs = play_sequential(sg, [shift, shift, shift])
        np.testing.assert_allclose(payoffs, [1.0, -1.0], atol=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            build_sequential(
                ("H", "T"),
                DensityMatrix.from_pure([1, 0]),
                (),
                {"N": IDENTITY},
                ((1.0, -1.0),),
            )
        with pytest.raises(ValidationError):
            build_sequential(
                ("H", "T"),
                DensityMatrix.from_pure([1, 0]),
                (0, 3),
                {"N": IDENTITY},
                ((1.0, -1.0),),
            )

    def test_mixed_initial_state(self):
        sg = build_sequential(
            ("H", "T"),
            DensityMatrix(np.diag([0.5, 0.5]).astype(complex)),
            (0,),
            {"N": IDENTITY, "F": FLIP},
            ((1.0, -1.0), (-1.0, 1.0)),
        )
        payoffs = play_sequential(sg, [sg.classical_moves["F"]])
        np.testing.assert_allclose(payoffs, [0.0, 0.0], atol=1e-12)


class TestJointUnitary:
    def test_matches_kron(self, dilemma_q):
        rng = np.random.default_rng(4)
        a, b = random_unitary(rng, 2), random_unitary(rng, 2)
        np.testing.assert_allclose(
            joint_unitary(dilemma_q, [_u(a), _u(b)]), np.kron(a, b), atol=1e-15
        )


class TestLocalAgainstKronecker:
    """The local (one tensor factor at a time) evolution against the
    Kronecker-product oracle, on random games with local dimensions 2 and 3,
    random bases and mixed initial states."""

    @pytest.mark.parametrize("seed", range(9))
    def test_pure_play(self, seed):
        rng = np.random.default_rng(900 + seed)
        qg = random_quantum_game(rng, players=2 + seed % 3)
        play = [_u(random_unitary(rng, d)) for d in qg.local_dims]
        u = joint_unitary(qg, play)
        rho = u @ qg.initial_state.matrix @ u.conj().T
        np.testing.assert_allclose(final_state(qg, play).matrix, rho, rtol=0, atol=1e-12)
        want = np.einsum("ab,iba->i", rho, qg.payoff_operators).real
        np.testing.assert_allclose(expected_payoffs_q(qg, play), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(9))
    def test_mixed_play(self, seed):
        rng = np.random.default_rng(950 + seed)
        qg = random_quantum_game(rng, players=2 + seed % 3)
        mixtures = []
        for d in qg.local_dims:
            k = int(rng.integers(1, 4))
            mixtures.append(
                OperatorMixture(rng.dirichlet(np.ones(k)), tuple(random_unitary(rng, d) for _ in range(k)))
            )
        rho = apply_channel(qg.initial_state, product_channel(mixtures)).matrix
        np.testing.assert_allclose(mixed_final_state(qg, mixtures).matrix, rho, rtol=0, atol=1e-12)
        want = np.einsum("ab,iba->i", rho, qg.payoff_operators).real
        np.testing.assert_allclose(expected_payoffs_mixed(qg, mixtures), want, rtol=0, atol=1e-12)
