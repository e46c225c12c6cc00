"""Exact best responses, certification, forcing responses, Pareto reports."""
import numpy as np
import pytest

from helpers import _vertex_payoffs, random_quantum_game, random_unitary
from qgames.catalog import load
from qgames.classical import ClassicalGame
from qgames.equilibrium import (
    _LocalPayoff,
    best_response,
    best_response_mixed_finite,
    forcing_response,
    pareto_report,
    verify_nash,
    verify_nash_mixed_finite,
)
from qgames.errors import UnsupportedError
from qgames.quantum import TOL, DensityMatrix, UnitaryOperator
from qgames.quantumize import (
    OperatorMixture,
    build_ewl,
    expected_payoffs_mixed,
    expected_payoffs_q,
)
from qgames.strategies import (
    DEFECT,
    FLIP,
    IDENTITY,
    QUANTUM_MOVE,
    StrategyFamily,
    batch_unitaries,
    param_unitary,
    parameter_grid,
)

TWO = StrategyFamily.two_param()
THREE = StrategyFamily.three_param()
ONE = StrategyFamily.one_param()
PHASE_POINT = (0.0, np.pi / 2)


@pytest.fixture(scope="module")
def dilemma_q():
    return load("prisoners_dilemma", verify=False).quantum


@pytest.fixture(scope="module")
def coordination():
    return load("battle_of_sexes", verify=False)


def _random_three_param_point(rng):
    return (
        float(rng.uniform(0, np.pi)),
        float(rng.uniform(0, 2 * np.pi)),
        float(rng.uniform(0, 2 * np.pi)),
    )


class TestBestResponse:
    def test_response_to_defection_is_the_phase_move(self, dilemma_q):
        point, value = best_response(
            dilemma_q, 0, {1: UnitaryOperator(DEFECT)}, TWO
        )
        np.testing.assert_allclose(point, PHASE_POINT, atol=1e-12)
        assert abs(value) <= 1e-9

    def test_response_to_phase_move_stays_on_phase_line(self, dilemma_q):
        point, value = best_response(
            dilemma_q, 0, {1: UnitaryOperator(QUANTUM_MOVE)}, TWO
        )
        assert point[1] == pytest.approx(np.pi / 2, abs=1e-9)
        assert value == pytest.approx(-1.0, abs=1e-9)  # -gamma

    def test_one_param_response_to_defection_is_defection(self, dilemma_q):
        point, value = best_response(dilemma_q, 0, {1: UnitaryOperator(DEFECT)}, ONE)
        assert point[0] == pytest.approx(np.pi, abs=1e-9)
        assert value == pytest.approx(-3.0, abs=1e-9)  # -beta

    @pytest.mark.parametrize("seed", range(5))
    def test_three_param_search_reaches_the_forcing_value(self, dilemma_q, seed):
        rng = np.random.default_rng(seed)
        opp = param_unitary(THREE, _random_three_param_point(rng))
        point, value = best_response(dilemma_q, 0, {1: opp}, THREE)
        assert abs(value) <= 1e-9  # the player's maximum payoff is 0

    def test_monotone_in_grid_resolution(self, dilemma_q):
        # the exact value tops the grid maximum at every resolution
        opponents = [(0.8, 0.3), (2.1, 1.2), (np.pi, 0.0)]
        for opp_point in opponents:
            opp = param_unitary(TWO, opp_point)
            _, value = best_response(dilemma_q, 0, {1: opp}, TWO)
            surface = _LocalPayoff(dilemma_q, 0, {1: opp})
            for res in (8, 16, 32):
                grid_vals = surface.values(batch_unitaries(TWO, parameter_grid(TWO, res)))
                assert value >= grid_vals.max() - 1e-12

    def test_payoff_at_least_grid_best(self, dilemma_q):
        opp = param_unitary(TWO, (1.234, 0.77))
        point, value = best_response(dilemma_q, 0, {1: opp}, TWO)
        surface = _LocalPayoff(dilemma_q, 0, {1: opp})
        grid_vals = surface.values(batch_unitaries(TWO, parameter_grid(TWO, 9)))
        assert value >= grid_vals.max() - 1e-12

    def test_finite_family_rejected(self, dilemma_q):
        finite = StrategyFamily.finite((("I", IDENTITY),))
        with pytest.raises(UnsupportedError):
            best_response(dilemma_q, 0, {1: UnitaryOperator(DEFECT)}, finite)

    def test_deterministic(self, dilemma_q):
        opp = param_unitary(THREE, (1.1, 2.2, 3.3))
        first = best_response(dilemma_q, 0, {1: opp}, THREE)
        second = best_response(dilemma_q, 0, {1: opp}, THREE)
        assert first == second


@pytest.fixture(scope="module")
def oracle_cases():
    """The dilemma plus 12 random 2-qubit EWL games on random pure starts,
    each with a random opponent."""
    rng = np.random.default_rng(2001)
    cases = [(load("prisoners_dilemma", verify=False).quantum, random_unitary(rng, 2))]
    moves = (("C", "D"), ("C", "D"))
    for _ in range(12):
        game = ClassicalGame(moves, tuple(rng.uniform(-5, 5, size=(2, 2)) for _ in range(2)))
        amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
        start = DensityMatrix.from_pure(amplitudes / np.linalg.norm(amplitudes))
        cases.append((build_ewl(game, start), random_unitary(rng, 2)))
    return cases


class TestExactAgainstGridOracle:
    """The plain grid maximum is a lower bound on every exact response."""

    @pytest.mark.parametrize("case", range(13))
    def test_exact_response(self, oracle_cases, case):
        qg, opp = oracle_cases[case]
        player = case % 2
        others = {1 - player: opp}
        surface = _LocalPayoff(qg, player, others)
        values = []
        for family, resolution in ((ONE, 64), (TWO, 64), (THREE, 24)):
            point, value = best_response(qg, player, others, family)
            grid_vals = surface.values(batch_unitaries(family, parameter_grid(family, resolution)))
            assert value >= grid_vals.max() - 1e-12
            play = [None, None]
            play[player] = param_unitary(family, point)
            play[1 - player] = UnitaryOperator(opp)
            assert abs(value - expected_payoffs_q(qg, play)[player]) <= 1e-12
            values.append(value)
        # the families are nested: one_param within two_param within three_param
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12


class TestLocalPayoffForm:
    @pytest.mark.parametrize("seed", range(12))
    def test_form_matches_the_payoff(self, seed):
        # 2-4 players of dimensions 2 and 3, random bases and mixed starts;
        # the other players play bare unitaries (even seeds) or mix 1-3
        # unitaries (odd seeds)
        rng = np.random.default_rng(1200 + seed)
        qg = random_quantum_game(rng, players=2 + seed % 3)
        player = seed % qg.base.players
        mixtures = []
        for d in qg.local_dims:
            k = 1 if seed % 2 == 0 else int(rng.integers(1, 4))
            mixtures.append(OperatorMixture(rng.dirichlet(np.ones(k)), tuple(random_unitary(rng, d) for _ in range(k))))
        own = random_unitary(rng, qg.local_dims[player])
        mixtures[player] = OperatorMixture.pure(own)
        others = {
            j: m if seed % 2 else m.operators[0].matrix for j, m in enumerate(mixtures) if j != player
        }
        surface = _LocalPayoff(qg, player, others)
        want = expected_payoffs_mixed(qg, mixtures)[player]
        assert abs(surface.value(own) - want) <= 1e-12


class TestVerifyNash:
    def test_phase_profile_certifies(self, dilemma_q):
        report = verify_nash(dilemma_q, (PHASE_POINT, PHASE_POINT), TWO)
        assert report.certified and not report.refuted
        np.testing.assert_allclose(report.payoffs, (-1.0, -1.0), atol=1e-9)

    def test_certification_survives_grid_refinement(self, dilemma_q):
        # the exact response leaves no gain for a finer search to find
        report = verify_nash(dilemma_q, (PHASE_POINT, PHASE_POINT), TWO, epsilon=1e-6)
        assert report.certified
        assert report.max_unilateral_gain <= 1e-12

    def test_one_param_mutual_defection_certifies(self, dilemma_q):
        report = verify_nash(dilemma_q, ((np.pi,), (np.pi,)), ONE)
        assert report.certified
        np.testing.assert_allclose(report.payoffs, (-3.0, -3.0), atol=1e-9)

    def test_mutual_cooperation_is_refuted(self, dilemma_q):
        report = verify_nash(dilemma_q, ((0.0, 0.0), (0.0, 0.0)), TWO)
        assert report.refuted and not report.certified
        assert report.max_unilateral_gain == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_three_param_profiles_always_refuted(self, dilemma_q, seed):
        rng = np.random.default_rng(1000 + seed)
        profile = (_random_three_param_point(rng), _random_three_param_point(rng))
        report = verify_nash(dilemma_q, profile, THREE)
        assert report.refuted

    def test_pareto_flags(self, dilemma_q):
        report = verify_nash(
            dilemma_q,
            (PHASE_POINT, PHASE_POINT),
            TWO,
            reference=[("mutual_defection", (-3.0, -3.0))],
        )
        assert report.pareto_flags == {"mutual_defection": "a_dominates"}


class TestForcingResponse:
    @pytest.mark.parametrize("responder", [0, 1])
    def test_reaches_the_maximum_for_random_opponents(self, dilemma_q, responder):
        rng = np.random.default_rng(responder)
        for _ in range(50):
            opp_point = _random_three_param_point(rng)
            opp = param_unitary(THREE, opp_point)
            witness = forcing_response(dilemma_q, responder, opp)
            play = [None, None]
            play[responder] = UnitaryOperator(witness)
            play[1 - responder] = opp
            payoffs = expected_payoffs_q(dilemma_q, play)
            assert abs(payoffs[responder]) <= 1e-9  # the maximum is 0

    def test_search_attains_the_forcing_value(self, dilemma_q):
        rng = np.random.default_rng(77)
        for _ in range(50):
            opp = param_unitary(THREE, _random_three_param_point(rng))
            _, value = best_response(dilemma_q, 1, {0: opp}, THREE)
            assert abs(value) <= 1e-9

    def test_requires_maximal_entanglement(self, coordination):
        # the coordination game's computational basis targets are product
        # states, so no forcing response exists there
        with pytest.raises(UnsupportedError):
            forcing_response(coordination.quantum, 0, UnitaryOperator(IDENTITY))


class TestStationarityResiduals:
    """Cleared-denominator stationarity conditions for the two-parameter family.

    tan(θa/2)·cos(φb) + tan(θb/2)·cos(φa) = 0
    tan(θa/2)·sin(φb) + cot(θb/2)·cos(φa) = 0

    multiplied through by cos(θa/2)·cos(θb/2) and cos(θa/2)·sin(θb/2). They
    hold at interior stationary points; searched optima on this payoff
    surface land on the parameter-box boundary, where only the corner at
    the phase move satisfies them. The residual check is therefore applied
    when the optimum is interior, plus explicitly at the certified corner.
    """

    @staticmethod
    def _residuals(pa, pb):
        ta, fa = pa
        tb, fb = pb
        r1 = np.sin(ta / 2) * np.cos(tb / 2) * np.cos(fb) + np.sin(tb / 2) * np.cos(
            ta / 2
        ) * np.cos(fa)
        r2 = np.sin(ta / 2) * np.sin(tb / 2) * np.sin(fb) + np.cos(ta / 2) * np.cos(
            tb / 2
        ) * np.cos(fa)
        return abs(r1), abs(r2)

    def test_vanish_at_certified_equilibrium(self):
        r1, r2 = self._residuals(PHASE_POINT, PHASE_POINT)
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_vanish_at_best_response_to_defection(self):
        r1, r2 = self._residuals(PHASE_POINT, (np.pi, 0.0))
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_interior_optima_satisfy_residuals(self, dilemma_q):
        rng = np.random.default_rng(5)
        interior_seen = 0
        for _ in range(12):
            opp_point = (float(rng.uniform(0, np.pi)), float(rng.uniform(0, np.pi / 2)))
            opp = param_unitary(TWO, opp_point)
            point, _ = best_response(dilemma_q, 0, {1: opp}, TWO)
            margin = 1e-6
            interior = (
                margin < point[0] < np.pi - margin
                and margin < point[1] < np.pi / 2 - margin
            )
            if interior:
                interior_seen += 1
                r1, r2 = self._residuals(point, opp_point)
                assert r1 <= 1e-6 and r2 <= 1e-6


class TestFiniteSetResponses:
    def _family(self):
        return StrategyFamily.finite((("I", IDENTITY), ("X", FLIP)))

    def test_uniform_opponent_ties_everything(self, coordination):
        family = self._family()
        others = {0: OperatorMixture.over_family(family, [0.5, 0.5])}
        probs = best_response_mixed_finite(coordination.quantum, 1, others, family)
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_pure_opponent_selects_matching_operator(self, coordination):
        family = self._family()
        others = {0: OperatorMixture.over_family(family, [1.0, 0.0])}
        probs = best_response_mixed_finite(coordination.quantum, 1, others, family)
        np.testing.assert_allclose(probs, [1.0, 0.0])

    def test_single_operator_set(self, coordination):
        family = StrategyFamily.finite((("I", IDENTITY),))
        others = {0: OperatorMixture.over_family(family, [1.0])}
        probs = best_response_mixed_finite(coordination.quantum, 1, others, family)
        np.testing.assert_allclose(probs, [1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_response_beats_random_mixtures(self, coordination, seed):
        # affine payoffs: the vertex response must top a large mixture sample
        family = self._family()
        rng = np.random.default_rng(seed)
        opp = OperatorMixture.over_family(family, rng.dirichlet([1, 1]))
        others = {0: opp}
        probs = best_response_mixed_finite(coordination.quantum, 1, others, family)
        best = expected_payoffs_mixed(
            coordination.quantum, [opp, OperatorMixture.over_family(family, probs)]
        )[1]
        for _ in range(1000):
            candidate = OperatorMixture.over_family(family, rng.dirichlet([1, 1]))
            value = expected_payoffs_mixed(coordination.quantum, [opp, candidate])[1]
            assert value <= best + 1e-9

    def test_affine_in_own_mixture(self, coordination):
        family = self._family()
        rng = np.random.default_rng(11)
        opp = OperatorMixture.over_family(family, [0.3, 0.7])
        p, q = rng.dirichlet([1, 1]), rng.dirichlet([1, 1])
        t = 0.37
        blend = OperatorMixture.over_family(family, t * p + (1 - t) * q)
        v_blend = expected_payoffs_mixed(coordination.quantum, [opp, blend])[1]
        v_p = expected_payoffs_mixed(
            coordination.quantum, [opp, OperatorMixture.over_family(family, p)]
        )[1]
        v_q = expected_payoffs_mixed(
            coordination.quantum, [opp, OperatorMixture.over_family(family, q)]
        )[1]
        assert v_blend == pytest.approx(t * v_p + (1 - t) * v_q, abs=1e-12)

    def test_verify_mixed_profiles(self, coordination):
        family = self._family()
        uniform = OperatorMixture.over_family(family, [0.5, 0.5])
        report = verify_nash_mixed_finite(
            coordination.quantum, [uniform, uniform], (family, family)
        )
        assert report.certified
        np.testing.assert_allclose(report.payoffs, (1.75, 1.75), atol=1e-9)
        # a lopsided side is exploitable: the opponent matches its majority
        # operator (coordination), so the profile is refuted
        lopsided = OperatorMixture.over_family(family, [0.8, 0.2])
        report = verify_nash_mixed_finite(
            coordination.quantum, [lopsided, uniform], (family, family)
        )
        assert not report.certified
        assert report.gains[0] == pytest.approx(0.0, abs=1e-12)
        assert report.gains[1] == pytest.approx(0.45, abs=1e-9)
        np.testing.assert_allclose(report.best_responses[1], (1.0, 0.0))


def _random_menu_profile(rng, qg):
    """A random menu of 1-3 unitaries per player and a random mixture over it."""
    menus, mixtures = [], []
    for i, d in enumerate(qg.local_dims):
        k = int(rng.integers(1, 4))
        menu = StrategyFamily.finite(tuple((f"m{i}{a}", random_unitary(rng, d)) for a in range(k)))
        menus.append(menu)
        mixtures.append(OperatorMixture.over_family(menu, rng.dirichlet(np.ones(k))))
    return menus, mixtures


class TestFiniteSetAgainstVertexOracle:
    """The local form read at a menu's vertices agrees with a full mixed
    evolution per vertex."""

    @pytest.mark.parametrize("seed", range(8))
    def test_gains_and_responses(self, seed):
        rng = np.random.default_rng(1400 + seed)
        qg = random_quantum_game(rng, players=2 + seed % 3)
        menus, mixtures = _random_menu_profile(rng, qg)
        report = verify_nash_mixed_finite(qg, mixtures, menus)
        payoffs = expected_payoffs_mixed(qg, mixtures)
        for i in range(qg.base.players):
            others = {j: m for j, m in enumerate(mixtures) if j != i}
            values = _vertex_payoffs(qg, i, others, menus[i])
            assert abs(report.gains[i] - (values.max() - payoffs[i])) <= 1e-12
            optimal = values >= values.max() - TOL
            want = np.where(optimal, 1.0 / optimal.sum(), 0.0)
            np.testing.assert_allclose(best_response_mixed_finite(qg, i, others, menus[i]), want, atol=1e-12)
            np.testing.assert_allclose(report.best_responses[i], want, atol=1e-12)


class TestParetoReport:
    def test_coordination_ranking(self):
        report = pareto_report(
            [
                ("classical_mixed", (5 / 3, 5 / 3)),
                ("quantum_pure_II", (2.5, 2.5)),
                ("quantum_pure_XX", (2.5, 2.5)),
                ("quantum_mixed", (1.75, 1.75)),
            ]
        )
        assert set(report.optimal) == {"quantum_pure_II", "quantum_pure_XX"}
        labels = report.labels
        i, j = labels.index("quantum_pure_II"), labels.index("quantum_mixed")
        assert report.relations[i][j] == "a_dominates"

    def test_single_entry(self):
        report = pareto_report([("only", (1.0, 2.0))])
        assert report.optimal == ("only",)
        assert report.relations == (("equal",),)

    def test_dilemma_pair(self):
        report = pareto_report([("phase", (-1.0, -1.0)), ("defect", (-3.0, -3.0))])
        assert report.optimal == ("phase",)
