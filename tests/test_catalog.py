"""Catalog entries: construction, constraints, load-time re-verification."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgames.catalog import ETA_IN, CatalogVerificationError, eta_basis, load
from qgames.equilibrium import verify_nash
from qgames.errors import ParameterError
from qgames.quantumize import QuantumGame, SequentialQuantumGame
from qgames.strategies import StrategyFamily

NO_PURE_EQUILIBRIUM = "full unitary family admits no pure equilibrium"


class TestLoad:
    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            load("chicken")

    def test_penny_flip_shape(self):
        entry = load("penny_flip", verify=False)
        game = entry.classical
        assert game.strategy_sets == (("N", "F"), ("NN", "NF", "FN", "FF"))
        assert isinstance(entry.quantum, SequentialQuantumGame)
        assert entry.quantum.player_names == ("Q", "C")

    def test_penny_is_zero_sum(self):
        game = load("penny_flip", verify=False).classical
        for play in game.plays():
            vec = game.payoff_vector(play)
            assert vec[0] == -vec[1]

    def test_penny_rejects_parameters(self):
        with pytest.raises(ParameterError):
            load("penny_flip", {"alpha": 1.0})

    def test_dilemma_payoff_table(self):
        game = load("prisoners_dilemma", verify=False).classical
        assert tuple(game.payoff_vector((0, 0))) == (-1.0, -1.0)
        assert tuple(game.payoff_vector((0, 1))) == (-5.0, 0.0)
        assert tuple(game.payoff_vector((1, 0))) == (0.0, -5.0)
        assert tuple(game.payoff_vector((1, 1))) == (-3.0, -3.0)

    def test_dilemma_quantum_configuration(self):
        entry = load("prisoners_dilemma", verify=False)
        qg = entry.quantum
        assert isinstance(qg, QuantumGame)
        np.testing.assert_allclose(
            qg.initial_state.matrix, np.outer(ETA_IN, ETA_IN.conj()), atol=1e-12
        )
        np.testing.assert_allclose(
            qg.basis.projectors, eta_basis().projectors, atol=1e-12
        )

    def test_dilemma_constraint(self):
        with pytest.raises(ParameterError):
            load("prisoners_dilemma", {"alpha": 3.0, "beta": 3.0, "gamma": 1.0})
        with pytest.raises(ParameterError):
            load("prisoners_dilemma", {"gamma": 4.0})
        # at γ = 0 mutual cooperation ties A's top payoff: defection no
        # longer dominates, and (I, I) is a three-parameter equilibrium
        with pytest.raises(ParameterError, match="0 < gamma < beta < alpha"):
            load("prisoners_dilemma", {"gamma": 0.0}, verify=False)

    def test_dilemma_unknown_parameter(self):
        with pytest.raises(ParameterError):
            load("prisoners_dilemma", {"delta": 1.0})

    def test_coordination_constraint(self):
        with pytest.raises(ParameterError):
            load("battle_of_sexes", {"alpha": 1.0, "beta": 2.0, "gamma": 3.0})

    def test_coordination_payoff_table(self):
        game = load("battle_of_sexes", verify=False).classical
        assert tuple(game.payoff_vector((0, 0))) == (3.0, 2.0)
        assert tuple(game.payoff_vector((1, 1))) == (2.0, 3.0)
        assert tuple(game.payoff_vector((0, 1))) == (1.0, 1.0)

    def test_coordination_default_basis_is_computational(self):
        qg = load("battle_of_sexes", verify=False).quantum
        eye = np.zeros((4, 4, 4), dtype=complex)
        for k in range(4):
            eye[k, k, k] = 1.0
        np.testing.assert_allclose(qg.basis.projectors, eye, atol=1e-12)

    def test_coordination_bell_variant(self):
        qg = load("battle_of_sexes", basis="bell", verify=False).quantum
        phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(
            qg.basis.projectors[0], np.outer(phi_plus, phi_plus.conj()), atol=1e-12
        )
        with pytest.raises(ParameterError):
            load("battle_of_sexes", basis="diagonal")


class TestLoadTimeVerification:
    def test_penny_verifies(self):
        entry = load("penny_flip")
        assert all(c.passed for c in entry.verify())

    def test_coordination_verifies(self):
        entry = load("battle_of_sexes")
        assert all(c.passed for c in entry.verify())

    def test_coordination_bell_variant_verifies(self):
        load("battle_of_sexes", basis="bell")

    def test_dilemma_verifies(self):
        load("prisoners_dilemma")

    def test_nondefault_parameters_reverify(self):
        # documented solutions are formulas over the parameters, not frozen
        # numbers, so other valid instances must verify identically
        entry = load(
            "battle_of_sexes",
            {"alpha": 7.0, "beta": 4.0, "gamma": 2.0},
        )
        sol = {s.label: s for s in entry.documented_solutions}
        value = sol["classical: interior mixed equilibrium"].payoffs[0]
        assert value == pytest.approx((7 * 4 - 4) / (7 + 4 - 4))

    def test_dilemma_nondefault_parameters(self):
        load("prisoners_dilemma", {"alpha": 6.0, "beta": 4.0, "gamma": 2.0})

    def test_verify_refuses_a_threshold_outside_zero_to_infinity(self):
        entry = load("penny_flip", verify=False)
        for epsilon in (np.nan, 0.0, -1.0, np.inf):
            with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
                entry.verify(epsilon)


def _three_param_check(entry, epsilon=1e-6):
    (check,) = [c for c in entry.verify(epsilon) if c.label == NO_PURE_EQUILIBRIUM]
    return check


class TestNoPureEquilibrium:
    def test_default_parameters(self):
        check = _three_param_check(load("prisoners_dilemma", verify=False))
        assert check.passed
        assert check.details["least_gain"] == 1.0  # γ
        assert check.details["forcing_shortfall"] <= 1e-12

    def test_small_gamma_fails_load(self):
        # every gain may be as small as γ = 1e-6, below the 10ε refutation line
        with pytest.raises(CatalogVerificationError, match=NO_PURE_EQUILIBRIUM):
            load("prisoners_dilemma", {"gamma": 1e-6})

    def test_threshold_is_read(self):
        entry = load("prisoners_dilemma", verify=False)
        assert not _three_param_check(entry, epsilon=0.1).passed  # δ/2 = 1 = 10ε
        assert _three_param_check(entry, epsilon=0.099).passed

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_least_gain_bounds_every_profile(self, seed):
        rng = np.random.default_rng(seed)
        g = float(rng.uniform(0.01, 3.0))
        b = g + float(rng.uniform(0.01, 3.0))
        a = b + float(rng.uniform(0.01, 3.0))
        entry = load("prisoners_dilemma", {"alpha": a, "beta": b, "gamma": g}, verify=False)
        least_gain = _three_param_check(entry).details["least_gain"]
        assert least_gain == pytest.approx(min(2 * g, a, 2 * b) / 2, abs=1e-12)
        family = StrategyFamily.three_param()
        for _ in range(4):
            profile = [tuple(float(rng.uniform(r.lo, r.hi)) for r in family.ranges) for _ in range(2)]
            report = verify_nash(entry.quantum, profile, family)
            assert report.max_unilateral_gain >= least_gain - 1e-12
        # at (I, I) each player gains γ; the bound is tight there when 2γ ≤ α
        report = verify_nash(entry.quantum, [(0.0, 0.0, 0.0)] * 2, family)
        np.testing.assert_allclose(report.gains, (g, g), atol=1e-12)
        if 2 * g <= a:
            assert report.max_unilateral_gain == pytest.approx(least_gain, abs=1e-12)
