"""Catalog entries: construction, constraints, load-time re-verification."""
import numpy as np
import pytest

from qgames.catalog import ETA_IN, eta_basis, load
from qgames.errors import ParameterError
from qgames.equilibrium import SearchConfig
from qgames.quantumize import QuantumGame, SequentialQuantumGame


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
            config=SearchConfig(),
        )
        sol = {s.label: s for s in entry.documented_solutions}
        value = sol["classical: interior mixed equilibrium"].payoffs[0]
        assert value == pytest.approx((7 * 4 - 4) / (7 + 4 - 4))

    def test_dilemma_nondefault_parameters(self):
        load(
            "prisoners_dilemma",
            {"alpha": 6.0, "beta": 4.0, "gamma": 2.0},
            config=SearchConfig(),
        )
