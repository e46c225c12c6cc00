"""Game-file schema: parsing, validation errors, export round-trips."""
import dataclasses
import json

import numpy as np
import pytest

from helpers import random_unitary
from qgames.catalog import ETA_IN, eta_basis, load
from qgames.errors import DimensionLimitError, GameFileError
from qgames.gamefile import export_entry, parse_angle, parse_game_file
from qgames.quantum import MeasurementBasis
from qgames.quantumize import build_ewl, play_sequential
from qgames.strategies import HADAMARD


def _doc(name, **overrides):
    entry = load(name, verify=False)
    doc = export_entry(entry)
    doc.update(overrides)
    return doc


class TestParseAngle:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("pi", np.pi),
            ("pi/2", np.pi / 2),
            ("3pi/4", 3 * np.pi / 4),
            ("-pi", -np.pi),
            ("2pi/3", 2 * np.pi / 3),
            ("0.25", 0.25),
            ("1.5707963", 1.5707963),
            ("0", 0.0),
        ],
    )
    def test_tokens(self, token, value):
        assert parse_angle(token) == pytest.approx(value, abs=1e-12)

    def test_garbage(self):
        with pytest.raises(GameFileError):
            parse_angle("tau/2")


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["penny_flip", "prisoners_dilemma", "battle_of_sexes"])
    def test_semantic_round_trip(self, name):
        entry = load(name, verify=False)
        gf = parse_game_file(json.dumps(export_entry(entry)))
        game = gf.classical_game()
        assert game.strategy_sets == entry.classical.strategy_sets
        assert game.player_names == entry.classical.player_names
        for got, want in zip(game.payoffs, entry.classical.payoffs):
            np.testing.assert_array_equal(got, want)
        if gf.quantum is not None:
            qg = gf.quantum_game()
            np.testing.assert_allclose(
                qg.initial_state.matrix, entry.quantum.initial_state.matrix, atol=1e-12
            )
            np.testing.assert_allclose(
                qg.payoff_operators, entry.quantum.payoff_operators, atol=1e-12
            )
            np.testing.assert_allclose(
                qg.basis.projectors, entry.quantum.basis.projectors, atol=1e-12
            )
        if gf.sequential is not None:
            sg = gf.sequential_game()
            assert sg.state_labels == entry.quantum.state_labels
            assert sg.move_schedule == entry.quantum.move_schedule
            payoffs = play_sequential(
                sg, [HADAMARD, sg.classical_moves["F"].matrix, HADAMARD]
            )
            np.testing.assert_allclose(payoffs, [1.0, -1.0], atol=1e-12)

    def test_bell_variant_round_trip(self):
        entry = load("battle_of_sexes", basis="bell", verify=False)
        gf = parse_game_file(json.dumps(export_entry(entry)))
        qg = gf.quantum_game()
        np.testing.assert_allclose(
            qg.basis.projectors, entry.quantum.basis.projectors, atol=1e-12
        )


class TestBasisExport:
    def _with_basis(self, basis):
        entry = load("prisoners_dilemma", verify=False)
        qg = build_ewl(entry.classical, entry.quantum.initial_state, basis)
        return dataclasses.replace(entry, quantum=qg)

    def test_named_basis_detected_up_to_column_phase(self):
        eta = eta_basis()
        phases = np.exp(1j * np.array([0.3, -1.2, 2.0, np.pi]))
        entry = self._with_basis(MeasurementBasis(eta.unitary * phases, eta.labels))
        doc = export_entry(entry)
        assert doc["quantum"]["basis"] == "ewl_eta"
        qg = parse_game_file(json.dumps(doc)).quantum_game()
        np.testing.assert_allclose(qg.basis.projectors, entry.quantum.basis.projectors, atol=1e-12)

    def test_explicit_basis_round_trip(self):
        rng = np.random.default_rng(5)
        entry = self._with_basis(MeasurementBasis(random_unitary(rng, 4), eta_basis().labels))
        doc = export_entry(entry)
        assert doc["quantum"]["basis"]["labels"] == ["CC", "CD", "DC", "DD"]
        qg = parse_game_file(json.dumps(doc)).quantum_game()
        assert qg.basis.labels == entry.quantum.basis.labels
        np.testing.assert_allclose(qg.basis.projectors, entry.quantum.basis.projectors, atol=1e-12)
        np.testing.assert_array_equal(qg.payoff_vectors, entry.quantum.payoff_vectors)


class TestNamedStates:
    def test_ewl_entangled_state(self):
        gf = parse_game_file(json.dumps(_doc("prisoners_dilemma")))
        qg = gf.quantum_game()
        np.testing.assert_allclose(
            qg.initial_state.matrix, np.outer(ETA_IN, ETA_IN.conj()), atol=1e-12
        )

    def test_computational_play_state(self):
        doc = _doc("prisoners_dilemma")
        doc["quantum"]["initial_state"] = "computational:DD"
        doc["quantum"]["basis"] = "computational"
        gf = parse_game_file(json.dumps(doc))
        qg = gf.quantum_game()
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(qg.initial_state.matrix, expected, atol=1e-12)

    def test_games_are_built_once(self):
        gf = parse_game_file(json.dumps(_doc("prisoners_dilemma")))
        assert gf.quantum_game() is gf.quantum_game()
        gf = parse_game_file(json.dumps(_doc("penny_flip")))
        assert gf.sequential_game() is gf.sequential_game()

    def test_comma_separated_play_token(self):
        doc = _doc("prisoners_dilemma")
        doc["quantum"]["initial_state"] = "computational:C,D"
        gf = parse_game_file(json.dumps(doc))
        assert gf.parse_play("C,D") == (0, 1)

    def test_unknown_named_state(self):
        doc = _doc("prisoners_dilemma")
        doc["quantum"]["initial_state"] = "ghz"
        with pytest.raises(GameFileError):
            parse_game_file(json.dumps(doc))


class TestValidation:
    def test_wrong_shape_names_offending_player(self):
        doc = _doc("prisoners_dilemma")
        doc["payoffs"][1] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any("payoffs[1]" in line for line in err.value.errors)

    def test_bad_complex_pair(self):
        doc = _doc("prisoners_dilemma")
        doc["quantum"]["initial_state"] = [[[1.0], [0, 0], [0, 0], [0, 0]]] + [
            [[0, 0]] * 4 for _ in range(3)
        ]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any("[re, im]" in line for line in err.value.errors)

    @pytest.mark.parametrize("bad", [10**400, True, float("nan")])
    def test_complex_entry_must_be_a_finite_number(self, bad):
        doc = _doc("prisoners_dilemma")
        doc["quantum"]["initial_state"] = [[[bad, 0], [0, 0], [0, 0], [0, 0]]] + [
            [[0, 0]] * 4 for _ in range(3)
        ]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert err.value.errors[0].startswith("quantum.initial_state[0][0]: expected an [re, im] pair")

    @pytest.mark.parametrize("empty", [[], [[]]])
    @pytest.mark.parametrize(
        "name, field, path",
        [
            ("prisoners_dilemma", "initial_state", "quantum.initial_state"),
            ("battle_of_sexes", "family", "quantum.family.operators[0].matrix"),
        ],
    )
    def test_empty_matrix_names_its_field(self, name, field, path, empty):
        doc = _doc(name)
        if field == "family":
            doc["quantum"]["family"]["operators"][0]["matrix"] = empty
        else:
            doc["quantum"][field] = empty
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert err.value.errors == [f"{path}: matrix is empty"]

    def test_non_unitary_family_operator(self):
        doc = _doc("battle_of_sexes")
        doc["quantum"]["family"]["operators"][0]["matrix"] = [
            [[1.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any("unitary" in line for line in err.value.errors)

    def test_malformed_json(self):
        with pytest.raises(GameFileError) as err:
            parse_game_file("{not json")
        assert any("malformed" in line for line in err.value.errors)

    def test_missing_file(self):
        with pytest.raises(GameFileError):
            parse_game_file("/no/such/file.json")

    def test_schema_version_checked(self):
        doc = _doc("prisoners_dilemma", schema_version=99)
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any("schema_version" in line for line in err.value.errors)

    def test_bad_sequential_permutation(self):
        doc = _doc("penny_flip")
        doc["sequential"]["moves"]["F"] = [1, 1]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any("permutation" in line for line in err.value.errors)

    @pytest.mark.parametrize(
        "field,key,value,path",
        [
            ("state_payoffs", 0, [1.0, "x"], "sequential.state_payoffs[0][1]"),
            ("state_payoffs", 1, [None, 1.0], "sequential.state_payoffs[1][0]"),
            ("state_payoffs", 0, [True, -1.0], "sequential.state_payoffs[0][0]"),
            ("state_payoffs", 1, [-1.0, float("inf")], "sequential.state_payoffs[1][1]"),
            ("state_payoffs", 1, [float("nan"), 1.0], "sequential.state_payoffs[1][0]"),
            ("state_payoffs", 0, [10**400, -1.0], "sequential.state_payoffs[0][0]"),
            ("moves", "N", [0, "a"], "sequential.moves.N"),
            ("moves", "F", [True, False], "sequential.moves.F"),
            ("moves", "N", [0, 1.0], "sequential.moves.N"),
        ],
    )
    def test_malformed_sequential_entries(self, field, key, value, path):
        doc = _doc("penny_flip")
        doc["sequential"][field][key] = value
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any(line.startswith(f"{path}: ") for line in err.value.errors)

    def test_bad_schedule_player(self):
        doc = _doc("penny_flip")
        doc["sequential"]["schedule"] = ["Q", "Z", "Q"]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert any("schedule" in line for line in err.value.errors)

    def test_errors_accumulate(self):
        doc = _doc("prisoners_dilemma", schema_version=2)
        doc["payoffs"][0] = [[1.0]]
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        assert len(err.value.errors) >= 2

    def test_player_count_instead_of_names(self):
        doc = _doc("prisoners_dilemma", players=2)
        gf = parse_game_file(json.dumps(doc))
        assert gf.classical.player_names == ("P1", "P2")
        doc = _doc("prisoners_dilemma", players=3)
        with pytest.raises(GameFileError):
            parse_game_file(json.dumps(doc))

    def test_explicit_initial_state_matrix(self):
        entry = load("prisoners_dilemma", verify=False)
        doc = export_entry(entry)
        rho = entry.quantum.initial_state.matrix
        doc["quantum"]["initial_state"] = [
            [[float(c.real), float(c.imag)] for c in row] for row in rho
        ]
        gf = parse_game_file(json.dumps(doc))
        np.testing.assert_allclose(gf.quantum_game().initial_state.matrix, rho, atol=1e-12)


class TestExplicitBasisErrors:
    def _errors(self, projectors, labels=("CC", "CD", "DC", "DD")):
        doc = _doc("prisoners_dilemma")
        doc["quantum"]["basis"] = {
            "labels": list(labels),
            "projectors": [
                [[[float(c.real), float(c.imag)] for c in row] for row in p]
                if isinstance(p, np.ndarray) else p
                for p in projectors
            ],
        }
        with pytest.raises(GameFileError) as err:
            parse_game_file(json.dumps(doc))
        return err.value.errors

    def test_not_rank_one_names_the_projector(self):
        eye = np.eye(4)
        projectors = [np.outer(eye[k], eye[k]) for k in range(4)]
        projectors[2] = projectors[2] + projectors[3]
        errors = self._errors(projectors)
        assert errors[0].startswith("quantum.basis.projectors[2]: not a rank-one projector")

    def test_overlapping_projectors_name_the_later_one(self):
        eye = np.eye(4)
        vectors = [eye[0], eye[1], (eye[0] + eye[2]) / np.sqrt(2), eye[3]]
        errors = self._errors([np.outer(v, v) for v in vectors])
        assert errors[0].startswith("quantum.basis.projectors[2]: not orthonormal")

    def test_wrong_size_names_the_projector(self):
        eye = np.eye(4)
        projectors = [np.outer(eye[k], eye[k]) for k in range(4)]
        projectors[1] = [[[1.0, 0.0]]]
        errors = self._errors(projectors)
        assert errors == ["quantum.basis.projectors[1]: expected a 4x4 matrix, got shape (1, 1)"]

    def test_repeated_play_label(self):
        eye = np.eye(4)
        errors = self._errors([np.outer(e, e) for e in eye], labels=("CC", "CD", "C,D", "DD"))
        assert errors[0].startswith("quantum.basis.labels:")


class TestSizeGuard:
    def test_play_count_above_the_cap(self):
        n = 13
        doc = {
            "schema_version": 1,
            "strategy_sets": [["a", "b"]] * n,
            "payoffs": [np.zeros((2,) * n).tolist() for _ in range(n)],
            "quantum": {"initial_state": "computational:" + "a" * n},
        }
        with pytest.raises(DimensionLimitError, match=r"^strategy_sets: 8192 plays exceed"):
            parse_game_file(json.dumps(doc))
