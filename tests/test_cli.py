"""Command-line interface: subcommands, exit codes, report determinism."""
import io
import json
from collections import Counter

import numpy as np
import pytest

from qgames.cli import main, run
from qgames.quantum import DensityMatrix, MeasurementBasis


@pytest.fixture(scope="module")
def game_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("games")
    paths = {}
    for name in ("penny_flip", "prisoners_dilemma", "battle_of_sexes"):
        path = root / f"{name}.json"
        assert main(["export", name, "--out", str(path)]) == 0
        paths[name] = str(path)
    return paths


def _capture(capsys, argv):
    report, code = run(argv)
    out = capsys.readouterr().out
    return report, code, out


class TestAnalyze:
    def test_dilemma(self, game_files, capsys):
        report, code, out = _capture(
            capsys, ["analyze", "--game", game_files["prisoners_dilemma"]]
        )
        assert code == 0
        assert report.results["dominant_strategies"] == ["D", "D"]
        assert [e["play"] for e in report.results["pure_nash"]] == ["DD"]
        assert "CC" in report.results["pareto_optimal"]

    def test_penny(self, game_files):
        report, code = run(["analyze", "--game", game_files["penny_flip"]])
        assert code == 0
        assert report.results["dominant_strategies"] == [None, None]
        assert report.results["pure_nash"] == []
        mixed = report.results["mixed_nash"]
        assert any(
            np.allclose(m["distributions"][0], [0.5, 0.5])
            and np.allclose(m["distributions"][1], [0.25] * 4)
            for m in mixed
        )

    def test_json_format(self, game_files, capsys):
        _, code, out = _capture(
            capsys,
            ["analyze", "--game", game_files["prisoners_dilemma"], "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "analyze"
        assert doc["diagnostics"]["tol"] == 1e-9

    def test_strict_mode(self, game_files):
        report, code = run(
            ["analyze", "--game", game_files["prisoners_dilemma"], "--strict"]
        )
        assert code == 0
        assert report.results["dominant_strategies"] == ["D", "D"]
        assert [e["play"] for e in report.results["pure_nash"]] == ["DD"]


class TestQuantumize:
    def test_spectra(self, game_files):
        report, code = run(["quantumize", "--game", game_files["prisoners_dilemma"]])
        assert code == 0
        spectrum = report.results["payoff_operators"][0]["spectrum"]
        assert spectrum == {"CC": -1.0, "CD": -5.0, "DC": 0.0, "DD": -3.0}
        assert report.results["max_pairwise_commutator"] <= 1e-9
        assert report.results["initial_state_purity"] == pytest.approx(1.0)


class TestPayoff:
    def test_angle_play(self, game_files):
        report, code = run(
            ["payoff", "--game", game_files["prisoners_dilemma"], "--play", "0,pi/2;0,pi/2"]
        )
        assert code == 0
        assert report.results["payoffs"]["A"] == pytest.approx(-1.0)
        assert report.results["payoffs"]["B"] == pytest.approx(-1.0)

    def test_label_play(self, game_files):
        report, code = run(
            ["payoff", "--game", game_files["battle_of_sexes"], "--play", "I,X"]
        )
        assert code == 0
        assert report.results["payoffs"]["A"] == pytest.approx(1.0)

    def test_flat_angle_list(self, game_files):
        report, code = run(
            ["payoff", "--game", game_files["prisoners_dilemma"], "--play", "pi,0,pi,0"]
        )
        assert code == 0
        assert report.results["payoffs"]["A"] == pytest.approx(-3.0)
        assert report.results["payoffs"]["B"] == pytest.approx(-3.0)

    def test_family_override(self, game_files):
        # evaluate rotation plays on a file whose native family is finite
        report, code = run(
            [
                "payoff",
                "--game", game_files["battle_of_sexes"],
                "--family", "one_param",
                "--play", "0;pi",
            ]
        )
        assert code == 0
        assert report.results["payoffs"]["A"] == pytest.approx(1.0)

    def test_builds_the_game_and_evolves_the_state_once(self, game_files, tmp_path, monkeypatch):
        with open(game_files["prisoners_dilemma"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["quantum"].update(initial_state="computational:CC", basis="computational")
        path = tmp_path / "start.json"
        path.write_text(json.dumps(doc))
        counts = Counter()
        for cls in (DensityMatrix, MeasurementBasis):
            def counted(self, _original=cls.__post_init__, _name=cls.__name__):
                counts[_name] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        _, code = run(["payoff", "--game", str(path), "--play", "0,0;pi,0"])
        assert code == 0
        # the start state and the basis, built once by the parser, and the
        # evolved state
        assert counts == {"DensityMatrix": 2, "MeasurementBasis": 1}


class TestBestResponse:
    def test_response_to_defection(self, game_files):
        report, code = run(
            [
                "best-response",
                "--game", game_files["prisoners_dilemma"],
                "--player", "A",
                "--others", "pi,0",
            ]
        )
        assert code == 0
        np.testing.assert_allclose(report.results["best_point"], [0.0, np.pi / 2], atol=1e-9)
        assert report.results["payoff"] == pytest.approx(0.0, abs=1e-9)

    def test_finite_mixture_opponent(self, game_files):
        report, code = run(
            [
                "best-response",
                "--game", game_files["battle_of_sexes"],
                "--player", "1",
                "--others", "1,0",
            ]
        )
        assert code == 0
        assert report.results["best_mixture"] == {"I": 1.0, "X": 0.0}


def _count_density_matrices(monkeypatch) -> Counter:
    counts = Counter()

    def counted(self, _original=DensityMatrix.__post_init__):
        counts["DensityMatrix"] += 1
        _original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    return counts


class TestFiniteSetStates:
    """A finite-set command reads the vertex payoffs off one local form, so
    it builds a state only for the parsed start and the profile's result."""

    def test_verify_nash(self, game_files, monkeypatch):
        counts = _count_density_matrices(monkeypatch)
        _, code = run(["verify-nash", "--game", game_files["battle_of_sexes"], "--profile", "0.5,0.5;0.5,0.5"])
        assert code == 0
        assert counts == {"DensityMatrix": 2}

    def test_best_response(self, game_files, monkeypatch):
        counts = _count_density_matrices(monkeypatch)
        _, code = run(["best-response", "--game", game_files["battle_of_sexes"], "--player", "A", "--others", "0.3,0.7"])
        assert code == 0
        assert counts == {"DensityMatrix": 1}


class TestVerifyNash:
    def test_certified_exit_zero(self, game_files):
        report, code = run(
            [
                "verify-nash",
                "--game", game_files["prisoners_dilemma"],
                "--family", "two_param",
                "--profile", "0,1.5707963,0,1.5707963",
            ]
        )
        assert code == 0
        assert report.results["certified"] is True
        assert report.results["payoffs"] == {"A": pytest.approx(-1.0), "B": pytest.approx(-1.0)}

    def test_refuted_exit_one(self, game_files):
        report, code = run(
            [
                "verify-nash",
                "--game", game_files["prisoners_dilemma"],
                "--family", "two_param",
                "--profile", "0,0;0,0",
            ]
        )
        assert code == 1
        assert report.results["certified"] is False
        assert report.results["refuted"] is True

    def test_undecided_exit_one(self, game_files):
        # the largest gain, 6.45e-6, lies between ε and 10ε: neither verdict
        report, code = run(
            [
                "verify-nash",
                "--game", game_files["prisoners_dilemma"],
                "--family", "two_param",
                "--profile", "0,1.569;0,1.5707963",
            ]
        )
        assert code == 1
        assert report.results["certified"] is False
        assert report.results["refuted"] is False
        assert report.results["max_unilateral_gain"] == pytest.approx(6.45e-6, rel=1e-3)

    def test_finite_profile(self, game_files):
        report, code = run(
            [
                "verify-nash",
                "--game", game_files["battle_of_sexes"],
                "--profile", "0.5,0.5;0.5,0.5",
            ]
        )
        assert code == 0
        assert report.results["payoffs"]["A"] == pytest.approx(1.75)


class TestPareto:
    def test_default_uses_game_plays(self, game_files):
        report, code = run(["pareto", "--game", game_files["prisoners_dilemma"]])
        assert code == 0
        assert "CC" in report.results["optimal"]
        assert "DD" not in report.results["optimal"]
        assert report.results["relations"]["CC"]["DD"] == "a_dominates"

    def test_custom_entries(self, game_files):
        report, code = run(
            [
                "pareto",
                "--game", game_files["battle_of_sexes"],
                "--entry", "classical_mixed:1.6666666667,1.6666666667",
                "--entry", "quantum_pure:2.5,2.5",
                "--entry", "quantum_mixed:1.75,1.75",
            ]
        )
        assert code == 0
        assert report.results["optimal"] == ["quantum_pure"]


class TestPlaySequential:
    def test_always_win_moves(self, game_files):
        for reply in ("F", "N"):
            report, code = run(
                [
                    "play-sequential",
                    "--game", game_files["penny_flip"],
                    "--moves", f"UQstar,{reply},UQstar",
                ]
            )
            assert code == 0
            assert report.results["payoffs"]["Q"] == pytest.approx(1.0, abs=1e-12)
            assert report.results["payoffs"]["C"] == pytest.approx(-1.0, abs=1e-12)

    def test_parametric_move_token(self, game_files):
        report, code = run(
            [
                "play-sequential",
                "--game", game_files["penny_flip"],
                "--moves", "u:pi/2,0,0,F,u:pi/2,0,0".replace("u:pi/2,0,0", "H"),
            ]
        )
        assert code == 0

    def test_unknown_move(self, game_files):
        _, code = run(
            ["play-sequential", "--game", game_files["penny_flip"], "--moves", "Z9,F,N"]
        )
        assert code == 2


class TestDemo:
    @pytest.mark.parametrize("name", ["penny_flip", "battle_of_sexes"])
    def test_demo_passes(self, name):
        report, code = run(["demo", name])
        assert code == 0
        assert report.results["all_passed"] is True

    def test_demo_dilemma_with_grid(self):
        # best responses are exact, so the grid resolution flag is gone
        with pytest.raises(SystemExit) as err:
            run(["demo", "prisoners_dilemma", "--grid", "32"])
        assert err.value.code == 2

    def test_demo_has_no_seed(self):
        # no catalog check samples, so there is no seed to set
        with pytest.raises(SystemExit) as err:
            run(["demo", "penny_flip", "--seed", "3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("params", ["alpha=1e9,beta=3,gamma=1", "alpha=1e12"])
    def test_dilemma_at_catalog_scale(self, params):
        report, code = run(["demo", "prisoners_dilemma", "--params", params])
        assert code == 0
        assert report.results["all_passed"] is True

    def test_dilemma_near_gamma_zero_fails_no_pure_equilibrium(self):
        # the largest gain is only guaranteed to be γ = 1e-6, below 10ε
        report, code = run(["demo", "prisoners_dilemma", "--params", "gamma=1e-6"])
        assert code == 1
        failed = [c for c in report.results["checks"] if not c["passed"]]
        assert [c["label"] for c in failed] == ["full unitary family admits no pure equilibrium"]
        assert failed[0]["details"]["least_gain"] == pytest.approx(1e-6, rel=1e-12)

    def test_dilemma_at_large_payoff_scale(self):
        # payoffs near -3.7e167 against -3 are rounding at max |π| = 1e200
        report, code = run(["demo", "prisoners_dilemma", "--params", "alpha=1e200"])
        assert code == 0
        assert report.results["all_passed"] is True

    def test_no_pure_equilibrium_note_is_conditional(self, capsys):
        _, code, out = _capture(capsys, ["demo", "prisoners_dilemma", "--params", "gamma=1e-6"])
        assert code == 1
        notes = [line for line in out.splitlines() if line.startswith("note: Against any fixed")]
        assert len(notes) == 1
        assert "so every profile is refuted." not in notes[0]
        assert notes[0].endswith("every profile is refuted when half that bound exceeds 10*epsilon.")

    def test_demo_notes_mention_documented_discrepancies(self):
        report, _ = run(["demo", "battle_of_sexes"])
        text = " ".join(report.notes)
        assert "alpha+beta-2*gamma" in text
        assert "Bell-basis" in text


class TestDeterminismAndErrors:
    def test_byte_identical_reports(self, game_files, capsys):
        argv = [
            "verify-nash",
            "--game", game_files["prisoners_dilemma"],
            "--profile", "0,pi/2;0,pi/2",
            "--format", "json",
        ]
        _, _, first = _capture(capsys, argv)
        _, _, second = _capture(capsys, argv)
        assert first == second

    def test_byte_identical_across_processes(self, game_files):
        # separate interpreters (fresh hash seeds) must agree byte for byte
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qgames

        # the environment stays minimal, but the children must import the
        # same qgames as this process, installed or not
        import_path = os.pathsep.join(
            filter(None, [str(Path(qgames.__file__).parent.parent), os.environ.get("PYTHONPATH")])
        )
        argv = [
            sys.executable, "-m", "qgames.cli",
            "analyze", "--game", game_files["penny_flip"], "--format", "json",
        ]
        runs = [
            subprocess.run(
                argv,
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": import_path},
            )
            for seed in ("1", "2")
        ]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout, proc.stderr
        assert runs[0].stdout == runs[1].stdout

    def test_reports_embed_search_configuration(self, game_files):
        report, _ = run(
            [
                "verify-nash",
                "--game", game_files["prisoners_dilemma"],
                "--profile", "0,pi/2;0,pi/2",
                "--epsilon", "1e-5",
            ]
        )
        # a report lists only the settings its run read
        assert report.diagnostics == {"epsilon": 1e-5}
        report, _ = run(["demo", "penny_flip"])
        assert report.diagnostics == {"epsilon": 1e-6}
        assert "config: epsilon=1e-06" in report.to_text().splitlines()
        report, _ = run(["quantumize", "--game", game_files["prisoners_dilemma"]])
        assert report.diagnostics == {}
        assert "config:" not in report.to_text()
        report, _ = run(
            ["best-response", "--game", game_files["battle_of_sexes"], "--player", "A", "--others", "I"]
        )
        assert report.diagnostics == {}
        assert "config:" not in report.to_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["payoff", "--play", "0;0", "--tol", "1e-6"],
            ["verify-nash", "--profile", "0;0", "--seed", "7"],
            ["analyze", "--epsilon", "1e-5"],
            ["best-response", "--player", "0", "--others", "pi,0", "--tol", "1e-6"],
        ],
    )
    def test_settings_a_command_does_not_read_are_rejected(self, game_files, argv):
        with pytest.raises(SystemExit) as err:
            run(argv + ["--game", game_files["prisoners_dilemma"]])
        assert err.value.code == 2

    def test_missing_file_is_input_error(self):
        _, code = run(["analyze", "--game", "/no/such/file.json"])
        assert code == 2

    def test_bad_schema_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1, "strategy_sets": [["a"]]}')
        _, code = run(["analyze", "--game", str(path)])
        assert code == 2

    def test_malformed_sequential_entry_is_input_error(self, game_files, tmp_path, capsys):
        with open(game_files["penny_flip"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["sequential"]["state_payoffs"][0][1] = "x"
        path = tmp_path / "penny.json"
        path.write_text(json.dumps(doc))
        _, code = run(["analyze", "--game", str(path)])
        assert code == 2
        assert "error: sequential.state_payoffs[0][1]" in capsys.readouterr().err

    def test_bad_profile_is_input_error(self, game_files):
        _, code = run(
            [
                "verify-nash",
                "--game", game_files["prisoners_dilemma"],
                "--profile", "0,pi/2",
            ]
        )
        assert code == 2

    def test_export_stdout_parses(self, capsys):
        report, code = run(["export", "penny_flip"])
        out = capsys.readouterr().out
        assert code == 0 and report is None
        doc = json.loads(out)
        assert doc["schema_version"] == 1


def _qubit_game(path, n):
    rng = np.random.default_rng(n)
    doc = {
        "schema_version": 1,
        "strategy_sets": [["0", "1"]] * n,
        "payoffs": [rng.integers(0, 5, size=(2,) * n).tolist() for _ in range(n)],
        "quantum": {"initial_state": "computational:" + "0" * n, "family": {"kind": "one_param"}},
    }
    path.write_text(json.dumps(doc))
    return str(path), doc


class TestNumericTokens:
    """Every numeric CLI token must be a finite number; anything else is an
    input error that names its flag and the token. A threshold outside
    (0, ∞), or a parameter outside its entry's domain, is an input error
    that names the setting."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify-nash", "--game", "BOS", "--profile", "pi,0;0,1"], "--profile: 'pi' is not a number"),
            (["verify-nash", "--game", "BOS", "--profile", "0.5,0.5;nan,1"], "--profile: 'nan' is not finite"),
            (["best-response", "--game", "BOS", "--player", "A", "--others", "pi,0"], "--others: 'pi' is not a number"),
            (["demo", "prisoners_dilemma", "--params", "alpha=x"], "--params: 'x' is not a number"),
            (["export", "prisoners_dilemma", "--params", "alpha=inf"], "--params: 'inf' is not finite"),
            (["pareto", "--game", "BOS", "--entry", "a:x,1"], "--entry: 'x' is not a number"),
            (["pareto", "--game", "BOS", "--entry", "a:nan,1", "--entry", "b:1,1"], "--entry: 'nan' is not finite"),
            *(
                (["analyze", "--game", "BOS", "--tol", t], f"tol must be positive and finite, got {float(t)}")
                for t in ("nan", "-1", "0", "inf")
            ),
            *(
                (["verify-nash", "--game", "BOS", "--profile", "I;I", "--epsilon", e],
                 f"epsilon must be positive and finite, got {float(e)}")
                for e in ("nan", "0")
            ),
            (["demo", "penny_flip", "--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
            *(
                ([command, "prisoners_dilemma", "--params", "gamma=0"],
                 "prisoners_dilemma requires 0 < gamma < beta < alpha, got {'alpha': 5.0, 'beta': 3.0, 'gamma': 0.0}")
                for command in ("demo", "export")
            ),
        ],
        ids=["profile-word", "profile-nan", "others-word", "demo-params", "export-params", "entry-word", "entry-nan",
             "tol-nan", "tol-negative", "tol-zero", "tol-inf", "epsilon-nan", "epsilon-zero", "demo-epsilon-nan",
             "demo-gamma-zero", "export-gamma-zero"],
    )
    def test_exit_two_naming_the_flag(self, game_files, capsys, argv, message):
        argv = [game_files["battle_of_sexes"] if a == "BOS" else a for a in argv]
        report, code = run(argv)
        assert (report, code) == (None, 2)
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_empty_initial_state_is_input_error(self, game_files, tmp_path, capsys):
        with open(game_files["prisoners_dilemma"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["quantum"]["initial_state"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        _, code = run(["analyze", "--game", str(path)])
        assert code == 2
        assert capsys.readouterr().err == "error: quantum.initial_state: matrix is empty\n"

    def test_non_finite_epsilon_is_input_error(self, game_files):
        _, code = run(
            ["verify-nash", "--game", game_files["battle_of_sexes"], "--profile", "I;I", "--epsilon", "nan"]
        )
        assert code == 2


class TestInputLimits:
    def test_huge_payoff_is_input_error(self, game_files, tmp_path, capsys):
        with open(game_files["prisoners_dilemma"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["payoffs"][0][0][0] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        _, code = run(["analyze", "--game", str(path)])
        assert code == 2
        assert "error: payoffs[0]" in capsys.readouterr().err

    def test_play_count_above_the_cap_is_input_error(self, tmp_path, capsys):
        path, _ = _qubit_game(tmp_path / "q13.json", 13)
        _, code = run(["payoff", "--game", path, "--play", ";".join(["0"] * 13)])
        assert code == 2
        assert "error: strategy_sets: 8192 plays exceed" in capsys.readouterr().err

    def test_seven_qubit_players(self, tmp_path):
        # D = 128: flip the first qubit, leave the others at |0⟩
        path, doc = _qubit_game(tmp_path / "q7.json", 7)
        report, code = run(["payoff", "--game", path, "--play", ";".join(["pi"] + ["0"] * 6)])
        assert code == 0
        assert report.results["outcome_distribution"]["1000000"] == pytest.approx(1.0, abs=1e-12)
        want = [tensor[1][0][0][0][0][0][0] for tensor in doc["payoffs"]]
        assert list(report.results["payoffs"].values()) == pytest.approx(want, abs=1e-12)


class TestBrokenPipe:
    class _ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def test_closed_stdout_ends_quietly(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdout", self._ClosedPipe())
        assert main(["export", "prisoners_dilemma"]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_child_process(self):
        # the reader closes its end before the child writes anything
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qgames

        env = dict(os.environ, PYTHONPATH=str(Path(qgames.__file__).parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qgames.cli", "export", "prisoners_dilemma"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 0, err
        assert "Traceback" not in err and "BrokenPipeError" not in err
