"""The benchmark's workloads: seeded inputs, the timed calls and their checks.

Each workload is a closed loop with one caller. ``setup`` makes every input
from the seed (game files, catalog exports, quantum games); ``cycle(c)``
returns the c-th fixed-composition batch of operations. An operation's
``call`` is the only timed part. Its ``check`` runs after the loop and
compares the answer with a plain numpy reference or a documented verdict.

Every call into qgames goes through a module attribute (``qgames.cli.run``,
``qgames.quantumize.expected_payoffs_q``...) so the traced run's wrappers
see it.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qgames
import qgames.cli
import reference as ref

SQRT2 = math.sqrt(2.0)
PI = math.pi

# Eisert–Wilkens–Lewenstein start (|00⟩ + i|11⟩)/√2 and its measurement
# directions for the plays CC, CD, DC, DD, as the dilemma is quantumized.
ETA_IN = np.array([1, 0, 0, 1j]) / SQRT2
ETA_BASIS = np.array(
    [[1, 0, 0, 1j], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1j]]
).T / SQRT2
PHI_PLUS = np.array([1, 0, 0, 1]) / SQRT2
# Bell vectors Φ⁺, Ψ⁺, Ψ⁻, Φ⁻ measure the plays OO, OT, TO, TT.
BELL_BASIS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]).T / SQRT2
IDENTITY = np.eye(2)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass
class Op:
    """One timed operation: ``key`` names its (game, input) pair."""

    kind: str
    key: tuple
    call: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def cli_op(kind: str, argv: list, check) -> Op:
    """A ``qgames.cli.run`` call with a JSON report; ``check(doc, code)``."""
    argv = list(argv) + ["--format", "json"]

    def call():
        out = io.StringIO()
        _, code = qgames.cli.run(argv, stream=out)
        return code, out.getvalue()

    def verify(result):
        code, text = result
        if code == 2:
            return [f"exit code 2 (input error) for {argv}"]
        try:
            doc = json.loads(text)
        except ValueError:
            return [f"no JSON report, exit code {code}"]
        return check(doc, code)

    return Op(kind, tuple(argv), call, verify)


def num(x: float) -> str:
    return repr(float(x))


def profile_text(points) -> str:
    return ";".join(",".join(num(v) for v in p) for p in points)


def matrix_json(m) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(m, dtype=complex)]


def names_for(k: int) -> list[str]:
    return [chr(ord("a") + j) for j in range(k)]


def token(play) -> str:
    return "".join(names_for(3)[a] for a in play)


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def expect_code(code: int, wanted: int) -> list:
    return [] if code == wanted else [f"exit code {code}, expected {wanted}"]


class RefGame:
    """What the reference needs of a quantum game: payoff tensors, the
    start vector, the measurement vectors as columns (None for the
    computational basis) and the finite family's unitaries by label."""

    def __init__(self, shape, players, payoffs, psi, basis, family):
        self.shape, self.players, self.payoffs = tuple(shape), list(players), payoffs
        self.psi, self.basis, self.family = psi, basis, family

    def probabilities(self, unitaries) -> np.ndarray:
        return ref.pure_probabilities(self.psi, unitaries, self.shape, self.basis)

    def payoffs_of(self, unitaries) -> np.ndarray:
        return ref.expected(self.probabilities(unitaries), self.payoffs)

    def mixed_payoffs(self, mixtures) -> np.ndarray:
        probs = ref.mixed_probabilities(self.psi, mixtures, self.shape, self.basis)
        return ref.expected(probs, self.payoffs)


class RandomGame(RefGame):
    """A seeded random game and its game-file document."""

    def __init__(self, rng, shape, players, projectors: bool, family_size: int, integer: bool):
        dim = int(np.prod(shape))
        if integer:
            payoffs = [rng.integers(0, 10, size=shape).astype(float) for _ in shape]
        else:
            payoffs = [np.round(rng.uniform(-5, 5, size=shape), 3) for _ in shape]
        psi = ref.random_state(rng, dim)
        basis = ref.random_unitary(rng, dim) if projectors else None
        family = {f"U{k}": ref.random_unitary(rng, shape[0]) for k in range(family_size)}
        super().__init__(shape, players, payoffs, psi, basis, family)
        labels = [token(p) for p in ref.plays(shape)]
        basis_doc = "computational"
        if projectors:
            basis_doc = {
                "labels": labels,
                "projectors": [matrix_json(np.outer(v, v.conj())) for v in basis.T],
            }
        self.doc = {
            "schema_version": 1,
            "players": self.players,
            "strategy_sets": [names_for(k) for k in shape],
            "payoffs": [t.tolist() for t in payoffs],
            "quantum": {
                "initial_state": matrix_json(np.outer(psi, psi.conj())),
                "basis": basis_doc,
                "family": {
                    "kind": "finite_set",
                    "operators": [{"label": k, "matrix": matrix_json(m)} for k, m in family.items()],
                },
            },
        }

    def add_sequential(self, rng, states: int, moves: int, turns: int) -> None:
        self.states = [f"s{j}" for j in range(states)]
        self.moves = {f"M{k}": [int(x) for x in rng.permutation(states)] for k in range(moves)}
        self.schedule = [self.players[int(i)] for i in rng.integers(0, len(self.players), turns)]
        self.state_payoffs = rng.integers(-5, 6, size=(len(self.players), states)).astype(float)
        self.doc["sequential"] = {
            "players": self.players,
            "states": self.states,
            "initial_state": "s0",
            "moves": self.moves,
            "schedule": self.schedule,
            "state_payoffs": self.state_payoffs.tolist(),
        }


def catalog_game(tensors, psi, basis) -> RefGame:
    """Reference view of a two-player catalog entry with the {I, X} family."""
    return RefGame((2, 2), ["A", "B"], tensors, psi, basis, {"I": IDENTITY, "X": FLIP})


def dilemma_tensors(a, b, g):
    return [np.array([[-g, -a], [0.0, -b]]), np.array([[-g, 0.0], [-a, -b]])]


def battle_tensors(a, b, g):
    return [np.array([[a, g], [g, b]]), np.array([[b, g], [g, a]])]


def params_text(p: dict) -> str:
    return ",".join(f"{k}={num(v)}" for k, v in p.items())


def ordered_params(rng, gap: float) -> dict:
    """Seeded catalog parameters with 0 <= gamma < beta < alpha."""
    g = round(float(rng.uniform(0.0, 2.0)), 3)
    b = round(g + float(rng.uniform(0.5, gap)), 3)
    return {"alpha": round(b + float(rng.uniform(0.5, gap)), 3), "beta": b, "gamma": g}


def export(name: str, params: dict, path: Path, basis: str = "computational") -> str:
    argv = ["export", name, "--params", params_text(params), "--basis", basis, "--out", str(path)]
    _, code = qgames.cli.run(argv, stream=io.StringIO())
    if code != 0:
        raise RuntimeError(f"export {name} failed with exit code {code}")
    return str(path)


def random_mixtures(rng, game, players):
    """Per-player mixtures over the game's finite family: (weights, unitaries)."""
    labels = list(game.family)
    out = []
    for _ in range(players):
        w = rng.dirichlet(np.ones(len(labels)))
        out.append((w, [game.family[k] for k in labels]))
    return out


def mixture_text(mixtures) -> str:
    return ";".join(",".join(num(x) for x in w) for w, _ in mixtures)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def deviation_values(game, player, others, points) -> np.ndarray:
    """Reference payoff of ``player`` at each family point, others fixed."""
    values = []
    for p in points:
        units = list(others)
        units.insert(player, ref.family_matrix(p))
        values.append(game.payoffs_of(units)[player])
    return np.array(values)


def check_best_value(label, game, player, others, kind, value, point, rng_seed) -> list:
    """A best-response value must match its own argmax and beat every one of
    ``FAMILY_POINTS`` seeded family points."""
    rng = np.random.default_rng(rng_seed)
    points = [ref.family_point(rng, kind) for _ in range(ref.FAMILY_POINTS)]
    best_sampled = float(deviation_values(game, player, others, points).max())
    problems = ref.close(f"{label} value at its argmax",
                         deviation_values(game, player, others, [point])[0], value)
    if value < best_sampled - ref.TOL:
        problems.append(f"{label} value {value} below a sampled family point {best_sampled}")
    return problems


def check_verdict(doc, code, names, payoffs, epsilon=1e-6) -> list:
    res = doc["results"]
    problems = ref.close("payoffs", [res["payoffs"][n] for n in names], payoffs)
    gain = res["max_unilateral_gain"]
    if res["certified"] != (gain <= epsilon) or res["refuted"] != (gain > 10 * epsilon):
        problems.append(f"verdict {res['certified']}/{res['refuted']} contradicts gain {gain}")
    problems += expect_code(code, 0 if res["certified"] else 1)
    return problems


def vertex_values(game, player, mixtures) -> np.ndarray:
    """Reference payoff of ``player`` for each operator of the finite family,
    the others mixing."""
    values = []
    for u in game.family.values():
        trial = list(mixtures)
        trial[player] = ([1.0], [u])
        values.append(game.mixed_payoffs(trial)[player])
    return np.array(values)


def check_vertex_gains(doc, game, mixtures) -> list:
    """Finite-set gains: the best deviation is a vertex of the player's simplex."""
    payoffs = game.mixed_payoffs(mixtures)
    gains = [vertex_values(game, i, mixtures).max() - payoffs[i] for i in range(len(mixtures))]
    got = [doc["results"]["per_player_gain"][n] for n in game.players]
    return ref.close("per-player gains", got, gains)


def check_best_mixture(doc, game, player, mixtures) -> list:
    """Ties among optimal vertices share the best mixture uniformly."""
    values = vertex_values(game, player, mixtures)
    optimal = values >= values.max() - ref.TOL
    got = [doc["results"]["best_mixture"][k] for k in game.family]
    return ref.close("best mixture", got, optimal / optimal.sum())


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class Certify:
    """Certify or refute equilibria of 2-qubit games through the CLI and
    ``qgames.load`` — nearly all time goes to equilibrium search and
    catalog verification.

    A cycle of 23 ops holds 10 finite-set and battle-of-sexes ops (5-9 ms),
    3 one-parameter best responses (~35 ms) and 10 heavier ops, so the
    median lands in the middle of the one-parameter best responses (the
    12th op of 23) and the 90th percentile among the two three-parameter
    verdicts (~440 ms), not on a boundary between two kinds.
    """

    setup_reps = 9

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        work.mkdir(parents=True, exist_ok=True)
        self.dilemmas = []
        for k in range(3):
            p = ordered_params(rng, 3.0)
            path = export("prisoners_dilemma", p, work / f"pd{k}.json")
            game = catalog_game(dilemma_tensors(p["alpha"], p["beta"], p["gamma"]), ETA_IN, ETA_BASIS)
            self.dilemmas.append((p, path, game))
        self.battles = []
        for k in range(3):
            p = ordered_params(rng, 2.0)
            tensors = battle_tensors(p["alpha"], p["beta"], p["gamma"])
            for basis, vectors in (("computational", None), ("bell", BELL_BASIS)):
                path = export("battle_of_sexes", p, work / f"bos{k}-{basis}.json", basis)
                self.battles.append((p, basis, path, catalog_game(tensors, PHI_PLUS, vectors)))
        self.randoms = []
        for k in range(6):
            game = RandomGame(rng, (2, 2), ["A", "B"], projectors=True, family_size=2 + k % 2, integer=False)
            self.randoms.append((write_json(work / f"ewl{k}.json", game.doc), game))
        self.rng = np.random.default_rng([seed, 2])

    def cycle(self, c: int) -> list[Op]:
        p, pd, pd_game = self.dilemmas[c % len(self.dilemmas)]
        bos = self.battles[(2 * c) % len(self.battles)]
        bell = self.battles[(2 * c + 1) % len(self.battles)]
        rand = self.randoms[c % len(self.randoms)]
        rand2 = self.randoms[(c + 3) % len(self.randoms)]
        matched = "I;I" if c % 2 == 0 else "X;X"
        ops = [
            self.battle_verdict(bos, matched),
            self.dilemma_one(p, pd),
            self.random_verdict(rand, "one_param"),
            self.dilemma_two(p, pd),
            self.battle_verdict(bos, "0.5,0.5;0.5,0.5"),
            self.random_response(rand2, "one_param"),
            self.random_verdict(rand2, "two_param"),
            self.battle_verdict(bell, matched),
            self.dilemma_response_to_defect(p, pd),
            self.dilemma_response(pd_game, pd, "one_param"),
            self.battle_verdict(bell, "0.5,0.5;0.5,0.5"),
            self.random_response(rand, "two_param"),
            self.battle_response(bos),
            self.battle_response(bell),
            self.random_finite_verdict(rand),
            self.random_finite_response(rand2),
            self.random_finite_response(rand),
            self.random_response(rand, "one_param"),
            self.load_op("battle_of_sexes", bos[0] if c % 2 == 0 else bell[0],
                         "computational" if c % 2 == 0 else "bell"),
        ]
        if not self.tiny:
            ops += [
                self.random_response(rand, "three_param"),
                self.dilemma_three(p, pd),
                self.random_verdict(rand2, "three_param"),
                self.load_op("prisoners_dilemma", p),
            ]
        return ops

    # catalog verdicts -------------------------------------------------------

    def dilemma_one(self, p, path):
        def check(doc, code):
            return expect_code(code, 0) + check_verdict(doc, code, "AB", (-p["beta"],) * 2)
        return cli_op("verify-nash/one_param/catalog",
                      ["verify-nash", "--game", path, "--family", "one_param", "--profile", "pi;pi"], check)

    def dilemma_two(self, p, path):
        def check(doc, code):
            return expect_code(code, 0) + check_verdict(doc, code, "AB", (-p["gamma"],) * 2)
        return cli_op("verify-nash/two_param/catalog",
                      ["verify-nash", "--game", path, "--family", "two_param", "--profile", "0,pi/2;0,pi/2"],
                      check)

    def dilemma_response_to_defect(self, p, path):
        def check(doc, code):
            res = doc["results"]
            return (expect_code(code, 0) + ref.close("best point", res["best_point"], (0.0, PI / 2), 1e-6)
                    + ref.close("best value", res["payoff"], 0.0))
        return cli_op("best-response/two_param/catalog",
                      ["best-response", "--game", path, "--family", "two_param", "--player", "A",
                       "--others", "pi,0"], check)

    def dilemma_response(self, game, path, kind):
        other = ref.family_point(self.rng, kind)
        seed = int(self.rng.integers(2**32))

        def check(doc, code):
            res = doc["results"]
            return expect_code(code, 0) + check_best_value(
                "best response", game, 0, [ref.family_matrix(other)], kind,
                res["payoff"], res["best_point"], seed)
        return cli_op(f"best-response/{kind}/catalog",
                      ["best-response", "--game", path, "--family", kind, "--player", "A",
                       "--others", profile_text([other])], check)

    def dilemma_three(self, p, path):
        profile = [ref.family_point(self.rng, "three_param") for _ in range(2)]

        def check(doc, code):
            refuted = [] if doc["results"]["refuted"] else ["three_param profile not refuted"]
            return expect_code(code, 1) + refuted
        return cli_op("verify-nash/three_param/catalog",
                      ["verify-nash", "--game", path, "--family", "three_param",
                       "--profile", profile_text(profile)], check)

    def battle_verdict(self, battle, profile):
        p, basis, path, _ = battle
        a, b, g = p["alpha"], p["beta"], p["gamma"]
        if profile.startswith("0.5"):
            wanted = ((a + b + 2 * g) / 4,) * 2 if basis == "computational" else ((a + g) / 2, (b + g) / 2)
        else:
            wanted = ((a + b) / 2,) * 2 if basis == "computational" else (a, b)

        def check(doc, code):
            certified = [] if doc["results"]["certified"] else ["documented equilibrium not certified"]
            return expect_code(code, 0) + certified + check_verdict(doc, code, "AB", wanted)
        return cli_op(f"verify-nash/finite_set/catalog-{basis}",
                      ["verify-nash", "--game", path, "--profile", profile], check)

    def battle_response(self, battle):
        _, basis, path, game = battle
        q = float(self.rng.uniform())
        mixtures = [([1.0], [IDENTITY]), ([q, 1 - q], [IDENTITY, FLIP])]

        def check(doc, code):
            return expect_code(code, 0) + check_best_mixture(doc, game, 0, mixtures)
        return cli_op(f"best-response/finite_set/catalog-{basis}",
                      ["best-response", "--game", path, "--player", "A",
                       "--others", f"{num(q)},{num(1 - q)}"], check)

    def load_op(self, name, params, basis="computational"):
        def call():
            return qgames.load(name, params, basis=basis, verify=True)

        def check(entry):
            if entry.name != name or entry.parameters != params:
                return [f"load returned {entry.name} {entry.parameters}"]
            return []
        return Op(f"load/{name}", ("load", name, basis, tuple(params.items())), call, check)

    # random 2x2 EWL games ---------------------------------------------------

    def random_verdict(self, rand, kind):
        path, game = rand
        profile = [ref.family_point(self.rng, kind) for _ in range(2)]
        seed = int(self.rng.integers(2**32))

        def check(doc, code):
            res = doc["results"]
            units = [ref.family_matrix(q) for q in profile]
            payoffs = game.payoffs_of(units)
            problems = check_verdict(doc, code, "AB", payoffs)
            for i, name in enumerate("AB"):
                value = payoffs[i] + res["per_player_gain"][name]
                problems += check_best_value(
                    f"player {name} best response", game, i, units[1 - i:2 - i], kind,
                    value, res["best_responses"][i], seed + i)
            return problems
        return cli_op(f"verify-nash/{kind}/random",
                      ["verify-nash", "--game", path, "--family", kind, "--profile", profile_text(profile)],
                      check)

    def random_response(self, rand, kind):
        path, game = rand
        other = ref.family_point(self.rng, kind)
        seed = int(self.rng.integers(2**32))

        def check(doc, code):
            res = doc["results"]
            return expect_code(code, 0) + check_best_value(
                "best response", game, 1, [ref.family_matrix(other)], kind,
                res["payoff"], res["best_point"], seed)
        return cli_op(f"best-response/{kind}/random",
                      ["best-response", "--game", path, "--family", kind, "--player", "B",
                       "--others", profile_text([other])], check)

    def random_finite_verdict(self, rand):
        path, game = rand
        mixtures = random_mixtures(self.rng, game, 2)

        def check(doc, code):
            return (check_verdict(doc, code, "AB", game.mixed_payoffs(mixtures))
                    + check_vertex_gains(doc, game, mixtures))
        return cli_op("verify-nash/finite_set/random",
                      ["verify-nash", "--game", path, "--profile", mixture_text(mixtures)], check)

    def random_finite_response(self, rand):
        path, game = rand
        mixtures = random_mixtures(self.rng, game, 2)

        def check(doc, code):
            return expect_code(code, 0) + check_best_mixture(doc, game, 1, mixtures)
        return cli_op("best-response/finite_set/random",
                      ["best-response", "--game", path, "--player", "B",
                       "--others", mixture_text(mixtures[:1])], check)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

class Evaluate:
    """Evaluate plays of prebuilt n-qubit games (GHZ start, computational
    basis): the ``quantum``/``quantumize`` read path, cost growing with D.

    A cycle of 14 plays holds six cheaper than the n = 6 pure play (< 2 ms),
    three n = 6 pure plays (~3 ms), three n = 4 mixed plays (~13 ms) and two
    n = 5 mixed plays (~300 ms), so the median lands among the n = 6 pure
    plays and the 90th percentile among the n = 5 mixed plays, not on a
    boundary between two kinds. The plays run in ascending n. Player i
    mixes 2 + i % 2 unitaries, which fixes each play's cost; the unitaries
    and weights are seeded.
    """

    ORDER = (("pure", 2), ("mixed", 2), ("pure", 3), ("mixed", 3), ("pure", 4),
             ("mixed", 4), ("mixed", 4), ("mixed", 4), ("pure", 5), ("mixed", 5), ("mixed", 5),
             ("pure", 6), ("pure", 6), ("pure", 6))
    TINY_ORDER = (("pure", 2), ("mixed", 2), ("pure", 3), ("mixed", 3), ("pure", 4))

    setup_reps = 3

    def __init__(self, tiny: bool = False):
        self.order = self.TINY_ORDER if tiny else self.ORDER

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.games = {}
        for n in sorted({n for _, n in self.order}):
            tensors = [rng.uniform(-1.0, 1.0, size=(2,) * n) for _ in range(n)]
            base = qgames.ClassicalGame(tuple(("0", "1") for _ in range(n)), tuple(tensors))
            qg = qgames.quantumize.build_ewl(base, qgames.DensityMatrix.from_pure(ref.ghz(n)))
            self.games[n] = (qg, tensors)
        self.rng = np.random.default_rng([seed, 2])

    def cycle(self, c: int) -> list[Op]:
        return [self.pure_play(n) if kind == "pure" else self.mixed_play(n) for kind, n in self.order]

    def pure_play(self, n):
        qg, tensors = self.games[n]
        points = [ref.family_point(self.rng, "three_param") for _ in range(n)]
        family = qgames.StrategyFamily.three_param()
        units = [qgames.param_unitary(family, p) for p in points]

        def call():
            payoffs = qgames.quantumize.expected_payoffs_q(qg, units)
            return payoffs, qgames.quantumize.outcome_distribution(qg, units)

        def check(result):
            payoffs, dist = result
            probs = ref.pure_probabilities(ref.ghz(n), [u.matrix for u in units], (2,) * n)
            labels = [play for play, _ in dist]
            problems = [] if labels == ref.plays((2,) * n) else ["outcome labels out of play order"]
            return (problems + ref.close("payoffs", payoffs, ref.expected(probs, tensors))
                    + ref.close("outcome distribution", [p for _, p in dist], probs))
        return Op(f"pure/n{n}", ("pure", n, tuple(map(tuple, points))), call, check)

    def mixed_play(self, n):
        qg, tensors = self.games[n]
        family = qgames.StrategyFamily.three_param()
        mixtures, plain = [], []
        for i in range(n):
            k = 2 + i % 2
            weights = self.rng.dirichlet(np.ones(k))
            units = [qgames.param_unitary(family, ref.family_point(self.rng, "three_param")) for _ in range(k)]
            mixtures.append(qgames.OperatorMixture(weights, tuple(units)))
            plain.append((weights, [u.matrix for u in units]))

        def call():
            return qgames.quantumize.expected_payoffs_mixed(qg, mixtures)

        def check(payoffs):
            probs = ref.mixed_probabilities(ref.ghz(n), plain, (2,) * n)
            return ref.close("mixed payoffs", payoffs, ref.expected(probs, tensors))
        key = ("mixed", n, tuple(tuple(w) for w, _ in plain))
        return Op(f"mixed/n{n}", key, call, check)


# ---------------------------------------------------------------------------
# workbench
# ---------------------------------------------------------------------------

class Workbench:
    """In-process CLI commands on a seeded pool of game files: every op
    parses, builds and validates its game again (the construction side of
    ``quantum``), plus ``gamefile``, ``classical`` and ``cli``."""

    setup_reps = 9
    SHAPES = ((2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (3, 3, 3))

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.shapes = ((2, 2), (3, 3)) if tiny else self.SHAPES

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        work.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for k, shape in enumerate(self.shapes):
            for projectors in (False, True):
                players = [f"P{i + 1}" for i in range(len(shape))]
                game = RandomGame(rng, shape, players, projectors, family_size=2 + k % 2, integer=True)
                game.add_sequential(rng, states=2 + k % 3, moves=3, turns=3)
                game.label = "x".join(map(str, shape)) + ("-projectors" if projectors else "")
                path = write_json(work / f"game{len(self.pool)}.json", game.doc)
                self.pool.append((path, game))
        self.exports = [
            ("prisoners_dilemma", ordered_params(rng, 3.0), "computational"),
            ("battle_of_sexes", ordered_params(rng, 2.0), "computational"),
            ("battle_of_sexes", ordered_params(rng, 2.0), "bell"),
        ]
        self.work = work
        self.exported = 0
        self.rng = np.random.default_rng([seed, 2])

    def cycle(self, c: int) -> list[Op]:
        ops = []
        commands = (self.analyze, self.quantumize, self.payoff, self.verify, self.pareto, self.sequential)
        for command in commands:
            for entry in self.pool:
                ops.append(command(*entry))
        ops += [self.export(*e) for e in self.exports]
        return ops

    def analyze(self, path, game):
        tensors = game.payoffs
        strategy = names_for(3)

        def check(doc, code):
            res = doc["results"]
            nash = ref.pure_nash(tensors)
            problems = []
            if [e["play"] for e in res["pure_nash"]] != [token(p) for p in nash]:
                problems.append(f"pure Nash {res['pure_nash']} vs {nash}")
            if res["pareto_optimal"] != [token(p) for p in ref.pareto_optimal(tensors)]:
                problems.append(f"Pareto set {res['pareto_optimal']}")
            dominant = [None if d is None else strategy[d] for d in ref.dominant(tensors)]
            if res["dominant_strategies"] != dominant:
                problems.append(f"dominant strategies {res['dominant_strategies']} vs {dominant}")
            for prof in res.get("mixed_nash", []):
                p, q = (np.array(d) for d in prof["distributions"])
                if ref.bimatrix_deviation_gain(tensors, p, q) > 1e-6:
                    problems.append(f"mixed profile {prof['distributions']} is not an equilibrium")
                problems += ref.close("mixed payoffs", prof["payoffs"],
                                      [p @ tensors[0] @ q, p @ tensors[1] @ q], 1e-8)
            return expect_code(code, 0) + problems
        return cli_op(f"analyze/{game.label}", ["analyze", "--game", path], check)

    def quantumize(self, path, game):
        def check(doc, code):
            res = doc["results"]
            labels = [token(p) for p in ref.plays(game.shape)]
            problems = expect_code(code, 0)
            if res["dimension"] != len(labels) or res["basis_plays"] != labels:
                problems.append("dimension or basis plays wrong")
            for i, entry in enumerate(res["payoff_operators"]):
                wanted = [game.payoffs[i][p] for p in ref.plays(game.shape)]
                problems += ref.close(f"spectrum {i}", [entry["spectrum"][t] for t in labels], wanted)
            if res["max_pairwise_commutator"] > ref.TOL:
                problems.append(f"payoff operators do not commute: {res['max_pairwise_commutator']}")
            return problems + ref.close("purity", res["initial_state_purity"], 1.0)
        return cli_op(f"quantumize/{game.label}", ["quantumize", "--game", path], check)

    def payoff(self, path, game):
        labels = [str(self.rng.choice(list(game.family))) for _ in game.shape]

        def check(doc, code):
            res = doc["results"]
            probs = game.probabilities([game.family[k] for k in labels])
            plays = [token(p) for p in ref.plays(game.shape)]
            return (expect_code(code, 0)
                    + ref.close("payoffs", [res["payoffs"][n] for n in game.players], ref.expected(probs, game.payoffs))
                    + ref.close("outcome distribution", [res["outcome_distribution"][t] for t in plays], probs))
        return cli_op(f"payoff/{game.label}", ["payoff", "--game", path, "--play", ",".join(labels)], check)

    def verify(self, path, game):
        mixtures = []
        for _ in game.shape:
            # mix over two operators so the product channel stays small
            labels = list(game.family)
            pick = sorted(self.rng.choice(len(labels), size=2, replace=False))
            w = np.zeros(len(labels))
            w[pick] = self.rng.dirichlet(np.ones(2))
            mixtures.append((w, [game.family[k] for k in labels]))

        def check(doc, code):
            return (check_verdict(doc, code, game.players, game.mixed_payoffs(mixtures))
                    + check_vertex_gains(doc, game, mixtures))
        return cli_op(f"verify-nash/finite_set/{game.label}",
                      ["verify-nash", "--game", path, "--profile", mixture_text(mixtures)], check)

    def pareto(self, path, game):
        def check(doc, code):
            res = doc["results"]
            plays = ref.plays(game.shape)
            vectors = {token(p): [t[p] for t in game.payoffs] for p in plays}
            problems = expect_code(code, 0)
            for a, row in res["relations"].items():
                for b, relation in row.items():
                    if relation != ref.pareto_relation(vectors[a], vectors[b]):
                        problems.append(f"relation {a} vs {b}: {relation}")
            if res["optimal"] != [token(p) for p in ref.pareto_optimal(game.payoffs)]:
                problems.append(f"Pareto-optimal set {res['optimal']}")
            return problems
        return cli_op(f"pareto/{game.label}", ["pareto", "--game", path], check)

    def sequential(self, path, game):
        moves = [str(self.rng.choice(list(game.moves))) for _ in game.schedule]

        def check(doc, code):
            state = 0
            for name in moves:
                state = game.moves[name][state]
            wanted = game.state_payoffs[:, state]
            return expect_code(code, 0) + ref.close(
                "sequential payoffs", [doc["results"]["payoffs"][n] for n in game.players], wanted)
        return cli_op(f"play-sequential/{game.label}", ["play-sequential", "--game", path, "--moves", ",".join(moves)], check)

    def export(self, name, params, basis):
        # each op writes a file of its own, so its check reads what it wrote
        self.exported += 1
        out = self.work / f"export-{self.exported}.json"
        tensors = (dilemma_tensors if name == "prisoners_dilemma" else battle_tensors)(
            params["alpha"], params["beta"], params["gamma"])
        named_basis = "ewl_eta" if name == "prisoners_dilemma" else basis

        def check(doc, code):
            written = json.loads(out.read_text(encoding="utf-8"))
            problems = expect_code(code, 0) + ref.close("exported payoffs", written["payoffs"], tensors)
            if written["quantum"]["basis"] != named_basis:
                problems.append(f"exported basis {written['quantum']['basis']}, expected {named_basis}")
            return problems
        argv = ["export", name, "--params", params_text(params), "--basis", basis]
        op = cli_op("export", argv + ["--out", str(out)], check)
        op.key = tuple(argv)  # the output path is not an input
        return op


WORKLOADS = {"certify": Certify, "evaluate": Evaluate, "workbench": Workbench}
