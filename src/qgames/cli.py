"""Command-line workbench.

Subcommands:

* ``analyze``          classical solutions of a game file
* ``quantumize``       build the quantum game and report payoff-operator spectra
* ``payoff``           evaluate one quantum play
* ``best-response``    one player's exact best reply
* ``verify-nash``      certify or refute a strategy profile
* ``pareto``           Pareto relations over plays or supplied payoff vectors
* ``play-sequential``  run a move sequence of a sequential game
* ``demo``             re-run a catalog entry's documented solutions
* ``export``           write a catalog entry as a game file

Exit codes: 0 success, 1 when the analysis does not confirm its claim (a
``verify-nash`` profile that is not certified, whether refuted or
undecided, or a failed ``demo`` check), 2 input error. Reports are
deterministic: fixed key order and 12 significant digits everywhere.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import catalog as _catalog
from .classical import (
    dominant_strategies,
    expected_payoffs,
    mixed_nash_two_player,
    pareto_optimal_plays,
    pure_nash,
)
from .equilibrium import (
    best_response,
    best_response_mixed_finite,
    pareto_report,
    verify_nash,
    verify_nash_mixed_finite,
)
from .errors import GameFileError, QGamesError
from .gamefile import _play_token, export_entry_text, parse_angle, parse_game_file
from .quantum import TOL, UnitaryOperator, commutator_norm
from .quantumize import (
    OperatorMixture,
    outcome_distribution,
    play_sequential,
)
from .strategies import (
    DEFECT,
    FINITE_SET,
    FLIP,
    HADAMARD,
    IDENTITY,
    QUANTUM_MOVE,
    StrategyFamily,
    param_unitary,
)

_NAMED_OPERATORS = {
    "I": IDENTITY,
    "N": IDENTITY,
    "X": FLIP,
    "F": FLIP,
    "H": HADAMARD,
    "UQSTAR": HADAMARD,
    "UC": IDENTITY,
    "UD": DEFECT,
    "UQ": QUANTUM_MOVE,
}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _round12(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (np.floating,)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return [_round12(value.real), _round12(value.imag)]
    if isinstance(value, np.ndarray):
        return [_round12(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _scalar_text(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _text_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_flat_text(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {_flat_text(v)}")
    else:
        lines.append(f"{pad}{_flat_text(value)}")
    return lines


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat_text(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    if value is None:
        return "-"
    return _scalar_text(value)


@dataclass
class Report:
    """A deterministic, serializable command report."""

    command: str
    arguments: dict
    results: dict
    diagnostics: dict
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "arguments": _round12(self.arguments),
            "results": _round12(self.results),
            "diagnostics": _round12(self.diagnostics),
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = [f"== {self.command} =="]
        rounded = _round12(self.results)
        lines.extend(_text_lines(rounded))
        diag = _round12(self.diagnostics)
        if diag:
            lines.append(
                "config: "
                + ", ".join(f"{k}={_scalar_text(v)}" for k, v in diag.items())
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _family_from(args, gf) -> StrategyFamily:
    if getattr(args, "family", None):
        kind = args.family
        if kind == FINITE_SET:
            if gf.family is None or gf.family.kind != FINITE_SET:
                raise GameFileError(["finite_set family requested but the file defines none"])
            return gf.family
        return StrategyFamily(kind)
    if gf.family is not None:
        return gf.family
    return StrategyFamily.two_param()


def _split_groups(text: str) -> list[list[str]]:
    return [
        [tok.strip() for tok in group.split(",") if tok.strip()]
        for group in text.split(";")
        if group.strip()
    ]


def _parse_param_profile(text: str, players: int, arity: int) -> list[tuple[float, ...]]:
    groups = _split_groups(text)
    if len(groups) == 1 and len(groups[0]) == players * arity:
        flat = [parse_angle(t) for t in groups[0]]
        return [tuple(flat[i * arity : (i + 1) * arity]) for i in range(players)]
    if len(groups) == players and all(len(g) == arity for g in groups):
        return [tuple(parse_angle(t) for t in g) for g in groups]
    raise GameFileError(
        [
            f"profile needs {players} groups of {arity} angle(s) "
            f"(or one flat list of {players * arity}), got {text!r}"
        ]
    )


def _number(token: str, flag: str) -> float:
    """A finite float from one CLI token, or an input error naming ``flag``."""
    try:
        value = float(token)
    except ValueError:
        raise GameFileError([f"{flag}: {token!r} is not a number"]) from None
    if not math.isfinite(value):
        raise GameFileError([f"{flag}: {token!r} is not finite"])
    return value


def _parse_mixtures(text: str, players: int, family: StrategyFamily, flag: str) -> list[OperatorMixture]:
    labels = family.labels
    groups = _split_groups(text)
    if len(groups) != players:
        raise GameFileError([f"expected {players} ';'-separated groups, got {len(groups)}"])
    mixtures = []
    for g in groups:
        if len(g) == 1 and g[0] in labels:
            probs = np.zeros(len(labels))
            probs[labels.index(g[0])] = 1.0
        else:
            if len(g) != len(labels):
                raise GameFileError(
                    [
                        f"mixture group needs one probability per operator "
                        f"{list(labels)} or a single operator label, got {g}"
                    ]
                )
            probs = np.array([_number(x, flag) for x in g])
        mixtures.append(OperatorMixture.over_family(family, probs))
    return mixtures


def _resolve_player(token: str, names) -> int:
    if token in names:
        return list(names).index(token)
    try:
        idx = int(token)
    except ValueError:
        raise GameFileError([f"unknown player {token!r} (names: {list(names)})"]) from None
    if not 0 <= idx < len(names):
        raise GameFileError([f"player index {idx} out of range 0..{len(names) - 1}"])
    return idx


def _resolve_move(token: str, sg) -> np.ndarray:
    if token in sg.classical_moves:
        return sg.classical_moves[token].matrix
    upper = token.upper()
    if upper in _NAMED_OPERATORS:
        m = _NAMED_OPERATORS[upper]
        if m.shape[0] != sg.dim:
            raise GameFileError([f"move {token!r} has dimension 2, game has {sg.dim}"])
        return m
    if token.lower().startswith("u:"):
        angles = [parse_angle(t) for t in token[2:].split(",")]
        if len(angles) not in (1, 2, 3):
            raise GameFileError([f"u: move takes 1-3 angles, got {token!r}"])
        kind = {1: "one_param", 2: "two_param", 3: "three_param"}[len(angles)]
        return param_unitary(StrategyFamily(kind), tuple(angles)).matrix
    raise GameFileError(
        [
            f"unknown move {token!r}; file moves: {sorted(sg.classical_moves)}, "
            f"named: {sorted(_NAMED_OPERATORS)}, parametric: u:theta[,phi[,lambda]]"
        ]
    )


def _parse_params_flag(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise GameFileError([f"parameter {part!r} is not name=value"])
        key, value = part.split("=", 1)
        out[key.strip()] = _number(value, "--params")
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    game = gf.classical_game()
    dominant = dominant_strategies(game, strict=args.strict)
    nash = pure_nash(game, strict=args.strict)
    pareto = pareto_optimal_plays(game)
    results = {
        "players": list(game.player_names or ()),
        "strategy_sets": [list(s) for s in game.strategy_sets],
        "dominant_strategies": [
            None if d is None else game.strategy_sets[i][d] for i, d in enumerate(dominant)
        ],
        "pure_nash": [
            {"play": _play_token(game, p), "payoffs": list(game.payoff_vector(p))}
            for p in nash
        ],
        "pareto_optimal": [_play_token(game, p) for p in pareto],
    }
    notes = []
    diagnostics = {}
    if game.players == 2 and max(game.shape) <= 4:
        diagnostics["tol"] = args.tol
        mixed = mixed_nash_two_player(game, tol=args.tol)
        results["mixed_nash"] = [
            {
                "distributions": [list(d) for d in prof.distributions],
                "payoffs": list(expected_payoffs(game, prof)),
            }
            for prof in mixed
        ]
    else:
        notes.append("mixed equilibrium search covers 2-player games with small strategy sets")
    report = Report("analyze", {"game": args.game}, results, diagnostics, notes)
    return report, 0


def _cmd_quantumize(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    qg = gf.quantum_game()
    game = qg.base
    spectra = [
        {
            "player": game.name_of(i),
            "spectrum": {
                _play_token(game, play): value
                for play, value in qg.payoff_eigenvalues()[i].items()
            },
        }
        for i in range(game.players)
    ]
    ops = qg.payoff_operators
    worst = 0.0
    for i in range(game.players):
        for j in range(i + 1, game.players):
            worst = max(worst, commutator_norm(ops[i], ops[j]))
    purity = float(np.trace(qg.initial_state.matrix @ qg.initial_state.matrix).real)
    results = {
        "dimension": qg.dim,
        "basis_plays": [_play_token(game, p) for p in qg.basis.labels],
        "initial_state_purity": purity,
        "payoff_operators": spectra,
        "max_pairwise_commutator": worst,
    }
    report = Report("quantumize", {"game": args.game}, results, {})
    return report, 0


def _play_operators(args, gf, qg):
    family = _family_from(args, gf)
    n = qg.base.players
    if family.kind == FINITE_SET:
        groups = _split_groups(args.play)
        if len(groups) == 1 and len(groups[0]) == n:
            groups = [[token] for token in groups[0]]
        if len(groups) != n:
            raise GameFileError([f"play needs one operator label per player ({n})"])
        ops = []
        for g in groups:
            if len(g) != 1:
                raise GameFileError([f"each play entry is one label, got {g}"])
            ops.append(UnitaryOperator(family.operator(g[0])))
        return ops, [g[0] for g in groups]
    points = _parse_param_profile(args.play, n, family.arity)
    return [param_unitary(family, p) for p in points], [list(p) for p in points]


def _cmd_payoff(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    qg = gf.quantum_game()
    ops, echo = _play_operators(args, gf, qg)
    dist = outcome_distribution(qg, ops)
    payoffs = qg.payoff_vectors @ np.array([p for _, p in dist])
    results = {
        "play": echo,
        "payoffs": {
            qg.base.name_of(i): float(v) for i, v in enumerate(payoffs)
        },
        "outcome_distribution": {
            _play_token(qg.base, play): p for play, p in dist
        },
    }
    report = Report("payoff", {"game": args.game, "play": args.play}, results, {})
    return report, 0


def _cmd_best_response(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    qg = gf.quantum_game()
    game = qg.base
    family = _family_from(args, gf)
    player = _resolve_player(args.player, game.player_names or [str(i) for i in range(game.players)])
    other_idx = [i for i in range(game.players) if i != player]
    if family.kind == FINITE_SET:
        mixtures = _parse_mixtures(args.others, len(other_idx), family, "--others")
        others = dict(zip(other_idx, mixtures))
        probs = best_response_mixed_finite(qg, player, others, family)
        results = {
            "player": game.name_of(player),
            "best_mixture": {label: float(p) for label, p in zip(family.labels, probs)},
        }
    else:
        points = _parse_param_profile(args.others, len(other_idx), family.arity)
        others = {
            i: param_unitary(family, p) for i, p in zip(other_idx, points)
        }
        point, value = best_response(qg, player, others, family)
        results = {
            "player": game.name_of(player),
            "best_point": list(point),
            "payoff": value,
        }
    report = Report(
        "best-response",
        {"game": args.game, "player": args.player, "others": args.others},
        results,
        {},
    )
    return report, 0


def _cmd_verify_nash(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    qg = gf.quantum_game()
    game = qg.base
    family = _family_from(args, gf)
    if family.kind == FINITE_SET:
        mixtures = _parse_mixtures(args.profile, game.players, family, "--profile")
        rep = verify_nash_mixed_finite(qg, mixtures, (family,) * game.players, args.epsilon)
        profile_echo = [
            {label: float(p) for label, p in zip(family.labels, m.probabilities)}
            for m in mixtures
        ]
    else:
        points = _parse_param_profile(args.profile, game.players, family.arity)
        rep = verify_nash(qg, points, family, args.epsilon)
        profile_echo = [list(p) for p in points]
    results = {
        "profile": profile_echo,
        "payoffs": {game.name_of(i): v for i, v in enumerate(rep.payoffs)},
        "certified": rep.certified,
        "refuted": rep.refuted,
        "max_unilateral_gain": rep.max_unilateral_gain,
        "per_player_gain": {game.name_of(i): g for i, g in enumerate(rep.gains)},
        "best_responses": [list(b) if isinstance(b, tuple) else b for b in rep.best_responses],
    }
    report = Report(
        "verify-nash",
        {"game": args.game, "profile": args.profile, "family": family.kind},
        results,
        {"epsilon": args.epsilon},
    )
    return report, 0 if rep.certified else 1


def _cmd_pareto(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    game = gf.classical_game()
    if args.entry:
        entries = []
        for spec in args.entry:
            if ":" not in spec:
                raise GameFileError([f"entry {spec!r} is not label:v1,v2,..."])
            label, values = spec.split(":", 1)
            entries.append((label.strip(), [_number(v, "--entry") for v in values.split(",")]))
    else:
        entries = [
            (_play_token(game, play), list(game.payoff_vector(play)))
            for play in game.plays()
        ]
    rep = pareto_report(entries)
    results = {
        "entries": {label: list(map(float, vec)) for label, vec in entries},
        "relations": {
            a: {b: rep.relations[i][j] for j, b in enumerate(rep.labels)}
            for i, a in enumerate(rep.labels)
        },
        "optimal": list(rep.optimal),
    }
    report = Report("pareto", {"game": args.game}, results, {})
    return report, 0


def _cmd_play_sequential(args) -> tuple[Report, int]:
    gf = parse_game_file(args.game)
    sg = gf.sequential_game()
    tokens = [t.strip() for t in args.moves.split(",") if t.strip()]
    moves = [_resolve_move(t, sg) for t in tokens]
    payoffs = play_sequential(sg, moves)
    names = sg.player_names or tuple(f"P{i + 1}" for i in range(sg.players))
    results = {
        "moves": tokens,
        "schedule": [names[i] for i in sg.move_schedule],
        "payoffs": {names[i]: float(v) for i, v in enumerate(payoffs)},
    }
    report = Report(
        "play-sequential",
        {"game": args.game, "moves": args.moves},
        results,
        {},
    )
    return report, 0


def _cmd_demo(args) -> tuple[Report, int]:
    params = _parse_params_flag(args.params)
    entry = _catalog.load(
        args.name,
        params or None,
        basis=args.basis,
        verify=False,
    )
    checks = entry.verify(args.epsilon)
    all_passed = all(c.passed for c in checks)
    results = {
        "entry": entry.name,
        "parameters": dict(entry.parameters),
        "checks": [
            {
                "label": c.label,
                "passed": bool(c.passed),
                "details": _round12(c.details),
            }
            for c in checks
        ],
        "all_passed": all_passed,
    }
    notes = [sol.note for sol in entry.documented_solutions if sol.note]
    notes.extend(entry.notes)
    diagnostics = {"epsilon": args.epsilon}
    report = Report("demo", {"name": args.name, "basis": args.basis}, results, diagnostics, notes)
    return report, 0 if all_passed else 1


def _cmd_export(args) -> tuple[Report, int]:
    params = _parse_params_flag(args.params)
    entry = _catalog.load(args.name, params or None, basis=args.basis, verify=False)
    text = export_entry_text(entry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        results = {"written": args.out}
        report = Report("export", {"name": args.name}, results, {})
        return report, 0
    # raw file on stdout, not a report
    sys.stdout.write(text)
    return None, 0


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Quantum games workbench: quantumize, evaluate, certify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, game=True):
        if game:
            p.add_argument("--game", required=True, help="game definition JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="classical solutions of a game file")
    common(p)
    p.add_argument("--strict", action="store_true", help="strict dominance / equilibria")
    p.add_argument("--tol", type=float, default=TOL, help="tolerance of the mixed equilibrium search")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("quantumize", help="quantum game summary incl. payoff-operator spectra")
    common(p)
    p.set_defaults(func=_cmd_quantumize)

    p = sub.add_parser("payoff", help="evaluate a quantum play")
    common(p)
    p.add_argument("--play", required=True, help="angles per player ('0,pi/2;pi,0') or labels ('I,X')")
    p.add_argument("--family", choices=("one_param", "two_param", "three_param", "finite_set"))
    p.set_defaults(func=_cmd_payoff)

    p = sub.add_parser("best-response", help="one player's exact best reply")
    common(p)
    p.add_argument("--player", required=True, help="player name or 0-based index")
    p.add_argument("--others", required=True, help="other players' strategies")
    p.add_argument("--family", choices=("one_param", "two_param", "three_param", "finite_set"))
    p.set_defaults(func=_cmd_best_response)

    p = sub.add_parser("verify-nash", help="certify or refute a profile")
    common(p)
    p.add_argument("--profile", required=True, help="per-player parameters or mixtures")
    p.add_argument("--family", choices=("one_param", "two_param", "three_param", "finite_set"))
    p.add_argument("--epsilon", type=float, default=1e-6, help="certification threshold")
    p.set_defaults(func=_cmd_verify_nash)

    p = sub.add_parser("pareto", help="Pareto relations and the optimal set")
    common(p)
    p.add_argument(
        "--entry",
        action="append",
        help="labelled payoff vector 'label:v1,v2'; repeatable "
        "(default: all pure plays of the game)",
    )
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("play-sequential", help="run a move sequence")
    common(p)
    p.add_argument("--moves", required=True, help="comma list, e.g. 'UQstar,F,UQstar'")
    p.set_defaults(func=_cmd_play_sequential)

    p = sub.add_parser("demo", help="re-run a catalog entry's documented solutions")
    common(p, game=False)
    p.add_argument("--epsilon", type=float, default=1e-6, help="certification threshold")
    p.add_argument("name", choices=_catalog.CATALOG_NAMES)
    p.add_argument("--params", help="entry parameters, e.g. 'alpha=5,beta=3,gamma=1'")
    p.add_argument("--basis", choices=("computational", "bell"), default="computational")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("export", help="write a catalog entry as a game file")
    common(p, game=False)
    p.add_argument("name", choices=_catalog.CATALOG_NAMES)
    p.add_argument("--params", help="entry parameters, e.g. 'alpha=5,beta=3,gamma=1'")
    p.add_argument("--basis", choices=("computational", "bell"), default="computational")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv=None, stream=None) -> tuple["Report | None", int]:
    """Run one command: print its report (when any) and return it with the
    process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = stream or sys.stdout
    try:
        report, code = args.func(args)
    except GameFileError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return None, 2
    except QGamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    if report is not None:
        print(report.render(args.format), file=stream)
    return report, code


def main(argv=None) -> int:
    try:
        _, code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``qgames export ... | head``); send what
        # is still buffered to devnull so the exit flush cannot fail again
        with contextlib.suppress(OSError, ValueError):
            stdout_fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout_fd)
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
