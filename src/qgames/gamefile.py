"""JSON game definition files: parsing, validation and catalog export.

:func:`parse_game_file` validates a file and returns a :class:`GameFile`
that holds the games built from it: the classical game, plus the quantum
game and its strategy family and the sequential game when the file has
those sections. Each is built once.

Schema (version 1). Complex numbers are ``[re, im]`` pairs throughout so
files are bit-exact and language-neutral::

    {
      "schema_version": 1,
      "players": ["A", "B"],
      "strategy_sets": [["C", "D"], ["C", "D"]],
      "payoffs": [ <per-player nested arrays, shape |S_1| x ... x |S_n|> ],
      "quantum": {                            # optional
        "initial_state": "ewl_entangled" | "phi_plus" | "computational:<play>"
                         | <d x d matrix of [re, im]>,
        "basis": "computational" | "ewl_eta" | "bell"
                 | {"labels": [...], "projectors": [<d x d of [re, im]>, ...]},
        "family": {"kind": "one_param" | "two_param" | "three_param"}
                  | {"kind": "finite_set",
                     "operators": [{"label": "I", "matrix": ...}, ...]}
      },
      "sequential": {                         # optional
        "players": ["Q", "C"],
        "states": ["H", "T"],
        "initial_state": "H" | <k-vector of [re, im]> | <k x k matrix>,
        "moves": {"N": [0, 1], "F": [1, 0]},  # permutation arrays: j -> move[j]
        "schedule": ["Q", "C", "Q"],
        "state_payoffs": [[1, -1], [-1, 1]]   # per sequential player, per state
      }
    }

Play tokens such as ``computational:DD`` name strategies per player, either
comma-separated or one character per player when unambiguous.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import ETA_IN, PHI_PLUS, CatalogEntry, bell_basis, eta_basis
from .classical import ClassicalGame
from .errors import DimensionLimitError, GameFileError, QGamesError
from .quantum import DIM_CAP, DensityMatrix, MeasurementBasis, UnitaryOperator
from .quantumize import (
    QuantumGame,
    SequentialQuantumGame,
    build_ewl,
    build_sequential,
    computational_basis,
    play_index,
)
from .strategies import FINITE_SET, PARAM_KINDS, StrategyFamily

SCHEMA_VERSION = 1

_ANGLE_RE = re.compile(r"^(-?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(token: str) -> float:
    """Parse a radian value; accepts plain floats and pi tokens like
    ``pi``, ``pi/2``, ``3pi/4``, ``-pi``."""
    text = str(token).strip().lower()
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        denom = float(m.group(3)) if m.group(3) else 1.0
        return sign * coeff * math.pi / denom
    try:
        return float(text)
    except ValueError:
        raise GameFileError([f"cannot parse angle {token!r}"]) from None


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def raise_if_any(self) -> None:
        if self.errors:
            raise GameFileError(self.errors)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _complex_entry(value, path: str, errs: _Collector) -> complex:
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_finite_number(x) for x in value)
    ):
        return complex(value[0], value[1])
    errs.add(path, f"expected an [re, im] pair, got {value!r}")
    return 0j


def _complex_matrix(value, path: str, errs: _Collector) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        errs.add(path, "expected a nested list matrix of [re, im] pairs")
        return np.zeros((1, 1), dtype=complex)
    rows = len(value)
    cols = len(value[0]) if rows else 0
    if not cols:
        errs.add(path, "matrix is empty")
        return np.zeros((1, 1), dtype=complex)
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(value):
        if len(row) != cols:
            errs.add(path, "matrix rows have unequal lengths")
            return out
        for j, cell in enumerate(row):
            out[i, j] = _complex_entry(cell, f"{path}[{i}][{j}]", errs)
    return out


@dataclass(frozen=True, eq=False)
class GameFile:
    """A validated game definition: the engine objects built from it.

    :func:`parse_game_file` builds each object once. ``family`` is the
    strategy family the quantum section names, if any.
    """

    schema_version: int
    classical: ClassicalGame
    quantum: QuantumGame | None
    family: StrategyFamily | None
    sequential: SequentialQuantumGame | None

    def classical_game(self) -> ClassicalGame:
        return self.classical

    def quantum_game(self) -> QuantumGame:
        if self.quantum is None:
            raise GameFileError(["file has no quantum section"])
        return self.quantum

    def sequential_game(self) -> SequentialQuantumGame:
        if self.sequential is None:
            raise GameFileError(["file has no sequential section"])
        return self.sequential

    def parse_play(self, token: str):
        """Resolve a play token ("D,D" or "DD") to strategy indices."""
        return _parse_play(self.classical.strategy_sets, token)


def _parse_play(strategy_sets, token: str) -> tuple[int, ...]:
    names = None
    if "," in token:
        names = [t.strip() for t in token.split(",")]
    elif len(token) == len(strategy_sets):
        names = list(token)
    if names is None or len(names) != len(strategy_sets):
        raise GameFileError([f"play token {token!r} does not name one strategy per player"])
    play = []
    for i, name in enumerate(names):
        if name not in strategy_sets[i]:
            raise GameFileError(
                [f"player {i} has no strategy {name!r} (choices: {strategy_sets[i]})"]
            )
        play.append(strategy_sets[i].index(name))
    return tuple(play)


# ---------------------------------------------------------------------------
# building the engine objects from validated fields
# ---------------------------------------------------------------------------

def _named_state(spec: str, game: ClassicalGame, dim: int) -> DensityMatrix:
    if spec == "ewl_entangled":
        if dim != 4:
            raise GameFileError(["ewl_entangled is a two-qubit state (dim 4)"])
        return DensityMatrix.from_pure(ETA_IN)
    if spec == "phi_plus":
        if dim != 4:
            raise GameFileError(["phi_plus is a two-qubit state (dim 4)"])
        return DensityMatrix.from_pure(PHI_PLUS)
    if spec.startswith("computational:"):
        play = _parse_play(game.strategy_sets, spec.split(":", 1)[1])
        vec = np.zeros(dim, dtype=complex)
        vec[play_index(game, play)] = 1.0
        return DensityMatrix.from_pure(vec)
    raise GameFileError([f"unknown named initial state {spec!r}"])


def _quantum_game(game: ClassicalGame, state_spec, basis_spec) -> QuantumGame:
    dim = int(np.prod(game.shape))
    if isinstance(state_spec, str):
        state = _named_state(state_spec, game, dim)
    else:
        state = DensityMatrix(state_spec)
    if basis_spec == "computational":
        basis = computational_basis(game)
    elif basis_spec == "ewl_eta":
        basis = eta_basis()
    elif basis_spec == "bell":
        basis = bell_basis()
    else:
        labels, projectors = basis_spec
        plays = tuple(_parse_play(game.strategy_sets, lbl) for lbl in labels)
        if len(set(plays)) != len(plays):
            raise GameFileError(["quantum.basis.labels: two labels name the same play"])
        try:
            basis = MeasurementBasis.from_projectors(projectors, plays)
        except QGamesError as exc:
            # every projector error starts with its own "projectors[i]" path
            raise GameFileError([f"quantum.basis.{exc}"]) from None
    return build_ewl(game, state, basis)


def _sequential_game(
    players, states, state_spec, perms, schedule, state_payoffs
) -> SequentialQuantumGame:
    k = len(states)
    if isinstance(state_spec, str):
        vec = np.zeros(k, dtype=complex)
        vec[states.index(state_spec)] = 1.0
        state = DensityMatrix.from_pure(vec)
    elif state_spec.ndim == 1:
        state = DensityMatrix.from_pure(state_spec)
    else:
        state = DensityMatrix(state_spec)
    moves = {}
    for name, perm in perms.items():
        matrix = np.zeros((k, k), dtype=complex)
        for j, image in enumerate(perm):
            matrix[image, j] = 1.0
        moves[name] = UnitaryOperator(matrix)
    return build_sequential(
        states,
        state,
        tuple(players.index(p) for p in schedule),
        moves,
        state_payoffs,
        players,
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_quantum(section, strategy_sets, errs: _Collector):
    """The quantum section's (initial state, basis, family) specs, or None
    when the file has none. Meaningful only when ``errs`` stays empty."""
    if section is None:
        return None
    if not isinstance(section, dict):
        errs.add("quantum", "expected an object")
        return None
    init = section.get("initial_state")
    if isinstance(init, list):
        init = _complex_matrix(init, "quantum.initial_state", errs)
    elif not isinstance(init, str):
        errs.add("quantum.initial_state", "expected a name or a complex matrix")
    basis = section.get("basis", "computational")
    if isinstance(basis, str):
        if basis not in ("computational", "ewl_eta", "bell"):
            errs.add("quantum.basis", f"unknown named basis {basis!r}")
    elif isinstance(basis, dict):
        labels = basis.get("labels")
        projectors = basis.get("projectors")
        dim = math.prod(len(s) for s in strategy_sets)
        if not isinstance(labels, list) or not isinstance(projectors, list):
            errs.add("quantum.basis", "explicit basis needs labels and projectors")
        elif len(labels) != dim or len(projectors) != dim:
            errs.add(
                "quantum.basis",
                f"{len(labels)} labels and {len(projectors)} projectors for {dim} plays",
            )
        else:
            mats = []
            for i, p in enumerate(projectors):
                path = f"quantum.basis.projectors[{i}]"
                mats.append(_complex_matrix(p, path, errs))
                if mats[-1].shape != (dim, dim):
                    errs.add(path, f"expected a {dim}x{dim} matrix, got shape {mats[-1].shape}")
            basis = (tuple(str(l) for l in labels), mats)
    else:
        errs.add("quantum.basis", "expected a name or an object")
    family = None
    fam_spec = section.get("family")
    if fam_spec is not None:
        if not isinstance(fam_spec, dict) or "kind" not in fam_spec:
            errs.add("quantum.family", "expected an object with a 'kind'")
        else:
            kind = fam_spec["kind"]
            if kind in PARAM_KINDS:
                family = StrategyFamily(kind)
            elif kind == FINITE_SET:
                ops = fam_spec.get("operators")
                if not isinstance(ops, list) or not ops:
                    errs.add("quantum.family.operators", "expected a non-empty list")
                else:
                    before = len(errs.errors)
                    pairs = []
                    for i, op in enumerate(ops):
                        label = op.get("label") if isinstance(op, dict) else None
                        matrix = op.get("matrix") if isinstance(op, dict) else None
                        if label is None or matrix is None:
                            errs.add(
                                f"quantum.family.operators[{i}]",
                                "expected {label, matrix}",
                            )
                            continue
                        pairs.append(
                            (
                                str(label),
                                _complex_matrix(
                                    matrix, f"quantum.family.operators[{i}].matrix", errs
                                ),
                            )
                        )
                    if pairs and len(errs.errors) == before:
                        try:
                            family = StrategyFamily.finite(pairs)
                        except QGamesError as exc:
                            errs.add("quantum.family", str(exc))
            else:
                errs.add("quantum.family.kind", f"unknown kind {kind!r}")
    return init, basis, family


def _parse_sequential(section, errs: _Collector):
    """The arguments of :func:`_sequential_game`, or None when the file has
    no sequential section. Meaningful only when ``errs`` stays empty."""
    if section is None:
        return None
    if not isinstance(section, dict):
        errs.add("sequential", "expected an object")
        return None
    players = section.get("players")
    states = section.get("states")
    if not isinstance(players, list) or not players:
        errs.add("sequential.players", "expected a non-empty list of names")
        players = ["?"]
    if not isinstance(states, list) or not states:
        errs.add("sequential.states", "expected a non-empty list of labels")
        states = ["?"]
    players = tuple(str(p) for p in players)
    states = tuple(str(s) for s in states)
    k = len(states)
    init = section.get("initial_state", states[0])
    if isinstance(init, str):
        if init not in states:
            errs.add("sequential.initial_state", f"unknown state label {init!r}")
    elif isinstance(init, list):
        if init and isinstance(init[0], list) and init[0] and isinstance(init[0][0], list):
            init = _complex_matrix(init, "sequential.initial_state", errs)
        else:
            vec = np.zeros(k, dtype=complex)
            for i, cell in enumerate(init[:k]):
                vec[i] = _complex_entry(cell, f"sequential.initial_state[{i}]", errs)
            init = vec
    else:
        errs.add("sequential.initial_state", "expected a state label or amplitudes")
    moves = {}
    raw_moves = section.get("moves")
    if not isinstance(raw_moves, dict) or not raw_moves:
        errs.add("sequential.moves", "expected a non-empty object of permutation arrays")
    else:
        for name, perm in raw_moves.items():
            if (
                not isinstance(perm, list)
                or len(perm) != k
                or not all(_is_int(j) for j in perm)
                or sorted(perm) != list(range(k))
            ):
                errs.add(
                    f"sequential.moves.{name}",
                    f"expected a permutation of 0..{k - 1}",
                )
                continue
            moves[str(name)] = tuple(perm)
    schedule = section.get("schedule")
    if not isinstance(schedule, list) or not schedule:
        errs.add("sequential.schedule", "expected a non-empty list of player names")
    else:
        bad = [p for p in schedule if p not in players]
        if bad:
            errs.add("sequential.schedule", f"unknown player name(s) {bad}")
    payoffs = section.get("state_payoffs")
    arr = np.zeros((len(players), k))
    if not isinstance(payoffs, list) or len(payoffs) != len(players):
        errs.add("sequential.state_payoffs", f"expected one payoff row per player ({len(players)})")
    else:
        for i, row in enumerate(payoffs):
            if not isinstance(row, list) or len(row) != k:
                errs.add(f"sequential.state_payoffs[{i}]", f"expected {k} values")
                continue
            for j, v in enumerate(row):
                if _is_finite_number(v):
                    arr[i, j] = v
                else:
                    errs.add(f"sequential.state_payoffs[{i}][{j}]", "expected a finite number")
    return players, states, init, moves, schedule, arr


def parse_game_file(source: "str | Path") -> GameFile:
    """Parse and validate a game file (path or raw JSON text).

    Raises :class:`GameFileError` carrying every schema problem found, each
    tagged with its field path.
    """
    text = source
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as exc:
            raise GameFileError([f"cannot read {source}: {exc}"]) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError([f"malformed JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise GameFileError(["top level: expected an object"])

    errs = _Collector()
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errs.add("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    players = doc.get("players")
    strategy_sets = doc.get("strategy_sets")
    if not isinstance(strategy_sets, list) or len(strategy_sets) < 2:
        errs.add("strategy_sets", "expected a list with one entry per player (>= 2)")
        errs.raise_if_any()
    strategy_sets = tuple(
        tuple(str(s) for s in (entry if isinstance(entry, list) else [entry]))
        for entry in strategy_sets
    )
    n = len(strategy_sets)
    if players is None:
        player_names = tuple(f"P{i + 1}" for i in range(n))
    elif isinstance(players, int):
        if players != n:
            errs.add("players", f"player count {players} != {n} strategy sets")
        player_names = tuple(f"P{i + 1}" for i in range(n))
    elif isinstance(players, list):
        if len(players) != n:
            errs.add("players", f"{len(players)} names for {n} strategy sets")
        player_names = tuple(str(p) for p in players)
    else:
        errs.add("players", "expected a count or a list of names")
        player_names = tuple(f"P{i + 1}" for i in range(n))

    shape = tuple(len(s) for s in strategy_sets)
    if math.prod(shape) > DIM_CAP:
        # checked before any per-play array is built
        raise DimensionLimitError(
            f"strategy_sets: {math.prod(shape)} plays exceed the dimension cap {DIM_CAP}"
        )
    raw_payoffs = doc.get("payoffs")
    tensors = []
    if not isinstance(raw_payoffs, list) or len(raw_payoffs) != n:
        errs.add("payoffs", f"expected one payoff tensor per player ({n})")
    else:
        for i, tensor in enumerate(raw_payoffs):
            try:
                arr = np.asarray(tensor, dtype=float)
            except (TypeError, ValueError, OverflowError):
                errs.add(f"payoffs[{i}]", "not a numeric tensor")
                continue
            if arr.shape != shape:
                errs.add(
                    f"payoffs[{i}]",
                    f"payoff tensor for player {i} has shape {arr.shape}, expected {shape}",
                )
                continue
            tensors.append(arr)

    quantum = _parse_quantum(doc.get("quantum"), strategy_sets, errs)
    sequential = _parse_sequential(doc.get("sequential"), errs)
    errs.raise_if_any()

    # build each engine object once, here, so that its constructor's errors
    # carry the path of their section instead of surfacing at use sites
    try:
        classical = ClassicalGame(strategy_sets, tuple(tensors), player_names)
    except QGamesError as exc:
        raise GameFileError([f"payoffs: {exc}"]) from None
    qg = family = sg = None
    if quantum is not None:
        state, basis, family = quantum
        try:
            qg = _quantum_game(classical, state, basis)
        except GameFileError:
            raise
        except QGamesError as exc:
            raise GameFileError([f"quantum: {exc}"]) from None
    if sequential is not None:
        try:
            sg = _sequential_game(*sequential)
        except QGamesError as exc:
            raise GameFileError([f"sequential: {exc}"]) from None
    return GameFile(int(version), classical, qg, family, sg)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(m, dtype=complex)]


def _play_token(game: ClassicalGame, play) -> str:
    names = game.play_label(play)
    if all(len(n) == 1 for n in names):
        return "".join(names)
    return ",".join(names)


def export_entry(entry: CatalogEntry) -> dict:
    """Serialize a catalog entry to the game-file schema."""
    game = entry.classical
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "players": list(game.player_names or ()),
        "strategy_sets": [list(s) for s in game.strategy_sets],
        "payoffs": [t.tolist() for t in game.payoffs],
    }
    quantum = entry.quantum
    if isinstance(quantum, QuantumGame):
        named_state = None
        vec_eta = ETA_IN
        vec_phi = PHI_PLUS
        state = quantum.initial_state.matrix
        if np.allclose(state, np.outer(vec_eta, vec_eta.conj()), atol=1e-12):
            named_state = "ewl_entangled"
        elif np.allclose(state, np.outer(vec_phi, vec_phi.conj()), atol=1e-12):
            named_state = "phi_plus"
        basis_name = None
        for candidate, builder in (
            ("computational", lambda: computational_basis(game)),
            ("ewl_eta", eta_basis),
            ("bell", bell_basis),
        ):
            try:
                ref = builder()
            except QGamesError:
                continue
            # the same vectors up to a phase per column
            if ref.labels == quantum.basis.labels and np.allclose(
                np.abs(np.sum(ref.unitary.conj() * quantum.basis.unitary, axis=0)), 1.0, atol=1e-12
            ):
                basis_name = candidate
                break
        section: dict = {
            "initial_state": named_state if named_state else _matrix_json(state),
            "basis": basis_name
            if basis_name
            else {
                "labels": [_play_token(game, p) for p in quantum.basis.labels],
                "projectors": [_matrix_json(p) for p in quantum.basis.projectors],
            },
        }
        if entry.strategy_family is not None:
            fam = entry.strategy_family
            if fam.kind == FINITE_SET:
                section["family"] = {
                    "kind": FINITE_SET,
                    "operators": [
                        {"label": label, "matrix": _matrix_json(m)}
                        for label, m in fam.operators
                    ],
                }
            else:
                section["family"] = {"kind": fam.kind}
        doc["quantum"] = section
    elif isinstance(quantum, SequentialQuantumGame):
        sg = quantum
        perms = {}
        for name, op in sg.classical_moves.items():
            matrix = op.matrix.real
            perms[name] = [int(np.argmax(matrix[:, j])) for j in range(sg.dim)]
        state = sg.initial_state.matrix
        named = None
        for j, label in enumerate(sg.state_labels):
            vec = np.zeros(sg.dim)
            vec[j] = 1.0
            if np.allclose(state, np.outer(vec, vec), atol=1e-12):
                named = label
                break
        players = list(sg.player_names or (f"P{i + 1}" for i in range(sg.players)))
        doc["sequential"] = {
            "players": players,
            "states": list(sg.state_labels),
            "initial_state": named if named else _matrix_json(state),
            "moves": perms,
            "schedule": [players[i] for i in sg.move_schedule],
            "state_payoffs": sg.payoff_vectors.tolist(),
        }
    return doc


def export_entry_text(entry: CatalogEntry) -> str:
    return json.dumps(export_entry(entry), indent=2, sort_keys=False) + "\n"
