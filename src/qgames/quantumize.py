"""Quantumization protocols for finite classical games.

Two constructions are provided:

* the parallel protocol: one quantum subsystem per player, dimension equal
  to that player's strategy count; a judge prepares a (generally entangled)
  joint state, every player applies a local unitary, and the judge measures
  in a rank-one basis V with one vector per pure play. The payoff operators
  ``π̂_i = Σ_P π_i(P) Π_P`` all share V as eigenbasis, so each is stored as
  its payoff vector over the plays, and expected payoffs are
  ``Σ_P π_i(P)·⟨v_P|ρ_f|v_P⟩``.

* the sequential protocol: all players act in turn on one shared system
  whose basis states are the classical states of the game; payoffs are
  vectors over those states and the applied unitaries compose in move
  order.

Each player's unitary, or mixture of unitaries, acts on that player's
tensor factor of the state alone (a product batched over the reshaped
density matrix), so no Kronecker product of the local operators is formed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .classical import ClassicalGame, Play
from .errors import DimensionLimitError, ShapeError, ValidationError
from .quantum import (
    DIM_CAP,
    TOL,
    DensityMatrix,
    KrausChannel,
    MeasurementBasis,
    UnitaryOperator,
    dagger,
    outcome_probabilities,
    tensor_all,
)


def _standard_basis(labels: Sequence[Hashable]) -> MeasurementBasis:
    if len(labels) > DIM_CAP:
        raise DimensionLimitError(f"{len(labels)} basis states exceed the dimension cap {DIM_CAP}")
    return MeasurementBasis(np.eye(len(labels)), tuple(labels))


def computational_basis(game: ClassicalGame) -> MeasurementBasis:
    """The joint computational basis, labelled by plays in lexicographic order."""
    return _standard_basis(list(game.plays()))


def play_index(game: ClassicalGame, play: Play) -> int:
    """Composite basis index of a play: player 1 is the most significant digit."""
    idx = 0
    for size, a in zip(game.shape, play):
        idx = idx * size + a
    return idx


@dataclass(frozen=True, eq=False)
class QuantumGame:
    """A quantumized finite game.

    ``payoff_vectors[i, k]`` is player ``i``'s payoff at the play
    ``basis.labels[k]``: the eigenvalue of their payoff operator on the
    basis vector ``k``.
    """

    base: ClassicalGame
    initial_state: DensityMatrix
    basis: MeasurementBasis
    payoff_vectors: np.ndarray = field(init=False)

    def __post_init__(self):
        dim = int(np.prod(self.base.shape))
        if self.initial_state.dim != dim:
            raise ShapeError(
                f"initial state dimension {self.initial_state.dim} "
                f"!= number of plays {dim}"
            )
        if self.basis.dim != dim:
            raise ShapeError("basis dimension does not match the play count")
        if set(self.basis.labels) != set(self.base.plays()):
            raise ValidationError("basis labels must biject with the plays of the game")
        at_labels = tuple(np.array(self.basis.labels).T)
        vectors = np.array([t[at_labels] for t in self.base.payoffs], dtype=float)
        vectors.setflags(write=False)
        object.__setattr__(self, "payoff_vectors", vectors)

    @property
    def dim(self) -> int:
        return self.initial_state.dim

    @property
    def local_dims(self) -> tuple[int, ...]:
        return self.base.shape

    @property
    def payoff_operators(self) -> np.ndarray:
        """The (n, d, d) stack ``π̂_i = V diag(payoff_vectors[i]) V†`` (built on each call)."""
        v = self.basis.unitary
        return np.einsum("ak,ik,bk->iab", v, self.payoff_vectors, v.conj())

    def payoff_eigenvalues(self) -> list[dict[Play, float]]:
        """Per player, the payoff carried by each basis label (the spectrum
        of that player's operator together with its eigenbasis labels)."""
        return [dict(zip(self.basis.labels, map(float, row))) for row in self.payoff_vectors]


def build_ewl(
    base: ClassicalGame,
    initial_state: DensityMatrix,
    basis: MeasurementBasis | None = None,
) -> QuantumGame:
    """Quantumize ``base``: attach an initial state and a play-labelled
    measurement basis (computational by default); the payoff operators
    ``π̂_i = Σ_P π_i(P) Π_P`` are the payoff vectors on that basis."""
    if basis is None:
        basis = computational_basis(base)
    return QuantumGame(base, initial_state, basis)


def _local_matrices(qg: QuantumGame, play: Sequence) -> list[np.ndarray]:
    locals_ = list(play)
    if len(locals_) != qg.base.players:
        raise ShapeError(
            f"play has {len(locals_)} local operators for {qg.base.players} players"
        )
    mats = []
    for i, op in enumerate(locals_):
        m = op.matrix if isinstance(op, UnitaryOperator) else UnitaryOperator(op).matrix
        if m.shape[0] != qg.local_dims[i]:
            raise ShapeError(
                f"operator for player {i} has dimension {m.shape[0]}, "
                f"expected {qg.local_dims[i]}"
            )
        mats.append(m)
    return mats


def _apply_local(rho: np.ndarray, op: np.ndarray, player: int, dims: Sequence[int]) -> np.ndarray:
    """``K ρ K†`` for ``K = I ⊗ op ⊗ I`` acting on ``player``'s factor of
    the composite ``dims``. ``K σ`` is one product batched over the factors
    before ``player``, and ``σ K† = (K σ†)†``."""
    left = math.prod(dims[:player])

    def on_ket(m):
        return (op @ m.reshape(left, dims[player], -1)).reshape(m.shape)

    return dagger(on_ket(dagger(on_ket(rho))))


def joint_unitary(qg: QuantumGame, play: Sequence) -> np.ndarray:
    """The combined local operation ``U_1 ⊗ ... ⊗ U_n`` of a quantum play."""
    return tensor_all(_local_matrices(qg, play))


def final_state(qg: QuantumGame, play: Sequence) -> DensityMatrix:
    """``(U_1 ⊗ ... ⊗ U_n) ρ (U_1 ⊗ ... ⊗ U_n)†``, one factor at a time."""
    rho = qg.initial_state.matrix
    for i, u in enumerate(_local_matrices(qg, play)):
        rho = _apply_local(rho, u, i, qg.local_dims)
    return DensityMatrix(rho)


def expected_payoffs_q(qg: QuantumGame, play: Sequence) -> np.ndarray:
    """Expected payoffs ``Tr[U ρ U† π̂_i]`` of a pure quantum play."""
    return qg.payoff_vectors @ outcome_probabilities(final_state(qg, play), qg.basis)


def outcome_distribution(qg: QuantumGame, play: Sequence) -> list[tuple[Play, float]]:
    """Measurement distribution over plays induced by a quantum play."""
    probs = outcome_probabilities(final_state(qg, play), qg.basis)
    return list(zip(qg.basis.labels, (float(p) for p in probs)))


@dataclass(frozen=True, eq=False)
class OperatorMixture:
    """A probabilistic mixture of unitaries: one player's mixed quantum strategy."""

    probabilities: np.ndarray
    operators: tuple

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float).reshape(-1)
        ops = tuple(
            op if isinstance(op, UnitaryOperator) else UnitaryOperator(op)
            for op in self.operators
        )
        if len(probs) != len(ops):
            raise ShapeError(f"{len(probs)} probabilities for {len(ops)} operators")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("mixture probabilities must be finite")
        if np.any(probs < -TOL):
            raise ValidationError("mixture probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > TOL:
            raise ValidationError(f"mixture probabilities sum to {probs.sum()}, expected 1")
        if len({op.dim for op in ops}) != 1:
            raise ShapeError("mixture operators must share one dimension")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "operators", ops)

    @classmethod
    def pure(cls, operator) -> "OperatorMixture":
        return cls(np.array([1.0]), (operator,))

    @classmethod
    def over_family(cls, family, probabilities) -> "OperatorMixture":
        """Mixture over a finite_set family, in the family's label order."""
        return cls(probabilities, tuple(m for _, m in family.operators))

    @property
    def dim(self) -> int:
        return self.operators[0].dim


def product_channel(mixtures: Sequence[OperatorMixture]) -> KrausChannel:
    """Kraus channel of independent per-player mixtures:
    ``E_(k1..kn) = sqrt(Π p_iki) · U_1k1 ⊗ ... ⊗ U_nkn``."""
    kraus = []
    for combo in itertools.product(*(range(len(m.operators)) for m in mixtures)):
        weight = float(np.prod([m.probabilities[k] for m, k in zip(mixtures, combo)]))
        if weight <= 0.0:
            continue
        joint = tensor_all([m.operators[k].matrix for m, k in zip(mixtures, combo)])
        kraus.append(np.sqrt(weight) * joint)
    return KrausChannel(np.asarray(kraus))


def _apply_mixture(rho: np.ndarray, mixture: OperatorMixture, player: int, dims: Sequence[int]) -> np.ndarray:
    """``Σ_k p_k U_k ρ U_k†`` with every ``U_k`` on ``player``'s factor of ``dims``."""
    if mixture.dim != dims[player]:
        raise ShapeError(
            f"mixture for player {player} has dimension {mixture.dim}, expected {dims[player]}"
        )
    return sum(
        p * _apply_local(rho, u.matrix, player, dims)
        for p, u in zip(mixture.probabilities, mixture.operators)
        if p > 0.0
    )


def mixed_final_state(qg: QuantumGame, mixtures: Sequence[OperatorMixture]) -> DensityMatrix:
    """The state after every player's mixture: ``ρ → Σ_k p_k U_k ρ U_k†`` on
    each player's factor in turn."""
    mixtures = list(mixtures)
    if len(mixtures) != qg.base.players:
        raise ShapeError(
            f"{len(mixtures)} mixtures for {qg.base.players} players"
        )
    rho = qg.initial_state.matrix
    for i, m in enumerate(mixtures):
        rho = _apply_mixture(rho, m, i, qg.local_dims)
    return DensityMatrix(rho)


def expected_payoffs_mixed(qg: QuantumGame, mixtures: Sequence[OperatorMixture]) -> np.ndarray:
    """Expected payoffs of a mixed quantum play (per-player unitary mixtures)."""
    return qg.payoff_vectors @ outcome_probabilities(mixed_final_state(qg, mixtures), qg.basis)


# ---------------------------------------------------------------------------
# sequential protocol
# ---------------------------------------------------------------------------

def _is_permutation_matrix(m: np.ndarray) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    near_one = np.abs(m - 1.0) <= TOL
    near_zero = np.abs(m) <= TOL
    if not np.all(near_one | near_zero):
        return False
    ones = near_one.astype(int)
    return bool(np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1))


@dataclass(frozen=True, eq=False)
class SequentialQuantumGame:
    """Turn-based play on one shared system.

    ``state_labels`` name the classical states (the measurement basis);
    ``classical_moves`` maps move names to permutation unitaries on that
    basis; ``move_schedule`` lists which player acts at each turn;
    ``payoff_vectors[i, j]`` is player ``i``'s payoff in state ``j``, the
    diagonal of their payoff operator in the state basis.
    """

    state_labels: tuple[str, ...]
    initial_state: DensityMatrix
    move_schedule: tuple[int, ...]
    classical_moves: Mapping[str, UnitaryOperator]
    payoff_vectors: np.ndarray
    player_names: tuple[str, ...] | None = None

    def __post_init__(self):
        labels = tuple(str(s) for s in self.state_labels)
        if len(set(labels)) != len(labels):
            raise ValidationError("state labels must be distinct")
        k = len(labels)
        if self.initial_state.dim != k:
            raise ShapeError(
                f"initial state dimension {self.initial_state.dim} != {k} states"
            )
        moves = {}
        for name, op in dict(self.classical_moves).items():
            u = op if isinstance(op, UnitaryOperator) else UnitaryOperator(op)
            if u.dim != k:
                raise ShapeError(f"move {name!r} has dimension {u.dim}, expected {k}")
            if not _is_permutation_matrix(u.matrix):
                raise ValidationError(
                    f"classical move {name!r} is not a permutation of the states"
                )
            moves[str(name)] = u
        payoffs = np.array(self.payoff_vectors, dtype=float)
        if payoffs.ndim != 2 or payoffs.shape[1] != k:
            raise ShapeError(
                f"state payoffs have shape {payoffs.shape}, expected (players, {k})"
            )
        if not np.all(np.isfinite(payoffs)):
            raise ValidationError("state payoffs must be finite")
        schedule = tuple(int(p) for p in self.move_schedule)
        if not schedule:
            raise ValidationError("move schedule must be nonempty")
        n = payoffs.shape[0]
        if any(p < 0 or p >= n for p in schedule):
            raise ValidationError(
                f"move schedule references players outside 0..{n - 1}"
            )
        names = self.player_names
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise ShapeError("player_names length does not match payoff count")
        payoffs.setflags(write=False)
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "classical_moves", moves)
        object.__setattr__(self, "payoff_vectors", payoffs)
        object.__setattr__(self, "move_schedule", schedule)
        object.__setattr__(self, "player_names", names)

    @property
    def dim(self) -> int:
        return len(self.state_labels)

    @property
    def players(self) -> int:
        return self.payoff_vectors.shape[0]


def build_sequential(
    state_labels: Sequence[str],
    initial_state: DensityMatrix,
    schedule: Sequence[int],
    classical_moves: Mapping[str, "UnitaryOperator | np.ndarray"],
    state_payoffs: Sequence[Sequence[float]],
    player_names: Sequence[str] | None = None,
) -> SequentialQuantumGame:
    """Assemble a sequential game from per-player payoff vectors over states.

    ``state_payoffs[i][j]`` is player ``i``'s payoff when the final
    measurement finds state ``j``.
    """
    return SequentialQuantumGame(
        tuple(state_labels),
        initial_state,
        tuple(schedule),
        dict(classical_moves),
        state_payoffs,
        tuple(player_names) if player_names is not None else None,
    )


def sequential_basis(sg: SequentialQuantumGame) -> MeasurementBasis:
    """The state-label measurement basis of a sequential game."""
    return _standard_basis(sg.state_labels)


def play_sequential(sg: SequentialQuantumGame, moves: Sequence) -> np.ndarray:
    """Expected payoffs after applying ``moves`` in schedule order.

    ``moves[t]`` is the unitary played at turn ``t`` (by player
    ``sg.move_schedule[t]``); operators compose right-to-left so the first
    move acts first: ``U = U_T ... U_2 U_1``.
    """
    moves = list(moves)
    if len(moves) != len(sg.move_schedule):
        raise ShapeError(
            f"{len(moves)} moves supplied for a schedule of length {len(sg.move_schedule)}"
        )
    total = np.eye(sg.dim, dtype=complex)
    for op in moves:
        m = op.matrix if isinstance(op, UnitaryOperator) else UnitaryOperator(op).matrix
        if m.shape[0] != sg.dim:
            raise ShapeError(f"move dimension {m.shape[0]} does not match game dimension {sg.dim}")
        total = m @ total
    probs = np.einsum("ab,ab->a", total @ sg.initial_state.matrix, total.conj()).real
    return sg.payoff_vectors @ probs
