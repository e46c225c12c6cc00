"""Finite n-player games in normal form.

Payoff tensors, pure and mixed plays, dominance, Nash equilibria and Pareto
ordering. Payoffs are stored as one real tensor per player with shape
``|S_1| x ... x |S_n|``, which keeps everything uniform for any player count.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, UnsupportedError, ValidationError
from .quantum import TOL

#: A pure play: one strategy index per player.
Play = tuple[int, ...]

#: Pareto relation labels.
A_DOMINATES = "a_dominates"
B_DOMINATES = "b_dominates"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True, eq=False)
class ClassicalGame:
    """An n-player finite game: strategy labels plus per-player payoff tensors."""

    strategy_sets: tuple[tuple[str, ...], ...]
    payoffs: tuple[np.ndarray, ...]
    player_names: tuple[str, ...] | None = None

    def __post_init__(self):
        sets = tuple(tuple(str(s) for s in strategies) for strategies in self.strategy_sets)
        if len(sets) < 2:
            raise ValidationError("a game needs at least two players")
        if any(len(s) == 0 for s in sets):
            raise ValidationError("every player needs at least one strategy")
        if any(len(set(s)) != len(s) for s in sets):
            raise ValidationError("strategy labels must be distinct per player")
        shape = tuple(len(s) for s in sets)
        tensors = []
        for i, t in enumerate(self.payoffs):
            arr = np.asarray(t, dtype=float)
            if arr.shape != shape:
                raise ShapeError(
                    f"payoff tensor for player {i} has shape {arr.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"payoff tensor for player {i} has non-finite entries")
            arr = arr.copy()
            arr.setflags(write=False)
            tensors.append(arr)
        if len(tensors) != len(sets):
            raise ShapeError(
                f"{len(sets)} strategy sets but {len(tensors)} payoff tensors"
            )
        names = self.player_names
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != len(sets):
                raise ShapeError("player_names length does not match player count")
        object.__setattr__(self, "strategy_sets", sets)
        object.__setattr__(self, "payoffs", tuple(tensors))
        object.__setattr__(self, "player_names", names)

    @property
    def players(self) -> int:
        return len(self.strategy_sets)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategy_sets)

    def plays(self) -> Iterable[Play]:
        """All pure plays in lexicographic order."""
        return itertools.product(*(range(k) for k in self.shape))

    def payoff_vector(self, play: Play) -> np.ndarray:
        play = tuple(play)
        return np.array([t[play] for t in self.payoffs])

    def play_label(self, play: Play) -> tuple[str, ...]:
        return tuple(self.strategy_sets[i][a] for i, a in enumerate(play))

    def name_of(self, player: int) -> str:
        if self.player_names is not None:
            return self.player_names[player]
        return f"player {player + 1}"


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One probability distribution over strategies per player."""

    distributions: tuple[np.ndarray, ...]

    def __post_init__(self):
        dists = []
        for i, p in enumerate(self.distributions):
            v = np.asarray(p, dtype=float).reshape(-1)
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"distribution for player {i} has non-finite entries")
            if np.any(v < -TOL):
                raise ValidationError(f"distribution for player {i} has negative entries")
            if abs(v.sum() - 1.0) > TOL:
                raise ValidationError(f"distribution for player {i} sums to {v.sum()}, expected 1")
            v = np.clip(v, 0.0, None)
            v.setflags(write=False)
            dists.append(v)
        object.__setattr__(self, "distributions", tuple(dists))

    @classmethod
    def pure(cls, game: ClassicalGame, play: Play) -> "MixedProfile":
        dists = []
        for size, a in zip(game.shape, play):
            v = np.zeros(size)
            v[a] = 1.0
            dists.append(v)
        return cls(tuple(dists))


def _check_profile(game: ClassicalGame, profile: MixedProfile) -> None:
    sizes = tuple(len(d) for d in profile.distributions)
    if sizes != game.shape:
        raise ShapeError(f"profile shape {sizes} does not match game shape {game.shape}")


def expected_payoffs(game: ClassicalGame, profile: MixedProfile) -> np.ndarray:
    """Expected payoff of every player under the product distribution."""
    _check_profile(game, profile)
    out = np.empty(game.players)
    for i, tensor in enumerate(game.payoffs):
        acc = tensor
        for p in reversed(profile.distributions):
            acc = acc @ p  # contract the last axis each time
        out[i] = acc
    return out


def dominant_strategies(game: ClassicalGame, strict: bool = False) -> tuple[int | None, ...]:
    """Per-player index of a (strictly) dominant strategy, or None.

    Payoffs within ``TOL`` count as equal. Ties in the non-strict mode
    resolve to the lowest dominant index.
    """
    result = []
    for i, tensor in enumerate(game.payoffs):
        own = np.moveaxis(tensor, i, 0)  # shape (|S_i|, rest...)
        found = None
        for d in range(own.shape[0]):
            if strict:
                others = np.delete(own, d, axis=0)
                ok = bool(np.all(own[d][None, ...] > others + TOL)) if others.size else True
            else:
                ok = bool(np.all(own[d][None, ...] >= own - TOL))
            if ok:
                found = d
                break
        result.append(found)
    return tuple(result)


def pure_nash(game: ClassicalGame, strict: bool = False) -> list[Play]:
    """All pure-strategy Nash equilibria, by exhaustive enumeration.

    A play qualifies when no unilateral deviation improves the deviating
    player by more than ``TOL`` (strict mode: every deviation hurts by more
    than ``TOL``).
    """
    mask = np.ones(game.shape, dtype=bool)
    for i, tensor in enumerate(game.payoffs):
        near_best = tensor >= tensor.max(axis=i, keepdims=True) - TOL
        mask &= near_best
        if strict:
            mask &= near_best.sum(axis=i, keepdims=True) == 1
    return [tuple(idx) for idx in np.argwhere(mask)]


def _nonempty_subsets(n: int) -> Iterable[tuple[int, ...]]:
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def _indifference_mix(
    payoff: np.ndarray, support_own: Sequence[int], support_opp: Sequence[int], tol: float
) -> np.ndarray | None:
    """Opponent mix over ``support_opp`` equalizing ``payoff`` rows in ``support_own``.

    ``payoff[i, j]`` is the optimizing player's payoff at (own i, opponent j).
    Solves the indifference + normalization system by least squares (minimum
    norm when underdetermined, which picks the symmetric representative out
    of a degenerate family). Returns the full-length mix or None if the
    system is inconsistent or infeasible.
    """
    rows = payoff[np.ix_(support_own, support_opp)]
    k = len(support_opp)
    # unknowns: mix over the support plus the common payoff value v
    system = np.zeros((len(support_own) + 1, k + 1))
    system[: len(support_own), :k] = rows
    system[: len(support_own), k] = -1.0
    system[-1, :k] = 1.0
    rhs = np.zeros(len(support_own) + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if float(np.abs(system @ solution - rhs).max()) > tol:
        return None
    mix = solution[:k]
    if np.any(mix < -tol):
        return None
    full = np.zeros(payoff.shape[1])
    full[list(support_opp)] = np.clip(mix, 0.0, None)
    total = full.sum()
    if total <= 0:
        return None
    return full / total


def _supports_are_best_responses(
    game: ClassicalGame, p: np.ndarray, q: np.ndarray,
    support_a: Sequence[int], support_b: Sequence[int], tol: float,
) -> bool:
    pay_a, pay_b = game.payoffs
    values_a = pay_a @ q        # payoff of each pure strategy of player 1
    values_b = p @ pay_b        # payoff of each pure strategy of player 2
    return bool(
        np.all(values_a[list(support_a)] >= values_a.max() - tol)
        and np.all(values_b[list(support_b)] >= values_b.max() - tol)
    )


def mixed_nash_two_player(game: ClassicalGame, tol: float = TOL) -> list[MixedProfile]:
    """Mixed Nash equilibria of a two-player game via support enumeration.

    Every support pair is solved through the opponent-indifference
    conditions and the candidate verified by a best-response check, so
    degenerate games (continua of equilibria) contribute one representative
    per support pair. Strategy sets larger than four are not supported.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    if game.players != 2:
        raise UnsupportedError("mixed equilibrium search supports exactly 2 players")
    m, n = game.shape
    if max(m, n) > 4:
        raise UnsupportedError("mixed equilibrium search supports strategy sets up to size 4")
    pay_a, pay_b = game.payoffs
    found: list[MixedProfile] = []
    seen: set[tuple] = set()
    for support_a in _nonempty_subsets(m):
        for support_b in _nonempty_subsets(n):
            q = _indifference_mix(pay_a, support_a, support_b, tol)
            if q is None:
                continue
            p = _indifference_mix(pay_b.T, support_b, support_a, tol)
            if p is None:
                continue
            if not _supports_are_best_responses(game, p, q, support_a, support_b, tol):
                continue
            key = tuple(np.round(np.concatenate([p, q]) / tol).astype(int))
            if key in seen:
                continue
            seen.add(key)
            found.append(MixedProfile((p, q)))
    found.sort(key=lambda prof: tuple(np.concatenate(prof.distributions)))
    return found


def max_pure_deviation_gain(game: ClassicalGame, profile: MixedProfile) -> float:
    """Largest payoff improvement any single player can get by a pure deviation.

    Non-positive (up to float noise) exactly when the profile is a mixed
    Nash equilibrium.
    """
    _check_profile(game, profile)
    current = expected_payoffs(game, profile)
    worst = -np.inf
    for i in range(game.players):
        tensor = np.moveaxis(game.payoffs[i], i, 0)
        others = [d for j, d in enumerate(profile.distributions) if j != i]
        acc = tensor
        for p in reversed(others):
            acc = acc @ p
        worst = max(worst, float(acc.max() - current[i]))
    return worst


def _relation_rows(vectors: np.ndarray) -> Iterator[np.ndarray]:
    """Row ``i`` holds :func:`pareto_relation` of ``vectors[i]`` against
    every row of ``vectors``; rows come one at a time, so memory stays
    linear in the number of vectors."""
    for a in vectors:
        a_covers = np.all(a >= vectors - TOL, axis=1)
        b_covers = np.all(vectors >= a - TOL, axis=1)
        yield np.where(
            a_covers,
            np.where(b_covers, EQUAL, A_DOMINATES),
            np.where(b_covers, B_DOMINATES, INCOMPARABLE),
        )


def _undominated(relations: Iterable) -> list[int]:
    """Indices of the relation rows in which no vector dominates the row's own."""
    return [i for i, row in enumerate(relations) if B_DOMINATES not in row]


def pareto_relation(payoffs_a, payoffs_b) -> str:
    """Componentwise order of two payoff vectors.

    ``equal`` when all components agree within ``TOL``; otherwise one side
    dominates when it is componentwise at least the other (within ``TOL``);
    otherwise ``incomparable``.
    """
    a = np.asarray(payoffs_a, dtype=float).reshape(-1)
    b = np.asarray(payoffs_b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"payoff vectors differ in length: {a.size} vs {b.size}")
    return str(next(_relation_rows(np.array([a, b])))[1])


def pareto_optimal_plays(game: ClassicalGame) -> list[Play]:
    """Plays whose payoff vector no other play improves for one player
    without hurting another."""
    plays = list(game.plays())
    vectors = np.stack(game.payoffs, axis=-1).reshape(len(plays), game.players)
    return [plays[i] for i in _undominated(_relation_rows(vectors))]
