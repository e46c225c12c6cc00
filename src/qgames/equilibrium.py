"""Exact best responses and equilibrium certification for quantum games.

A player's payoff, with the other players' unitaries or mixtures held
fixed, is a quartic form in their own local operator U:

    payoff(U) = Σ U[a,b]·conj(U[c,d])·T[a,b,c,d]
    T[a,b,c,d] = Tr[e_ab σ e_cd† π̂]

where σ is the start ρ after every other player's unitary or mixture and
e_ab acts on the player's own factor. One form serves both certifiers: a
finite operator menu is read at its vertices (the payoff is affine in the
player's own mixture, so some menu operator is a best response), and an
SU(2) family is searched as below.

On a qubit every strategy family lies in SU(2). Writing
U = x0·I + x1·iZ + x2·iY + x3·iX = [[α, β], [−β*, α*]] with the unit real
4-vector x = (Re α, Im α, Re β, Im β) turns the payoff into a real quadratic
form xᵀMx, so a best response is an eigenvalue problem: over all of SU(2)
(three_param) it is the top eigenvector of M. The smaller families pin x to
the nonnegative orthant of some coordinates (two_param: x0, x1, x2 ≥ 0,
x3 = 0; one_param: x0, x2 ≥ 0, x1 = x3 = 0). There the maximizer is a
positive eigenvector of the principal submatrix of M on its own support,
so enumerating the faces of the orthant finds it; an eigenvalue shared by
several eigenvectors attains the same value on a smaller face.

Certification is an ε-test: a profile is certified when no player's best
response improves on the profile payoff by more than ε; refutation demands
a gain above 10ε so borderline profiles flap in neither direction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .classical import pareto_relation
from .errors import ParameterError, ShapeError, UnsupportedError
from .quantum import TOL, DensityMatrix, UnitaryOperator, dagger
from .quantumize import (
    OperatorMixture,
    QuantumGame,
    _apply_mixture,
    expected_payoffs_mixed,
)
from .strategies import (
    FINITE_SET,
    ONE_PARAM,
    THREE_PARAM,
    TWO_PARAM,
    ParamPoint,
    StrategyFamily,
    param_unitary,
    unitary_matrix,
)

#: Columns are vec(I), vec(iZ), vec(iY), vec(iX): U = Σ_k x_k·basis_k.
_SU2_BASIS = np.stack(
    [
        np.eye(2),
        np.diag([1j, -1j]),
        np.array([[0, 1], [-1, 0]]),
        np.array([[0, 1j], [1j, 0]]),
    ],
    axis=-1,
).reshape(4, 4)
#: Coordinates of x that a family may set; all of them are nonnegative.
_ORTHANT_COORDS = {ONE_PARAM: (0, 2), TWO_PARAM: (0, 1, 2)}
_FACE_TOL = 1e-12
_TIE_MARGIN = 1e-13


def _require_epsilon(epsilon: float) -> None:
    """Refuse a certification threshold ε that is not positive and finite."""
    if not 0 < epsilon < np.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an ε-Nash check."""

    profile: tuple
    payoffs: tuple[float, ...]
    certified: bool
    max_unilateral_gain: float
    epsilon: float
    gains: tuple[float, ...]
    best_responses: tuple
    pareto_flags: dict[str, str] = field(default_factory=dict)

    @property
    def refuted(self) -> bool:
        """A confident negative: some player gains more than 10ε."""
        return self.max_unilateral_gain > 10.0 * self.epsilon


class _LocalPayoff:
    """One player's payoff as a quartic form in their local operator, after
    the other players' unitaries, bare matrices or ``OperatorMixture``s."""

    def __init__(self, qg: QuantumGame, player: int, others: Mapping[int, object]):
        n = qg.base.players
        rho = qg.initial_state.matrix
        for j in range(n):
            if j == player:
                continue
            if j not in others:
                raise ShapeError(f"missing fixed strategy for player {j}")
            m = others[j]
            m = m if isinstance(m, OperatorMixture) else OperatorMixture.pure(m)
            rho = _apply_mixture(rho, m, j, qg.local_dims)
        # with σ the state after the other players' moves and the player's
        # ket and bra axes moved to the front, T[a,b,c,d] = Tr[e_ab σ e_cd† π̂]
        # = Σ_{X,Y} σ[(b,X),(d,Y)]·π̂[(c,Y),(a,X)]
        d = qg.local_dims[player]
        v = qg.basis.unitary
        pihat = (v * qg.payoff_vectors[player]) @ dagger(v)
        front, shape = (player, n + player), (d, d, qg.dim // d, qg.dim // d)
        rho = np.moveaxis(rho.reshape(qg.local_dims * 2), front, (0, 1)).reshape(shape)
        pihat = np.moveaxis(pihat.reshape(qg.local_dims * 2), front, (0, 1)).reshape(shape)
        self.player = player
        self.dim = d
        self.coeff = np.einsum("bdxy,cayx->abcd", rho, pihat)

    def value(self, u: np.ndarray) -> float:
        return float(np.einsum("ab,cd,abcd->", u, u.conj(), self.coeff).real)

    def values(self, us: np.ndarray) -> np.ndarray:
        return np.einsum("gab,gcd,abcd->g", us, us.conj(), self.coeff).real


def _orthant_argmax(form: np.ndarray, coords: tuple[int, ...]) -> np.ndarray:
    """Maximizer of xᵀ·form·x over unit x ≥ 0 supported on ``coords``.

    The maximizer is a positive eigenvector of the principal submatrix on
    its own support, so every face of the orthant is tried in turn.
    """
    best, best_x = -np.inf, None
    for size in range(1, len(coords) + 1):
        for support in combinations(coords, size):
            idx = list(support)
            vals, vecs = np.linalg.eigh(form[np.ix_(idx, idx)])
            for val, v in zip(vals, vecs.T):
                if v.sum() < 0:
                    v = -v
                if v.min() < -_FACE_TOL or val <= best + _TIE_MARGIN:
                    continue
                best, best_x = val, np.zeros(4)
                best_x[idx] = np.clip(v, 0.0, None)
    return best_x


def _half_open_period(angle: float) -> float:
    # a tiny negative angle rounds up to 2π, which the range excludes
    angle %= 2 * np.pi
    return angle if angle < 2 * np.pi else 0.0


def _point_from_vector(family: StrategyFamily, x: np.ndarray) -> ParamPoint:
    alpha, beta = complex(x[0], x[1]), complex(x[2], x[3])
    theta = 2.0 * float(np.arctan2(abs(beta), abs(alpha)))
    if family.kind == ONE_PARAM:
        return (theta,)
    phi = float(np.angle(alpha)) if abs(alpha) >= 1e-15 else 0.0
    if family.kind == TWO_PARAM:
        return (theta, min(max(phi, 0.0), np.pi / 2))
    lam = -float(np.angle(beta)) if abs(beta) >= 1e-15 else 0.0
    return (theta, _half_open_period(phi), _half_open_period(lam))


def _check_dim(form: _LocalPayoff, family: StrategyFamily) -> None:
    if family.dim != form.dim:
        raise ShapeError(
            f"family dimension {family.dim} does not match player "
            f"{form.player}'s subsystem dimension {form.dim}"
        )


def _su2_response(form: _LocalPayoff, family: StrategyFamily) -> tuple[ParamPoint, float]:
    if family.kind == FINITE_SET:
        raise UnsupportedError(
            "best_response searches parameterized families; "
            "use best_response_mixed_finite for finite operator sets"
        )
    _check_dim(form, family)
    m = _SU2_BASIS.T @ form.coeff.reshape(4, 4) @ _SU2_BASIS.conj()
    m = ((m + m.T) / 2).real
    if family.kind == THREE_PARAM:
        x = np.linalg.eigh(m)[1][:, -1]
        if x[np.flatnonzero(np.abs(x) > _FACE_TOL)[0]] < 0:
            x = -x
    else:
        x = _orthant_argmax(m, _ORTHANT_COORDS[family.kind])
    point = _point_from_vector(family, x)
    return point, form.value(unitary_matrix(family, point))


def _finite_response(form: _LocalPayoff, operator_set: StrategyFamily) -> tuple[np.ndarray, float]:
    """The uniform mixture over the menu operators within ``TOL`` of the
    best one, and that best payoff. The payoff is affine in the player's
    own mixture, so some vertex is always optimal."""
    if operator_set.kind != FINITE_SET:
        raise UnsupportedError("vertex enumeration needs a finite operator set")
    _check_dim(form, operator_set)
    values = form.values(np.array([m for _, m in operator_set.operators]))
    top = values.max()
    optimal = values >= top - TOL
    out = np.zeros(len(values))
    out[optimal] = 1.0 / optimal.sum()
    return out, top


def _certify(qg: QuantumGame, mixtures: list[OperatorMixture], respond: Callable[[int, _LocalPayoff], tuple],
             profile_echo: tuple, epsilon: float, reference: Sequence) -> EquilibriumReport:
    """ε-test of a profile of mixtures: ``respond(i, form)`` returns player
    i's best response and its payoff, given i's form after the others'
    mixtures. ``profile_echo`` is the profile as the report shows it."""
    _require_epsilon(epsilon)
    payoffs = expected_payoffs_mixed(qg, mixtures)
    n = qg.base.players
    gains, responses = [], []
    for i in range(n):
        form = _LocalPayoff(qg, i, {j: mixtures[j] for j in range(n) if j != i})
        response, value = respond(i, form)
        gains.append(float(value - payoffs[i]))
        responses.append(tuple(response))
    max_gain = max(gains)
    flags = {
        str(label): pareto_relation(payoffs, np.asarray(ref, dtype=float))
        for label, ref in reference
    }
    return EquilibriumReport(
        profile=profile_echo,
        payoffs=tuple(float(v) for v in payoffs),
        certified=max_gain <= epsilon,
        max_unilateral_gain=max_gain,
        epsilon=epsilon,
        gains=tuple(gains),
        best_responses=tuple(responses),
        pareto_flags=flags,
    )


def best_response(
    qg: QuantumGame,
    player: int,
    others: Mapping[int, "UnitaryOperator | np.ndarray | OperatorMixture"],
    family: StrategyFamily,
) -> tuple[ParamPoint, float]:
    """Best parameter point for ``player`` with the other players' unitaries
    or mixtures fixed.

    Exact: the payoff is the quadratic form xᵀMx in the player's SU(2)
    coordinates x (module docstring). three_param takes the top eigenvector
    of M; two_param and one_param take the best eigenvector of a principal
    submatrix that lies in their orthant. The returned value is the payoff
    evaluated at the returned point.

    Ties are broken deterministically. three_param makes the first
    component of x with magnitude above 1e-12 positive. two_param and
    one_param try supports by size, then lexicographically, and each
    submatrix's eigenvectors in ascending eigenvalue order; a later
    candidate replaces the incumbent only when better by more than 1e-13.
    """
    return _su2_response(_LocalPayoff(qg, player, others), family)


def verify_nash(
    qg: QuantumGame,
    profile: Sequence[ParamPoint],
    family: StrategyFamily,
    epsilon: float = 1e-6,
    reference: Sequence[tuple[str, Sequence[float]]] = (),
) -> EquilibriumReport:
    """ε-Nash check of a parameterized profile.

    Takes every player's exact best response with the rest of the profile
    held fixed; certifies when the largest unilateral gain is at most
    ``epsilon``. ``reference`` entries (label, payoff vector) are
    Pareto-compared against the profile payoffs.
    """
    mixtures = [OperatorMixture.pure(param_unitary(family, point)) for point in profile]
    return _certify(
        qg, mixtures, lambda i, form: _su2_response(form, family),
        tuple(tuple(p) for p in profile), epsilon, reference,
    )


# ---------------------------------------------------------------------------
# finite operator sets (mixtures)
# ---------------------------------------------------------------------------

def best_response_mixed_finite(
    qg: QuantumGame,
    player: int,
    others: Mapping[int, OperatorMixture],
    operator_set: StrategyFamily,
) -> np.ndarray:
    """Best mixture over a finite operator set against fixed opponent mixtures.

    The expected payoff is affine in the player's own mixture, so some pure
    operator (a vertex) is always optimal; ties return the uniform
    distribution over all optimal vertices.
    """
    return _finite_response(_LocalPayoff(qg, player, others), operator_set)[0]


def verify_nash_mixed_finite(
    qg: QuantumGame,
    mixtures: Sequence[OperatorMixture],
    operator_sets: Sequence[StrategyFamily],
    epsilon: float = 1e-6,
    reference: Sequence[tuple[str, Sequence[float]]] = (),
) -> EquilibriumReport:
    """ε-Nash check of a mixed profile over finite operator sets.

    Affinity in each player's own mixture means the best deviation is a
    vertex, so per-player gains come from the form's vertex values alone.
    """
    mixtures = list(mixtures)
    return _certify(
        qg, mixtures, lambda i, form: _finite_response(form, operator_sets[i]),
        tuple(tuple(m.probabilities) for m in mixtures), epsilon, reference,
    )


# ---------------------------------------------------------------------------
# analytic forcing response (two maximally entangled qubits)
# ---------------------------------------------------------------------------

def _pure_vector(rho: DensityMatrix, tol: float = 1e-9) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho.matrix)
    if vals[-1] < 1.0 - tol:
        raise UnsupportedError("state is not pure")
    return vecs[:, -1]


def _entangling_factor(vector: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """K with |v⟩ = (I ⊗ K)|Φ⁺⟩ for a maximally entangled 2-qubit vector."""
    psi = np.asarray(vector, dtype=complex).reshape(2, 2)
    k = np.sqrt(2.0) * psi.T
    if float(np.abs(dagger(k) @ k - np.eye(2)).max()) > tol:
        raise UnsupportedError("state is not maximally entangled")
    return k


def forcing_response(qg: QuantumGame, player: int, opponent) -> np.ndarray:
    """Closed-form local response that steers the game onto ``player``'s best play.

    For a two-player game on qubits with a maximally entangled pure initial
    state and a maximally entangled basis vector on the player's
    highest-payoff play, the transpose identity
    ``(A ⊗ B)|Φ⁺⟩ = (A Bᵀ ⊗ I)|Φ⁺⟩`` pins down the unique local unitary
    (up to phase) mapping the initial state onto that basis direction, no
    matter what the opponent plays. Returns the 2x2 response matrix.
    """
    if qg.base.players != 2 or qg.local_dims != (2, 2):
        raise UnsupportedError("forcing responses cover two-qubit games only")
    opp = opponent.matrix if isinstance(opponent, UnitaryOperator) else np.asarray(opponent, dtype=complex)
    psi_in = _pure_vector(qg.initial_state)
    best_play = max(
        qg.basis.labels, key=lambda play: qg.base.payoffs[player][play]
    )
    target = qg.basis.unitary[:, qg.basis.labels.index(best_play)]
    start_factor = _entangling_factor(psi_in)
    target_factor = _entangling_factor(target)
    if player == 1:
        return target_factor @ opp.conj() @ dagger(start_factor)
    return target_factor.T @ opp.conj() @ start_factor.conj()


# ---------------------------------------------------------------------------
# Pareto analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoReport:
    labels: tuple[str, ...]
    relations: tuple[tuple[str, ...], ...]
    optimal: tuple[str, ...]


def pareto_report(entries: Sequence[tuple[str, Sequence[float]]]) -> ParetoReport:
    """Pairwise Pareto relations and the undominated subset of labelled
    payoff vectors."""
    labels = tuple(str(label) for label, _ in entries)
    vectors = [np.asarray(v, dtype=float).reshape(-1) for _, v in entries]
    if len({v.size for v in vectors}) > 1:
        raise ShapeError("payoff vectors must share one length")
    matrix = tuple(
        tuple(pareto_relation(a, b) for b in vectors) for a in vectors
    )
    optimal = []
    for i, v in enumerate(vectors):
        dominated = any(
            np.all(w >= v) and np.any(w > v)
            for j, w in enumerate(vectors)
            if j != i
        )
        if not dominated:
            optimal.append(labels[i])
    return ParetoReport(labels, matrix, tuple(optimal))
