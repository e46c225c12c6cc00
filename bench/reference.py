"""Plain numpy references the benchmark checks qgames' answers against.

Nothing here imports qgames: payoffs and outcome distributions come from a
state-vector ``tensordot`` contraction, and the classical solution concepts
from brute-force enumeration over all plays. Every check returns a list of
problems; an empty list means the answer matched.
"""
from __future__ import annotations

import itertools

import numpy as np

#: Absolute tolerance for every numeric comparison against a reference.
TOL = 1e-9

#: How many seeded family points a best-response value must beat.
FAMILY_POINTS = 256


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed pure state vector (generically entangled)."""
    return random_unitary(rng, dim)[:, 0]


def ghz(players: int) -> np.ndarray:
    psi = np.zeros(2 ** players, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2.0)
    return psi


def family_point(rng: np.random.Generator, kind: str) -> tuple[float, ...]:
    """Uniform point of a parameterized qubit family, inside its ranges."""
    theta = float(rng.uniform(0.0, np.pi))
    if kind == "one_param":
        return (theta,)
    if kind == "two_param":
        return (theta, float(rng.uniform(0.0, np.pi / 2)))
    return (theta, float(rng.uniform(0.0, 2 * np.pi)), float(rng.uniform(0.0, 2 * np.pi)))


def family_matrix(point) -> np.ndarray:
    """u(θ, φ, λ) of the one-, two- and three-parameter families."""
    theta, phi, lam = (tuple(point) + (0.0, 0.0))[:3]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [np.exp(1j * phi) * c, np.exp(-1j * lam) * s],
            [-np.exp(1j * lam) * s, np.exp(-1j * phi) * c],
        ]
    )


# ---------------------------------------------------------------------------
# quantum references
# ---------------------------------------------------------------------------

def evolve(psi: np.ndarray, unitaries, dims) -> np.ndarray:
    """Apply one local unitary per subsystem to a state vector."""
    t = np.asarray(psi, dtype=complex).reshape(dims)
    for axis, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def pure_probabilities(psi, unitaries, dims, basis=None) -> np.ndarray:
    """Outcome probabilities in play order; ``basis`` columns are the
    measurement vectors (computational basis when None)."""
    out = evolve(psi, unitaries, dims)
    amps = out if basis is None else basis.conj().T @ out
    return np.abs(amps) ** 2


def mixed_probabilities(psi, mixtures, dims, basis=None) -> np.ndarray:
    """Outcome probabilities of independent per-player unitary mixtures,
    ``mixtures[i] = (weights, unitaries)``."""
    total = np.zeros(int(np.prod(dims)))
    for combo in itertools.product(*(range(len(w)) for w, _ in mixtures)):
        weight = np.prod([mixtures[i][0][k] for i, k in enumerate(combo)])
        units = [mixtures[i][1][k] for i, k in enumerate(combo)]
        total += weight * pure_probabilities(psi, units, dims, basis)
    return total


def expected(probabilities, payoff_tensors) -> np.ndarray:
    return np.array([float(probabilities @ np.asarray(t).reshape(-1)) for t in payoff_tensors])


def close(label: str, actual, wanted, tol: float = TOL) -> list[str]:
    actual = np.asarray(actual, dtype=float)
    wanted = np.asarray(wanted, dtype=float)
    if actual.shape != wanted.shape or not np.all(np.abs(actual - wanted) <= tol):
        return [f"{label}: got {actual.tolist()}, reference {wanted.tolist()}"]
    return []


# ---------------------------------------------------------------------------
# classical references (brute force over all plays)
# ---------------------------------------------------------------------------

def plays(shape):
    return list(itertools.product(*(range(k) for k in shape)))


def pure_nash(tensors) -> list[tuple[int, ...]]:
    shape = tensors[0].shape
    found = []
    for play in plays(shape):
        stable = True
        for i, t in enumerate(tensors):
            for a in range(shape[i]):
                dev = play[:i] + (a,) + play[i + 1:]
                if t[dev] > t[play]:
                    stable = False
        if stable:
            found.append(play)
    return found


def pareto_optimal(tensors) -> list[tuple[int, ...]]:
    vectors = {p: np.array([t[p] for t in tensors]) for p in plays(tensors[0].shape)}
    return [
        p
        for p, v in vectors.items()
        if not any(np.all(w >= v) and np.any(w > v) for q, w in vectors.items() if q != p)
    ]


def dominant(tensors) -> list[int | None]:
    """Lowest weakly dominant strategy per player, or None."""
    shape = tensors[0].shape
    result = []
    for i, t in enumerate(tensors):
        found = None
        for d in range(shape[i]):
            if all(
                t[p[:i] + (d,) + p[i + 1:]] >= t[p] for p in plays(shape)
            ):
                found = d
                break
        result.append(found)
    return result


def pareto_relation(a, b) -> str:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.all(np.abs(a - b) <= TOL):
        return "equal"
    if np.all(a >= b - TOL):
        return "a_dominates"
    if np.all(b >= a - TOL):
        return "b_dominates"
    return "incomparable"


def bimatrix_deviation_gain(tensors, p, q) -> float:
    """Largest pure-deviation gain of a two-player mixed profile (p, q)."""
    a, b = np.asarray(tensors[0]), np.asarray(tensors[1])
    value_a, value_b = p @ a @ q, p @ b @ q
    return float(max((a @ q).max() - value_a, (p @ b).max() - value_b))
