"""Shared random-object builders for the test suite."""
from __future__ import annotations

import numpy as np

from typing import Mapping

from qgames.classical import ClassicalGame
from qgames.errors import UnsupportedError
from qgames.quantum import DensityMatrix, MeasurementBasis
from qgames.quantumize import OperatorMixture, QuantumGame, build_ewl, expected_payoffs_mixed
from qgames.strategies import FINITE_SET, StrategyFamily


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_projective_basis(rng: np.random.Generator, labels) -> MeasurementBasis:
    labels = list(labels)
    u = random_unitary(rng, len(labels))
    projectors = np.asarray(
        [np.outer(u[:, k], u[:, k].conj()) for k in range(len(labels))]
    )
    return MeasurementBasis.from_projectors(projectors, tuple(labels))


def random_game(
    rng: np.random.Generator,
    players: int | None = None,
    max_strategies: int = 3,
    integer_payoffs: bool = False,
) -> ClassicalGame:
    n = players if players is not None else int(rng.integers(2, 4))
    shape = tuple(int(rng.integers(2, max_strategies + 1)) for _ in range(n))
    sets = tuple(tuple(f"s{i}{a}" for a in range(k)) for i, k in enumerate(shape))
    if integer_payoffs:
        payoffs = tuple(rng.integers(-3, 4, size=shape).astype(float) for _ in range(n))
    else:
        payoffs = tuple(rng.uniform(-5, 5, size=shape) for _ in range(n))
    return ClassicalGame(sets, payoffs)


def random_quantum_game(rng: np.random.Generator, players: int | None = None) -> QuantumGame:
    """A random base game with a random state and a random orthonormal basis."""
    game = random_game(rng, players)
    dim = int(np.prod(game.shape))
    basis = random_projective_basis(rng, list(game.plays()))
    return build_ewl(game, random_density(rng, dim), basis)


def _vertex_payoffs(
    qg: QuantumGame,
    player: int,
    others: Mapping[int, OperatorMixture],
    operator_set: StrategyFamily,
) -> np.ndarray:
    """Oracle: ``player``'s payoff at each menu operator, each from a full
    mixed evolution of the state."""
    if operator_set.kind != FINITE_SET:
        raise UnsupportedError("vertex enumeration needs a finite operator set")
    values = []
    for _, op in operator_set.operators:
        mixtures = []
        for j in range(qg.base.players):
            if j == player:
                mixtures.append(OperatorMixture.pure(op))
            else:
                mixtures.append(others[j])
        values.append(expected_payoffs_mixed(qg, mixtures)[player])
    return np.asarray(values)
