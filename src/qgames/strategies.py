"""Parameterized single-qubit strategy families and classical embeddings.

The one-, two- and three-parameter families share the rotation matrix

    u(θ, φ, λ) = [[ e^{iφ} cos(θ/2),  e^{-iλ} sin(θ/2)],
                  [-e^{iλ} sin(θ/2),  e^{-iφ} cos(θ/2)]]

with the smaller families obtained by pinning λ = 0 (two-parameter) and
additionally φ = 0 (one-parameter). θ ranges over [0, π]; the two-parameter
φ over [0, π/2]; the three-parameter φ and λ over the half-open period
[0, 2π), which covers the whole special-unitary family.

``finite_set`` families hold explicit labelled unitaries instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .quantum import TOL, UnitaryOperator, as_complex_matrix, is_unitary

ONE_PARAM = "one_param"
TWO_PARAM = "two_param"
THREE_PARAM = "three_param"
FINITE_SET = "finite_set"

PARAM_KINDS = (ONE_PARAM, TWO_PARAM, THREE_PARAM)

#: A strategy parameter point, in radians.
ParamPoint = tuple[float, ...]

_SQRT2 = float(np.sqrt(2.0))

IDENTITY = np.eye(2, dtype=complex)
FLIP = np.array([[0, 1], [1, 0]], dtype=complex)          # coin flip / bit flip
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
COOPERATE = IDENTITY                                       # u(0, 0)
DEFECT = np.array([[0, 1], [-1, 0]], dtype=complex)        # u(π, 0)
QUANTUM_MOVE = np.diag([1j, -1j])                          # u(0, π/2)

for _m in (IDENTITY, FLIP, HADAMARD, DEFECT, QUANTUM_MOVE):
    _m.setflags(write=False)


@dataclass(frozen=True)
class ParameterRange:
    lo: float
    hi: float
    include_hi: bool = True
    periodic: bool = False

    def contains(self, x: float) -> bool:
        if self.include_hi:
            return self.lo - TOL <= x <= self.hi + TOL
        return self.lo - TOL <= x < self.hi

    def axis(self, resolution: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, resolution, endpoint=self.include_hi)


_RANGES = {
    ONE_PARAM: (ParameterRange(0.0, np.pi),),
    TWO_PARAM: (ParameterRange(0.0, np.pi), ParameterRange(0.0, np.pi / 2)),
    THREE_PARAM: (
        ParameterRange(0.0, np.pi),
        ParameterRange(0.0, 2 * np.pi, include_hi=False, periodic=True),
        ParameterRange(0.0, 2 * np.pi, include_hi=False, periodic=True),
    ),
}


@dataclass(frozen=True, eq=False)
class StrategyFamily:
    """A parameterized unitary family, or a finite labelled operator set."""

    kind: str
    operators: tuple[tuple[str, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.kind in PARAM_KINDS:
            if self.operators:
                raise ParameterError(f"{self.kind} family takes no explicit operators")
            return
        if self.kind != FINITE_SET:
            raise ParameterError(f"unknown strategy family kind {self.kind!r}")
        if not self.operators:
            raise ParameterError("finite_set family needs at least one operator")
        pairs = []
        dim = None
        for label, op in self.operators:
            m = as_complex_matrix(op)
            if m.shape[0] != m.shape[1]:
                raise ShapeError(f"operator {label!r} is not square")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ShapeError("finite_set operators must share one dimension")
            if not is_unitary(m):
                raise ParameterError(f"operator {label!r} is not unitary")
            m = m.copy()
            m.setflags(write=False)
            pairs.append((str(label), m))
        if len({label for label, _ in pairs}) != len(pairs):
            raise ParameterError("finite_set labels must be distinct")
        object.__setattr__(self, "operators", tuple(pairs))

    @classmethod
    def one_param(cls) -> "StrategyFamily":
        return cls(ONE_PARAM)

    @classmethod
    def two_param(cls) -> "StrategyFamily":
        return cls(TWO_PARAM)

    @classmethod
    def three_param(cls) -> "StrategyFamily":
        return cls(THREE_PARAM)

    @classmethod
    def finite(cls, pairs) -> "StrategyFamily":
        return cls(FINITE_SET, tuple(pairs))

    @property
    def arity(self) -> int:
        if self.kind == FINITE_SET:
            raise ParameterError("finite_set family has no parameter arity")
        return {ONE_PARAM: 1, TWO_PARAM: 2, THREE_PARAM: 3}[self.kind]

    @property
    def ranges(self) -> tuple[ParameterRange, ...]:
        if self.kind == FINITE_SET:
            raise ParameterError("finite_set family has no parameter ranges")
        return _RANGES[self.kind]

    @property
    def labels(self) -> tuple[str, ...]:
        if self.kind != FINITE_SET:
            raise ParameterError(f"{self.kind} family has no operator labels")
        return tuple(label for label, _ in self.operators)

    @property
    def dim(self) -> int:
        if self.kind == FINITE_SET:
            return self.operators[0][1].shape[0]
        return 2

    def operator(self, label: str) -> np.ndarray:
        for name, m in self.operators:
            if name == label:
                return m
        raise ParameterError(f"no operator labelled {label!r} in this family")


def _full_params(family: StrategyFamily, point: Sequence[float]) -> tuple[float, float, float]:
    values = tuple(float(v) for v in point)
    if len(values) != family.arity:
        raise ParameterError(
            f"{family.kind} point needs {family.arity} value(s), got {len(values)}"
        )
    for v, rng in zip(values, family.ranges):
        if not rng.contains(v):
            bracket = "]" if rng.include_hi else ")"
            raise ParameterError(
                f"parameter {v} outside range [{rng.lo}, {rng.hi}{bracket}"
            )
    theta = values[0]
    phi = values[1] if len(values) > 1 else 0.0
    lam = values[2] if len(values) > 2 else 0.0
    return theta, phi, lam


def unitary_matrix(family: StrategyFamily, point: Sequence[float]) -> np.ndarray:
    """Bare 2x2 matrix of the family member at ``point``."""
    theta, phi, lam = _full_params(family, point)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [np.exp(1j * phi) * c, np.exp(-1j * lam) * s],
            [-np.exp(1j * lam) * s, np.exp(-1j * phi) * c],
        ]
    )


def batch_unitaries(family: StrategyFamily, points: np.ndarray) -> np.ndarray:
    """Matrices for a (N, arity) block of parameter points, shape (N, 2, 2).

    Range checks are skipped; intended for search grids already in range.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    theta = pts[:, 0]
    phi = pts[:, 1] if pts.shape[1] > 1 else np.zeros(len(pts))
    lam = pts[:, 2] if pts.shape[1] > 2 else np.zeros(len(pts))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = np.empty((len(pts), 2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(1j * phi) * c
    out[:, 0, 1] = np.exp(-1j * lam) * s
    out[:, 1, 0] = -np.exp(1j * lam) * s
    out[:, 1, 1] = np.exp(-1j * phi) * c
    return out


def param_unitary(family: StrategyFamily, point: Sequence[float]) -> UnitaryOperator:
    """Family member at ``point`` as a validated unitary."""
    return UnitaryOperator(unitary_matrix(family, point))


def classical_embedding(family: StrategyFamily, label: str) -> UnitaryOperator:
    """Unitary realizing a classical strategy label within the family.

    Finite families resolve labels directly; the parameterized families
    recognize the endpoint strategies "C" (θ = 0) and "D" (θ = π).
    """
    if family.kind == FINITE_SET:
        return UnitaryOperator(family.operator(label))
    endpoints = {"C": (0.0,), "D": (float(np.pi),)}
    if label not in endpoints:
        raise ParameterError(f"unknown classical strategy label {label!r}")
    point = endpoints[label] + (0.0,) * (family.arity - 1)
    return param_unitary(family, point)


def parameter_grid(family: StrategyFamily, resolution: int) -> np.ndarray:
    """Uniform (resolution^arity, arity) grid over the family ranges.

    Closed ranges include both endpoints; half-open ranges drop the right
    endpoint so periodic coordinates contribute no duplicate point.
    """
    if family.kind == FINITE_SET:
        raise ParameterError("finite_set family has no parameter grid")
    if resolution < 2:
        raise ParameterError("grid resolution must be at least 2")
    axes = [rng.axis(resolution) for rng in family.ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
