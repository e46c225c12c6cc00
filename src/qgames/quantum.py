"""Complex linear algebra for finite-dimensional quantum systems.

States, projective measurement, unitary evolution, Kraus channels and
composite systems, built on plain numpy complex matrices. A rank-one
measurement basis is stored as the unitary whose columns are its vectors,
so checking it costs one D×D product and measuring costs diag(V†ρV).
Composite dimensions go up to ``DIM_CAP``; callers that act on one tensor
factor at a time (``quantumize``) never form the D×D Kronecker products.

All values are immutable after construction and every operation is a pure
function of its inputs; outcome sampling threads an explicit generator.
Values can therefore be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ChannelError,
    DimensionLimitError,
    ShapeError,
    ValidationError,
)

#: Default absolute tolerance for all invariant checks, overridable per call.
TOL = 1e-9

#: Default cap on composite dimensions: tensor products and the play count
#: of a quantumized game.
DIM_CAP = 4096


def as_complex_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a finite 2-D complex ndarray."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {m.ndim} dimension(s)")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# operations on bare matrices
# ---------------------------------------------------------------------------

def tensor_product(a, b, *, dim_cap: int = DIM_CAP) -> np.ndarray:
    """Kronecker product with ``a`` as the slower-varying (most significant)
    index block.

    Raises :class:`DimensionLimitError` if the product dimension would exceed
    ``dim_cap``.
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if max(rows, cols) > dim_cap:
        raise DimensionLimitError(
            f"tensor product dimension {max(rows, cols)} exceeds cap {dim_cap}"
        )
    return np.kron(a, b)


def tensor_all(mats: Sequence[np.ndarray], *, dim_cap: int = DIM_CAP) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices."""
    if not mats:
        raise ShapeError("tensor_all needs at least one factor")
    out = as_complex_matrix(mats[0])
    for m in mats[1:]:
        out = tensor_product(out, m, dim_cap=dim_cap)
    return out


def _require_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {m.shape}")
    return m


def _gram_defect(m: np.ndarray) -> tuple[float, int, int]:
    """Largest entry of ``|m†m − I|`` and its position."""
    dev = np.abs(dagger(m) @ m - np.eye(m.shape[1]))
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[i, j]), int(i), int(j)


def is_unitary(m, tol: float = TOL) -> bool:
    """True iff ``m†m`` deviates from the identity by at most ``tol`` per entry."""
    return _gram_defect(_require_square(m))[0] <= tol


def is_hermitian(m, tol: float = TOL) -> bool:
    m = _require_square(m)
    return float(np.abs(m - dagger(m)).max()) <= tol


def commutator_norm(a, b) -> float:
    """Max-entry magnitude of ``ab - ba``."""
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ShapeError(f"commutator needs equal shapes, got {a.shape} and {b.shape}")
    return float(np.abs(a @ b - b @ a).max())


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PureState:
    """Normalised state vector of a finite-dimensional system."""

    amplitudes: np.ndarray
    tol: InitVar[float] = TOL

    def __post_init__(self, tol):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size == 0:
            raise ShapeError("state vector must be non-empty")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("state amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > tol:
            raise ValidationError(f"state vector norm² is {norm}, expected 1")
        object.__setattr__(self, "amplitudes", _frozen(amps.reshape(-1)))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> "DensityMatrix":
        """|ψ⟩⟨ψ| as a density matrix."""
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one operator."""

    matrix: np.ndarray
    tol: InitVar[float] = TOL

    def __post_init__(self, tol):
        m = _require_square(self.matrix, "density matrix")
        if not is_hermitian(m, tol):
            raise ValidationError("density matrix must be Hermitian")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > tol:
            raise ValidationError(f"density matrix trace is {trace}, expected 1")
        smallest = float(np.linalg.eigvalsh(m).min())
        if smallest < -tol:
            raise ValidationError(
                f"density matrix has negative eigenvalue {smallest}"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, amplitudes, tol: float = TOL) -> "DensityMatrix":
        return PureState(amplitudes, tol).to_density()


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Square matrix with ``u†u = I`` within tolerance."""

    matrix: np.ndarray
    tol: InitVar[float] = TOL

    def __post_init__(self, tol):
        m = _require_square(self.matrix, "unitary")
        dev = _gram_defect(m)[0]
        if dev > tol:
            raise ValidationError(
                f"operator is not unitary: max |U†U − I| = {dev:.3g} > tol {tol:g}"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _operator_matrix(op) -> np.ndarray:
    """Accept either a wrapped operator or a bare matrix."""
    return op.matrix if hasattr(op, "matrix") else as_complex_matrix(op)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Rank-one projective measurement with distinct outcome labels.

    ``unitary`` is a d×d unitary V whose column ``k`` is the measurement
    vector of outcome ``labels[k]``; its projector is ``|v_k⟩⟨v_k|``. Labels
    may be any hashable values (plays of a game are tuples of strategy
    indices).
    """

    unitary: np.ndarray
    labels: tuple
    tol: InitVar[float] = TOL

    def __post_init__(self, tol):
        v = _require_square(self.unitary, "basis unitary")
        labels = tuple(self.labels)
        if len(labels) != v.shape[1]:
            raise ShapeError(f"{v.shape[1]} basis vectors but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValidationError("outcome labels must be distinct")
        dev, i, j = _gram_defect(v)
        if dev > tol:
            raise ValidationError(
                f"basis vectors are not orthonormal: "
                f"|(V†V − I)[{i},{j}]| = {dev:.3g} > tol {tol:g}"
            )
        object.__setattr__(self, "unitary", _frozen(v))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_projectors(cls, projectors, labels, tol: float = TOL) -> "MeasurementBasis":
        """The basis of a complete set of rank-one projectors, one per label.

        Each vector is read off its projector's column with the largest
        diagonal entry, and must rebuild the projector, whose trace is 1,
        within ``tol``.
        """
        stack = np.asarray(projectors, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ShapeError(f"projectors: expected a (k, d, d) stack, got shape {stack.shape}")
        k, d, _ = stack.shape
        if k != d:
            raise ValidationError(
                f"projectors: {k} given in dimension {d}; a complete rank-one set has {d}"
            )
        vectors = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(stack):
            col = int(np.argmax(p.diagonal().real))
            weight = p[col, col].real
            if weight > 0:
                vectors[:, i] = p[:, col] / np.sqrt(weight)
            dev = float(np.abs(np.outer(vectors[:, i], vectors[:, i].conj()) - p).max())
            dev = max(dev, abs(complex(np.trace(p)) - 1.0))
            if dev > tol:
                raise ValidationError(
                    f"projectors[{i}]: not a rank-one projector, "
                    f"max(|v v† − Π|, |Tr Π − 1|) = {dev:.3g} > tol {tol:g}"
                )
        dev, i, j = _gram_defect(vectors)
        if dev > tol:
            raise ValidationError(
                f"projectors[{max(i, j)}]: not orthonormal, "
                f"|(V†V − I)[{i},{j}]| = {dev:.3g} > tol {tol:g}"
            )
        return cls(vectors, labels, tol)

    @property
    def projectors(self) -> np.ndarray:
        """The (d, d, d) stack ``|v_k⟩⟨v_k|``, in label order (built on each call)."""
        v = self.unitary
        out = np.einsum("ak,bk->kab", v, v.conj())
        out.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    @property
    def size(self) -> int:
        return self.unitary.shape[1]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving evolution ``ρ → Σᵢ Eᵢ ρ Eᵢ†``."""

    operators: np.ndarray
    tol: InitVar[float] = TOL

    def __post_init__(self, tol):
        stack = np.asarray(
            [_require_square(e, "Kraus operator") for e in self.operators],
            dtype=complex,
        )
        if stack.shape[0] == 0:
            raise ShapeError("channel needs at least one Kraus operator")
        d = stack.shape[1]
        total = np.einsum("kji,kjl->il", stack.conj(), stack)
        dev = float(np.abs(total - np.eye(d)).max())
        if dev > tol:
            raise ChannelError(
                f"Kraus operators do not preserve trace: max |Σ E†E − I| = {dev:.3g} > tol {tol:g}"
            )
        stack.setflags(write=False)
        object.__setattr__(self, "operators", stack)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


class MeasurementOutcome(NamedTuple):
    label: Hashable
    probability: float
    post_state: "DensityMatrix | None"


# ---------------------------------------------------------------------------
# evolution and measurement
# ---------------------------------------------------------------------------

def _check_dims(rho: DensityMatrix, other_dim: int, what: str) -> None:
    if rho.dim != other_dim:
        raise ShapeError(f"{what} dimension {other_dim} does not match state dimension {rho.dim}")


def evolve_density(rho: DensityMatrix, u: UnitaryOperator, tol: float = TOL) -> DensityMatrix:
    """Unitary evolution ``ρ → u ρ u†``; preserves trace and spectrum."""
    _check_dims(rho, u.dim, "unitary")
    m = u.matrix @ rho.matrix @ dagger(u.matrix)
    return DensityMatrix(m, tol)


def apply_channel(rho: DensityMatrix, ch: KrausChannel, tol: float = TOL) -> DensityMatrix:
    """Generalized evolution ``ρ → Σᵢ Eᵢ ρ Eᵢ†``."""
    _check_dims(rho, ch.dim, "channel")
    m = np.einsum("kij,jl,kml->im", ch.operators, rho.matrix, ch.operators.conj())
    return DensityMatrix(m, tol)


def outcome_probabilities(rho: DensityMatrix, basis: MeasurementBasis) -> np.ndarray:
    """Probabilities ``p(o) = ⟨v_o|ρ|v_o⟩`` for each outcome, in label order:
    the diagonal of ``V†ρV``."""
    _check_dims(rho, basis.dim, "basis")
    v = basis.unitary
    return np.einsum("ak,ak->k", v.conj(), rho.matrix @ v).real


def measure(
    rho: DensityMatrix, basis: MeasurementBasis, tol: float = TOL
) -> list[MeasurementOutcome]:
    """Projective measurement of ``rho``.

    Returns one entry per outcome with its probability and the collapsed
    post-measurement state ``Π ρ Π / p``, which for a rank-one projector is
    ``|v⟩⟨v|``. Outcomes with probability at or below ``tol`` carry no
    post-state (the collapse is undefined at p = 0).
    """
    probs = outcome_probabilities(rho, basis)
    results = []
    for label, v, p in zip(basis.labels, basis.unitary.T, probs):
        post = PureState(v, tol).to_density() if p > tol else None
        results.append(MeasurementOutcome(label, float(p), post))
    return results


def sample_outcome(
    rho: DensityMatrix,
    basis: MeasurementBasis,
    rng: "np.random.Generator | int",
) -> tuple[Hashable, np.random.Generator]:
    """Draw one outcome label with the probabilities of :func:`measure`.

    ``rng`` is a numpy generator (or a seed); the advanced generator is
    returned alongside the label so callers can keep threading it.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    probs = np.clip(outcome_probabilities(rho, basis), 0.0, None)
    cum = np.cumsum(probs)
    total = cum[-1]
    if total <= 0:
        raise ValidationError("outcome probabilities sum to zero")
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    idx = min(idx, len(basis.labels) - 1)
    return basis.labels[idx], rng
