"""Core linear algebra, measurement, evolution and channel behaviour."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_projective_basis, random_unitary
from qgames.errors import ChannelError, DimensionLimitError, ShapeError, ValidationError
from qgames.quantum import (
    DensityMatrix,
    KrausChannel,
    MeasurementBasis,
    PureState,
    UnitaryOperator,
    apply_channel,
    commutator_norm,
    evolve_density,
    is_unitary,
    measure,
    outcome_probabilities,
    sample_outcome,
    tensor_all,
    tensor_product,
)
from qgames.strategies import FLIP, HADAMARD, IDENTITY, StrategyFamily, unitary_matrix

SQRT2 = np.sqrt(2.0)
KET0 = np.array([[1.0], [0.0]])
KET1 = np.array([[0.0], [1.0]])
PLUS = (KET0 + KET1) / SQRT2
PHI_PLUS = np.array([1, 0, 0, 1]) / SQRT2
PSI_PLUS = np.array([0, 1, 1, 0]) / SQRT2
PAULI_Z = np.diag([1.0, -1.0])


class TestTensorProduct:
    def test_canonical_basis(self):
        np.testing.assert_array_equal(
            tensor_product(KET0, KET0), np.array([[1], [0], [0], [0]], dtype=complex)
        )

    def test_bilinearity(self):
        out = tensor_product(PLUS, KET1)
        np.testing.assert_allclose(
            out.ravel(), np.array([0, 1 / SQRT2, 0, 1 / SQRT2]), atol=1e-15
        )

    def test_xx_fixes_bell_state(self):
        xx = tensor_product(FLIP, FLIP)
        np.testing.assert_allclose(xx @ PHI_PLUS, PHI_PLUS, atol=1e-15)

    def test_left_factor_is_most_significant(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 5.0])
        np.testing.assert_allclose(np.diag(tensor_product(a, b)), [3, 5, 6, 10])

    def test_dimension_cap(self):
        big = np.eye(70)
        with pytest.raises(DimensionLimitError):
            tensor_product(big, big)  # 4900 > 4096

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)
        )
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_tensor_all_matches_pairwise(self):
        rng = np.random.default_rng(3)
        mats = [random_unitary(rng, 2) for _ in range(3)]
        np.testing.assert_allclose(
            tensor_all(mats), tensor_product(tensor_product(mats[0], mats[1]), mats[2])
        )
        np.testing.assert_allclose(tensor_all(mats[:1]), mats[0])
        with pytest.raises(ShapeError):
            tensor_all([])


class TestIsUnitary:
    def test_balanced_superposition_move(self):
        assert is_unitary(HADAMARD)

    def test_shear_is_not(self):
        assert not is_unitary(np.array([[1, 1], [0, 1]]))

    def test_three_parameter_member(self):
        u = unitary_matrix(StrategyFamily.three_param(), (0.7, 1.1, 2.3))
        assert is_unitary(u)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            is_unitary(np.ones((2, 3)))


class TestTypeInvariants:
    def test_pure_state_norm(self):
        with pytest.raises(ValidationError):
            PureState([1.0, 1.0])
        PureState([1 / SQRT2, 1j / SQRT2])

    def test_density_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_density_psd(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_unitary_operator_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            UnitaryOperator(np.array([[1, 1], [0, 1]]))

    def test_basis_rejects_incomplete(self):
        with pytest.raises(ValidationError):
            MeasurementBasis.from_projectors(np.array([np.diag([1.0, 0.0])]), ("only",))

    def test_basis_rejects_duplicate_labels(self):
        projectors = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValidationError):
            MeasurementBasis.from_projectors(projectors, ("x", "x"))

    def test_channel_rejects_non_trace_preserving(self):
        with pytest.raises(ChannelError):
            KrausChannel(np.array([0.5 * IDENTITY]))


class TestBasisFromProjectors:
    def _reject(self, projectors, path):
        with pytest.raises(ValidationError, match=rf"^{path}: .*> tol 1e-09"):
            MeasurementBasis.from_projectors(np.asarray(projectors, dtype=complex), ("a", "b"))

    def test_rejects_non_hermitian_projector(self):
        # idempotents summing to the identity, but not Hermitian
        skew = np.array([[1.0, 1.0], [0.0, 0.0]])
        self._reject([skew, np.eye(2) - skew], r"projectors\[0\]")

    def test_rejects_rank_two_with_zero(self):
        self._reject([np.eye(2), np.zeros((2, 2))], r"projectors\[0\]")
        self._reject([np.zeros((2, 2)), np.eye(2)], r"projectors\[0\]")

    def test_rejects_non_orthogonal(self):
        self._reject([np.diag([1.0, 0.0]), np.outer(PLUS, PLUS)], r"projectors\[1\]")

    def test_rejects_incomplete_set(self):
        with pytest.raises(ValidationError, match=r"^projectors: 1 given in dimension 2"):
            MeasurementBasis.from_projectors(np.array([np.diag([1.0, 0.0])]), ("a",))

    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_vectors_up_to_phase(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 5)
        basis = MeasurementBasis.from_projectors(
            np.einsum("ak,bk->kab", u, u.conj()), tuple(range(5))
        )
        overlaps = np.abs(np.sum(u.conj() * basis.unitary, axis=0))
        np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            basis.projectors, np.einsum("ak,bk->kab", u, u.conj()), rtol=0, atol=1e-12
        )


class TestErrorsStateDeviation:
    def test_unitary_operator(self):
        with pytest.raises(ValidationError, match=r"max \|U†U − I\| = 1 > tol 1e-09"):
            UnitaryOperator(np.array([[1, 1], [0, 1]]))

    def test_measurement_basis(self):
        with pytest.raises(ValidationError, match=r"not orthonormal: \|\(V†V − I\)\[0,0\]\| = 0\.5 > tol 1e-09"):
            MeasurementBasis(np.diag([np.sqrt(0.5), 1.0]), ("a", "b"))

    def test_kraus_channel(self):
        with pytest.raises(ChannelError, match=r"max \|Σ E†E − I\| = 0\.75 > tol 1e-09"):
            KrausChannel(np.array([0.5 * IDENTITY]))


class TestEvolveDensity:
    def test_bit_flip(self):
        rho = DensityMatrix.from_pure([1, 0])
        out = evolve_density(rho, UnitaryOperator(FLIP))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_heads_to_balanced(self):
        rho = DensityMatrix.from_pure([1, 0])
        out = evolve_density(rho, UnitaryOperator(HADAMARD))
        np.testing.assert_allclose(out.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_flip_on_first_qubit_of_bell_pair(self):
        rho = DensityMatrix.from_pure(PHI_PLUS)
        u = UnitaryOperator(tensor_product(FLIP, IDENTITY))
        out = evolve_density(rho, u)
        np.testing.assert_allclose(
            out.matrix, np.outer(PSI_PLUS, PSI_PLUS), atol=1e-15
        )

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            evolve_density(DensityMatrix.from_pure([1, 0]), UnitaryOperator(np.eye(4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_and_hermiticity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        rho = random_density(rng, dim)
        out = evolve_density(rho, UnitaryOperator(random_unitary(rng, dim)))
        assert abs(np.trace(out.matrix) - 1) <= 1e-9
        np.testing.assert_allclose(out.matrix, out.matrix.conj().T, atol=1e-9)


class TestApplyChannel:
    def test_single_operator_equals_unitary_evolution(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        via_channel = apply_channel(rho, KrausChannel(np.array([u])))
        via_unitary = evolve_density(rho, UnitaryOperator(u))
        np.testing.assert_allclose(via_channel.matrix, via_unitary.matrix, atol=1e-12)

    def test_correlated_flip_fixes_bell_state(self):
        p = 0.3
        ops = np.array(
            [
                np.sqrt(p) * tensor_product(IDENTITY, IDENTITY),
                np.sqrt(1 - p) * tensor_product(FLIP, FLIP),
            ]
        )
        rho = DensityMatrix.from_pure(PHI_PLUS)
        out = apply_channel(rho, KrausChannel(ops))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_uniform_local_flips_mix_bell_states(self):
        # each side flips independently with probability 1/2
        ops = []
        for a in (IDENTITY, FLIP):
            for b in (IDENTITY, FLIP):
                ops.append(0.5 * tensor_product(a, b))
        out = apply_channel(DensityMatrix.from_pure(PHI_PLUS), KrausChannel(np.array(ops)))
        expected = 0.5 * np.outer(PHI_PLUS, PHI_PLUS) + 0.5 * np.outer(PSI_PLUS, PSI_PLUS)
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_output_valid_for_random_inputs(self, dim):
        rng = np.random.default_rng(dim)
        u1, u2 = random_unitary(rng, dim), random_unitary(rng, dim)
        ch = KrausChannel(np.array([np.sqrt(0.25) * u1, np.sqrt(0.75) * u2]))
        for _ in range(100):
            out = apply_channel(random_density(rng, dim), ch)
            assert isinstance(out, DensityMatrix)  # constructor re-checks invariants


class TestMeasure:
    def test_balanced_state_in_computational_basis(self):
        rho = DensityMatrix.from_pure([1 / SQRT2, 1 / SQRT2])
        basis = MeasurementBasis.from_projectors(
            np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), ("0", "1")
        )
        outcomes = measure(rho, basis)
        assert [o.label for o in outcomes] == ["0", "1"]
        np.testing.assert_allclose([o.probability for o in outcomes], [0.5, 0.5], atol=1e-12)

    def test_eigenstate(self):
        rho = DensityMatrix.from_pure([1, 0])
        basis = MeasurementBasis.from_projectors(
            np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), ("0", "1")
        )
        outcomes = measure(rho, basis)
        np.testing.assert_allclose([o.probability for o in outcomes], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(outcomes[0].post_state.matrix, rho.matrix, atol=1e-12)
        assert outcomes[1].post_state is None

    def test_entangled_basis_eigenvector(self):
        from qgames.catalog import ETA_VECTORS, eta_basis

        rho = DensityMatrix.from_pure(ETA_VECTORS[(0, 1)])
        outcomes = measure(rho, eta_basis())
        probs = {o.label: o.probability for o in outcomes}
        assert abs(probs[(0, 1)] - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_probability_bounds_and_post_states(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        rho = random_density(rng, dim)
        basis = random_projective_basis(rng, [f"o{k}" for k in range(dim)])
        outcomes = measure(rho, basis)
        probs = np.array([o.probability for o in outcomes])
        assert np.all(probs >= -1e-9) and abs(probs.sum() - 1) <= 1e-9
        for o in outcomes:
            if o.post_state is not None:
                assert abs(np.trace(o.post_state.matrix) - 1) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_pure_state_path_equivalence(self, seed):
        # measure() on |ψ⟩⟨ψ| must agree with ⟨ψ|Π|ψ⟩ computed directly
        rng = np.random.default_rng(seed)
        dim = 4
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        state = PureState(psi)
        basis = random_projective_basis(rng, range(dim))
        via_density = outcome_probabilities(state.to_density(), basis)
        direct = np.array([(psi.conj() @ p @ psi).real for p in basis.projectors])
        np.testing.assert_allclose(via_density, direct, atol=1e-9)


class TestSampleOutcome:
    def _basis(self):
        return MeasurementBasis.from_projectors(
            np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), ("0", "1")
        )

    def test_deterministic_distribution(self):
        rho = DensityMatrix.from_pure([1, 0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            label, rng = sample_outcome(rho, self._basis(), rng)
            assert label == "0"

    def test_accepts_bare_seed(self):
        rho = DensityMatrix.from_pure([1 / SQRT2, 1 / SQRT2])
        label1, rng = sample_outcome(rho, self._basis(), 123)
        assert isinstance(rng, np.random.Generator)
        label2, _ = sample_outcome(rho, self._basis(), 123)
        assert label1 == label2

    def test_same_seed_same_sequence(self):
        rho = DensityMatrix.from_pure([1 / SQRT2, 1 / SQRT2])
        seq1, seq2 = [], []
        rng = np.random.default_rng(42)
        for _ in range(50):
            label, rng = sample_outcome(rho, self._basis(), rng)
            seq1.append(label)
        rng = np.random.default_rng(42)
        for _ in range(50):
            label, rng = sample_outcome(rho, self._basis(), rng)
            seq2.append(label)
        assert seq1 == seq2

    def test_frequencies_converge(self):
        rho = DensityMatrix.from_pure([1 / SQRT2, 1 / SQRT2])
        basis = self._basis()
        rng = np.random.default_rng(7)
        hits = 0
        n = 100_000
        for _ in range(n):
            label, rng = sample_outcome(rho, basis, rng)
            hits += label == "0"
        assert abs(hits / n - 0.5) < 0.01


class TestCommutatorNorm:
    def test_self_commutes(self):
        rng = np.random.default_rng(0)
        a = random_unitary(rng, 3)
        assert commutator_norm(a, a) == 0.0

    def test_pauli_pair(self):
        assert abs(commutator_norm(FLIP, PAULI_Z) - 2.0) <= 1e-15

    def test_dilemma_payoff_operators_commute(self):
        from qgames.catalog import load

        entry = load("prisoners_dilemma", verify=False)
        ops = entry.quantum.payoff_operators
        assert commutator_norm(ops[0], ops[1]) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            commutator_norm(np.eye(2), np.eye(3))
