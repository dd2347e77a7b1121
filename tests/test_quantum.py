import copy
import math
import pickle

import numpy as np
import pytest

from qcoord.quantum import (
    TOL_EIG,
    DensityOperator,
    HermitianObservable,
    Povm,
    QuantumError,
    born_distribution,
    eigen_hermitian,
    matrix_from_literal,
    matrix_to_literal,
    observable_expectation,
    partial_trace,
    tensor,
    trace_distance,
    trace_norm_distance,
    trusted_density,
    validated_states,
    von_neumann_entropy,
)

from oracles import random_density, random_pure

KET0 = DensityOperator.pure([1, 0])
KET1 = DensityOperator.pure([0, 1])
KETP = DensityOperator.pure([1, 1])
ETA = DensityOperator([[0.75, 0.25], [0.25, 0.25]])
PAULI_Z = HermitianObservable(np.diag([1.0, -1.0]).astype(complex))
PAULI_X = HermitianObservable(np.array([[0, 1], [1, 0]], dtype=complex))
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda r: pickle.loads(pickle.dumps(r))}


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(QuantumError):
            DensityOperator([[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(QuantumError):
            DensityOperator([[0.7, 0], [0, 0.7]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(QuantumError):
            DensityOperator([[1.2, 0], [0, -0.2]])

    def test_normalizes_trace_within_tolerance(self):
        rho = DensityOperator(np.eye(2) * (0.5 + 2e-10))
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            KET0.label = "other"
        with pytest.raises(ValueError):
            KET0.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_keep_the_matrix_and_stay_immutable(self, how):
        rho = DensityOperator(random_density(np.random.default_rng(5), 3),
                              "AB")
        twin = COPIES[how](rho)
        assert twin.label == "AB"
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        with pytest.raises(AttributeError):
            twin.label = "other"
        with pytest.raises(ValueError):
            twin.matrix[0, 0] = 0.0

    def test_rejects_oversize(self):
        with pytest.raises(QuantumError):
            DensityOperator(np.eye(2048) / 2048)

    @pytest.mark.parametrize("entry", [1e308, -1e308, 1e308j, 1.01])
    def test_rejects_an_entry_above_one_before_any_arithmetic(self, entry):
        # 1e308 would overflow the symmetrisation; -W error turns that
        # RuntimeWarning into a failure, so none may be raised first
        with pytest.raises(QuantumError, match="no entry above 1"):
            DensityOperator([[entry, 0], [0, 0]])


class TestTensor:
    def test_basis_case(self):
        out = tensor(KET0, KET0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(out.matrix, expected)

    def test_maximally_mixed(self):
        half = DensityOperator.maximally_mixed(2)
        assert np.allclose(tensor(half, half).matrix, np.eye(4) / 4)

    def test_block_with_eta(self):
        out = tensor(KET1, ETA)
        assert np.allclose(out.matrix[2:, 2:], ETA.matrix)
        assert np.allclose(out.matrix[:2, :2], 0)

    def test_dimension_cap(self):
        a = DensityOperator.maximally_mixed(64)
        with pytest.raises(QuantumError):
            tensor(tensor(a, a), DensityOperator.maximally_mixed(2))


class TestPartialTrace:
    def test_product_state(self):
        rho = tensor(KET0, KET1)
        assert np.allclose(partial_trace(rho, [2, 2], [0]).matrix,
                           KET0.matrix)

    def test_maximally_mixed(self):
        rho = DensityOperator.maximally_mixed(4)
        assert np.allclose(partial_trace(rho, [2, 2], [1]).matrix,
                           np.eye(2) / 2)

    def test_classical_mixture_of_products(self):
        mix = DensityOperator(0.5 * tensor(KET0, KET0).matrix
                              + 0.5 * tensor(KET1, KETP).matrix)
        out = partial_trace(mix, [2, 2], [1])
        assert np.allclose(out.matrix, ETA.matrix)

    def test_keep_validation(self):
        rho = DensityOperator.maximally_mixed(4)
        with pytest.raises(QuantumError):
            partial_trace(rho, [2, 2], [])
        with pytest.raises(QuantumError):
            partial_trace(rho, [2, 2], [2])
        with pytest.raises(QuantumError):
            partial_trace(rho, [3, 2], [0])

    def test_recovers_factors_of_tensor(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = DensityOperator(random_density(rng, 2))
            b = DensityOperator(random_density(rng, 3))
            ab = tensor(a, b)
            assert np.max(np.abs(partial_trace(ab, [2, 3], [0]).matrix
                                 - a.matrix)) < 1e-10
            assert np.max(np.abs(partial_trace(ab, [2, 3], [1]).matrix
                                 - b.matrix)) < 1e-10


class TestEigenHermitian:
    def test_identity(self):
        vals, _ = eigen_hermitian(np.eye(2, dtype=complex))
        assert vals == pytest.approx([1.0, 1.0])

    def test_eta_spectrum(self):
        vals, _ = eigen_hermitian(ETA.matrix)
        assert vals[0] == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-12)
        assert vals[1] == pytest.approx(0.5 - math.sqrt(2) / 4, abs=1e-12)

    def test_pure_state(self):
        vals, _ = eigen_hermitian(KETP.matrix)
        assert vals == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(QuantumError):
            eigen_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 8, 32, 64])
    def test_reconstruction_bound(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = 0.5 * (g + g.conj().T)
        vals, vecs = eigen_hermitian(herm)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.linalg.norm(recon - herm) <= TOL_EIG * dim
        assert all(vals[i] >= vals[i + 1] for i in range(dim - 1))


class TestTraceDistance:
    def test_self_distance(self):
        assert trace_distance(ETA, ETA) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)

    def test_nonorthogonal_pure_states(self):
        assert trace_distance(KET0, KETP) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(QuantumError):
            trace_distance(KET0, DensityOperator.maximally_mixed(4))

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        states = [DensityOperator(random_density(rng, 4)) for _ in range(6)]
        for a in states:
            for b in states:
                d = trace_distance(a, b)
                assert 0.0 <= d <= 1.0
                assert d == pytest.approx(trace_distance(b, a), abs=1e-12)
                for c in states:
                    assert d <= (trace_distance(a, c)
                                 + trace_distance(c, b) + 1e-9)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(KETP) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(
            DensityOperator.maximally_mixed(2)) == pytest.approx(1.0)

    def test_eta(self):
        lam = 0.5 + math.sqrt(2) / 4
        expected = -(lam * math.log2(lam) + (1 - lam) * math.log2(1 - lam))
        assert von_neumann_entropy(ETA) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.60088, abs=5e-6)

    def test_additive_on_products(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            a = DensityOperator(random_density(rng, 2))
            b = DensityOperator(random_density(rng, 4))
            assert von_neumann_entropy(tensor(a, b)) == pytest.approx(
                von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9)


class TestMeasurements:
    def test_born_basis_on_pure(self):
        povm = Povm.computational(2)
        assert born_distribution(KET0, povm) == pytest.approx([1.0, 0.0])

    def test_born_basis_on_mixed(self):
        povm = Povm.computational(2)
        assert born_distribution(
            DensityOperator.maximally_mixed(2), povm) == pytest.approx(
            [0.5, 0.5])

    def test_born_on_eta(self):
        povm = Povm.computational(2)
        assert born_distribution(ETA, povm) == pytest.approx([0.75, 0.25])

    def test_born_sums_to_one(self):
        rng = np.random.default_rng(5)
        povm = Povm.computational(4)
        for _ in range(10):
            p = born_distribution(DensityOperator(random_density(rng, 4)),
                                  povm)
            assert float(np.sum(p)) == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= 0)

    def test_povm_validation(self):
        with pytest.raises(QuantumError):
            Povm([np.eye(2) * 0.5])
        with pytest.raises(QuantumError):
            Povm([np.diag([1.5, 0]), np.diag([-0.5, 1.0])])

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_observable_copies_keep_the_matrix_read_only(self, how):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obs = HermitianObservable(m + m.conj().T)
        twin = COPIES[how](obs)
        assert twin.matrix.tobytes() == obs.matrix.tobytes()
        with pytest.raises(ValueError):
            twin.matrix[0, 0] = 0.0
        with pytest.raises(AttributeError):
            twin.matrix = obs.matrix

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_povm_copies_keep_the_elements_read_only(self, how):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        plus = np.outer(v, v.conj())
        povm = Povm([plus / 2, (np.eye(2) - plus) / 2, np.eye(2) / 2])
        twin = COPIES[how](povm)
        assert len(twin.elements) == 3
        for got, want in zip(twin.elements, povm.elements):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0, 0] = 0.0
        with pytest.raises(AttributeError):
            twin.elements = ()

    def test_expectation_pauli_z(self):
        assert observable_expectation(KET0, PAULI_Z) == pytest.approx(1.0)
        assert observable_expectation(
            DensityOperator.maximally_mixed(2), PAULI_Z) == pytest.approx(0.0)

    def test_expectation_pauli_x_on_eta(self):
        assert observable_expectation(ETA, PAULI_X) == pytest.approx(0.5)

    def test_expectation_identity_is_one(self):
        rng = np.random.default_rng(9)
        ident = HermitianObservable(np.eye(3, dtype=complex))
        for _ in range(5):
            rho = DensityOperator(random_density(rng, 3))
            assert observable_expectation(rho, ident) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(QuantumError):
            observable_expectation(DensityOperator.maximally_mixed(4),
                                   PAULI_Z)


class TestMatrixLiteral:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        m = random_pure(rng, 3)
        lit = matrix_to_literal(m)
        back = matrix_from_literal(lit)
        assert np.array_equal(back, m)

    def test_eta_literal(self):
        lit = [[[0.75, 0], [0.25, 0]], [[0.25, 0], [0.25, 0]]]
        assert np.allclose(matrix_from_literal(lit), ETA.matrix)


class TestValidatedStates:
    """The stacked form of DensityOperator's checks."""

    GOOD = [KET0.matrix, ETA.matrix, 0.5 * np.eye(2, dtype=complex)]

    @pytest.mark.parametrize("bad", [
        [[0.5, 1.0], [0.0, 0.5]],         # not Hermitian
        [[0.7, 0.0], [0.0, 0.7]],         # trace 1.4
        [[1.2, 0.0], [0.0, -0.2]],        # eigenvalue -0.2
    ])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_one_bad_matrix_rejects_the_stack(self, bad, position):
        stack = list(self.GOOD)
        stack.insert(position, np.asarray(bad, dtype=complex))
        with pytest.raises(QuantumError):
            DensityOperator(bad)
        with pytest.raises(QuantumError):
            validated_states(np.array(stack))

    def test_states_equal_density_operators_bit_for_bit(self):
        rng = np.random.default_rng(5)
        mats = np.array([random_density(rng, 4) for _ in range(6)])
        mats[2] += 1e-11 * np.eye(4)      # within the trace tolerance
        states, _ = validated_states(mats)
        assert not states.flags.writeable
        for m, s in zip(mats, states):
            assert DensityOperator(m).matrix.tobytes() == s.tobytes()

    def test_other_stacks_share_the_eigenvalue_call(self):
        rng = np.random.default_rng(6)
        rho = np.array([random_density(rng, 3) for _ in range(4)])
        sigma = np.array([random_density(rng, 3) for _ in range(4)])
        _, (w,) = validated_states(rho, rho - sigma)
        assert w.shape == (4, 3)
        for r, s, row in zip(rho, sigma, w):
            assert np.array_equal(row, np.linalg.eigvalsh(r - s))
            assert 0.5 * np.abs(row).sum() == trace_norm_distance(r, s)

    def test_trusted_density_wraps_without_copying(self):
        states, _ = validated_states(np.array([ETA.matrix]))
        state = trusted_density(states[0])
        assert np.shares_memory(state.matrix, states) and state.label == ""
        assert state.dim == 2
        with pytest.raises(AttributeError):
            state.matrix = KET0.matrix
