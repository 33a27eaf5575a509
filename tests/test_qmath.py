import math

import numpy as np
import pytest

from nohidelab import qmath
from nohidelab.qmath import (
    DensityMatrix,
    StateVector,
    distances_to_mixed,
    fidelity,
    hermitian_eig,
    kron,
    partial_trace,
    partial_trace_matrix,
    proportionality,
    trace_distance,
)

from conftest import maximally_mixed, random_density, random_hermitian, random_state
from oracles import equal_up_to_global_phase


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(qmath.I2, qmath.I2), np.eye(4))

    def test_x_with_projector_block_positions(self):
        p00 = np.array([[1, 0], [0, 0]], dtype=complex)
        m = kron(qmath.PAULI_X, p00)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 0] = expected[0, 2] = 1.0
        assert np.array_equal(m, expected)

    def test_definitional_oracle_random(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert m[i * 2 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])

    def test_pauli_x_by_hand(self):
        # characteristic polynomial of X is l^2 - 1
        w, v = hermitian_eig(qmath.PAULI_X)
        assert np.allclose(w, [1.0, -1.0])
        assert np.abs(v @ np.diag(w) @ v.conj().T - qmath.PAULI_X).max() < 1e-12

    def test_reconstruction_oracle_4x4(self, rng):
        m = random_hermitian(rng, 4)
        w, v = hermitian_eig(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < 1e-9

    def test_descending_order_and_unitary_vectors(self, rng):
        for dim in (2, 4, 8):
            m = random_hermitian(rng, dim)
            w, v = hermitian_eig(m)
            assert all(w[i] >= w[i + 1] for i in range(dim - 1))
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-9

    def test_reconstruction_on_100_random_matrices(self, rng):
        for _ in range(100):
            for dim in (2, 4, 8):
                m = random_hermitian(rng, dim)
                w, v = hermitian_eig(m)
                assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < 1e-9

    def test_agrees_with_numpy(self, rng):
        for dim in (2, 4, 8):
            m = random_hermitian(rng, dim)
            w, _ = hermitian_eig(m)
            assert np.abs(np.sort(w) - np.sort(np.linalg.eigvalsh(m))).max() < 1e-9

    def test_rejects_non_hermitian_with_diagnostic(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match=r"not Hermitian.*m\[0,1\]"):
            hermitian_eig(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN compares False against any tolerance, and inf - inf warns, so
        # the finiteness check runs before the asymmetry scan
        with pytest.raises(ValueError, match="NaN or infinite"):
            hermitian_eig(np.array([[bad, 0], [0, 1]], dtype=complex))


class TestTraceDistance:
    def test_self_distance_zero(self, rng):
        rho = random_density(rng, 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed_half(self):
        zero = StateVector.ket("0").to_density()
        mixed = maximally_mixed(1)
        assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_distance(random_density(rng, 1), random_density(rng, 2))


class TestFidelity:
    def test_self_fidelity_one(self, rng):
        rho = random_density(rng, 2)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_vs_mixed_closed_form(self):
        zero = StateVector.ket("0").to_density()
        mixed = maximally_mixed(1)
        assert fidelity(zero, mixed) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_symmetric_in_arguments(self, rng):
        for _ in range(20):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_pure_pure_is_overlap(self, rng):
        a = random_state(rng, 1)
        b = random_state(rng, 1)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
        assert fidelity(a.to_density(), b.to_density()) == pytest.approx(overlap, abs=1e-9)

    def test_one_eigensolve_reusing_the_stored_spectrum(self, rng, eigh_calls):
        a, b = random_density(rng, 2), random_density(rng, 2)
        eigh_calls.clear()
        fidelity(a, b)
        assert len(eigh_calls) == 1

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fidelity(random_density(rng, 1), random_density(rng, 2))

    def test_negative_eigenvalue_is_floored_in_the_root(self):
        # A valid state with an eigenvalue of -1e-12: sqrt(a) zeroes it, so I/4,
        # which weighs every eigenvector, gives the analytic value. sqrt(|w|)
        # would add sqrt(1e-12 / 4) = 5e-7.
        a = DensityMatrix(2, np.diag([0.6, 0.4 + 1e-12, -1e-12, 0.0]).astype(complex))
        want = math.sqrt(0.6 / 4) + math.sqrt((0.4 + 1e-12) / 4)
        assert fidelity(a, maximally_mixed(2)) == pytest.approx(want, abs=1e-12)


def test_metrics_against_partially_bleached_states(rng):
    # mixing a pure state with I/2 at weight p sits at trace distance
    # (1-p)/2 and fidelity (sqrt(1-p/2)+sqrt(p/2))/sqrt(2) from I/2
    mixed = maximally_mixed(1)
    for p in (0.0, 0.3, 0.7, 1.0):
        psi = random_state(rng, 1)
        blended = DensityMatrix(1, (1 - p) * psi.to_density().matrix + p * mixed.matrix)
        assert trace_distance(blended, mixed) == pytest.approx((1 - p) / 2, abs=1e-10)
        expected_f = (math.sqrt(1 - p / 2) + math.sqrt(p / 2)) / math.sqrt(2)
        assert fidelity(blended, mixed) == pytest.approx(expected_f, abs=1e-10)
        [(t, f)] = distances_to_mixed([blended])
        assert t == pytest.approx((1 - p) / 2, abs=1e-10)
        assert f == pytest.approx(expected_f, abs=1e-10)


def test_fidelity_to_pure_is_the_overlap_amplitude():
    zero = StateVector.ket("0").to_density()
    for cos in (1.0, 0.6, 1e-3, 0.0):
        psi = StateVector(1, [cos, math.sqrt(1 - cos ** 2)])
        assert qmath.fidelity_to_pure(zero, psi) == pytest.approx(cos, abs=1e-12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        qmath.fidelity_to_pure(zero, StateVector.ket("00"))


def test_fuchs_van_de_graaf_sandwich(rng):
    for n in (1, 2):
        for _ in range(25):
            a = random_density(rng, n)
            b = random_density(rng, n)
            t = trace_distance(a, b)
            f = fidelity(a, b)
            assert 1 - f <= t + 1e-9
            assert t <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9


class TestPartialTrace:
    def test_product_state_keeps_factor(self, rng):
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = DensityMatrix(2, kron(rho_a.matrix, rho_b.matrix))
        assert np.abs(partial_trace(joint, [0]).matrix - rho_a.matrix).max() < 1e-12
        assert np.abs(partial_trace(joint, [1]).matrix - rho_b.matrix).max() < 1e-12

    def test_bell_state_reduces_to_mixed(self):
        bell = StateVector.from_amplitudes(np.array([0, 1, 1, 0]) / math.sqrt(2))
        reduced = partial_trace(bell.to_density(), [0])
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12

    def test_keep_all_is_identity(self, rng):
        rho = random_density(rng, 2)
        assert np.abs(partial_trace(rho, [0, 1]).matrix - rho.matrix).max() < 1e-12

    def test_keep_order_swaps_subsystems(self, rng):
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 1)
        joint = DensityMatrix(2, kron(rho_a.matrix, rho_b.matrix))
        swapped = partial_trace(joint, [1, 0])
        assert np.abs(swapped.matrix - kron(rho_b.matrix, rho_a.matrix)).max() < 1e-12

    def test_trace_preserved(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            for keep in ([0], [1, 2], [2, 0]):
                reduced = partial_trace(rho, keep)
                assert abs(np.trace(reduced.matrix) - 1) < 1e-10

    def test_rejects_bad_indices(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, [2])
        with pytest.raises(ValueError, match="duplicate"):
            partial_trace(rho, [0, 0])

    def test_state_and_density_reject_bad_keep_lists_alike(self, rng):
        psi = random_state(rng, 2)
        for keep in ([2], [-1], [0, 0]):
            with pytest.raises(ValueError) as from_state:
                partial_trace(psi, keep)
            with pytest.raises(ValueError) as from_density:
                partial_trace(psi.to_density(), keep)
            assert str(from_state.value) == str(from_density.value)

    def test_pure_state_reduced_without_its_density_matrix(self, rng, eigh_calls):
        partial_trace(random_state(rng, 3), [2, 0])
        assert len(eigh_calls) == 1  # the reduced state's own validation
        assert eigh_calls[0].shape == (4, 4)

    def test_matrix_variant_handles_nonphysical_input(self):
        # operator-level partial trace works on plain Pauli inputs too
        op = kron(qmath.PAULI_X, np.eye(2) / 2)
        reduced = partial_trace_matrix(op, 2, [0])
        assert np.abs(reduced - qmath.PAULI_X).max() < 1e-12


class TestStateTypes:
    def test_state_vector_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_qubit0_is_most_significant(self):
        ket = StateVector.ket("10")
        assert ket.amplitudes[2] == 1.0

    def test_density_invariants_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    def test_density_keeps_its_validation_spectrum_read_only(self, rng):
        rho = random_density(rng, 2)
        w, v = rho.spectrum
        assert list(w) == sorted(w, reverse=True)
        assert np.abs(v @ np.diag(w) @ v.conj().T - rho.matrix).max() < 1e-12
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0
        assert "spectrum" not in repr(rho)

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
    ], ids=["non-hermitian", "trace", "not-psd"])
    def test_stack_rejects_one_bad_member_with_the_single_message(self, bad, message, rng):
        good = random_density(rng, 1).matrix
        with pytest.raises(ValueError, match=message) as single:
            DensityMatrix(1, bad.astype(complex))
        with pytest.raises(ValueError) as stacked:
            DensityMatrix.stack(1, np.array([good, bad, good]))
        assert str(stacked.value) == str(single.value)

    def test_stack_shares_one_eigensolve_and_matches_single_states(self, rng, eigh_calls):
        matrices = np.array([random_density(rng, 2).matrix for _ in range(3)])
        singles = [DensityMatrix(2, m) for m in matrices]
        del eigh_calls[:]
        states = DensityMatrix.stack(2, matrices)
        assert len(eigh_calls) == 1
        for rho, single in zip(states, singles):
            assert rho.num_qubits == 2
            assert rho.matrix.tobytes() == single.matrix.tobytes()
            for stacked_part, single_part in zip(rho.spectrum, single.spectrum):
                assert stacked_part.tobytes() == single_part.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    stacked_part[0] = 0.0

    def test_stack_of_none_and_wrong_shapes(self):
        assert DensityMatrix.stack(1, np.zeros((0, 2, 2))) == []
        with pytest.raises(ValueError, match="2x2 matrix stack"):
            DensityMatrix.stack(1, np.eye(2))

    def test_predicates(self):
        assert qmath.is_unitary(qmath.HADAMARD)
        assert not qmath.is_unitary(np.ones((2, 2)))


def test_proportionality_detects_scalars(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = proportionality(2j * a, a)
    assert s is not None and s == pytest.approx(2j)
    assert proportionality(a + 1.0, a) is None
    assert equal_up_to_global_phase(1j * a, a)
    assert not equal_up_to_global_phase(2 * a, a)
