import math

import numpy as np
import pytest

from nohidelab import nohiding, qmath
from nohidelab.circuits import run_statevector
from nohidelab.nohiding import (
    DEFAULT_SWEEP_GRID,
    build_erasure_circuit,
    build_full_circuit,
    build_imperfect_circuit,
    build_randomizer,
    default_input_state,
    run_perfect,
    run_sweep,
    sweep_rows,
)
from nohidelab.qmath import DensityMatrix, StateVector, distances_to_mixed, partial_trace

from conftest import random_state
from oracles import channel_identity_error

# The Paulis written out, so the checks below share nothing with nohiding's blocks.
_PAULIS = {
    "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.array([[1, 0], [0, -1]]),
}
_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def bleaching_check(tag: str, psi: StateVector) -> float:
    """Trace distance of the erased system from I/2 (should be 0)."""
    circuit = build_erasure_circuit(tag)
    out = run_statevector(circuit, psi.tensor(StateVector.ket("00")))
    return distances_to_mixed([partial_trace(out, [0])])[0][0]


def _rotation_x(angle: float) -> np.ndarray:
    """exp(-i angle X)."""
    return math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * _PAULIS["X"]


def ancilla_map(out: int, inp: int) -> np.ndarray:
    """|out><in| on the two ancillas."""
    m = np.zeros((4, 4))
    m[out, inp] = 1.0
    return m


class TestRandomizer:
    def test_all_variants_unitary_controlled_pauli(self):
        for tag in nohiding.VARIANT_TAGS:
            v = build_randomizer(tag)
            assert qmath.is_unitary(v.matrix, 1e-12)

    @pytest.mark.parametrize("tag", nohiding.VARIANT_TAGS)
    def test_each_ancilla_input_applies_one_signed_pauli(self, tag):
        m = build_randomizer(tag).matrix
        for anc_in in range(4):
            # m restricted to ancilla input |anc_in> must be c P (x) |out><in|
            # for exactly one output, sign or phase c and Pauli P.
            columns = m @ np.kron(np.eye(2), ancilla_map(anc_in, anc_in))
            matches = [
                (anc_out, c, name)
                for anc_out in range(4) for name, pauli in _PAULIS.items()
                for c in (1, -1, 1j, -1j)
                if np.abs(columns - np.kron(c * pauli, ancilla_map(anc_out, anc_in))).max() < 1e-12
            ]
            assert len(matches) == 1, (anc_in, matches)

    @pytest.mark.parametrize("matrix, message", [
        (np.eye(4), "randomizer must be an 8x8 matrix"),
        (2.0 * np.eye(8), "randomizer is not unitary"),
        # unitary, one output block per input, but that block is H
        (np.kron(_HADAMARD, np.eye(4)), r"input \|00> does not map through a single signed Pauli"),
        # unitary, and each input's first block is a signed Pauli within 1e-10,
        # but a 1e-11 rotation of ancilla A leaks it into a second block
        (np.kron(np.kron(np.eye(2), _rotation_x(1e-11)), np.eye(2))
         @ build_randomizer("eq1").matrix,
         r"input \|00> does not map through a single signed Pauli"),
    ])
    def test_variant_rejects_a_matrix_that_is_not_a_controlled_pauli(self, matrix, message):
        v = build_randomizer("eq1")
        with pytest.raises(ValueError, match=message):
            nohiding.RandomizerVariant("bad", matrix, v.transfer_qubit, v.bell_pair, v.bell_state)

    def test_first_variant_has_identity_block(self):
        # ancillas in |00> leave the system untouched
        v = build_randomizer("eq1")
        psi = default_input_state()
        inp = psi.tensor(StateVector.ket("00"))
        out = v.matrix @ inp.amplitudes
        assert np.abs(out - inp.amplitudes).max() < 1e-12

    def test_second_variant_column_pairing(self):
        # |psi>|01> -> X|psi>|00>
        v = build_randomizer("eq2")
        psi = default_input_state()
        inp = psi.tensor(StateVector.ket("01"))
        expected = StateVector(1, qmath.PAULI_X @ psi.amplitudes).tensor(StateVector.ket("00"))
        out = v.matrix @ inp.amplitudes
        assert np.abs(out - expected.amplitudes).max() < 1e-12

    def test_all_variants_bleach_random_states(self, rng):
        for tag in nohiding.VARIANT_TAGS:
            v = build_randomizer(tag)
            for _ in range(20):
                psi = random_state(rng, 1)
                plus = StateVector.from_amplitudes(np.ones(4) / 2)
                out = StateVector(3, v.matrix @ psi.tensor(plus).amplitudes)
                system = partial_trace(out.to_density(), [0])
                assert np.abs(system.matrix - np.eye(2) / 2).max() < 1e-10

    def test_each_variant_built_once_and_read_only(self):
        for tag in nohiding.VARIANT_TAGS:
            v = build_randomizer(tag)
            assert build_randomizer(tag) is v
            with pytest.raises(ValueError, match="read-only"):
                v.matrix[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                v.bell_state[0] = 0.0

    def test_default_input_state_built_once_and_read_only(self):
        psi = default_input_state()
        assert default_input_state() is psi
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes[0] = 0.0

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown randomizer variant"):
            build_randomizer("eq3")


class TestErasure:
    def test_erasure_bleaches_default_and_basis_inputs(self):
        for tag in nohiding.VARIANT_TAGS:
            assert bleaching_check(tag, StateVector.ket("0")) < 1e-10
            assert bleaching_check(tag, default_input_state()) < 1e-10

    def test_erasure_bleaches_random_inputs(self, rng):
        for tag in nohiding.VARIANT_TAGS:
            for _ in range(10):
                assert bleaching_check(tag, random_state(rng, 1)) < 1e-10

    def test_reduced_system_purity_is_half(self, rng):
        circuit = build_erasure_circuit("eq2")
        psi = random_state(rng, 1)
        out = run_statevector(circuit, psi.tensor(StateVector.ket("00")))
        system = partial_trace(out.to_density(), [0])
        assert np.trace(system.matrix @ system.matrix).real == pytest.approx(0.5, abs=1e-10)


class TestFullCircuit:
    def test_default_input_produces_bell_times_input(self):
        # the hardware variant sends |psi>|00> to ((|01>+|10>)/sqrt2) (x) |psi>
        psi = default_input_state()
        out = run_statevector(build_full_circuit("eq2"), psi.tensor(StateVector.ket("00")))
        bell = np.array([0, 1, 1, 0]) / math.sqrt(2)
        expected = np.kron(bell, psi.amplitudes)
        assert np.abs(out.amplitudes - expected).max() < 1e-10

    def test_zero_input_transfers_exactly(self):
        out = run_statevector(build_full_circuit("eq2"), StateVector.ket("000"))
        transfer = partial_trace(out.to_density(), [2])
        assert np.abs(transfer.matrix - np.diag([1, 0])).max() < 1e-10

    def test_transfer_fidelity_one_for_random_inputs(self, rng):
        for tag in nohiding.VARIANT_TAGS:
            v = build_randomizer(tag)
            circuit = build_full_circuit(tag)
            for _ in range(50):
                psi = random_state(rng, 1)
                out = run_statevector(circuit, psi.tensor(StateVector.ket("00")))
                rho = out.to_density()
                transferred = partial_trace(rho, [v.transfer_qubit])
                fid = qmath.fidelity(transferred, psi.to_density())
                assert fid == pytest.approx(1.0, abs=1e-10), tag

    def test_bell_pair_per_variant(self, rng):
        for tag in nohiding.VARIANT_TAGS:
            v = build_randomizer(tag)
            psi = random_state(rng, 1)
            out = run_statevector(build_full_circuit(tag), psi.tensor(StateVector.ket("00")))
            pair = partial_trace(out.to_density(), v.bell_pair)
            target = DensityMatrix(2, np.outer(v.bell_state, v.bell_state.conj()))
            assert qmath.fidelity(pair, target) == pytest.approx(1.0, abs=1e-10), tag

    def test_run_perfect_exact_mode(self):
        for tag in nohiding.VARIANT_TAGS:
            result = run_perfect(tag)
            assert result.bell_fidelity == pytest.approx(1.0, abs=1e-10)
            assert result.transfer_fidelity == pytest.approx(1.0, abs=1e-10)
            for r in (result.bell_tomo, result.transfer_tomo):
                assert qmath.fidelity(r.physical, r.reduced) == pytest.approx(1.0, abs=1e-9)

    def test_run_perfect_accepts_explicit_input(self, rng):
        psi = random_state(rng, 1)
        result = run_perfect("eq2", psi=psi)
        assert result.transfer_fidelity == pytest.approx(1.0, abs=1e-10)


class TestImperfect:
    def test_p_zero_keeps_input_pure(self):
        psi = default_input_state()
        circuit = build_imperfect_circuit(0.0)
        out = run_statevector(circuit, psi.tensor(StateVector.ket("000")))
        system = partial_trace(out.to_density(), [1])
        assert np.abs(system.matrix - psi.to_density().matrix).max() < 1e-10

    def test_p_one_fully_bleaches(self):
        psi = default_input_state()
        out = run_statevector(build_imperfect_circuit(1.0), psi.tensor(StateVector.ket("000")))
        system = partial_trace(out.to_density(), [1])
        assert np.abs(system.matrix - np.eye(2) / 2).max() < 1e-10

    def test_p_one_decodes_bell_pair_and_input(self):
        # at full bleaching the decoder leaves Psi+ on wires (1, 2) and the
        # input state on wire 3
        psi = default_input_state()
        out = run_statevector(build_imperfect_circuit(1.0), psi.tensor(StateVector.ket("000")))
        rho = out.to_density()
        psi_plus = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        bell = DensityMatrix(2, np.outer(psi_plus, psi_plus.conj()))
        assert qmath.fidelity(partial_trace(rho, [1, 2]), bell) == pytest.approx(1.0, abs=1e-10)
        assert qmath.fidelity(partial_trace(rho, [3]), psi.to_density()) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_p_one_ancillas_match_plus_plus_marginal(self):
        # before the randomizer the ancilla pair is exactly |++>
        from nohidelab.circuits import Circuit
        from nohidelab.nohiding import _imperfect_core_gates

        prep_only = Circuit(4, _imperfect_core_gates(1.0)[:3])
        psi = default_input_state()
        out = run_statevector(prep_only, psi.tensor(StateVector.ket("000")))
        ancillas = partial_trace(out.to_density(), [1, 3])
        plus2 = np.ones((4, 4), dtype=complex) / 4
        assert np.abs(ancillas.matrix - plus2).max() < 1e-10

    def test_ancilla_diagonal_probabilities(self):
        from nohidelab.circuits import Circuit
        from nohidelab.nohiding import _imperfect_core_gates

        for p in (0.2, 0.5, 0.8):
            prep_only = Circuit(4, _imperfect_core_gates(p)[:3])
            psi = default_input_state()
            out = run_statevector(prep_only, psi.tensor(StateVector.ket("000")))
            ancillas = partial_trace(out.to_density(), [1, 3])
            probs = np.diag(ancillas.matrix).real
            expected = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
            assert np.abs(probs - expected).max() < 1e-10

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_imperfect_circuit(1.2)

    def test_dilation_equals_kraus_channel_on_grid(self):
        for p in DEFAULT_SWEEP_GRID:
            assert channel_identity_error(p) < 1e-10


class TestSweep:
    def test_exact_endpoints(self):
        records = run_sweep([0.0, 1.0], shots=None)
        assert records[0].trace_distance_exact == pytest.approx(0.5, abs=1e-10)
        assert records[0].fidelity_exact == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert records[1].trace_distance_exact == pytest.approx(0.0, abs=1e-10)
        assert records[1].fidelity_exact == pytest.approx(1.0, abs=1e-10)

    def test_quoted_grid_point(self):
        p = math.sin(math.pi / 10) ** 2
        assert p == pytest.approx(0.095491503, abs=1e-9)
        record = run_sweep([p], shots=None)[0]
        assert record.trace_distance_exact == pytest.approx(0.4522543, abs=1e-7)
        assert record.trace_distance_exact == pytest.approx((1 - p) / 2, abs=1e-10)

    def test_trace_distance_linear_across_grid(self):
        records = run_sweep(list(DEFAULT_SWEEP_GRID), shots=None)
        for r in records:
            assert r.trace_distance_exact == pytest.approx((1 - r.p) / 2, abs=1e-10)

    def test_fidelity_closed_form_and_bound(self):
        records = run_sweep(list(DEFAULT_SWEEP_GRID), shots=None)
        for r in records:
            expected = (math.sqrt(1 - r.p / 2) + math.sqrt(r.p / 2)) / math.sqrt(2)
            assert r.fidelity_exact == pytest.approx(expected, abs=1e-10)
            assert r.fidelity_bound == 1 - (1 - r.p) / 2
            assert r.fidelity_exact >= r.fidelity_bound - 1e-12
            if r.p < 1.0:
                assert r.fidelity_exact > r.fidelity_bound + 1e-6
            else:
                assert r.fidelity_exact == pytest.approx(r.fidelity_bound, abs=1e-10)

    def test_default_grid_contains_quoted_values(self):
        grid = list(DEFAULT_SWEEP_GRID)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid[1] == pytest.approx(0.024471742, abs=1e-9)
        assert grid[2] == pytest.approx(0.095491503, abs=1e-9)

    def test_shot_mode_tracks_exact_metrics(self):
        records = run_sweep([0.5], shots=4096, seed=3)
        r = records[0]
        assert abs(r.trace_distance_tomo - r.trace_distance_exact) < 0.05
        assert abs(r.fidelity_tomo - r.fidelity_exact) < 0.05

    def test_entry_i_samples_on_seed_plus_i(self):
        records = run_sweep([0.3, 0.3], shots=256, seed=10)
        for i, record in enumerate(records):
            assert record == run_sweep([0.3], shots=256, seed=10 + i)[0]
        assert records[0] != records[1]

    def test_zero_point_is_positive_zero(self):
        assert math.copysign(1.0, run_sweep([-0.0], None)[0].p) == 1.0

    def test_rows_schema(self):
        rows = sweep_rows(run_sweep([0.0], shots=None))
        assert list(rows[0]) == list(nohiding.SWEEP_FIELDS)

    def test_empty_sweep(self, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("an empty sweep simulates nothing")

        monkeypatch.setattr(nohiding, "run_statevector", no_simulation)
        assert run_sweep([], shots=1024) == []

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_bad_weight_rejected_before_any_state(self, p, monkeypatch):
        def no_state(*args):
            raise AssertionError("a state was built for an invalid sweep")

        monkeypatch.setattr(nohiding, "default_input_state", no_state)
        monkeypatch.setattr(nohiding, "run_statevector", no_state)
        with pytest.raises(ValueError, match="outside"):
            run_sweep([0.5, p], shots=None)

    def test_multi_qubit_input_rejected(self, rng):
        with pytest.raises(ValueError, match="single-qubit"):
            run_sweep([0.5], shots=None, psi=random_state(rng, 2))
