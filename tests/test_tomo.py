import itertools
import math

import numpy as np
import pytest

from nohidelab import nohiding, qmath, tomo
from nohidelab.qmath import DensityMatrix, StateVector, partial_trace
from nohidelab.tomo import (
    born_probabilities,
    estimate_expectations,
    exact_expectations,
    measure_shots,
    pauli_matrix,
    pauli_strings,
    project_physical,
    reconstruct,
    tomo_pipeline,
)

from conftest import random_density, random_state


def plus_state() -> DensityMatrix:
    return StateVector.from_amplitudes(np.array([1, 1]) / math.sqrt(2)).to_density()


def tilted_state() -> StateVector:
    return StateVector(1, np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)]))


def counts_of(rho: DensityMatrix, basis: str, shots: int, seed: int) -> np.ndarray:
    """measure_shots on the Born probabilities of `rho` in `basis`."""
    probs = born_probabilities(rho.matrix[None])[0, tomo._bases(rho.num_qubits).index(basis)]
    return measure_shots(probs, basis, shots, seed)


def exact_of(rho: DensityMatrix) -> dict[str, float]:
    """The Pauli expectations of one state: the stack of one, unstacked."""
    return {p: e[0] for p, e in exact_expectations(rho.matrix[None]).items()}


def raw_of(expectations: dict[str, float], num_qubits: int) -> np.ndarray:
    """reconstruct of one point."""
    return reconstruct({p: np.array([e]) for p, e in expectations.items()}, num_qubits)[0]


def projected(raw: np.ndarray) -> DensityMatrix:
    """project_physical of one raw matrix, decomposed as tomo_pipeline does."""
    return project_physical(*qmath.hermitian_eig(raw[None], tol=1e-9))[0]


def parities(counts: list[int]) -> dict[str, float]:
    """estimate_expectations with `counts` standing in for every basis of its size."""
    n = int(math.log2(len(counts)))
    bases = ("".join(b) for b in itertools.product("XYZ", repeat=n))
    est = estimate_expectations({b: np.array([counts]) for b in bases}, n)
    return {p: e[0] for p, e in est.items()}


class TestMeasureShots:
    def test_eigenstate_gives_single_outcome(self):
        counts = counts_of(StateVector.ket("0").to_density(), "Z", 500, 1)
        assert counts.dtype == np.int64
        assert counts.tolist() == [500, 0]

    def test_plus_state_z_within_5_sigma(self):
        counts = counts_of(plus_state(), "Z", 8192, 11)
        freq = counts[0] / 8192
        sigma = math.sqrt(0.25 / 8192)
        assert abs(freq - 0.5) < 5 * sigma

    def test_z_expectation_of_tilted_state(self):
        counts = counts_of(tilted_state().to_density(), "Z", 8192, 3)
        est = parities(counts.tolist())["Z"]
        sigma = math.sqrt(1.0 / 8192)
        assert abs(est - math.cos(math.pi / 4)) < 5 * sigma

    def test_y_eigenstate_measures_plus_in_y_basis(self):
        plus_i = StateVector.from_amplitudes(np.array([1, 1j]) / math.sqrt(2))
        counts = counts_of(plus_i.to_density(), "Y", 200, 5)
        assert counts.tolist() == [200, 0]

    def test_x_eigenstate_measures_plus_in_x_basis(self):
        counts = counts_of(plus_state(), "X", 200, 5)
        assert counts.tolist() == [200, 0]

    def test_deterministic_for_fixed_seed(self):
        a = counts_of(plus_state(), "Z", 2048, 42)
        b = counts_of(plus_state(), "Z", 2048, 42)
        assert a.tolist() == b.tolist()

    def test_distinct_bases_use_distinct_streams(self):
        rho = tilted_state().to_density()
        a = counts_of(rho, "Z", 4096, 42)
        b = counts_of(rho, "X", 4096, 42)
        assert a.tolist() != b.tolist()

    def test_invalid_basis_rejected(self):
        with pytest.raises(ValueError, match="invalid basis character 'Q'"):
            measure_shots(np.array([0.5, 0.5]), "Q", 10, 0)
        with pytest.raises(ValueError, match="basis 'ZZ' does not match a 1-qubit state"):
            measure_shots(np.array([0.5, 0.5]), "ZZ", 10, 0)

    def test_shot_floor(self):
        with pytest.raises(ValueError, match="shots"):
            measure_shots(np.array([0.5, 0.5]), "Z", 0, 0)

    def test_zero_outcomes_kept_in_index_order(self):
        counts = counts_of(StateVector.ket("01").to_density(), "ZZ", 300, 7)
        assert counts.tolist() == [0, 300, 0, 0]  # |01> is index 1: qubit 0 is the MSB

    def test_counts_sum_to_shots(self, rng):
        counts = counts_of(random_density(rng, 2), "XY", 1001, 3)
        assert counts.shape == (4,) and int(counts.sum()) == 1001


class TestCachedOperators:
    def test_shared_and_read_only(self):
        for build, key in ((tomo.pauli_matrix, "XZ"), (tomo.pauli_matrix, "Y"),
                           (tomo._basis_rotations, 2), (tomo._basis_rotations, 1),
                           (tomo._sign_vector, "IZ")):
            m = build(key)
            assert build(key) is m
            assert not m.flags.writeable

    def test_shared_qmath_constants_stay_writeable(self):
        tomo.pauli_matrix("X")
        tomo._basis_rotations(1)
        assert tomo.pauli_matrix("I") is not qmath.I2
        for m in (qmath.PAULIS["X"], qmath.HADAMARD, qmath.I2):
            assert m.flags.writeable

    def test_invalid_pauli_rejected_and_not_cached(self):
        size = tomo.pauli_matrix.cache_info().currsize
        for bad in ("", "Q", "xz"):
            with pytest.raises(ValueError, match="invalid Pauli string"):
                tomo.pauli_matrix(bad)
        assert tomo.pauli_matrix.cache_info().currsize == size


class TestExpectation:
    def test_all_zero_counts(self):
        assert parities([10, 0])["Z"] == 1.0

    def test_even_split_is_zero(self):
        assert parities([5, 5])["Z"] == 0.0

    def test_two_qubit_even_parity(self):
        est = parities([512, 0, 0, 512])
        assert est["ZZ"] == 1.0
        assert est["ZI"] == est["IZ"] == 0.0

    def test_odd_parity_counts_negative(self):
        est = parities([0, 2, 2, 0])
        assert est["ZZ"] == -1.0
        assert est["ZI"] == est["IZ"] == 0.0

    def test_qubit_0_is_the_most_significant_bit(self):
        est = parities([0, 0, 3, 1])  # qubit 0 always reads 1, qubit 1 mostly 0
        assert est["ZI"] == -1.0
        assert est["IZ"] == 0.5

    def test_wrong_length_rejected(self):
        counts = {b: np.array([[1, 0, 0, 0]]) for b in ("X", "Y", "Z")}
        with pytest.raises(ValueError, match="counts of basis 'X' have shape"):
            estimate_expectations(counts, 1)


class TestReconstruct:
    def test_zero_expectations_give_mixed(self):
        raw = raw_of({"X": 0.0, "Y": 0.0, "Z": 0.0}, 1)
        assert np.abs(raw - np.eye(2) / 2).max() < 1e-12
        assert qmath.hermitian_eig(raw)[0][-1] == pytest.approx(0.5, abs=1e-12)

    def test_exact_expectations_recover_tilted_state(self):
        psi = tilted_state()
        inv_sqrt2 = 1 / math.sqrt(2)
        raw = raw_of({"X": inv_sqrt2, "Y": 0.0, "Z": inv_sqrt2}, 1)
        assert np.abs(raw - psi.to_density().matrix).max() < 1e-12

    def test_two_qubit_bell_exact(self):
        bell = StateVector.from_amplitudes(np.array([0, 1, 1, 0]) / math.sqrt(2))
        rho = bell.to_density()
        raw = raw_of(exact_of(rho), 2)
        assert np.abs(raw - rho.matrix).max() < 1e-12

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing expectation for Pauli 'Y'"):
            raw_of({"X": 0.0, "Z": 0.0}, 1)

    def test_qubit_count_limited(self):
        with pytest.raises(ValueError, match="1 or 2"):
            reconstruct({}, 3)

    def test_raw_tomogram_of_one_point_is_a_stack_of_one(self):
        raw = reconstruct({p: np.array([0.0]) for p in ("X", "Y", "Z")}, 1)
        assert raw.shape == (1, 2, 2)
        assert np.array_equal(raw[0], np.eye(2) / 2)

    def test_bits_are_the_plain_sum_in_pauli_order(self, rng):
        # Each e * P is exact (P's entries are 0, +-1, +-i) and dividing by 4 is
        # exact, so the bits depend only on the order of the sum. Summed in
        # reverse, some of these 200 points round differently.
        expectations = {p: rng.uniform(-1.0, 1.0, 200) for p in pauli_strings(2)}
        terms = [(expectations[p].tolist(), pauli_matrix(p).tolist()) for p in pauli_strings(2)]
        want = np.zeros((200, 4, 4), dtype=complex)
        for k, i, j in itertools.product(range(200), range(4), range(4)):
            s = complex(i == j)
            for e, m in terms:
                s += e[k] * m[i][j]
            want[k, i, j] = s / 4
        assert reconstruct(expectations, 2).tobytes() == want.tobytes()


class TestProjectPhysical:
    def test_physical_input_unchanged(self, rng):
        rho = random_density(rng, 2)
        fixed = projected(raw_of(exact_of(rho), 2))
        assert np.abs(fixed.matrix - rho.matrix).max() < 1e-10

    def test_reuses_the_tomogram_spectrum(self, rng, eigh_calls):
        states = [random_density(rng, 2) for _ in range(3)]
        raws = reconstruct(exact_expectations(np.array([rho.matrix for rho in states])), 2)
        w, _ = qmath.hermitian_eig(raws, tol=1e-9)
        eigh_calls.clear()
        results = tomo_pipeline(states, shots=None)
        # One stacked eigensolve of the raw tomograms gives both the smallest
        # eigenvalues and the projection; the other is the projected stack's PSD check.
        assert len(eigh_calls) == 2
        assert [r.raw_min_eigenvalue for r in results] == w[:, -1].tolist()

    def test_two_level_example(self):
        raw = np.diag([1.1, -0.1]).astype(complex)
        fixed = projected(raw)
        w, _ = qmath.hermitian_eig(fixed.matrix)
        assert np.abs(w - [1.0, 0.0]).max() < 1e-12

    def test_four_level_redistribution(self):
        fixed = projected(np.diag([0.8, 0.5, -0.2, -0.1]).astype(complex))
        w, _ = qmath.hermitian_eig(fixed.matrix)
        assert np.abs(w - [0.65, 0.35, 0.0, 0.0]).max() < 1e-12

    def test_projected_tomograms_equal_their_conjugate_transposes(self, rng):
        # v diag v^H rounds its two triangles apart; the projection then
        # averages it with its conjugate transpose, which is exact.
        raws = reconstruct({p: rng.uniform(-1.0, 1.0, 200) for p in pauli_strings(2)}, 2)
        for rho in project_physical(*qmath.hermitian_eig(raws, tol=1e-9)):
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)

    def test_idempotent(self, rng):
        raw = np.diag([0.9, 0.4, -0.1, -0.2]).astype(complex)
        once = projected(raw)
        twice = projected(once.matrix)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12

    def test_never_increases_distance_to_physical_states(self, rng):
        for _ in range(50):
            spectrum = rng.normal(size=2)
            spectrum = spectrum - (spectrum.sum() - 1) / 2  # trace 1
            basis = random_state(rng, 1)
            v = np.column_stack([basis.amplitudes,
                                 np.array([-basis.amplitudes[1].conj(), basis.amplitudes[0].conj()])])
            raw_m = v @ np.diag(spectrum.astype(complex)) @ v.conj().T
            fixed = projected(raw_m)
            sigma = random_density(rng, 1)
            before = np.linalg.norm(raw_m - sigma.matrix)
            after = np.linalg.norm(fixed.matrix - sigma.matrix)
            assert after <= before + 1e-10


class TestPipeline:
    def test_exact_mode_is_lossless(self, rng):
        rho = random_density(rng, 3)
        (result,) = tomo_pipeline([partial_trace(rho, [0, 2])], shots=None)
        assert qmath.fidelity(result.physical, result.reduced) == pytest.approx(1.0, abs=1e-10)
        assert result.raw_min_eigenvalue > -1e-12

    def test_estimates_match_exact_at_large_shots(self):
        rho = tilted_state().to_density()
        counts = {b: counts_of(rho, b, 200_000, 9)[None] for b in ("X", "Y", "Z")}
        est = estimate_expectations(counts, 1)
        exact = exact_of(rho)
        for pauli in exact:
            assert abs(est[pauli][0] - exact[pauli]) < 0.02

    def test_marginal_expectations_from_two_qubit_counts(self):
        bell = StateVector.from_amplitudes(np.array([0, 1, 1, 0]) / math.sqrt(2))
        counts = {
            "".join(b): counts_of(bell.to_density(), "".join(b), 4096, 17)[None]
            for b in itertools.product("XYZ", repeat=2)
        }
        est = {p: e[0] for p, e in estimate_expectations(counts, 2).items()}
        # single-qubit marginals of this Bell state all vanish
        for pauli in ("IZ", "ZI", "IX", "XI"):
            assert abs(est[pauli]) < 0.1
        assert est["XX"] > 0.9
        assert est["ZZ"] < -0.9

    def test_estimator_unbiased(self):
        rho = tilted_state().to_density()
        exact = exact_of(rho)
        n_seeds, shots = 1000, 1024
        counts = {b: np.array([counts_of(rho, b, shots, seed) for seed in range(n_seeds)])
                  for b in ("X", "Y", "Z")}
        est = estimate_expectations(counts, 1)
        bound = 4 * math.sqrt(1.0 / (n_seeds * shots))
        for p, values in est.items():
            assert abs(values.mean() - exact[p]) < bound, p

    def test_small_p_runs_go_nonphysical_under_shot_noise(self):
        # partial bleaching at weight <= 0.025 leaves the system nearly pure,
        # so 1024-shot linear inversion dips negative for some seeds
        negatives = 0
        for seed in range(200):
            record = nohiding.run_sweep([0.024471741852423234], 1024, seed * 177)[0]
            if record.raw_min_eigenvalue < 0:
                negatives += 1
        assert negatives > 0

    def test_qubit_count_limit(self, rng):
        with pytest.raises(ValueError, match="1 or 2"):
            tomo_pipeline([random_density(rng, 3)], shots=None)

    def test_states_of_mixed_sizes_rejected(self, rng):
        with pytest.raises(ValueError, match="states of one size"):
            tomo_pipeline([random_density(rng, 1), random_density(rng, 2)], shots=8)

    def test_no_states_give_no_results(self):
        assert tomo_pipeline([], shots=None) == []
        assert tomo_pipeline([], shots=1024, seed=3) == []

    def test_report_schema(self, rng):
        rho = random_density(rng, 1)
        (result,) = tomo_pipeline([rho], shots=None)
        report = tomo.report_dict(result)
        assert set(report) == {
            "raw_min_eigenvalue", "fidelity", "trace_distance", "matrix_re", "matrix_im",
        }
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["fidelity"] == qmath.fidelity(result.physical, result.reduced)
        assert report["trace_distance"] == pytest.approx(0.0, abs=1e-9)

    def test_reduced_is_the_exact_partial_trace(self, rng):
        rho = random_density(rng, 3)
        for qubits in ([1], [2, 0]):
            reduced = partial_trace(rho, qubits)
            (result,) = tomo_pipeline([reduced], shots=512, seed=4)
            assert result.reduced is reduced
            assert tomo.report_dict(result)["fidelity"] == qmath.fidelity(
                result.physical, result.reduced
            )
