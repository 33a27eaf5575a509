"""Shot-sampled measurement, Pauli estimation, and linear-inversion tomography.

Randomness contract: measure_shots draws from a PCG64 stream keyed by
(seed, basis), where the basis string maps to a SeedSequence spawn key via
X -> 0, Y -> 1, Z -> 2 per qubit. The same (state, basis, shots, seed)
therefore reproduces counts bit-exactly, and distinct bases of one
tomography run consume independent substreams of the same seed.

Count layout: the counts of one basis are the int64 array `multinomial`
draws, of length 2^n. Entry i counts the outcome with the bits of i, qubit 0
the most significant as in qmath; outcomes never seen keep their 0.
Basis rotations, Pauli matrices and sign vectors are built once, read-only.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .qmath import (
    HADAMARD,
    I2,
    PAULIS,
    DensityMatrix,
    StateVector,
    fidelity,
    partial_trace,
    read_only_eig,
    trace_distance,
)

BASIS_CHARS = "XYZ"
_S_DAGGER = np.diag([1, -1j]).astype(complex)
# Circuit-order rotations into the measurement basis: X applies H, Y applies
# S^dagger then H, Z measures directly.
_ROTATION = {"X": HADAMARD, "Y": HADAMARD @ _S_DAGGER, "Z": I2}


def _read_only_kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """A new read-only kron of `factors`, the first the most significant."""
    m = np.array(functools.reduce(np.kron, factors))
    m.flags.writeable = False
    return m


@functools.cache
def _basis_rotation(basis: str) -> np.ndarray:
    return _read_only_kron([_ROTATION[ch] for ch in basis])


def born_probabilities(state: DensityMatrix, basis: str) -> np.ndarray:
    """Outcome probabilities after rotating each qubit into `basis`."""
    if len(basis) != state.num_qubits:
        raise ValueError(
            f"basis {basis!r} does not match a {state.num_qubits}-qubit state"
        )
    for ch in basis:
        if ch not in BASIS_CHARS:
            raise ValueError(f"invalid basis character {ch!r}")
    rot = _basis_rotation(basis)
    probs = np.real(np.diag(rot @ state.matrix @ rot.conj().T))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _rng_for(seed: int, basis: str) -> np.random.Generator:
    key = tuple(BASIS_CHARS.index(ch) for ch in basis)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def measure_shots(state: DensityMatrix, basis: str, shots: int, seed: int) -> np.ndarray:
    """Counts of i.i.d. outcomes in the given Pauli basis, in the count layout."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = born_probabilities(state, basis)  # validates the basis first
    return _rng_for(seed, basis).multinomial(shots, probs)


def pauli_strings(num_qubits: int) -> list[str]:
    """All non-identity Pauli strings, in lexicographic product order."""
    return [
        "".join(p) for p in itertools.product("IXYZ", repeat=num_qubits)
        if set(p) != {"I"}
    ]


@functools.cache
def pauli_matrix(pauli: str) -> np.ndarray:
    """The read-only matrix of a Pauli string such as "XI"; built once."""
    if not pauli or any(ch not in PAULIS for ch in pauli):
        raise ValueError(f"invalid Pauli string {pauli!r}")
    return _read_only_kron([PAULIS[ch] for ch in pauli])


@functools.cache
def _sign_vector(pauli: str) -> np.ndarray:
    """The eigenvalue, +1 or -1, of `pauli` on each outcome; I ignores its qubit."""
    return _read_only_kron([np.array([1, 1 if ch == "I" else -1]) for ch in pauli])


def exact_expectations(state: DensityMatrix) -> dict[str, float]:
    return {
        p: float(np.trace(pauli_matrix(p) @ state.matrix).real)
        for p in pauli_strings(state.num_qubits)
    }


def estimate_expectations(
    counts_by_basis: Mapping[str, np.ndarray], num_qubits: int
) -> dict[str, float]:
    """Estimate every non-identity Pauli from full-basis count arrays.

    A Pauli containing I reuses the measured basis with I replaced by Z; its
    sign vector ignores the identity positions.
    """
    out: dict[str, float] = {}
    for pauli in pauli_strings(num_qubits):
        meas = pauli.replace("I", "Z")
        counts = counts_by_basis[meas]
        if counts.shape != (2 ** num_qubits,):
            raise ValueError(f"counts of basis {meas!r} have shape {counts.shape}")
        # Python's int / int is exactly rounded at any shot total; int64 / int64
        # in numpy goes through float64 and rounds twice beyond 2^53.
        out[pauli] = int(_sign_vector(pauli) @ counts) / int(counts.sum())
    return out


@dataclass(frozen=True)
class TomogramRaw:
    """Linear-inversion reconstruction; Hermitian and unit trace, PSD not required.

    Its eigendecomposition is kept, read-only, in `spectrum` (descending
    eigenvalues, eigenvector columns) for `min_eigenvalue` and projection.
    """

    matrix: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        spectrum = read_only_eig(m, tol=1e-9)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"raw tomogram trace {tr!r} differs from 1")
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.spectrum[0][-1])

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self.matrix.shape[0])))


def reconstruct(expectations: Mapping[str, float], num_qubits: int) -> TomogramRaw:
    """Linear inversion rho = (I + sum <P> P) / 2^n from Pauli expectations."""
    if num_qubits not in (1, 2):
        raise ValueError(f"reconstruction supports 1 or 2 qubits, got {num_qubits}")
    dim = 2 ** num_qubits
    rho = np.eye(dim, dtype=complex)
    for pauli in pauli_strings(num_qubits):
        if pauli not in expectations:
            raise ValueError(f"missing expectation for Pauli {pauli!r}")
        rho = rho + expectations[pauli] * pauli_matrix(pauli)
    rho /= dim
    return TomogramRaw(rho)


def project_physical(raw: TomogramRaw) -> DensityMatrix:
    """Closest PSD unit-trace matrix in Frobenius norm.

    Eigenvalue truncation: walk the spectrum from the most negative value,
    zero it, and spread the deficit uniformly over the eigenvalues still in
    play; stop once the smallest survivor stays nonnegative.
    """
    w, v = raw.spectrum  # descending
    d = len(w)
    out = np.zeros(d)
    acc = 0.0
    for i in range(d - 1, -1, -1):
        if w[i] + acc / (i + 1) < 0.0:
            acc += w[i]
            out[i] = 0.0
        else:
            out[: i + 1] = w[: i + 1] + acc / (i + 1)
            break
    fixed = v @ np.diag(out.astype(complex)) @ v.conj().T
    fixed = (fixed + fixed.conj().T) / 2.0
    return DensityMatrix(raw.num_qubits, fixed)


class TomoResult(NamedTuple):
    """Tomography of one reduced state and the exact state it was measured from."""

    raw: TomogramRaw
    physical: DensityMatrix
    reduced: DensityMatrix


def tomo_pipeline(
    state: StateVector | DensityMatrix,
    qubits: Sequence[int],
    shots: int | None,
    seed: int = 0,
) -> TomoResult:
    """Measure, reconstruct, and project the reduced state on `qubits`.

    shots=None is the exact mode: sampling is bypassed and the exact Pauli
    expectations feed the reconstruction directly.
    """
    qubits = list(qubits)
    if not 1 <= len(qubits) <= 2:
        raise ValueError("tomography supports 1 or 2 qubits")
    reduced = partial_trace(state, qubits)
    n = reduced.num_qubits
    if shots is None:
        expectations = exact_expectations(reduced)
    else:
        counts_by_basis = {
            "".join(b): measure_shots(reduced, "".join(b), shots, seed)
            for b in itertools.product(BASIS_CHARS, repeat=n)
        }
        expectations = estimate_expectations(counts_by_basis, n)
    raw = reconstruct(expectations, n)
    physical = project_physical(raw)
    return TomoResult(raw, physical, reduced)


def report_dict(result: TomoResult) -> dict:
    """JSON-ready tomography report against the exact reduced state."""
    phys = result.physical
    return {
        "raw_min_eigenvalue": result.raw.min_eigenvalue,
        "fidelity": fidelity(phys, result.reduced),
        "trace_distance": trace_distance(phys, result.reduced),
        "matrix_re": phys.matrix.real,
        "matrix_im": phys.matrix.imag,
    }
