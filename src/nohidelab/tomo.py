"""Shot-sampled measurement, Pauli estimation, and linear-inversion tomography.

Every step works on a stack of P states of one size, so the states of a
sweep are reconstructed, validated and projected together; a single state
is the stack of one.

Randomness contract: measure_shots draws from a PCG64 stream keyed by
(seed, basis), where the basis string maps to a SeedSequence spawn key via
X -> 0, Y -> 1, Z -> 2 per qubit. The same (state, basis, shots, seed)
therefore reproduces counts bit-exactly, and distinct bases of one
tomography run consume independent substreams of the same seed. State i of
a stack draws on the streams of seed + i.

Count layout: the counts of one basis are the int64 array `multinomial`
draws, of length 2^n. Entry i counts the outcome with the bits of i, qubit 0
the most significant as in qmath; outcomes never seen keep their 0. A stack
of P states has a (P, 2^n) count array per basis.
Basis rotations, Pauli matrices and sign vectors are built once, read-only.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .qmath import (
    HADAMARD,
    I2,
    PAULIS,
    DensityMatrix,
    fidelity,
    hermitian_eig,
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
def _bases(num_qubits: int) -> tuple[str, ...]:
    """The 3^n measurement bases of n qubits, in product order."""
    return tuple("".join(b) for b in itertools.product(BASIS_CHARS, repeat=num_qubits))


@functools.cache
def _basis_rotations(num_qubits: int) -> np.ndarray:
    """The read-only (3^n, 2^n, 2^n) stack of rotations into each of `_bases`."""
    m = np.array([functools.reduce(np.kron, [_ROTATION[ch] for ch in basis])
                  for basis in _bases(num_qubits)])
    m.flags.writeable = False
    return m


def born_probabilities(matrices: np.ndarray) -> np.ndarray:
    """(P, 3^n, 2^n) outcome probabilities of each state of a (P, 2^n, 2^n)
    stack after rotating each qubit into each basis of `_bases`."""
    rots = _basis_rotations(int(math.log2(matrices.shape[-1])))
    rotated = rots @ matrices[:, None] @ rots.conj().swapaxes(-1, -2)
    probs = np.clip(np.real(np.diagonal(rotated, axis1=-2, axis2=-1)), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def _rng_for(seed: int, basis: str) -> np.random.Generator:
    key = tuple(BASIS_CHARS.index(ch) for ch in basis)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def measure_shots(probs: np.ndarray, basis: str, shots: int, seed: int) -> np.ndarray:
    """Counts of i.i.d. outcomes with the Born probabilities `probs` of
    `basis`, drawn on the (seed, basis) stream, in the count layout."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if 2 ** len(basis) != len(probs):
        raise ValueError(
            f"basis {basis!r} does not match a {int(math.log2(len(probs)))}-qubit state"
        )
    for ch in basis:
        if ch not in BASIS_CHARS:
            raise ValueError(f"invalid basis character {ch!r}")
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


def exact_expectations(matrices: np.ndarray) -> dict[str, np.ndarray]:
    """The (P,) expectations of every non-identity Pauli over a (P, d, d) stack."""
    return {
        p: np.trace(pauli_matrix(p) @ matrices, axis1=-2, axis2=-1).real
        for p in pauli_strings(int(math.log2(matrices.shape[-1])))
    }


def estimate_expectations(
    counts_by_basis: Mapping[str, np.ndarray], num_qubits: int
) -> dict[str, np.ndarray]:
    """Estimate every non-identity Pauli, (P,) values, from full-basis (P, 2^n)
    count arrays.

    A Pauli containing I reuses the measured basis with I replaced by Z; its
    sign vector ignores the identity positions.
    """
    paulis = pauli_strings(num_qubits)
    values = []
    for pauli in paulis:
        meas = pauli.replace("I", "Z")
        counts = counts_by_basis[meas]
        if counts.ndim != 2 or counts.shape[1] != 2 ** num_qubits:
            raise ValueError(f"counts of basis {meas!r} have shape {counts.shape}")
        # Python's int / int is exactly rounded at any shot total; int64 / int64
        # in numpy goes through float64 and rounds twice beyond 2^53.
        signed = (counts @ _sign_vector(pauli)).tolist()
        values.append([s / t for s, t in zip(signed, counts.sum(axis=1).tolist())])
    return dict(zip(paulis, np.array(values)))


def reconstruct(expectations: Mapping[str, np.ndarray], num_qubits: int) -> np.ndarray:
    """The raw (P, 2^n, 2^n) stack of linear inversions rho = (I + sum <P> P) / 2^n,
    from the (P,) expectations of every Pauli: Hermitian and unit trace, PSD
    not required."""
    if num_qubits not in (1, 2):
        raise ValueError(f"reconstruction supports 1 or 2 qubits, got {num_qubits}")
    dim = 2 ** num_qubits
    rho = np.eye(dim, dtype=complex)
    for pauli in pauli_strings(num_qubits):
        if pauli not in expectations:
            raise ValueError(f"missing expectation for Pauli {pauli!r}")
        rho = rho + expectations[pauli][:, None, None] * pauli_matrix(pauli)
    rho /= dim
    return rho


def project_physical(w: np.ndarray, v: np.ndarray) -> list[DensityMatrix]:
    """Closest PSD unit-trace matrix in Frobenius norm to each raw tomogram of
    a stack, from its descending eigenvalues `w` (P, d) and eigenvector columns
    `v` (P, d, d); all validated by one stacked eigensolve.

    Eigenvalue truncation: walk the spectrum from the most negative value,
    zero it, and spread the deficit uniformly over the eigenvalues still in
    play; stop once the smallest survivor stays nonnegative. The walk is
    vectorised over the stack: the deficit carried into index i is the sum
    of the eigenvalues after it, and the walk keeps indices 0..k for the
    largest k whose level w_k + deficit_k / (k + 1) is nonnegative. Index 0
    always qualifies, as its level is the trace.
    """
    points, d = w.shape
    deficit = np.zeros((points, d))
    deficit[:, :-1] = w[:, :0:-1].cumsum(axis=1)[:, ::-1]
    level = w + deficit / np.arange(1, d + 1)
    kept = d - (level[:, ::-1] >= 0.0).argmax(axis=1)
    shift = deficit[np.arange(points), kept - 1] / kept
    out = np.where(np.arange(d) < kept[:, None], w + shift[:, None], 0.0)
    diag = np.zeros((points, d, d), dtype=complex)
    diag[:, np.arange(d), np.arange(d)] = out
    fixed = v @ diag @ v.conj().swapaxes(-1, -2)
    fixed = (fixed + fixed.conj().swapaxes(-1, -2)) / 2.0
    return DensityMatrix.stack(d.bit_length() - 1, fixed)


class TomoResult(NamedTuple):
    """Tomography of one reduced state and the exact state it was measured from."""

    raw_min_eigenvalue: float
    physical: DensityMatrix
    reduced: DensityMatrix


def tomo_pipeline(
    reduced: Sequence[DensityMatrix], shots: int | None, seed: int = 0
) -> list[TomoResult]:
    """Measure, reconstruct, and project each of the 1- or 2-qubit states
    `reduced`, all of one size, as one stack; state i draws on the streams
    of seed + i.

    shots=None is the exact mode: sampling is bypassed and the exact Pauli
    expectations feed the reconstruction directly. The raw stack is
    decomposed once, which rejects a NaN or a non-Hermitian tomogram.
    """
    if not reduced:
        return []
    n = reduced[0].num_qubits
    if not 1 <= n <= 2 or any(rho.num_qubits != n for rho in reduced):
        raise ValueError("tomography supports 1 or 2 qubits, in states of one size")
    matrices = np.array([rho.matrix for rho in reduced])
    if shots is None:
        expectations = exact_expectations(matrices)
    else:
        probs = born_probabilities(matrices)
        counts_by_basis = {
            basis: np.array([measure_shots(point[b], basis, shots, seed + i)
                             for i, point in enumerate(probs)])
            for b, basis in enumerate(_bases(n))
        }
        expectations = estimate_expectations(counts_by_basis, n)
    w, v = hermitian_eig(reconstruct(expectations, n), tol=1e-9)
    return [TomoResult(*t) for t in zip(w[:, -1].tolist(), project_physical(w, v), reduced)]


def report_dict(result: TomoResult) -> dict:
    """JSON-ready tomography report against the exact reduced state."""
    phys = result.physical
    return {
        "raw_min_eigenvalue": result.raw_min_eigenvalue,
        "fidelity": fidelity(phys, result.reduced),
        "trace_distance": trace_distance(phys, result.reduced),
        "matrix_re": phys.matrix.real,
        "matrix_im": phys.matrix.imag,
    }
