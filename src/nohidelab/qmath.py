"""Dense complex linear algebra and distance metrics for few-qubit states.

Index convention used everywhere in this package: qubit 0 is the most
significant bit of an amplitude or matrix index, so the basis ket
|b0 b1 ... b_{n-1}> sits at index b0*2^(n-1) + ... + b_{n-1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ATOL = 1e-10
# Eigenvalues in [-EIG_CLAMP, 0) are treated as roundoff; a DensityMatrix
# with anything below is rejected as not PSD.
EIG_CLAMP = 1e-9
# Positive eigenvalues below this are solver noise on a rank-deficient
# input; sqrt would amplify them to ~1e-8, so they are zeroed instead.
SQRT_FLOOR = 1e-13

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULIS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor is the more significant one."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_unitary(m: np.ndarray, tol: float = ATOL) -> bool:
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= tol


def hermitian_eig(m: np.ndarray, tol: float = EIG_CLAMP) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (LAPACK, via np.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as the columns of a unitary matrix,
    so that m = V diag(w) V^dagger. A stack of matrices with leading batch
    axes is decomposed by one `eigh` call, matrix by matrix bit-identical to
    single calls, and gives stacked results.

    Raises ValueError for input with a NaN or infinite entry, or that is not
    Hermitian within `tol`, naming the worst asymmetric entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a NaN or infinite entry")
    adjoint = m.conj().swapaxes(-1, -2)
    asym = np.abs(m - adjoint)
    worst = float(asym.max()) if m.size else 0.0
    if worst > tol:
        *_, i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise ValueError(
            f"matrix is not Hermitian: |m[{i},{j}] - conj(m[{j},{i}])| = {worst:.3e}"
        )
    w, v = np.linalg.eigh((m + adjoint) / 2.0)
    return w[..., ::-1], v[..., ::-1]


def _norm(v: np.ndarray) -> np.float64:
    """np.linalg.norm of a complex vector without its dispatch: the same sum
    of the same dots, so the same bits and the same overflow warnings."""
    re, im = v.real, v.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def proportionality(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> complex | None:
    """Scalar s with a = s*b within tol (relative), or None if no such s."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return None
    nb = _norm(b)
    na = _norm(a)
    if nb == 0.0:
        return 1.0 + 0j if na == 0.0 else None
    s = complex(np.vdot(b, a) / np.vdot(b, b))
    if _norm(a - s * b) <= tol * max(na, nb, 1.0):
        return s
    return None


@dataclass(frozen=True)
class StateVector:
    """Pure state of an n-qubit register; qubit 0 is the index MSB."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != 2 ** self.num_qubits:
            raise ValueError(
                f"expected {2 ** self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got {amps.shape[0]}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state vector norm {norm!r} differs from 1 beyond tolerance")

    @classmethod
    def ket(cls, bits: str) -> "StateVector":
        """Computational basis state |bits>, e.g. ket('010')."""
        n = len(bits)
        amps = np.zeros(2 ** n, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(n, amps)

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        n = int(round(math.log2(amps.shape[0])))
        return cls(n, amps)

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(self.num_qubits + other.num_qubits,
                           np.kron(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of an n-qubit register: Hermitian, unit trace, PSD.

    The eigendecomposition that proves PSD is kept, read-only, in `spectrum`
    (descending eigenvalues, eigenvector columns) for fidelity and
    `distances_to_mixed`. `matrix` is not copied, so it must not be changed
    after construction.
    """

    num_qubits: int
    matrix: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", _density_spectra(m, self.num_qubits))

    @classmethod
    def stack(cls, num_qubits: int, matrices: np.ndarray) -> list["DensityMatrix"]:
        """One DensityMatrix per matrix of a (P, d, d) stack, all validated by
        one stacked eigensolve and built without validating again; each keeps
        read-only views of its slice of the stacked spectrum, and its matrix is
        a view of the stack."""
        m = np.asarray(matrices, dtype=complex)
        w, v = _density_spectra(m, num_qubits, stacked=True)
        members = []
        for i in range(len(m)):
            member = object.__new__(cls)
            object.__setattr__(member, "num_qubits", num_qubits)
            object.__setattr__(member, "matrix", m[i])
            object.__setattr__(member, "spectrum", (w[i], v[i]))
            members.append(member)
        return members


def _density_spectra(
    m: np.ndarray, num_qubits: int, stacked: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The read-only spectrum of a density matrix, or the stacked spectra of a
    (P, d, d) stack when `stacked`.

    Raises ValueError unless every matrix is Hermitian, unit trace and PSD.
    """
    dim = 2 ** num_qubits
    if m.shape[int(stacked):] != (dim, dim):
        stack = " stack" if stacked else ""
        raise ValueError(f"expected a {dim}x{dim} matrix{stack}, got shape {m.shape}")
    w, v = hermitian_eig(m, tol=ATOL)
    w.flags.writeable = False
    v.flags.writeable = False
    traces = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
    for tr in traces:
        if abs(tr - 1.0) > ATOL:
            raise ValueError(
                f"density matrix trace {complex(tr)!r} differs from 1 beyond tolerance"
            )
    if w.size and float(w.min()) < -EIG_CLAMP:
        raise ValueError(f"density matrix has negative eigenvalue {float(w.min()):.3e}")
    return w, v


def _require_same_dims(a: DensityMatrix | StateVector, b: DensityMatrix | StateVector) -> None:
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} qubits vs {b.num_qubits} qubits"
        )


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b."""
    _require_same_dims(a, b)
    w, _ = hermitian_eig(a.matrix - b.matrix)
    return min(max(float(0.5 * np.sum(np.abs(w))), 0.0), 1.0)


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)), in [0, 1]."""
    _require_same_dims(a, b)
    w, v = a.spectrum
    sa = v @ np.diag(np.sqrt(np.where(w < SQRT_FLOOR, 0.0, w))) @ v.conj().T
    inner = sa @ b.matrix @ sa
    w, _ = hermitian_eig(inner)
    w = np.where(w < SQRT_FLOOR, 0.0, w)
    return min(max(float(np.sum(np.sqrt(w))), 0.0), 1.0)


def fidelity_to_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """Fidelity sqrt(<psi|rho|psi>) to a pure target, in [0, 1]; no eigensolve.

    An overlap below SQRT_FLOOR is zeroed, as in `fidelity`.
    """
    _require_same_dims(rho, psi)
    a = psi.amplitudes
    overlap = float(np.vdot(a, rho.matrix @ a).real)
    return min(math.sqrt(overlap), 1.0) if overlap >= SQRT_FLOOR else 0.0


def distances_to_mixed(states: Sequence[DensityMatrix]) -> list[tuple[float, float]]:
    """Trace distance and fidelity of each state to I/d, read from the
    stacked spectra of states of one size.

    I/d commutes with rho, so T = 1/2 sum |w - 1/d| and F = sum sqrt(w/d)
    over the eigenvalues w of rho, with the floor and clip of `fidelity`.
    """
    w = np.array([rho.spectrum[0] for rho in states])
    d = w.shape[-1]
    t = 0.5 * np.sum(np.abs(w - 1.0 / d), axis=-1)
    scaled = w / d
    f = np.sum(np.sqrt(np.where(scaled < SQRT_FLOOR, 0.0, scaled)), axis=-1)
    return list(zip(np.clip(t, 0.0, 1.0).tolist(), np.clip(f, 0.0, 1.0).tolist()))


def _keep_list(keep: Sequence[int], num_qubits: int) -> list[int]:
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit index in keep list {keep}")
    for q in keep:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")
    return keep


def partial_trace_matrix(m: np.ndarray, num_qubits: int, keep: Sequence[int]) -> np.ndarray:
    """Partial trace of an arbitrary square operator over the dropped qubits.

    `keep` lists the qubits of the reduced operator in output order.
    """
    keep = _keep_list(keep, num_qubits)
    m = np.asarray(m, dtype=complex)
    t = m.reshape([2] * (2 * num_qubits))
    remaining = list(range(num_qubits))
    for q in sorted(set(range(num_qubits)) - set(keep), reverse=True):
        j = remaining.index(q)
        k = len(remaining)
        t = np.trace(t, axis1=j, axis2=k + j)
        remaining.remove(q)
    perm = [remaining.index(q) for q in keep]
    k = len(keep)
    t = np.transpose(t, perm + [k + p for p in perm])
    return t.reshape(2 ** k, 2 ** k)


def partial_trace(state: StateVector | DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on `keep` (in the given order); trace is preserved.

    A pure state is reduced from its amplitudes, as M M^dagger with M the
    amplitudes reshaped to (kept, traced) axes, so no 2^n x 2^n matrix is formed.
    """
    n = state.num_qubits
    keep = _keep_list(keep, n)
    if isinstance(state, DensityMatrix):
        reduced = partial_trace_matrix(state.matrix, n, keep)
    else:
        traced = [q for q in range(n) if q not in keep]
        m = np.transpose(state.amplitudes.reshape((2,) * n), keep + traced)
        m = m.reshape(2 ** len(keep), -1)
        reduced = m @ m.conj().T
    return DensityMatrix(len(keep), reduced)
