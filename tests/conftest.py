import numpy as np
import pytest

from nohidelab.qmath import DensityMatrix, StateVector


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    dim = 2 ** num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    dim = 2 ** num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(num_qubits, rho / np.trace(rho))


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    dim = 2 ** num_qubits
    return DensityMatrix(num_qubits, np.eye(dim, dtype=complex) / dim)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240683)


@pytest.fixture
def eigh_calls(monkeypatch) -> list[np.ndarray]:
    """The matrices passed to np.linalg.eigh while the test runs."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    return calls
