import contextlib
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

import nohidelab
from nohidelab.qmath import DensityMatrix, StateVector

DATA = Path(__file__).parent / "data"
# Every property draws the same examples on every run, with no time limit;
# tests set only max_examples.
settings.register_profile("nohidelab", deadline=None, derandomize=True, database=None)
settings.load_profile("nohidelab")
# For tools/mutants.py: a mutant is killed by any falsifying example, so the
# shrink phase, most of a kill's time, is skipped. Tier-1 keeps all phases.
settings.register_profile("mutants", parent=settings.get_profile("nohidelab"),
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])
# 5 gates at MAX_QUBITS: 2^19-column dots, and amplitudes across 127 row-batch joins.
Q20_CIRCUIT = "qubits 20\nh 0\nu3 0.3 1.1 -0.7 1\ncx 0 19\nt 19\nh 10\n"


def subprocess_env(**overrides: str) -> dict[str, str]:
    """This environment, with the nohidelab under test on PYTHONPATH."""
    src = Path(nohidelab.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src), **overrides)


@contextlib.contextmanager
def fresh_run(argvs: list[list[str]], build: Path, **env: str):
    """Run the nohidelab `argvs` in a fresh interpreter (tests/run_argvs.py)
    alongside the with-block, and check that every one of them succeeds."""
    with subprocess.Popen([sys.executable, str(Path(__file__).parent / "run_argvs.py"),
                           json.dumps(argvs), str(build)], text=True, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=subprocess_env(**env)) as run:
        yield
        err = run.communicate(timeout=300)[1]
    assert run.returncode == 0, err


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


def assert_same(got: str | bytes, want: str | bytes, label: str = "output") -> None:
    """got == want; a failure names both lengths and the first differing offset
    instead of pytest's diff, which can run for minutes on long texts."""
    if got == want:
        return
    at = 0
    while got[at:at + 65536] == want[at:at + 65536]:
        at += 65536
    at += next((i for i, (x, y) in enumerate(zip(got[at:], want[at:])) if x != y),
               min(len(got), len(want)) - at)
    lo, hi = max(at - 40, 0), at + 40
    pytest.fail(f"{label} differs at offset {at} (lengths: got {len(got)}, want {len(want)})\n"
                f"  got:  {got[lo:hi]!r}\n  want: {want[lo:hi]!r}")


@pytest.fixture
def failing_rename(monkeypatch) -> None:
    """os.replace raises, so an atomic write fails after writing its temp file."""
    def fail(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)


@pytest.fixture
def failing_write(monkeypatch) -> None:
    """The temp file's handle raises ENOSPC on write, as on a full disk."""
    fdopen = os.fdopen

    def full_disk(fd, *args, **kwargs):
        handle = fdopen(fd, *args, **kwargs)

        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        handle.write = write
        return handle
    monkeypatch.setattr(os, "fdopen", full_disk)


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
