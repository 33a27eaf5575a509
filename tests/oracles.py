"""Reference kernels that the numpy kernels replaced, kept as test oracles.

`jacobi_eig` is the former cyclic-Jacobi `qmath.hermitian_eig`, and
`embed_matrix` the former bit-twiddling dense gate embedding of `circuits`,
both verbatim. `run_density_dense` is the former dense density-matrix loop
built on `embed_matrix`. The property tests in test_oracles.py compare the
library against them. They are kept for one change only: delete this module
and test_oracles.py in the next change.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from nohidelab.qmath import EIG_CLAMP

JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_eig(m: np.ndarray, tol: float = EIG_CLAMP) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as the columns of a unitary matrix,
    so that m = V diag(w) V^dagger.

    Raises ValueError for input that is not Hermitian within `tol`, naming
    the worst asymmetric entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = np.abs(m - m.conj().T)
    worst = float(asym.max()) if m.size else 0.0
    if worst > tol:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise ValueError(
            f"matrix is not Hermitian: |m[{i},{j}] - conj(m[{j},{i}])| = {worst:.3e}"
        )

    a = (m + m.conj().T) / 2.0
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), v

    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = float(np.linalg.norm(a[off_mask]))
        if off < JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-300:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                sign = 1.0 if tau >= 0 else -1.0
                t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Right multiply by J, left multiply by J^dagger, where the
                # (p, q) block of J is [[c, s*phase], [-s*conj(phase), c]].
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vc_p = v[:, p].copy()
                vc_q = v[:, q].copy()
                v[:, p] = c * vc_p - s * np.conj(phase) * vc_q
                v[:, q] = s * phase * vc_p + c * vc_q
    else:
        raise ArithmeticError("Jacobi eigensolver did not converge in 100 sweeps")

    w = np.diag(a).real.copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def embed_matrix(u: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a 2^k operator at the given qubits (qubit 0 = index MSB)."""
    k = len(targets)
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target {t} out of range for {num_qubits} qubits")
    full = np.zeros((2 ** num_qubits, 2 ** num_qubits), dtype=complex)
    shifts = [num_qubits - 1 - t for t in targets]
    for col in range(2 ** num_qubits):
        j = 0
        for sh in shifts:
            j = (j << 1) | ((col >> sh) & 1)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for i in range(2 ** k):
            row = base
            for t_idx, sh in enumerate(shifts):
                if (i >> (k - 1 - t_idx)) & 1:
                    row |= 1 << sh
            full[row, col] += u[i, j]
    return full


def run_density_dense(circuit, channels, rho: np.ndarray) -> np.ndarray:
    """rho evolved by dense embedded gates and Kraus sums (no validation)."""
    n = circuit.num_qubits
    for i in range(len(circuit.gates) + 1):
        for chan, qubits, position in channels:
            if position == i:
                ks = [embed_matrix(k, qubits, n) for k in chan.kraus_ops]
                rho = sum(k @ rho @ k.conj().T for k in ks)
        if i < len(circuit.gates):
            g = circuit.gates[i]
            u = embed_matrix(g.local_matrix(), g.targets, n)
            rho = u @ rho @ u.conj().T
    return rho
