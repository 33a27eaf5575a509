"""Reference kernels that the numpy kernels replaced, kept as test oracles.

`embed_matrix` is the former bit-twiddling dense gate embedding of
`circuits`, verbatim, and `run_density_dense` the former dense density-matrix
loop built on it; they stay as the references for `circuits._apply_op`.
`tensordot_evaluate` and `_node_tensor` are the former per-leg tensordot
contraction of `zx.evaluate`, verbatim but for the function name and a
literal edge limit of 24 in place of the constant `zx` no longer has, and
`string_canonical_order` the former string-label `zx._canonical_order` it
contracts in, verbatim but for the name, so the oracle shares no code with
the integer colour refinement it checks. `two_eigensolve_fidelity` is the
former `qmath.fidelity` with its `matrix_sqrt_psd`, which decomposed the
first state again instead of reading its stored validation spectrum.
`whole_diagram_scalar` is the former check of `zx.apply_rule_checked`, which
contracted the whole diagram on both sides of a rewrite instead of the
region it changed. `per_point_sweep` is the former loop of
`nohiding.run_sweep`, which simulated, reduced and validated each sweep point
on its own, verbatim but for the name and the deleted `system_state` field.
The property tests in test_oracles.py compare the library against them.
"""
from __future__ import annotations

import cmath
from typing import Sequence

import numpy as np

from nohidelab.circuits import run_statevector
from nohidelab.nohiding import (
    _IMPERFECT_SYSTEM_WIRE,
    ExperimentRecord,
    build_imperfect_circuit,
    default_input_state,
)
from nohidelab.qmath import (
    EIG_CLAMP,
    HADAMARD,
    SQRT_FLOOR,
    DensityMatrix,
    StateVector,
    distances_to_mixed,
    hermitian_eig,
    proportionality,
)
from nohidelab.tomo import tomo_pipeline
from nohidelab.zx import BOUNDARY_KINDS, ZXDiagram, apply_rule, evaluate


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


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-EIG_CLAMP, 0) are clamped to 0; anything more negative
    is rejected as nonphysical.
    """
    w, v = hermitian_eig(m)
    low = float(w.min())
    if low < -EIG_CLAMP:
        raise ValueError(f"matrix has negative eigenvalue {low:.3e} below clamp threshold")
    w = np.where(w < SQRT_FLOOR, 0.0, w)
    return v @ np.diag(np.sqrt(w)) @ v.conj().T


def two_eigensolve_fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)), in [0, 1]."""
    sa = matrix_sqrt_psd(a.matrix)
    inner = sa @ b.matrix @ sa
    w, _ = hermitian_eig((inner + inner.conj().T) / 2.0)
    w = np.where(w < SQRT_FLOOR, 0.0, w)
    return float(np.clip(np.sum(np.sqrt(w)), 0.0, 1.0))


def string_canonical_order(d: ZXDiagram) -> list[int]:
    # Refined labels make the order a function of the graph alone (not of
    # node ids), so relabeled diagrams contract identically bit for bit.
    labels = {}
    for nid, node in d.nodes.items():
        if nid in d.inputs:
            labels[nid] = f"in{d.inputs.index(nid)}"
        elif nid in d.outputs:
            labels[nid] = f"out{d.outputs.index(nid)}"
        else:
            phase = node.phase
            labels[nid] = f"{node.kind}:{phase.real:.9e}:{phase.imag:.9e}"
    for _ in range(len(d.nodes)):
        refined = {}
        for nid in d.nodes:
            neigh = ",".join(sorted(labels[m] for m in d.neighbors(nid)))
            refined[nid] = f"{labels[nid]}({neigh})"
        if len(set(refined.values())) == len(set(labels.values())):
            labels = refined
            break
        labels = refined

    # Breadth-first from the ordered boundaries keeps contraction local, so
    # the number of simultaneously open tensor axes stays near the diagram
    # width instead of its edge count.
    order: list[int] = []
    seen: set[int] = set()
    queue: list[int] = []
    for nid in list(d.inputs) + list(d.outputs):
        seen.add(nid)
        order.append(nid)
        queue.append(nid)
    while True:
        while queue:
            nid = queue.pop(0)
            for m in sorted(d.neighbors(nid), key=lambda x: (labels[x], x)):
                if m not in seen:
                    seen.add(m)
                    order.append(m)
                    queue.append(m)
        rest = [n for n in d.nodes if n not in seen]
        if not rest:
            return order
        start = min(rest, key=lambda x: (labels[x], x))
        seen.add(start)
        order.append(start)
        queue.append(start)


def _node_tensor(kind: str, phase: complex, legs: int) -> np.ndarray:
    if kind == "H":
        return HADAMARD.copy()
    amp = cmath.exp(1j * phase)
    if legs == 0:
        return np.array(1.0 + amp, dtype=complex)
    t = np.zeros((2,) * legs, dtype=complex)
    t[(0,) * legs] = 1.0
    t[(1,) * legs] = amp
    if kind == "X":
        for ax in range(legs):
            t = np.moveaxis(np.tensordot(t, HADAMARD, axes=([ax], [0])), -1, ax)
    return t


def tensordot_evaluate(d: ZXDiagram) -> np.ndarray:
    """Contract the diagram to a 2^|outputs| x 2^|inputs| matrix."""
    if len(d.edges) > 24:
        raise ValueError(f"diagram too large for brute force ({len(d.edges)} edges > 24)")
    order = string_canonical_order(d)
    rank = {nid: i for i, nid in enumerate(order)}
    # edge instances in canonical order
    instances = sorted(
        ((min(rank[a], rank[b]), max(rank[a], rank[b])), idx)
        for idx, (a, b) in enumerate(d.edges)
    )
    incident: dict[int, list[int]] = {nid: [] for nid in d.nodes}
    inst_ends: list[tuple[int, int]] = []
    for inst, (_, orig_idx) in enumerate(instances):
        a, b = d.edges[orig_idx]
        inst_ends.append((a, b))
        incident[a].append(inst)
        incident[b].append(inst)

    boundary = set(d.inputs) | set(d.outputs)
    current = np.array(1.0 + 0j)
    open_axes: dict[int, int] = {}

    for nid in order:
        node = d.nodes[nid]
        if node.kind in BOUNDARY_KINDS:
            continue
        legs = incident[nid]
        t = _node_tensor(node.kind, node.phase, len(legs))
        shared = [e for e in legs if e in open_axes]
        cur_axes = [open_axes[e] for e in shared]
        t_axes = [legs.index(e) for e in shared]
        current = np.tensordot(current, t, axes=(cur_axes, t_axes))
        remaining = [e for e in sorted(open_axes, key=open_axes.get) if e not in shared]
        open_axes = {e: i for i, e in enumerate(remaining)}
        offset = len(remaining)
        pos = 0
        for e in legs:
            if e not in shared:
                open_axes[e] = offset + pos
                pos += 1

    axis_for_boundary: dict[int, int] = {}
    for inst, (a, b) in enumerate(inst_ends):
        if a in boundary and b in boundary:
            # bare wire between two boundaries: identity tensor
            n_axes = current.ndim
            current = np.tensordot(current, np.eye(2, dtype=complex), axes=0)
            first, second = (a, b) if rank[a] <= rank[b] else (b, a)
            axis_for_boundary[first] = n_axes
            axis_for_boundary[second] = n_axes + 1
        elif a in boundary:
            axis_for_boundary[a] = open_axes[inst]
        elif b in boundary:
            axis_for_boundary[b] = open_axes[inst]

    perm = [axis_for_boundary[o] for o in d.outputs] + [axis_for_boundary[i] for i in d.inputs]
    if sorted(perm) != list(range(current.ndim)):
        raise AssertionError("contraction left unexpected open axes")
    current = np.transpose(current, perm)
    return current.reshape(2 ** len(d.outputs), 2 ** len(d.inputs))


def whole_scalar(before: ZXDiagram, after: ZXDiagram) -> complex | None:
    """s with evaluate(after) = s * evaluate(before), or None."""
    return proportionality(evaluate(after), evaluate(before))


def whole_diagram_scalar(d: ZXDiagram, rule: str, loc) -> complex | None:
    """The scalar of a rewrite, measured on the whole diagram."""
    return whole_scalar(d, apply_rule(d, rule, loc))


def per_point_sweep(
    p_values: Sequence[float],
    shots: int | None,
    seed: int = 0,
    psi: StateVector | None = None,
) -> list[ExperimentRecord]:
    """Run the imperfect experiment across p, one derived seed per entry."""
    if psi is None:
        psi = default_input_state()
    inp = psi.tensor(StateVector.ket("000"))
    records = []
    for index, p in enumerate(p_values):
        entry_seed = seed + index
        final = run_statevector(build_imperfect_circuit(p), inp)
        tomo = tomo_pipeline(final, [_IMPERFECT_SYSTEM_WIRE], shots, entry_seed)
        system = tomo.reduced
        t_exact, f_exact = distances_to_mixed(system)
        t_tomo, f_tomo = distances_to_mixed(tomo.physical)
        records.append(ExperimentRecord(
            p=float(p),
            trace_distance_to_mixed=t_exact,
            fidelity_to_mixed=f_exact,
            fidelity_lower_bound=1.0 - (1.0 - float(p)) / 2.0,
            trace_distance_tomo=t_tomo,
            fidelity_tomo=f_tomo,
            raw_min_eigenvalue=tomo.raw.min_eigenvalue,
            seed=entry_seed,
        ))
    return records
