"""Former kernels of the library, kept as test oracles for the code that replaced them.

`string_canonical_order` is the former string-label `zx._canonical_order`,
verbatim but for the name, so the oracle shares no code with the integer
colour refinement it checks. `whole_diagram_scalar` is the former check of
`zx.apply_rule_checked`, which contracted the whole diagram on both sides of
a rewrite instead of the region it changed. `counter_local_sides` is the
former `zx._local_sides`, verbatim but for the name: it finds that region
with `Counter`s and `(id, ZXNode)` item sets. `linalg_norm_proportionality`
is the former `qmath.proportionality`, verbatim but for the name: it takes
its norms with `np.linalg.norm`. `per_point_sweep` is the former loop of
`nohiding.run_sweep`, which simulated, reduced, validated and tomographed each
sweep point on its own, verbatim but for the name, the record's field names,
the deleted `system_state` and `seed` fields and the `per_matrix_` and
`single_` kernels it calls. Those are the former
single-matrix tomography of `tomo` (Born probabilities, sampling, estimation,
`TomogramRaw` validation, reconstruction, projection and the pipeline, whose
result keeps the fields of the former `tomo.TomoResult`) and the former
single-state `qmath.distances_to_mixed`, verbatim but for the names.
`string_estimate_expectations` is the former `tomo.estimate_expectations`,
verbatim but for the name: it reads bitstring-keyed count dicts, held in
`ShotCounts` (the fields of the former `tomo.ShotCounts`, unvalidated), and
takes each parity character by character. `tensordot_apply_op` is the former
`circuits._apply_op`, verbatim but for the name: a `tensordot` on the touched
axes, then a `moveaxis` back.
The property tests in test_oracles.py and test_circuits.py compare the library
against them.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from nohidelab.circuits import run_statevector
from nohidelab.nohiding import (
    _IMPERFECT_SYSTEM_WIRE,
    ExperimentRecord,
    build_imperfect_circuit,
    default_input_state,
)
from nohidelab.qmath import (
    SQRT_FLOOR,
    DensityMatrix,
    StateVector,
    partial_trace,
    proportionality,
    read_only_eig,
)
from nohidelab.tomo import (
    _ROTATION,
    BASIS_CHARS,
    _rng_for,
    _sign_vector,
    pauli_matrix,
    pauli_strings,
)
from nohidelab.zx import ZXDiagram, ZXNode, apply_rule, evaluate


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


def tensordot_apply_op(tensor: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply a 2^k operator to `axes` of a (2,)*m tensor; axes[0] is the op's MSB."""
    k = len(axes)
    out = np.tensordot(op.reshape((2,) * (2 * k)), tensor,
                       axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def whole_scalar(before: ZXDiagram, after: ZXDiagram) -> complex | None:
    """s with evaluate(after) = s * evaluate(before), or None."""
    return proportionality(evaluate(after), evaluate(before))


def whole_diagram_scalar(d: ZXDiagram, rule: str, loc) -> complex | None:
    """The scalar of a rewrite, measured on the whole diagram."""
    return whole_scalar(d, apply_rule(d, rule, loc))


def counter_local_sides(d: ZXDiagram, new: ZXDiagram) -> tuple[ZXDiagram, ZXDiagram]:
    """The region a rewrite changed, cut out of each side as a small diagram.

    The region holds every node that is absent on one side, whose ZXNode
    differs, or whose place among the inputs/outputs moved. Each edge from it
    into the unchanged context, and each context-to-context edge in the
    multiset difference of the two edge lists, ends in an open leg at its
    context node; the legs are outputs sorted by that node's id, after which
    come the region's own boundaries in their order. A context node with a
    different number of legs on the two sides, or with more than one (which
    the sort could not pair across the sides), joins the region.
    """
    sides = (d, new)
    places = [{**{n: ("in", i) for i, n in enumerate(x.inputs)},
               **{n: ("out", i) for i, n in enumerate(x.outputs)}} for x in sides]
    changed = (d.nodes.items() ^ new.nodes.items()) | (places[0].items() ^ places[1].items())
    region = {n for n, _ in changed}
    counts = Counter(d.edges), Counter(new.edges)
    only = counts[0] - counts[1], counts[1] - counts[0]
    while True:
        wires = [[e for e in diff.elements() if region.isdisjoint(e)] for diff in only]
        legs = [Counter(c for e in wire for c in e) for wire in wires]
        for x, leg in zip(sides, legs):
            leg.update(m for n in region for m in x._adj.get(n, ()) if m not in region)
        grow = {c for c in legs[0].keys() | legs[1].keys()
                if legs[0][c] != legs[1][c] or legs[0][c] > 1}
        if not grow:
            break
        region |= grow

    first = max(d.nodes.keys() | new.nodes.keys(), default=-1) + 1
    out = {c: first + i for i, c in enumerate(sorted(legs[0]))}

    def cut(x: ZXDiagram, wire: list) -> ZXDiagram:
        nodes = {n: x.nodes[n] for n in region & x.nodes.keys()}
        nodes.update((o, ZXNode("out")) for o in out.values())
        edges = [(n, out.get(m, m)) for n in nodes for m in x._adj.get(n, ())
                 if n < m or m not in region]
        edges += [(out[a], out[b]) for a, b in wire]
        return ZXDiagram(nodes, tuple(edges), tuple(n for n in x.inputs if n in region),
                         (*out.values(), *(n for n in x.outputs if n in region)))

    return cut(d, wires[0]), cut(new, wires[1])



def linalg_norm_proportionality(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> complex | None:
    """Scalar s with a = s*b within tol (relative), or None if no such s."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return None
    nb = np.linalg.norm(b)
    na = np.linalg.norm(a)
    if nb == 0.0:
        return 1.0 + 0j if na == 0.0 else None
    s = complex(np.vdot(b, a) / np.vdot(b, b))
    if np.linalg.norm(a - s * b) <= tol * max(na, nb, 1.0):
        return s
    return None


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
        tomo = per_matrix_tomo_pipeline(final, [_IMPERFECT_SYSTEM_WIRE], shots, entry_seed)
        system = tomo.reduced
        t_exact, f_exact = single_distances_to_mixed(system)
        t_tomo, f_tomo = single_distances_to_mixed(tomo.physical)
        records.append(ExperimentRecord(
            p=float(p),
            trace_distance_exact=t_exact,
            fidelity_exact=f_exact,
            fidelity_bound=1.0 - (1.0 - float(p)) / 2.0,
            trace_distance_tomo=t_tomo,
            fidelity_tomo=f_tomo,
            raw_min_eigenvalue=tomo.raw.min_eigenvalue,
        ))
    return records


class ShotCounts(NamedTuple):
    """Outcome histogram of one measurement basis, keyed by bitstring."""

    basis: str
    shots: int
    counts: dict[str, int]


def string_estimate_expectations(
    counts_by_basis: Mapping[str, ShotCounts], num_qubits: int
) -> dict[str, float]:
    """Estimate every non-identity Pauli from full-basis shot counts.

    A Pauli containing I reuses the measured basis with I replaced by Z and
    takes the parity only over its non-identity positions.
    """
    out: dict[str, float] = {}
    for pauli in pauli_strings(num_qubits):
        meas = pauli.replace("I", "Z")
        sc = counts_by_basis[meas]
        positions = [i for i, ch in enumerate(pauli) if ch != "I"]
        total = 0
        for outcome, c in sc.counts.items():
            parity = sum(outcome[i] == "1" for i in positions) % 2
            total += -c if parity else c
        out[pauli] = total / sc.shots
    return out


# The former single-matrix tomography of `tomo`, verbatim but for the names,
# and the former single-state `qmath.distances_to_mixed`.


def per_matrix_born_probabilities(state: DensityMatrix, basis: str) -> np.ndarray:
    """Outcome probabilities after rotating each qubit into `basis`."""
    if len(basis) != state.num_qubits:
        raise ValueError(
            f"basis {basis!r} does not match a {state.num_qubits}-qubit state"
        )
    for ch in basis:
        if ch not in BASIS_CHARS:
            raise ValueError(f"invalid basis character {ch!r}")
    rot = functools.reduce(np.kron, [_ROTATION[ch] for ch in basis])
    probs = np.real(np.diag(rot @ state.matrix @ rot.conj().T))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def per_matrix_measure_shots(state: DensityMatrix, basis: str, shots: int, seed: int) -> np.ndarray:
    """Counts of i.i.d. outcomes in the given Pauli basis, in the count layout."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = per_matrix_born_probabilities(state, basis)  # validates the basis first
    return _rng_for(seed, basis).multinomial(shots, probs)


def per_matrix_exact_expectations(state: DensityMatrix) -> dict[str, float]:
    return {
        p: float(np.trace(pauli_matrix(p) @ state.matrix).real)
        for p in pauli_strings(state.num_qubits)
    }


def per_matrix_estimate_expectations(
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
class PerMatrixTomogramRaw:
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


def per_matrix_reconstruct(expectations: Mapping[str, float], num_qubits: int) -> PerMatrixTomogramRaw:
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
    return PerMatrixTomogramRaw(rho)


def per_matrix_project_physical(raw: PerMatrixTomogramRaw) -> DensityMatrix:
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


class PerMatrixTomoResult(NamedTuple):
    """Tomography of one reduced state and the exact state it was measured from."""

    raw: PerMatrixTomogramRaw
    physical: DensityMatrix
    reduced: DensityMatrix


def per_matrix_tomo_pipeline(
    state: StateVector | DensityMatrix,
    qubits: Sequence[int],
    shots: int | None,
    seed: int = 0,
) -> PerMatrixTomoResult:
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
        expectations = per_matrix_exact_expectations(reduced)
    else:
        counts_by_basis = {
            "".join(b): per_matrix_measure_shots(reduced, "".join(b), shots, seed)
            for b in itertools.product(BASIS_CHARS, repeat=n)
        }
        expectations = per_matrix_estimate_expectations(counts_by_basis, n)
    raw = per_matrix_reconstruct(expectations, n)
    physical = per_matrix_project_physical(raw)
    return PerMatrixTomoResult(raw, physical, reduced)


def single_distances_to_mixed(rho: DensityMatrix) -> tuple[float, float]:
    """Trace distance and fidelity of `rho` to I/d, read from its spectrum.

    I/d commutes with rho, so T = 1/2 sum |w - 1/d| and F = sum sqrt(w/d)
    over the eigenvalues w of rho, with the floor and clip of `fidelity`.
    """
    w = rho.spectrum[0]
    d = len(w)
    t = 0.5 * np.sum(np.abs(w - 1.0 / d))
    scaled = w / d
    f = np.sum(np.sqrt(np.where(scaled < SQRT_FLOOR, 0.0, scaled)))
    return min(max(float(t), 0.0), 1.0), min(max(float(f), 0.0), 1.0)
