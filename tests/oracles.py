"""Test oracles: former kernels of the library kept to check the code that
replaced them, a per-point composition of library calls, and references
that only tests call.

Each former kernel stays while the code it checks stays, and while no
independent check catches what it catches. All are verbatim but for the name.

- `string_canonical_order` is the former string-label `zx._canonical_order`.
  It shares no code with the integer colour refinement it checks, and only
  the comparison of the two orders catches a refinement that is skipped or a
  BFS that breaks ties by node id.
- `column_parse_circuit` is the former `circuits.parse_circuit`, which
  tokenizes each line into (token, column) pairs with `_TOKEN` before it
  parses. The parser that replaced it splits with `str.split()` and finds a
  column only for a diagnostic; the two must agree on every circuit and on
  every error's message, line and column.
- `tensordot_apply_op` is the former `circuits._apply_op`: a `tensordot` on
  the touched axes, then a `moveaxis` back. It is the reference of the
  README's claim that the gate kernel is bit-identical to `tensordot`.
- `whole_scalar` and `whole_diagram_scalar` measure a rewrite's scalar on the
  whole diagram, as the former check of `zx.apply_rule_checked` did, instead
  of on the region the rewrite changed.
- `counter_local_sides` is the former `zx._local_sides`, which finds that
  region with `Counter`s and `(id, ZXNode)` item sets.
- `linalg_norm_proportionality` is the former `qmath.proportionality`, which
  takes its norms with `np.linalg.norm`. Bits and warnings must match.

`per_point_sweep` is the reference of the README's claim that the batched
sweep is byte-identical to simulating and tomographing each point on its own:
it builds each point's circuit, simulates it, reduces the system wire, and
tomographs it as a stack of one on seed + i. It calls only library functions.
The property tests in test_oracles.py and test_circuits.py compare the
library against these.

`channel_identity_error` is the reference of acceptance criterion 07: the
images of I, X, Y, Z under the imperfect experiment's dilation, against the
same images under `depolarizing_kraus(p)`, the Kraus form of the map that
mixes the input with I/2 at weight p. `equal_up_to_global_phase` is
`qmath.proportionality` with a unit-modulus scalar. No command calls these.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

from nohidelab.circuits import (
    _LINE_END,
    _TOKEN,
    GATE_ARITY,
    MAX_QUBITS,
    PARAM_COUNT,
    Circuit,
    CircuitParseError,
    Gate,
    ascii_float,
    ascii_int,
    circuit_unitary,
    run_statevector,
)
from nohidelab.nohiding import (
    _IMPERFECT_SYSTEM_WIRE,
    ExperimentRecord,
    _imperfect_core_gates,
    build_imperfect_circuit,
    default_input_state,
)
from nohidelab.qmath import (
    PAULIS,
    StateVector,
    distances_to_mixed,
    kron,
    partial_trace,
    partial_trace_matrix,
    proportionality,
)
from nohidelab.tomo import tomo_pipeline
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


def _tokenize(text: str):
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        cut = raw.find("#")
        if cut >= 0:
            raw = raw[:cut]
        toks = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(raw)]
        if toks:
            yield lineno, toks


def _parse_index(tok: str, col: int, lineno: int, num_qubits: int) -> int:
    try:
        value = ascii_int(tok)
    except ValueError:
        raise CircuitParseError(f"expected qubit index, got {tok!r}", lineno, col) from None
    if not 0 <= value < num_qubits:
        raise CircuitParseError(
            f"index out of range: qubit {value} in a {num_qubits}-qubit register",
            lineno, col,
        )
    return value


def _parse_angle(tok: str, col: int, lineno: int) -> float:
    try:
        value = ascii_float(tok)
    except ValueError:
        raise CircuitParseError(f"malformed angle literal {tok!r}", lineno, col) from None
    if not math.isfinite(value):
        raise CircuitParseError(f"malformed angle literal {tok!r}", lineno, col)
    return value


def column_parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format; diagnostics carry line and column."""
    lines = list(_tokenize(text))
    if not lines:
        raise CircuitParseError("empty input: expected a 'qubits N' header", 1, 1)
    lineno, toks = lines[0]
    if toks[0][0] != "qubits":
        raise CircuitParseError(
            f"expected 'qubits N' header, got {toks[0][0]!r}", lineno, toks[0][1]
        )
    if len(toks) != 2:
        col = toks[1][1] if len(toks) > 2 else toks[0][1]
        raise CircuitParseError("header must be exactly 'qubits N'", lineno, col)
    try:
        num_qubits = ascii_int(toks[1][0])
    except ValueError:
        raise CircuitParseError(
            f"expected qubit count, got {toks[1][0]!r}", lineno, toks[1][1]
        ) from None
    if num_qubits < 1:
        raise CircuitParseError("qubit count must be at least 1", lineno, toks[1][1])
    if num_qubits > MAX_QUBITS:
        raise CircuitParseError(
            f"qubit count {num_qubits} exceeds the limit of {MAX_QUBITS}", lineno, toks[1][1]
        )

    gates: list[Gate] = []
    for lineno, toks in lines[1:]:
        mnemonic, col0 = toks[0]
        if mnemonic not in GATE_ARITY:
            raise CircuitParseError(f"unknown mnemonic {mnemonic!r}", lineno, col0)
        n_angles = PARAM_COUNT.get(mnemonic, 0)
        n_idx = GATE_ARITY[mnemonic]
        args = toks[1:]
        if len(args) != n_angles + n_idx:
            where = args[-1][1] if len(args) > n_angles + n_idx else col0
            raise CircuitParseError(
                f"gate {mnemonic!r} expects {n_angles + n_idx} arguments "
                f"({n_angles} angles, {n_idx} qubits), got {len(args)}",
                lineno, where,
            )
        params = tuple(
            _parse_angle(tok, col, lineno) for tok, col in args[:n_angles]
        )
        targets = tuple(
            _parse_index(tok, col, lineno, num_qubits) for tok, col in args[n_angles:]
        )
        try:
            gates.append(Gate(mnemonic, targets, params))
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, col0) from None
    return Circuit(num_qubits, tuple(gates))


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
    """The imperfect sweep one point at a time, each a stack of one."""
    if psi is None:
        psi = default_input_state()
    inp = psi.tensor(StateVector.ket("000"))
    records = []
    for i, p in enumerate(p_values):
        final = run_statevector(build_imperfect_circuit(p), inp)
        system = partial_trace(final, [_IMPERFECT_SYSTEM_WIRE])
        [tomo] = tomo_pipeline([system], shots, seed + i)
        [(t_exact, f_exact)] = distances_to_mixed([system])
        [(t_tomo, f_tomo)] = distances_to_mixed([tomo.physical])
        records.append(ExperimentRecord(
            p=float(p),
            trace_distance_exact=t_exact,
            trace_distance_tomo=t_tomo,
            fidelity_exact=f_exact,
            fidelity_tomo=f_tomo,
            fidelity_bound=1.0 - (1.0 - float(p)) / 2.0,
            raw_min_eigenvalue=tomo.raw_min_eigenvalue,
        ))
    return records


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    s = proportionality(a, b, tol)
    return s is not None and abs(abs(s) - 1.0) <= tol


def imperfect_channel_images(p: float) -> dict[str, np.ndarray]:
    """System-qubit images of I, X, Y, Z under the pre-decode dilation."""
    circuit = Circuit(4, _imperfect_core_gates(p))
    u = circuit_unitary(circuit)
    env = np.zeros((8, 8), dtype=complex)
    env[0, 0] = 1.0
    images = {}
    for name, pauli in PAULIS.items():
        full = kron(pauli, env)
        images[name] = partial_trace_matrix(u @ full @ u.conj().T, 4, [0])
    return images


def depolarizing_kraus(p: float) -> tuple[np.ndarray, ...]:
    """Kraus operators of the single-qubit map mixing the input with I/2 at
    weight p: sqrt(1 - 3p/4) I and sqrt(p/4) X, Y, Z, zero weights omitted."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing weight p={p!r} outside [0, 1]")
    weights = [(1.0 - 0.75 * p, "I"), (p / 4.0, "X"), (p / 4.0, "Y"), (p / 4.0, "Z")]
    return tuple(math.sqrt(w) * PAULIS[name] for w, name in weights if w > 0.0)


def depolarized_images(p: float) -> dict[str, np.ndarray]:
    """The same four Pauli images under the Kraus form of the bleaching map."""
    kraus = depolarizing_kraus(p)
    return {
        name: sum(k @ pauli @ k.conj().T for k in kraus)
        for name, pauli in PAULIS.items()
    }


def channel_identity_error(p: float) -> float:
    """Max entrywise gap between the dilated map and its Kraus form."""
    dilated = imperfect_channel_images(p)
    direct = depolarized_images(p)
    return max(float(np.abs(dilated[k] - direct[k]).max()) for k in dilated)
