"""Former kernels of the library, kept as test oracles for the code that replaced them.

`string_canonical_order` is the former string-label `zx._canonical_order`,
verbatim but for the name, so the oracle shares no code with the integer
colour refinement it checks. `whole_diagram_scalar` is the former check of
`zx.apply_rule_checked`, which contracted the whole diagram on both sides of
a rewrite instead of the region it changed. `per_point_sweep` is the former loop of
`nohiding.run_sweep`, which simulated, reduced and validated each sweep point
on its own, verbatim but for the name and the deleted `system_state` field.
`string_estimate_expectations` is the former `tomo.estimate_expectations`,
verbatim but for the name: it reads bitstring-keyed count dicts, held in
`ShotCounts` (the fields of the former `tomo.ShotCounts`, unvalidated), and
takes each parity character by character.
The property tests in test_oracles.py compare the library against them.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from nohidelab.circuits import run_statevector
from nohidelab.nohiding import (
    _IMPERFECT_SYSTEM_WIRE,
    ExperimentRecord,
    build_imperfect_circuit,
    default_input_state,
)
from nohidelab.qmath import StateVector, distances_to_mixed, proportionality
from nohidelab.tomo import pauli_strings, tomo_pipeline
from nohidelab.zx import ZXDiagram, apply_rule, evaluate


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
