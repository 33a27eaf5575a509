"""Builders and runners for the erasure, recovery, and imperfect-hiding experiments.

The erasure register is (system, ancilla A, ancilla B) = qubits (0, 1, 2).
Bleaching works by preparing the ancillas in |++> and applying a randomizer
that selects one of the Pauli operators on the system per ancilla basis
state; discarding the ancillas then leaves the system maximally mixed.
The decoder CNOT(1,2), H(1), CNOT(1,2) acts on the ancillas alone and moves
the input state onto one wire while pairing the other two into a Bell state
(which wire and which Bell state depend on the randomizer variant).

The imperfect experiment adds a control qubit that dilutes the ancilla
preparation, so the system is only partially bleached: the induced map on
the system mixes the input with I/2 at weight p.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    circuit_unitary,
    run_statevector,
)
from .qmath import (
    PAULIS,
    DensityMatrix,
    StateVector,
    distances_to_mixed,
    fidelity_to_pure,
    is_unitary,
    kron,
    partial_trace,
)

# Only run_perfect and run_sweep tomograph, and each imports tomo when it
# runs: `zx`, which needs build_randomizer alone, never compiles tomo.py.
if TYPE_CHECKING:
    from .tomo import TomoResult

VARIANT_TAGS = ("eq1", "eq2", "eq6")

_BELL_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
_BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def _anc_proj(out_bits: str, in_bits: str) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[int(out_bits, 2), int(in_bits, 2)] = 1.0
    return m


# Per tag: terms (coefficient, pauli, ancilla-out, ancilla-in), the wire the
# decoder leaves the input state on, and the Bell pair it creates.
_VARIANT_DEFS = {
    "eq1": {
        "terms": [(1, "I", "00", "00"), (1, "X", "01", "01"),
                  (1j, "Y", "10", "10"), (1, "Z", "11", "11")],
        "transfer_qubit": 2,
        "bell_pair": (0, 1),
        "bell_state": _BELL_PHI_PLUS,
    },
    "eq2": {
        "terms": [(1, "I", "01", "00"), (1, "X", "00", "01"),
                  (-1j, "Y", "11", "10"), (-1, "Z", "10", "11")],
        "transfer_qubit": 2,
        "bell_pair": (0, 1),
        "bell_state": _BELL_PSI_PLUS,
    },
    "eq6": {
        "terms": [(1, "I", "00", "00"), (1, "X", "01", "01"),
                  (-1j, "Y", "10", "10"), (1, "Z", "11", "11")],
        "transfer_qubit": 1,
        "bell_pair": (0, 2),
        "bell_state": _BELL_PHI_PLUS,
    },
}

_PAULI_BLOCKS = [
    coeff * PAULIS[name]
    for name in "IXYZ"
    for coeff in (1, -1, 1j, -1j)
]


@dataclass(frozen=True)
class RandomizerVariant:
    """An 8x8 controlled-Pauli bleaching unitary plus its decode targets."""

    tag: str
    matrix: np.ndarray
    transfer_qubit: int
    bell_pair: tuple[int, int]
    bell_state: np.ndarray

    def __post_init__(self):
        # build_randomizer shares one instance per tag: keep read-only copies.
        for name in ("matrix", "bell_state"):
            a = np.array(getattr(self, name), dtype=complex)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        m = self.matrix
        if m.shape != (8, 8):
            raise ValueError("randomizer must be an 8x8 matrix")
        if not is_unitary(m, 1e-10):
            raise ValueError("randomizer is not unitary within tolerance")
        for anc_in in range(4):
            blocks = [
                m[np.ix_([anc_out, anc_out + 4], [anc_in, anc_in + 4])]
                for anc_out in range(4)
            ]
            nonzero = [b for b in blocks if np.abs(b).max() > 1e-12]
            if len(nonzero) != 1 or not _is_signed_pauli(nonzero[0]):
                raise ValueError(
                    f"ancilla input |{anc_in:02b}> does not map through a single "
                    "signed Pauli block"
                )


def _is_signed_pauli(block: np.ndarray) -> bool:
    for p in _PAULI_BLOCKS:
        if np.abs(block - p).max() <= 1e-10:
            return True
    return False


@functools.cache
def build_randomizer(tag: str) -> RandomizerVariant:
    """The validated variant for `tag`, built once per process and shared."""
    if tag not in _VARIANT_DEFS:
        raise ValueError(f"unknown randomizer variant {tag!r}")
    defn = _VARIANT_DEFS[tag]
    m = np.zeros((8, 8), dtype=complex)
    for coeff, pauli, out_bits, in_bits in defn["terms"]:
        m += coeff * kron(PAULIS[pauli], _anc_proj(out_bits, in_bits))
    return RandomizerVariant(
        tag=tag,
        matrix=m,
        transfer_qubit=defn["transfer_qubit"],
        bell_pair=defn["bell_pair"],
        bell_state=defn["bell_state"],
    )


DECODER_GATES = (Gate("cx", (1, 2)), Gate("h", (1,)), Gate("cx", (1, 2)))


def build_erasure_circuit(tag: str) -> Circuit:
    """H on both ancillas, then the randomizer on (system, A, B)."""
    v = build_randomizer(tag)
    return Circuit(3, (
        Gate("h", (1,)),
        Gate("h", (2,)),
        Gate("unitary", (0, 1, 2), matrix=v.matrix),
    ))


def build_full_circuit(tag: str) -> Circuit:
    """Erasure followed by the ancilla-only decoder."""
    return build_erasure_circuit(tag).extended(DECODER_GATES)


def default_input_gates() -> tuple[Gate, ...]:
    """H, T, H, S preparation of cos(pi/8)|0> + sin(pi/8)|1> (up to phase)."""
    return (Gate("h", (0,)), Gate("t", (0,)), Gate("h", (0,)), Gate("s", (0,)))


@functools.cache
def default_input_state() -> StateVector:
    """The state `default_input_gates` prepares, built once per process and
    shared: its amplitudes are read-only."""
    state = StateVector(1, circuit_unitary(Circuit(1, default_input_gates()))[:, 0])
    state.amplitudes.flags.writeable = False
    return state


@dataclass(frozen=True)
class PerfectResult:
    """Exact and tomographic outcomes of one erasure-plus-decode run."""

    input_state: StateVector
    bell_pair: tuple[int, int]
    transfer_qubit: int
    bell_fidelity: float
    transfer_fidelity: float
    bell_tomo: TomoResult
    transfer_tomo: TomoResult


def run_perfect(
    tag: str,
    psi: StateVector | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> PerfectResult:
    """Run the full recovery circuit and measure both decode products."""
    from .tomo import tomo_pipeline

    variant = build_randomizer(tag)
    if psi is None:
        psi = default_input_state()
    final = run_statevector(build_full_circuit(tag), psi.tensor(StateVector.ket("00")))

    (bell_tomo,) = tomo_pipeline([partial_trace(final, variant.bell_pair)], shots, seed)
    (transfer_tomo,) = tomo_pipeline([partial_trace(final, [variant.transfer_qubit])], shots, seed)
    bell_fid = fidelity_to_pure(bell_tomo.reduced, StateVector(2, variant.bell_state))
    transfer_fid = fidelity_to_pure(transfer_tomo.reduced, psi)
    return PerfectResult(
        input_state=psi,
        bell_pair=variant.bell_pair,
        transfer_qubit=variant.transfer_qubit,
        bell_fidelity=bell_fid,
        transfer_fidelity=transfer_fid,
        bell_tomo=bell_tomo,
        transfer_tomo=transfer_tomo,
    )


# Imperfect-hiding register: (system, ancilla A, control, ancilla B) before
# the final swaps; afterwards the system sits on wire 1, which is where
# tomography reads it.
_IMPERFECT_SYSTEM_WIRE = 1
_KET0 = StateVector.ket("0")


@functools.cache
def _imperfect_tail_gates() -> tuple[Gate, ...]:
    """The gates after the dilution u3, which do not depend on p: built and
    validated once per process. The first three finish the dilation; then
    come the decoder and the wire swaps for readout."""
    return (
        Gate("ch", (2, 1)),
        Gate("ch", (2, 3)),
        Gate("unitary", (0, 1, 3), matrix=build_randomizer("eq2").matrix),
        Gate("cx", (1, 3)), Gate("h", (1,)), Gate("cx", (1, 3)),
        Gate("swap", (0, 1)), Gate("swap", (0, 2)),
    )


def _dilution_gate(p: float) -> Gate:
    """The u3 on the control wire that sets the bleaching weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bleaching weight p={p!r} outside [0, 1]")
    return Gate("u3", (2,), (2.0 * math.asin(math.sqrt(p)), 0.0, 0.0))


def _imperfect_core_gates(p: float) -> tuple[Gate, ...]:
    return (_dilution_gate(p),) + _imperfect_tail_gates()[:3]


def build_imperfect_circuit(p: float) -> Circuit:
    """Partial bleaching at weight p, decode, and wire swaps for readout."""
    return Circuit(4, _imperfect_core_gates(p) + _imperfect_tail_gates()[3:])


class ExperimentRecord(NamedTuple):
    """One sweep entry at bleaching weight p; its fields are the output columns, in order."""

    p: float
    trace_distance_exact: float
    trace_distance_tomo: float
    fidelity_exact: float
    fidelity_tomo: float
    fidelity_bound: float
    raw_min_eigenvalue: float


SWEEP_FIELDS = ExperimentRecord._fields


DEFAULT_SWEEP_GRID = tuple(math.sin(k * math.pi / 20.0) ** 2 for k in range(11))


def run_sweep(
    p_values: Sequence[float],
    shots: int | None,
    seed: int = 0,
    psi: StateVector | None = None,
) -> list[ExperimentRecord]:
    """Run the imperfect experiment across p, one derived seed per entry.

    All points are simulated at once: the dilution u3 is the only gate that
    depends on p, and it acts on a wire that starts in |0>, so the inputs
    psi (x) |0> (x) u3(theta_p)|0> (x) |0> form one (P, 2, 2, 2, 2) stack that
    the p-independent gates evolve together. The system states on the
    readout wire are reduced by one M M^dagger over the stack and validated
    by one stacked eigensolve. Tomography then samples each point on the
    streams of its entry seed and reconstructs, validates and projects all
    points as one stack. `build_imperfect_circuit(p)` is the per-point
    circuit this reproduces.
    """
    from .tomo import tomo_pipeline

    p_values = [float(p) + 0.0 for p in p_values]  # -0.0 + 0.0 is +0.0: one zero point
    dilutions = [_dilution_gate(p) for p in p_values]
    if not dilutions:
        return []
    if psi is None:
        psi = default_input_state()
    if psi.num_qubits != 1:
        raise ValueError("the imperfect sweep needs a single-qubit input state")
    head = psi.tensor(_KET0).amplitudes
    control = np.array([g.local_matrix()[:, 0] for g in dilutions])
    inputs = head[None, :, None, None] * control[:, None, :, None] * _KET0.amplitudes
    final = run_statevector(Circuit(4, _imperfect_tail_gates()),
                            inputs.reshape((len(dilutions),) + (2,) * 4))
    m = np.moveaxis(final, 1 + _IMPERFECT_SYSTEM_WIRE, 1).reshape(len(dilutions), 2, 8)
    systems = DensityMatrix.stack(1, m @ m.conj().swapaxes(1, 2))
    tomos = tomo_pipeline(systems, shots, seed)
    exact = distances_to_mixed(systems)
    measured = distances_to_mixed([t.physical for t in tomos])
    return [
        ExperimentRecord(
            p=p,
            trace_distance_exact=t_exact,
            trace_distance_tomo=t_tomo,
            fidelity_exact=f_exact,
            fidelity_tomo=f_tomo,
            fidelity_bound=1.0 - (1.0 - p) / 2.0,
            raw_min_eigenvalue=tomo.raw_min_eigenvalue,
        )
        for p, tomo, (t_exact, f_exact), (t_tomo, f_tomo)
        in zip(p_values, tomos, exact, measured)
    ]


def sweep_rows(records: Sequence[ExperimentRecord]) -> list[dict[str, float]]:
    """Records as JSON rows keyed by SWEEP_FIELDS."""
    return [r._asdict() for r in records]


__all__ = [
    "VARIANT_TAGS",
    "RandomizerVariant",
    "build_randomizer",
    "build_erasure_circuit",
    "build_full_circuit",
    "build_imperfect_circuit",
    "default_input_gates",
    "default_input_state",
    "run_perfect",
    "run_sweep",
    "sweep_rows",
    "SWEEP_FIELDS",
    "DEFAULT_SWEEP_GRID",
    "DECODER_GATES",
    "PerfectResult",
    "ExperimentRecord",
]
