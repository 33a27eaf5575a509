"""Seeded inputs, argv pools and untimed output checks for each workload.

A workload is a pool of CLI argv lists derived from the workload seed. The
benchmark cycles through the pool as a closed loop; every argv writes to the
same `--out` file, whose bytes are checked after the timed call returns.
The checks use references the benchmark computes itself (a numpy statevector,
closed forms of the sweep) or the program's public replay API (ZX traces).
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Distinct argv lists per workload; the loop cycles through them.
POOL_SIZE = 12

SIM_QUBITS = 10
# Each mnemonic appears this many times per circuit (40 gates in all), so
# every circuit costs the same and the median does not depend on the seed.
SIM_GATES_PER_MNEMONIC = 4
MNEMONICS = ("h", "x", "y", "z", "s", "t", "u3", "cx", "ch", "swap")
TWO_QUBIT = ("cx", "ch", "swap")

VARIANTS = ("eq1", "eq2", "eq6")

SWEEP_FIELDS = ["p", "trace_distance_exact", "trace_distance_tomo", "fidelity_exact",
                "fidelity_tomo", "fidelity_bound", "raw_min_eigenvalue"]
SWEEP_ROWS = 11
ZX_STAGES = 7
EXACT_TOL = 1e-9
TOMO_FIDELITY_MIN = 0.98


@dataclass
class Workload:
    argvs: list[list[str]]
    out_path: Path
    # check(pool_index, output_bytes) -> error message, or None when correct
    check: Callable[[int, bytes], str | None]


def _seeds(rng: random.Random) -> list[int]:
    return [rng.randrange(2 ** 32) for _ in range(POOL_SIZE)]


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs under `work` from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, work, work / "out")


# ---------------------------------------------------------------------------
# sweep_shots

def _sweep_shots(rng: random.Random, work: Path, out: Path) -> Workload:
    argvs = [
        ["imperfect", "--grid", "default", "--shots", "1024", "--format", "csv",
         "--seed", str(s), "--out", str(out)]
        for s in _seeds(rng)
    ]
    return Workload(argvs, out, _check_sweep)


def _check_sweep(index: int, data: bytes) -> str | None:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[0] != SWEEP_FIELDS:
        return f"unexpected CSV header {rows[0]}"
    if len(rows) - 1 != SWEEP_ROWS:
        return f"expected {SWEEP_ROWS} rows, got {len(rows) - 1}"
    for row in rows[1:]:
        rec = dict(zip(SWEEP_FIELDS, map(float, row)))
        p = rec["p"]
        if abs(rec["trace_distance_exact"] - (1.0 - p) / 2.0) > EXACT_TOL:
            return f"p={p}: trace_distance_exact {rec['trace_distance_exact']} != (1-p)/2"
        if rec["fidelity_exact"] < rec["fidelity_bound"] - EXACT_TOL:
            return f"p={p}: fidelity_exact {rec['fidelity_exact']} below its bound"
    return None


# ---------------------------------------------------------------------------
# perfect_shots

def _perfect_shots(rng: random.Random, work: Path, out: Path) -> Workload:
    rotation = list(VARIANTS)
    rng.shuffle(rotation)
    argvs = [
        ["perfect", "--variant", rotation[i % len(rotation)], "--shots", "8192",
         "--seed", str(s), "--out", str(out)]
        for i, s in enumerate(_seeds(rng))
    ]

    def check(index: int, data: bytes) -> str | None:
        doc = json.loads(data)
        argv = argvs[index]
        if doc["variant"] != argv[2] or doc["seed"] != int(argv[6]):
            return "output does not echo the requested variant and seed"
        for part in ("bell", "transfer"):
            if doc[part]["fidelity_exact"] < 1.0 - EXACT_TOL:
                return f"{part} fidelity_exact {doc[part]['fidelity_exact']} < 1"
            tomo_fid = doc[part]["tomography"]["fidelity"]
            if tomo_fid < TOMO_FIDELITY_MIN:
                return f"{part} tomography fidelity {tomo_fid} < {TOMO_FIDELITY_MIN}"
        return None

    return Workload(argvs, out, check)


# ---------------------------------------------------------------------------
# simulate_q10

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_FIXED = {
    "h": _H,
    "x": _X,
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "s": np.diag([1, 1j]),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
    "cx": np.block([[_I, 0 * _I], [0 * _I, _X]]),
    "ch": np.block([[_I, 0 * _I], [0 * _I, _H]]),
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [c, -np.exp(1j * lam) * s],
        [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
    ])


def random_circuit(rng: random.Random) -> list[tuple[str, tuple[float, ...], tuple[int, ...]]]:
    kinds = list(MNEMONICS) * SIM_GATES_PER_MNEMONIC
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        arity = 2 if kind in TWO_QUBIT else 1
        targets = tuple(rng.sample(range(SIM_QUBITS), arity))
        params = tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(3)) if kind == "u3" else ()
        gates.append((kind, params, targets))
    return gates


def circuit_text(gates) -> str:
    lines = [f"qubits {SIM_QUBITS}"]
    for kind, params, targets in gates:
        lines.append(" ".join([kind, *map(repr, params), *map(str, targets)]))
    return "\n".join(lines) + "\n"


def reference_state(gates) -> np.ndarray:
    """Statevector by tensordot on the (2,)*n view; qubit 0 is the index MSB."""
    psi = np.zeros((2,) * SIM_QUBITS, dtype=complex)
    psi[(0,) * SIM_QUBITS] = 1.0
    for kind, params, targets in gates:
        u = _u3(*params) if kind == "u3" else _FIXED[kind]
        k = len(targets)
        psi = np.tensordot(u.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), list(targets)))
        psi = np.moveaxis(psi, list(range(k)), list(targets))
    return psi.reshape(-1)


def _simulate_q10(rng: random.Random, work: Path, out: Path) -> Workload:
    argvs, refs = [], []
    for i in range(POOL_SIZE):
        gates = random_circuit(rng)
        path = work / f"c{i:02d}.circ"
        path.write_text(circuit_text(gates), encoding="utf-8")
        argvs.append(["simulate", str(path), "--out", str(out)])
        refs.append(reference_state(gates))

    def check(index: int, data: bytes) -> str | None:
        doc = json.loads(data)
        amps = np.array(doc["amplitudes"], dtype=float)
        got = amps[:, 0] + 1j * amps[:, 1]
        if doc["num_qubits"] != SIM_QUBITS or got.shape != refs[index].shape:
            return f"wrong register size {doc['num_qubits']}"
        err = float(np.abs(got - refs[index]).max())
        if err > EXACT_TOL:
            return f"amplitudes differ from the tensordot reference by {err:.3e}"
        return None

    return Workload(argvs, out, check)


# ---------------------------------------------------------------------------
# zx_derive

def _zx_derive(rng: random.Random, work: Path, out: Path) -> Workload:
    from nohidelab import zx

    argvs = [["zx", "--seed", str(s), "--out", str(out)] for s in _seeds(rng)]

    def check(index: int, data: bytes) -> str | None:
        doc = json.loads(data)
        der = doc["derivation"]
        if len(der["stages"]) != ZX_STAGES:
            return f"expected {ZX_STAGES} stages, got {len(der['stages'])}"
        replayed = zx.replay_trace(zx.diagram_from_json_dict(der["initial"]),
                                   zx.steps_from_json_list(der["steps"]))
        if zx.diagram_to_json_dict(replayed) != der["final"]:
            return "replaying the emitted steps does not rebuild the emitted final diagram"
        return None

    return Workload(argvs, out, check)


BUILDERS = {
    "sweep_shots": _sweep_shots,
    "perfect_shots": _perfect_shots,
    "simulate_q10": _simulate_q10,
    "zx_derive": _zx_derive,
}
