"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import math
import time

import numpy as np

from nohidelab import nohiding, zx
from nohidelab.circuits import Circuit, Gate, circuit_unitary, run_statevector
from nohidelab.cli import main as cli_main
from nohidelab.nohiding import (
    DEFAULT_SWEEP_GRID,
    build_erasure_circuit,
    build_full_circuit,
    build_randomizer,
    default_input_state,
    run_perfect,
    run_sweep,
)
from nohidelab.qmath import StateVector, fidelity, partial_trace, proportionality

from conftest import Q20_CIRCUIT, assert_same, fresh_run, random_state
from oracles import channel_identity_error
from test_zx import planted_b2_diagram, random_circuit

# Hardware fidelities reported for the original superconducting runs; desk
# runs model shot noise only, so these are reference context, not targets.
HARDWARE_BELL_FIDELITY = 0.9905
HARDWARE_TRANSFER_FIDELITY = 0.9967


def _passed(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_criterion_01_bleaching_all_variants():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for tag in nohiding.VARIANT_TAGS:
        circuit = build_erasure_circuit(tag)
        for _ in range(50):
            psi = random_state(rng, 1)
            out = run_statevector(circuit, psi.tensor(StateVector.ket("00")))
            system = partial_trace(out.to_density(), [0])
            assert np.abs(system.matrix - np.eye(2) / 2).max() < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "bleaching", f"150 runs in {elapsed:.2f}s")


def test_criterion_02_recovery_exact():
    rng = np.random.default_rng(102)
    variant = build_randomizer("eq2")
    circuit = build_full_circuit("eq2")
    bell = np.array([0, 1, 1, 0]) / math.sqrt(2)
    inputs = [default_input_state()] + [random_state(rng, 1) for _ in range(20)]
    for psi in inputs:
        out = run_statevector(circuit, psi.tensor(StateVector.ket("00")))
        rho = out.to_density()
        pair = partial_trace(rho, variant.bell_pair)
        bell_fid = float(np.real(bell.conj() @ pair.matrix @ bell))
        transferred = partial_trace(rho, [variant.transfer_qubit])
        transfer_fid = float(np.real(
            psi.amplitudes.conj() @ transferred.matrix @ psi.amplitudes
        ))
        assert abs(bell_fid - 1.0) < 1e-10
        assert abs(transfer_fid - 1.0) < 1e-10
    _passed(2, "recovery", "21 inputs, bell and transfer fidelity 1")


def test_criterion_03_shot_noise_tomography():
    start = time.perf_counter()
    bell_fids, transfer_fids = [], []
    for seed in range(100):
        result = run_perfect("eq2", shots=8192, seed=seed)
        bell_fids.append(fidelity(result.bell_tomo.physical, result.bell_tomo.reduced))
        transfer_fids.append(
            fidelity(result.transfer_tomo.physical, result.transfer_tomo.reduced)
        )
    elapsed = time.perf_counter() - start
    mean_bell = float(np.mean(bell_fids))
    mean_transfer = float(np.mean(transfer_fids))
    assert mean_bell >= 0.995
    assert mean_transfer >= 0.995
    assert elapsed < 30.0
    _passed(
        3, "shot-noise tomography",
        f"mean bell {mean_bell:.4f} vs hardware ref {HARDWARE_BELL_FIDELITY}, "
        f"mean transfer {mean_transfer:.4f} vs hardware ref {HARDWARE_TRANSFER_FIDELITY}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_trace_distance_curve():
    records = run_sweep(list(DEFAULT_SWEEP_GRID), shots=None)
    for record in records:
        assert abs(record.trace_distance_exact - (1 - record.p) / 2) < 1e-10
    by_p = {round(r.p, 9): r for r in records}
    assert abs(by_p[0.0].trace_distance_exact - 0.5) < 1e-10
    assert abs(by_p[round(0.095491503, 9)].trace_distance_exact - 0.4522543) < 1e-7
    _passed(4, "trace-distance curve", "11 grid points match (1-p)/2")


def test_criterion_05_fidelity_curve_and_bound():
    records = run_sweep(list(DEFAULT_SWEEP_GRID), shots=None)
    for record in records:
        closed_form = (math.sqrt(1 - record.p / 2) + math.sqrt(record.p / 2)) / math.sqrt(2)
        assert abs(record.fidelity_exact - closed_form) < 1e-10
        assert record.fidelity_exact >= record.fidelity_bound - 1e-12
        if record.p < 1.0:
            assert record.fidelity_exact > record.fidelity_bound + 1e-6
        else:
            assert abs(record.fidelity_exact - record.fidelity_bound) < 1e-10
    _passed(5, "fidelity curve and bound", "closed form and lower bound hold")


def test_criterion_06_nonphysical_reconstructions():
    small_p = [0.0, 0.024471741852423234, 0.09549150281252627]
    negatives_small = 0
    negatives_bleached = 0
    for seed in range(200):
        records = run_sweep(small_p + [1.0], shots=1024, seed=seed * 1009)
        for record in records[:3]:
            if record.raw_min_eigenvalue < 0:
                negatives_small += 1
        if records[3].raw_min_eigenvalue < 0:
            negatives_bleached += 1
    small_fraction = negatives_small / (200 * len(small_p))
    bleached_fraction = negatives_bleached / 200
    assert small_fraction >= 0.05
    assert bleached_fraction < 0.05
    _passed(
        6, "nonphysical reconstructions",
        f"small-p fraction {small_fraction:.1%}, bleached fraction {bleached_fraction:.1%}",
    )


def test_criterion_07_dilation_equals_channel():
    for p in DEFAULT_SWEEP_GRID:
        assert channel_identity_error(p) < 1e-10
    _passed(7, "dilation equals channel", "4 Pauli inputs at 11 grid points")


def test_criterion_08_zx_soundness():
    rng = np.random.default_rng(108)
    start = time.perf_counter()

    result = zx.run_scripted_derivation()
    assert len(result.stage_labels) == 7
    for step in result.steps:
        assert abs(step.scalar_check) > 1e-9
    ratio = proportionality(zx.evaluate(result.final), zx.evaluate(result.initial))
    assert ratio is not None

    applied = 0
    trials = 0
    while applied < 200 and trials < 3000:
        trials += 1
        mode = applied % 5
        if mode == 3:
            d = planted_b2_diagram(rng)
            rule, locs = "B2", zx.match_rule(d, "B2")
        elif mode == 4:
            d = zx.circuit_to_zx(random_circuit(rng))
            spiders = d.spiders()
            if not spiders:
                continue
            nid = spiders[int(rng.integers(len(spiders)))]
            take = d.neighbors(nid)[0]
            d = zx.apply_rule(d, "S1", ("unfuse", nid, (take,), (0.0, 0.0)))
            rule, locs = "S2", zx.match_rule(d, "S2")
        else:
            d = zx.circuit_to_zx(random_circuit(rng))
            rule = ("S1", "HH", "C")[mode]
            locs = zx.match_rule(d, rule)
        if not locs:
            continue
        _, step = zx.apply_rule_checked(d, rule, locs[int(rng.integers(len(locs)))])
        assert step.scalar_check != 0
        applied += 1
    assert applied == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(8, "zx soundness", f"7 stages + 200 rewrites in {elapsed:.1f}s")


def test_criterion_09_zx_faithfulness():
    rng = np.random.default_rng(109)
    for _ in range(50):
        c = random_circuit(rng)
        assert proportionality(
            zx.evaluate(zx.circuit_to_zx(c)), circuit_unitary(c)
        ) is not None
    cnot = Circuit(2, (Gate("cx", (0, 1)),))
    m = zx.evaluate(zx.circuit_to_zx(cnot))
    assert np.abs(m - circuit_unitary(cnot) / math.sqrt(2)).max() < 1e-12
    _passed(9, "zx faithfulness", "50 circuits proportional; CNOT scale 1/sqrt(2)")


def test_criterion_10_cli_determinism(tmp_path):
    # Every command and variant, exact mode and 1 to 8192 shots, sweep points
    # repeated and at the ends of [0, 1], and circuit files up to 20 qubits.
    # Each argv runs here, after whatever the suite ran before it, and again
    # in a fresh interpreter with another hash seed: equal bytes either way.
    (tmp_path / "smoke.circ").write_text("qubits 3\nh 0\nu3 0.3 1.1 -0.7 1\ncx 0 2\nt 2\n")
    (tmp_path / "prep.circ").write_text("qubits 1\nh 0\nt 0\nh 0\ns 0\n")
    (tmp_path / "q20.circ").write_text(Q20_CIRCUIT)
    argvs = [[a.format(tmp=tmp_path) for a in args.split()] for args in [
        "zx", "perfect --variant eq6", "imperfect",
        "perfect --shots 1024 --seed 3", "perfect --shots 8192 --seed 42",
        "perfect --variant eq1 --shots 8192 --seed 9", "perfect --variant eq6 --shots 5 --seed 2",
        "perfect --variant eq2 --shots 4096 --seed 7",
        "imperfect --shots 1024 --format csv --seed 3", "imperfect --shots 1 --seed 11 --format json",
        "imperfect --grid none --p 0 --p 1 --p 0.5 --p 0.5 --shots 7 --seed 5",
        "imperfect --grid none --p 0.0 --p 0.5 --shots 1024 --seed 7 --format csv",
        "imperfect --grid none --p 0.3 --shots 1024 --seed 7 --format csv",
        "simulate {tmp}/smoke.circ", "simulate {tmp}/prep.circ", "simulate {tmp}/q20.circ",
    ]]
    reruns = [argv + ["--out", str(tmp_path / f"{i}.second")] for i, argv in enumerate(argvs)]
    with fresh_run(reruns, tmp_path / "build.json", PYTHONHASHSEED="0"):
        for i, argv in enumerate(argvs):
            assert cli_main(argv + ["--out", str(tmp_path / f"{i}.first")]) == 0, argv
    for i, argv in enumerate(argvs):
        assert_same((tmp_path / f"{i}.second").read_bytes(),
                    (tmp_path / f"{i}.first").read_bytes(), " ".join(argv))
    _passed(10, "cli determinism", f"{len(argvs)} argvs byte-identical in a fresh interpreter")
