"""Rerunnable mutation checks: each row plants one fault in the source and
names the tests that must fail on it. Run it with no options:

    python tools/mutants.py

It copies the files `git ls-files` lists (tracked, or untracked and not
ignored) to a temporary directory and runs every named test there, which
must pass. Then, row by row, it replaces the row's old text by its new text,
runs `python -m pytest -q -x -p no:cacheprovider --hypothesis-profile mutants
<tests>` with PYTHONPATH set to the copy's `src`, and restores the file.
pytest exit code 1 is a kill, 0 a survival. It exits 1 on a survivor not
marked as known, on a killed one that is marked (the mark is stale), and on
any other pytest exit code. The `mutants` profile (tests/conftest.py) skips
hypothesis's shrink phase: any falsifying example kills a mutant, and
shrinking one took most of the time.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str = ""  # why the tests cannot catch it; empty if they must


CIRCUITS, QMATH, TOMO, NOHIDING, ZX, JSONIO, CLI = (
    f"src/nohidelab/{m}.py"
    for m in ("circuits", "qmath", "tomo", "nohiding", "zx", "jsonio", "cli"))
ORACLES = "tests/test_oracles.py::"
TEST_JSONIO = "tests/test_jsonio.py::"
REPLAY = ("tests/test_cli.py::TestZxCommand::test_trace_replay_round_trip",)
LINEAGE = "tests/test_zx.py::TestLineageTable::"
GOLDEN = "tests/test_cli.py::test_run_matches_golden_bytes[perfect_golden_{}.json]"
RANDOMIZER = ("tests/test_nohiding.py::TestRandomizer::"
              "test_variant_rejects_a_matrix_that_is_not_a_controlled_pauli",)

MUTANTS = (
    Mutant("gate_matrix embeds at reversed targets", CIRCUITS,
           "(Circuit(num_qubits, (g,)))",
           "(Circuit(num_qubits, (Gate(g.kind, g.targets[::-1], g.params, g.matrix),)))",
           (ORACLES + "test_gate_matrix_matches_oracle_embed",)),
    Mutant("einsum in place of the gate dot", CIRCUITS,
           "out = np.dot(op, moved.reshape(len(op), -1))",
           'out = np.einsum("ij,jk->ik", op, moved.reshape(len(op), -1))',
           ("tests/test_circuits.py::test_apply_op_is_bitwise_tensordot",)),
    Mutant("einsum in the gate dot at 2^19 columns or more", CIRCUITS,
           "out = np.dot(op, moved.reshape(len(op), -1))",
           'out = (np.einsum("ij,jk->ik", op, flat) if (flat := moved.reshape(len(op), -1))'
           ".shape[1] >= 2 ** 19 else np.dot(op, flat))",
           ("tests/test_circuits.py::"
            "test_run_statevector_is_bitwise_tensordot_at_20_qubits[stack-of-3]",)),
    Mutant("Fortran-ordered operator in the gate dot", CIRCUITS,
           "out = np.dot(op, moved.reshape(len(op), -1))",
           "out = np.dot(np.asfortranarray(op), moved.reshape(len(op), -1))",
           ("tests/test_circuits.py::test_apply_op_is_bitwise_tensordot",)),
    Mutant("forward transpose in place of the cached inverse", CIRCUITS,
           "out.reshape(moved.shape).transpose(inverse)", "out.reshape(moved.shape).transpose(perm)",
           ("tests/test_circuits.py::test_apply_op_is_bitwise_tensordot",)),
    Mutant("bad qubit index reported at the mnemonic's column", CIRCUITS,
           "j = len(values) + 1 if len(values) < n_args else 0",
           "j = len(values) + 1 if len(values) < n_angles else 0",
           ("tests/test_circuits.py::TestParser::test_index_out_of_range_has_position",)),
    Mutant("sa.T in fidelity", QMATH,
           "inner = sa @ b.matrix @ sa", "inner = sa @ b.matrix @ sa.T",
           (ORACLES + "test_fidelity_is_the_nuclear_norm_of_the_root_product",)),
    Mutant("math.sqrt in _norm", QMATH,
           "return np.sqrt(re.dot(re) + im.dot(im))", "return math.sqrt(re.dot(re) + im.dot(im))",
           (ORACLES + "test_proportionality_matches_linalg_norm_oracle_bitwise",)),
    Mutant("np.sqrt(np.vdot(v, v).real) in _norm", QMATH,
           "return np.sqrt(re.dot(re) + im.dot(im))", "return np.sqrt(np.vdot(v, v).real)",
           (ORACLES + "test_proportionality_matches_linalg_norm_oracle_bitwise",)),
    Mutant("sqrt(|w|) for the SQRT_FLOOR floor in fidelity", QMATH,
           "np.diag(np.sqrt(np.where(w < SQRT_FLOOR, 0.0, w)))", "np.diag(np.sqrt(np.abs(w)))",
           ("tests/test_qmath.py::TestFidelity::test_negative_eigenvalue_is_floored_in_the_root",
            GOLDEN.format("eq2"), GOLDEN.format("eq6_sparse"))),
    Mutant("density trace checked on the first member only", QMATH,
           "for tr in traces:", "for tr in traces[:1]:",
           ("tests/test_qmath.py::TestStateTypes::"
            "test_stack_rejects_one_bad_member_with_the_single_message[trace]",)),
    Mutant("sign vectors built in reversed kron order", TOMO,
           "else -1]) for ch in pauli])", "else -1]) for ch in reversed(pauli)])",
           ("tests/test_tomo.py::TestExpectation::test_qubit_0_is_the_most_significant_bit",
            ORACLES + "test_array_estimator_is_the_exactly_rounded_fraction")),
    Mutant("numpy float division in the estimator", TOMO,
           "values.append([s / t for s, t in zip(signed, counts.sum(axis=1).tolist())])",
           "values.append((counts @ _sign_vector(pauli)) / counts.sum(axis=1))",
           (ORACLES + "test_array_estimator_is_the_exactly_rounded_fraction",)),
    Mutant("Paulis summed in reverse in reconstruct", TOMO,
           "    for pauli in pauli_strings(num_qubits):\n        if pauli not in",
           "    for pauli in reversed(pauli_strings(num_qubits)):\n        if pauli not in",
           ("tests/test_tomo.py::TestReconstruct::test_bits_are_the_plain_sum_in_pauli_order",
            GOLDEN.format("eq6_sparse"))),
    Mutant("projection shift divided by kept + 1", TOMO,
           "kept - 1] / kept", "kept - 1] / (kept + 1)",
           (ORACLES + "test_linear_inversion_and_simplex_projection",)),
    Mutant("> for >= 0.0 in the projection walk", TOMO,
           "(level[:, ::-1] >= 0.0)", "(level[:, ::-1] > 0.0)",
           (ORACLES + "test_linear_inversion_and_simplex_projection",),
           "it differs only where a level is exactly 0, and there both keep the same"
           " values in exact arithmetic"),
    Mutant("projection without symmetrisation", TOMO,
           "    fixed = (fixed + fixed.conj().swapaxes(-1, -2)) / 2.0\n", "",
           ("tests/test_tomo.py::TestProjectPhysical::"
            "test_projected_tomograms_equal_their_conjugate_transposes",
            *(GOLDEN.format(g) for g in ("eq2", "eq6_sparse", "eq1_exact")))),
    Mutant("every state of a stack sampled on the same seed", TOMO,
           "basis, shots, seed + i)", "basis, shots, seed)",
           (ORACLES + "test_stacked_tomography_matches_stacks_of_one_bitwise",)),
    Mutant("randomizer block count weakened to < 1", NOHIDING,
           "if len(nonzero) != 1 or", "if len(nonzero) < 1 or", RANDOMIZER),
    Mutant("randomizer Pauli check dropped", NOHIDING,
           " or not _is_signed_pauli(nonzero[0]):", ":", RANDOMIZER),
    Mutant("colour refinement skipped", ZX,
           "while classes < len(labels):", "while False:",
           (ORACLES + "test_canonical_order_matches_string_oracle",)),
    Mutant("BFS ties broken by node id", ZX,
           "key = lambda x: (labels[x], x)", "key = lambda x: x",
           (ORACLES + "test_canonical_order_matches_string_oracle",)),
    Mutant("id-based start for a disconnected component", ZX,
           "start = min((n for n in d.nodes if n not in seen), key=key)",
           "start = min(n for n in d.nodes if n not in seen)",
           (ORACLES + "test_components_no_boundary_reaches_start_at_the_least_label",)),
    Mutant("legless spider halved", ZX,
           "return np.asarray(b + cmath.exp(1j * phase) * c)",
           "return np.asarray((b + cmath.exp(1j * phase) * c) / (2 if legs == 0 else 1))",
           (ORACLES + "test_evaluate_matches_scaled_circuit_unitary",)),
    Mutant("one-legged X spider built as Z", ZX,
           '(HADAMARD if kind == "X" else', '(HADAMARD if kind == "X" and legs != 1 else',
           (ORACLES + "test_evaluate_matches_scaled_circuit_unitary",)),
    Mutant("region nodes compared by identity alone", ZX,
           "if (other := counterpart(n)) is not node and other != node",
           "if counterpart(n) is not node",
           (ORACLES + "test_local_sides_match_counter_oracle",)),
    Mutant("set difference in place of the edge tally", ZX,
           "    for e, k in tally.items():\n        if k:\n            only[k < 0].extend([e] * abs(k))\n",
           "    only = (list({*d.edges} - {*new.edges}), list({*new.edges} - {*d.edges}))\n",
           (ORACLES + "test_local_sides_match_counter_oracle",)),
    Mutant("recorded rewrite scalar times 1 + 1e-11", ZX,
           "scalar = proportionality(matrices[1], matrices[0])",
           "scalar = (s := proportionality(matrices[1], matrices[0])) and s * (1 + 1e-11)",
           REPLAY),
    Mutant("table keyed on the 9-digit seed label", ZX,
           "kinds.append((node.kind, phase.real.hex(), phase.imag.hex()))",
           'kinds.append(f"{node.kind}:{phase.real:.9e}:{phase.imag:.9e}")',
           (LINEAGE + "test_phases_equal_to_nine_digits_are_separate_entries",)),
    Mutant("one table for every diagram", ZX,
           "_adj=adj, _verified={})", '_adj=adj, _verified=globals().setdefault("_one_table", {}))',
           (LINEAGE + "test_separately_built_copies_share_no_table",)),
    Mutant("replay_trace drops the last step", ZX,
           "    for step in steps:\n        d = apply_rule(d, step.rule, step.location)",
           "    for step in list(steps)[:-1]:\n        d = apply_rule(d, step.rule, step.location)",
           REPLAY),
    Mutant("zx echoes the clock as its seed", CLI,
           '"command": "zx",\n        "seed": args.seed,',
           '"command": "zx",\n        "seed": __import__("time").monotonic_ns(),',
           ("tests/test_acceptance.py::test_criterion_10_cli_determinism",)),
    Mutant("strings quoted by json.dumps(ensure_ascii=False)", JSONIO,
           "        return encode_basestring_ascii(value)\n",
           "        return json.dumps(value, ensure_ascii=False)\n",
           (TEST_JSONIO + "TestJsonText::test_layout_matches_json_dumps_indent_2",)),
    Mutant("keys quoted without str()", JSONIO,
           "encode_basestring_ascii(str(key))", "encode_basestring_ascii(key)",
           (TEST_JSONIO + "TestJsonText::test_subclasses_render_as_their_base_types",)),
    Mutant("temp file left behind when a write fails", JSONIO,
           "            os.unlink(tmp)\n", "            pass\n",
           ("tests/test_cli.py::test_failed_temp_write_exits_1_without_output",)),
    Mutant(".16g in place of .17g for array cells", JSONIO,
           'cells[i] = format(x, ".17g")', 'cells[i] = format(x, ".16g")',
           (TEST_JSONIO + "TestArrayLeaf::test_matches_list_path",)),
    Mutant("-0.0 cells of an array leaf written as 0.0", JSONIO,
           'cells[i] = "-0.0" if', 'cells[i] = "0.0" if',
           (TEST_JSONIO + "TestArrayLeaf::test_matches_list_path",)),
)


def export(dest: Path) -> None:
    """Copy the files git lists, tracked or untracked but not ignored, to `dest`."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file may be deleted in the work tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_tests(copy: Path, tests) -> tuple[int, str]:
    """pytest's exit code on `tests` in `copy`, and the last line of its output."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile", "mutants", *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, (proc.stdout + proc.stderr).strip().rpartition("\n")[2]


def verdict(copy: Path, m: Mutant) -> tuple[str, bool]:
    """Plant `m` in `copy`, run its tests, restore the file: (result, as expected)."""
    path = copy / m.file
    source = path.read_text()
    if source.count(m.old) != 1:
        return "error: old text not found once", False
    path.write_text(source.replace(m.old, m.new))
    try:
        code, last = run_tests(copy, m.tests)
    finally:
        path.write_text(source)
    if code == 1:
        return ("killed, marked survivor", False) if m.survives else ("killed", True)
    if code == 0:
        return ("survived (known)", True) if m.survives else ("SURVIVED", False)
    return f"error: pytest exit {code}: {last}", False


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        export(copy)
        code, last = run_tests(copy, list(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if code != 0:
            print(f"the named tests fail on the unchanged source (pytest exit {code}): {last}")
            return 1
        print(f"{'mutant':<50} {'file':<12} tests  seconds  result")
        bad = 0
        for m in MUTANTS:
            start = time.monotonic()
            result, ok = verdict(copy, m)
            bad += not ok
            print(f"{m.name:<50} {Path(m.file).name:<12} {len(m.tests):>5}"
                  f"  {time.monotonic() - start:7.1f}  {result}", flush=True)
    print(f"{len(MUTANTS)} mutants, {sum(bool(m.survives) for m in MUTANTS)} marked as known"
          f" survivors; {bad} unexpected result{'s' * (bad != 1)}")
    for m in MUTANTS:
        if m.survives:
            print(f"  known survivor, {m.name}: {m.survives}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
