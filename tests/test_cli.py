import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nohidelab import cli, nohiding
from nohidelab.cli import main

from conftest import DATA, assert_same, fresh_run, subprocess_env
from oracles import whole_scalar


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPerfect:
    def test_exact_mode_reports_unit_fidelities(self, tmp_path, capsys):
        out = tmp_path / "perfect.json"
        code, _, _ = run_cli(["perfect", "--variant", "eq2", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["bell"]["fidelity_exact"] == pytest.approx(1.0, abs=1e-9)
        assert data["transfer"]["fidelity_exact"] == pytest.approx(1.0, abs=1e-9)
        assert data["bell"]["qubits"] == [0, 1]
        assert data["transfer"]["qubit"] == 2
        assert data["bell"]["tomography"]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_variants_agree_on_exact_fidelities(self, tmp_path, capsys):
        values = {}
        for tag in ("eq1", "eq2"):
            out = tmp_path / f"{tag}.json"
            assert run_cli(["perfect", "--variant", tag, "--out", str(out)], capsys)[0] == 0
            data = json.loads(out.read_text())
            values[tag] = (data["bell"]["fidelity_exact"], data["transfer"]["fidelity_exact"])
        assert values["eq1"] == pytest.approx(values["eq2"], abs=1e-9)

    def test_different_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["perfect", "--shots", "512", "--seed", "1", "--out", str(a)], capsys)
        run_cli(["perfect", "--shots", "512", "--seed", "2", "--out", str(b)], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_explicit_exact_keyword(self, tmp_path, capsys):
        out = tmp_path / "exact.json"
        code, _, _ = run_cli(["perfect", "--shots", "exact", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["shots"] == "exact"

    def test_shot_mode_reports_sampled_tomography(self, tmp_path, capsys):
        out = tmp_path / "shots.json"
        code, _, _ = run_cli(
            ["perfect", "--shots", "2048", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["shots"] == 2048
        tomo_report = data["transfer"]["tomography"]
        assert 0.9 < tomo_report["fidelity"] <= 1.0
        assert tomo_report["fidelity"] != 1.0  # sampled, not exact


class TestImperfect:
    def test_default_grid_csv_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["imperfect", "--format", "csv", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "p", "trace_distance_exact", "trace_distance_tomo", "fidelity_exact",
            "fidelity_tomo", "fidelity_bound", "raw_min_eigenvalue",
        ]
        assert len(lines) == 12
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            p, td = cells[0], cells[1]
            assert td == pytest.approx((1 - p) / 2, abs=1e-10)
            assert cells[5] == pytest.approx(1 - (1 - p) / 2, abs=1e-12)

    def test_explicit_points_only(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, _, _ = run_cli(
            ["imperfect", "--grid", "none", "--p", "0", "--p", "1",
             "--format", "csv", "--out", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-10)
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-10)

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = run_cli(
            ["imperfect", "--grid", "none", "--p", "0.5", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["records"][0]["p"] == 0.5
        assert data["shots"] == "exact"

    def test_rejects_out_of_range_p(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code, _, err = run_cli(
            ["imperfect", "--grid", "none", "--p", "1.5", "--out", str(out)], capsys)
        assert code == 2
        assert "outside" in err
        assert not out.exists()

    def test_rejects_empty_point_list(self, capsys):
        code, _, err = run_cli(["imperfect", "--grid", "none"], capsys)
        assert code == 2
        assert "no sweep points" in err

    def test_negative_zero_point_writes_the_bytes_of_zero(self, tmp_path, capsys):
        outs = [tmp_path / "minus.json", tmp_path / "plus.json"]
        for p, out in zip(["-0", "0"], outs):
            argv = ["imperfect", "--grid", "none", "--p", p, "--out", str(out)]
            assert run_cli(argv, capsys)[0] == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()



class TestZxCommand:
    def test_writes_trace_and_diagrams(self, tmp_path, capsys):
        out = tmp_path / "zx.json"
        code, _, _ = run_cli(["zx", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        derivation = data["derivation"]
        assert derivation["stages"] == ["C", "S1", "S1", "S1", "T", "T,S1", "S1"]
        assert len(derivation["steps"]) == 14
        for step in derivation["steps"]:
            assert math.hypot(step["scalar_re"], step["scalar_im"]) > 1e-9
        assert {n["kind"] for n in derivation["final"]["nodes"]} == {"in", "out", "Z", "X", "H"}
        assert data["simplify"]["steps"]

    def test_trace_replay_round_trip(self, tmp_path, capsys):
        # Both traces start from the initial diagram. Each recorded scalar,
        # measured on the region its step changed, is the whole diagrams' one.
        from nohidelab import zx

        out = tmp_path / "zx.json"
        assert run_cli(["zx", "--out", str(out)], capsys)[0] == 0
        data = json.loads(out.read_text())
        initial = zx.diagram_from_json_dict(data["derivation"]["initial"])
        for part, last in (("derivation", "final"), ("simplify", "result")):
            steps, d = zx.steps_from_json_list(data[part]["steps"]), initial
            for step in steps:
                after = zx.apply_rule(d, step.rule, step.location)
                whole = whole_scalar(d, after)
                assert whole is not None and abs(whole - step.scalar_check) <= 1e-12, (part, step)
                d = after
            assert zx.diagram_to_json_dict(zx.replay_trace(initial, steps)) == data[part][last]


class TestSimulate:
    def test_hadamard_amplitudes(self, tmp_path, capsys):
        path = tmp_path / "h.circ"
        path.write_text("qubits 1\nh 0\n")
        code, out, _ = run_cli(["simulate", str(path)], capsys)
        assert code == 0
        data = json.loads(out)
        amp = 1 / math.sqrt(2)
        assert data["amplitudes"][0] == pytest.approx([amp, 0.0])
        assert data["amplitudes"][1] == pytest.approx([amp, 0.0])

    def test_state_prep_file_matches_cos_sin(self, tmp_path, capsys):
        path = tmp_path / "prep.circ"
        path.write_text("qubits 1\nh 0\nt 0\nh 0\ns 0\n")
        code, out, _ = run_cli(["simulate", str(path)], capsys)
        assert code == 0
        data = json.loads(out)
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        target = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        s = np.vdot(target, amps)
        assert abs(abs(s) - 1) < 1e-9
        assert np.abs(amps - s * target).max() < 1e-9

    def test_malformed_file_exits_2_without_output(self, tmp_path, capsys):
        path = tmp_path / "bad.circ"
        path.write_text("qubits 2\ncx 0 2\n")
        out = tmp_path / "result.json"
        code, _, err = run_cli(["simulate", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert "line 2" in err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["simulate", str(tmp_path / "nope.circ")], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.circ"
        path.write_bytes(b"qubits 2\nh 0 # \xff\n")
        out = tmp_path / "result.json"
        code, _, err = run_cli(["simulate", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert f"cannot read circuit file {path}: 'utf-8' codec can't decode" in err
        assert not out.exists()

    def test_memory_peak_is_a_small_multiple_of_the_state(self, tmp_path, capsys):
        # The amplitudes reach jsonio as one (2^n, 2) float view, so the peak
        # is set by the output text, not by a Python object per amplitude.
        path = tmp_path / "q16.circ"
        path.write_text("qubits 16\nh 0\nu3 0.3 1.1 -0.7 1\ncx 0 15\nt 15\nh 8\n")
        args = ["simulate", str(path), "--out", str(tmp_path / "q16.json")]
        assert main(args) == 0  # warm-up: imports, parser, first-call caches
        tracemalloc.start()
        try:
            code = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 10 * 16 * 2 ** 16


GOLDEN_ARGVS = {
    "perfect_golden_eq2.json": "perfect --variant eq2 --shots 8192 --seed 3",
    # eq6 at 5 shots leaves most outcomes of each basis at zero counts.
    "perfect_golden_eq6_sparse.json": "perfect --variant eq6 --shots 5 --seed 2",
    "perfect_golden_eq1_exact.json": "perfect --variant eq1",
    "imperfect_golden.csv": "imperfect --shots 1024 --format csv --seed 3",
    "imperfect_golden_exact.json": "imperfect --format json",
    # At 5 shots two of the four raw tomograms go negative, so the
    # projection truncates their spectra.
    "imperfect_golden_shots5.json":
        "imperfect --grid none --p 0 --p 1 --p 0.5 --p 0.5 --shots 5 --seed 2 --format json",
    "zx_golden.json": "zx",
    # Every mnemonic; cx, ch and swap in both operand orders on
    # non-adjacent qubits.
    "simulate_golden_q10.json": "simulate {data}/simulate_golden_q10.circ",
}


GOLDEN_BUILD = json.loads((DATA / "golden_build.json").read_text())


def test_one_supported_build_is_stated_everywhere():
    """pyproject.toml claims, and CI runs, the build the golden files were written on."""
    root = DATA.parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == [f"numpy>={GOLDEN_BUILD['numpy']}"]
    assert project["requires-python"] == ">=3.11"
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"python-version:\s*(.+)", workflow) == ['"3.11"']


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory) -> Path:
    """Every golden argv, run in one interpreter on the OpenBLAS kernel that
    wrote the golden files; eigh and gemm round differently on each kernel."""
    out = tmp_path_factory.mktemp("golden")
    with fresh_run([[a.format(data=DATA) for a in argv.split()] + ["--out", str(out / name)]
                    for name, argv in GOLDEN_ARGVS.items()], out / "build.json",
                   OPENBLAS_CORETYPE=GOLDEN_BUILD["openblas_coretype"]):
        pass
    return out


@pytest.mark.parametrize("golden", GOLDEN_ARGVS)
def test_run_matches_golden_bytes(golden, golden_runs):
    build = json.loads((golden_runs / "build.json").read_text())
    assert_same((golden_runs / golden).read_bytes(), (DATA / golden).read_bytes(),
                f"{golden} (written on {GOLDEN_BUILD}; this run on {build})")


@pytest.mark.parametrize("argv, eigensolves", [
    (["imperfect", "--shots", "1024"], 3),
    (["perfect", "--shots", "8192"], 10),
])
def test_eigensolves_per_call(argv, eigensolves, eigh_calls, capsys):
    # One per validated DensityMatrix stack, one per stack of raw tomograms
    # that `tomo_pipeline` decomposes, and one per trace distance and fidelity
    # that `perfect` reports between two states. Pure states are reduced
    # without forming their density matrix, distances to I/2 and to pure
    # targets need none, and fidelity and projection reuse spectra already
    # computed. The sweep decomposes its 11 exact system states, their 11 raw
    # tomograms and the 11 projections as three stacks: 1 + 1 + 1. `perfect`
    # tomographs one state at a time: per product, its reduced state, raw and
    # projected tomograms, fidelity and trace distance.
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(eigh_calls) == eigensolves


# Each pair spells one configuration two ways. The "-0" against "0" pair is
# TestImperfect.test_negative_zero_point_writes_the_bytes_of_zero.
@pytest.mark.parametrize("first, second", [
    ("imperfect --grid none --p .5", "imperfect --grid none --p 0.50"),
    ("imperfect --grid none --p .5", "imperfect --grid none --p 5e-1"),
    ("perfect --seed 007", "perfect --seed 7"),
    ("perfect", "perfect --variant eq2 --shots exact --seed 0"),
])
def test_equivalent_argvs_give_identical_bytes(first, second, tmp_path, capsys):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for argv, out in zip([first, second], outs):
        assert run_cli(argv.split() + ["--out", str(out)], capsys)[0] == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_variant_choices_are_the_randomizer_tags():
    assert cli.VARIANT_TAGS == nohiding.VARIANT_TAGS


_SUBCOMMAND_MODULES = ("nohidelab.zx", "nohidelab.nohiding", "nohidelab.tomo")


@pytest.mark.parametrize("argv, absent", [
    ([], _SUBCOMMAND_MODULES),
    (["simulate", "{tmp}/bell.circ"], _SUBCOMMAND_MODULES + ("numpy.random",)),
    (["perfect", "--shots", "64"], ("nohidelab.zx",)),
    (["imperfect", "--grid", "none", "--p", "0.5", "--shots", "64"], ("nohidelab.zx",)),
    (["zx"], ("nohidelab.tomo", "numpy.random")),
], ids=["import", "simulate", "perfect", "imperfect", "zx"])
def test_subcommand_loads_only_its_modules(argv, absent, tmp_path):
    # A fresh interpreter, since this one has imported every module already.
    (tmp_path / "bell.circ").write_text("qubits 2\nh 0\ncx 0 1\n")
    if argv:
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out.json")]
    script = (
        "import json, sys\n"
        "from nohidelab import cli\n"
        "argv, absent = json.loads(sys.argv[1])\n"
        "if argv and cli.main(argv) != 0:\n"
        "    sys.exit('the command failed')\n"
        "print(json.dumps([m for m in absent if m in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, json.dumps([argv, absent])],
                          capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_readme_command_line_examples_run(tmp_path):
    # The sh block under "## Command line", as written, from an empty
    # directory, with `nohidelab` meaning this interpreter's `-m nohidelab`.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    block = section.split("```sh\n")[1].split("```")[0]
    assert re.search(r"^nohidelab ", block, re.M), "no example extracted"
    alias = f'nohidelab() {{ {shlex.quote(sys.executable)} -m nohidelab "$@"; }}\n'
    done = subprocess.run(["bash", "-e", "-c", alias + block], cwd=tmp_path, capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr


def test_failed_rename_exits_1_without_output(tmp_path, capsys, failing_rename):
    code, out, err = run_cli(["zx", "--out", str(tmp_path / "zx.json")], capsys)
    assert (code, out, list(tmp_path.iterdir())) == (1, "", [])
    assert "rename failed" in err


def test_failed_temp_write_exits_1_without_output(tmp_path, capsys, failing_write):
    code, out, err = run_cli(["zx", "--out", str(tmp_path / "zx.json")], capsys)
    assert (code, out, list(tmp_path.iterdir())) == (1, "", [])
    assert os.strerror(errno.ENOSPC) in err


class TestArgHandling:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["perfect", "--bogus"], capsys)[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 2

    def test_bad_shots_value_exits_2(self, capsys):
        assert run_cli(["perfect", "--shots", "-5"], capsys)[0] == 2
        assert run_cli(["perfect", "--shots", "many"], capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["perfect", "--seed", "-1", "--shots", "8"], "seed must be a non-negative"),
    (["imperfect", "--seed", "-1", "--shots", "8"], "seed must be a non-negative"),
    (["perfect", "--shots", "10000000000000000000000"], "shots must be between"),
    (["imperfect", "--shots", "10000000000000000000000"], "shots must be between"),
    (["perfect", "--out", "{tmp}/missing/x.json"], "missing' does not exist"),
    (["zx", "--out", "{tmp}/outdir"], "outdir' is a directory"),
    (["simulate", "{tmp}/q21.circ"], "col 8: qubit count 21 exceeds the limit of 20"),
    # Numbers are ASCII only: Python's int() and float() also take these.
    (["perfect", "--seed", "\u0663"], "seed must be an integer, got '\u0663'"),
    (["perfect", "--seed", "+5"], "seed must be an integer, got '+5'"),
    (["perfect", "--seed", "1_0"], "seed must be an integer, got '1_0'"),
    (["perfect", "--seed", "-0"], "seed must be a non-negative"),
    (["perfect", "--shots", "1_024"], "shots must be a positive integer or 'exact', got '1_024'"),
    (["perfect", "--shots", "\u0663"], "shots must be a positive integer or 'exact'"),
    (["imperfect", "--p", "\u0660.\u0665"], "invalid float value: '\u0660.\u0665'"),
    (["imperfect", "--p", "0_0.5"], "invalid float value: '0_0.5'"),
    (["imperfect", "--p", "nan"], "invalid float value: 'nan'"),
], ids=["perfect-seed", "imperfect-seed", "perfect-shots", "imperfect-shots",
        "out-dir-missing", "out-is-dir", "qubits-21", "seed-arabic-indic", "seed-plus",
        "seed-underscore", "seed-minus-zero", "shots-underscore", "shots-arabic-indic",
        "p-arabic-indic", "p-underscore", "p-nan"])
def test_config_errors_exit_2_without_output(argv, message, tmp_path, capsys):
    (tmp_path / "q21.circ").write_text("qubits 21\nh 0\n")
    (tmp_path / "outdir").mkdir()
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out.json")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert message in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["outdir", "q21.circ"]
