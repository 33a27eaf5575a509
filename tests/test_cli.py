import json
import math

import numpy as np
import pytest

from nohidelab.cli import main


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

    def test_shot_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["perfect", "--shots", "8192", "--seed", "42"]
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_shot_mode_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["imperfect", "--grid", "none", "--p", "0.3", "--shots", "1024",
                "--seed", "7", "--format", "csv"]
        run_cli(args + ["--out", str(a)], capsys)
        run_cli(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


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
        from nohidelab import zx

        out = tmp_path / "zx.json"
        run_cli(["zx", "--out", str(out)], capsys)
        data = json.loads(out.read_text())
        initial = zx.diagram_from_json_dict(data["derivation"]["initial"])
        steps = zx.steps_from_json_list(data["derivation"]["steps"])
        final = zx.replay_trace(initial, steps)
        assert zx.diagram_to_json_dict(final) == data["derivation"]["final"]

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["zx", "--out", str(a)], capsys)
        run_cli(["zx", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("argv, eigensolves", [
    (["imperfect", "--shots", "1024"], 157),
    (["perfect", "--shots", "8192"], 17),
])
def test_eigensolves_per_call(argv, eigensolves, eigh_calls, capsys):
    # One per validated DensityMatrix, tomogram and trace distance, and one
    # per fidelity: its square root reuses the first state's validation.
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(eigh_calls) == eigensolves


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
], ids=["perfect-seed", "imperfect-seed", "perfect-shots", "imperfect-shots",
        "out-dir-missing", "out-is-dir", "qubits-21"])
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
