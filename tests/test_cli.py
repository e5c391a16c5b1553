"""End-to-end CLI tests run through subprocess, matching real usage."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qbrach import cli, qbe
from qbrach.matcore import BLOCK_SAMPLES

CLI = [sys.executable, "-m", "qbrach.cli"]
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "report-all-seed7.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd
    )


def run_main(capsys, *args):
    """cli.main in this process: (exit code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_algebra_majorana(tmp_path):
    out = tmp_path / "va.json"
    res = run_cli("verify-algebra", "--rep", "majorana", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert payload["verdict"] == "PASS"
    assert payload["max_residual"] == 0


def test_verify_algebra_all_reps():
    for rep in ("majorana", "dirac", "gamma"):
        res = run_cli("verify-algebra", "--rep", rep)
        assert res.returncode == 0, (rep, res.stderr)
        assert "PASS" in res.stdout


def test_classify_mass_verdicts(tmp_path):
    out = tmp_path / "cm.json"
    res = run_cli(
        "classify-mass", "--rep", "majorana", "--m", "1",
        "--px", "1", "--py", "1", "--pz", "1", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "ROTATING"
    assert payload["expected_rate"] == pytest.approx(4.0)

    res = run_cli(
        "classify-mass", "--rep", "dirac", "--m", "1",
        "--px", "1", "--py", "1", "--pz", "1",
    )
    assert res.returncode == 0
    assert "CONSTANT" in res.stdout


def test_missing_required_flag_exits_2():
    res = run_cli("classify-mass", "--rep", "majorana", "--px", "1",
                  "--py", "1", "--pz", "1")
    assert res.returncode == 2
    assert res.stderr


def test_unknown_command_exits_2():
    res = run_cli("no-such-command")
    assert res.returncode == 2


def test_invalid_theta_grid_exits_2(tmp_path):
    res = run_cli("compton", "--rep", "gamma", "--m", "1", "--omega1", "1",
                  "--theta-grid", "bogus", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "error" in res.stderr


def test_compton_csv(tmp_path):
    out = tmp_path / "compton.csv"
    res = run_cli("compton", "--rep", "gamma", "--m", "1", "--omega1", "1",
                  "--theta-grid", "0:pi:16", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,omega2,residual_energy,residual_matrix_max"
    assert len(lines) == 17  # header + end-inclusive 16-point grid
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(3.141592653589793)


def test_compton_reps_agree(tmp_path):
    """Both representation back ends produce the same omega2 column."""
    out_g = tmp_path / "g.csv"
    out_m = tmp_path / "m.csv"
    for rep, out in (("gamma", out_g), ("majorana", out_m)):
        res = run_cli("compton", "--rep", rep, "--m", "1.5", "--omega1", "0.8",
                      "--theta-grid", "0:pi:32", "--out", str(out))
        assert res.returncode == 0, res.stderr
    col_g = [ln.split(",")[1] for ln in out_g.read_text().splitlines()[1:]]
    col_m = [ln.split(",")[1] for ln in out_m.read_text().splitlines()[1:]]
    assert col_g == col_m


def test_evolve_csv(tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli("evolve", "--system", "majorana", "--m", "1", "--px", "1",
                  "--py", "1", "--pz", "1", "--t-end", "0.05", "--step", "1e-3",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 1 + 15 + 4
    assert len(lines) == 52  # header + 51 samples


def test_frames_json(tmp_path):
    out = tmp_path / "frames.json"
    res = run_cli("frames", "--m", "1", "--px", "1", "--py", "1", "--pz", "1",
                  "--t", "0.7", "--seed", "11", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "PASS"
    assert payload["klein_gordon_residual"] < 1e-10


def test_angmom_json(tmp_path):
    out = tmp_path / "u.json"
    res = run_cli("angmom", "--nx", "1", "--lyz", "2", "--t", "0.5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["orthogonality_residual"] < 1e-12


def test_nan_block_propagator_exits_1(tmp_path):
    # Angles of 1e310 overflow: cos and sin give NaN.  This once printed the
    # PASS line and exited 0, after numpy warnings on stderr.
    out = tmp_path / "u.json"
    res = run_cli("angmom", "--nx", "1e300", "--lyz", "1e300", "--t", "1e10",
                  "--out", str(out))
    assert res.returncode == 1
    assert res.stdout == "angmom: FAIL (orthogonality residual nan at t=1e+10)\n"
    assert res.stderr == ""
    payload = json.loads(out.read_text())
    assert payload["orthogonality_residual"] == "nan"
    assert sorted(payload) == ["command", "lyz", "nx", "orthogonality_residual",
                               "schema_version", "t", "u"]


def test_angmom_conserve(tmp_path):
    out = tmp_path / "ac.json"
    res = run_cli("angmom-conserve", "--seed", "7", "--t-end", "1",
                  "--step", "1e-3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "PASS"


def test_out_dir_environment_variable(tmp_path):
    env_dir = tmp_path / "reports"
    env_dir.mkdir()
    res = subprocess.run(
        CLI + ["verify-algebra", "--rep", "dirac", "--out", "va.json"],
        capture_output=True, text=True,
        env={**os.environ, "QBRACH_OUT_DIR": str(env_dir)},
    )
    assert res.returncode == 0, res.stderr
    assert (env_dir / "va.json").exists()


@pytest.mark.parametrize("argv", [
    # 1 / 0.3 is no whole number of steps; the flow would stop at t = 0.9.
    ["evolve", "--m", "1", "--px", "1", "--py", "1", "--pz", "1",
     "--t-end", "1", "--step", "0.3"],
    # 1 / 2 rounds to zero steps.
    ["angmom-conserve", "--t-end", "1", "--step", "2"],
])
def test_time_grid_not_whole_steps_exits_2(tmp_path, argv):
    out = tmp_path / "out"
    res = run_cli(*argv, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert not out.exists()


def test_report_all_matches_reference_bytes(tmp_path):
    out = tmp_path / "report-all.json"
    res = run_cli("report-all", "--seed", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == REFERENCE.read_bytes()


MASS_MOMENTUM = ["--m", "1", "--px", "1", "--py", "1", "--pz", "1"]

# A valid argument list per subcommand that takes float options.
VALID_FLOAT_ARGS = {
    "evolve": [*MASS_MOMENTUM, "--t-end", "0.01", "--step", "1e-3"],
    "classify-mass": ["--rep", "majorana", *MASS_MOMENTUM, "--t-end", "3"],
    "angmom": ["--nx", "1", "--lyz", "2", "--t", "0.5"],
    "angmom-conserve": ["--t-end", "0.01", "--step", "1e-3"],
    "compton": ["--rep", "gamma", "--m", "1", "--omega1", "1"],
    "frames": [*MASS_MOMENTUM, "--t", "0.7"],
}


@pytest.mark.parametrize("command,option,value", [
    (command, option, value)
    for command, argv in VALID_FLOAT_ARGS.items()
    for option in argv[::2] if option != "--rep"
    for value in ("nan", "inf", "-inf")
])
def test_non_finite_float_exits_2(capsys, tmp_path, command, option, value):
    # compton --m nan once printed PASS over a CSV of NaN and exited 0.
    argv = VALID_FLOAT_ARGS[command]
    at = argv.index(option)
    out = tmp_path / "out"
    bad = [*argv[:at], f"{option}={value}", *argv[at + 2:], "--out", str(out)]
    code, _, err = run_main(capsys, command, *bad)
    assert code == 2
    assert f"error: argument {option}: expected a finite number" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_classify_mass_needs_two_samples(capsys):
    code, out, err = run_main(capsys, "classify-mass", "--rep", "majorana",
                              *MASS_MOMENTUM, "--samples", "1")
    assert code == 2
    assert err.startswith("error:") and "CONSTANT" not in out


@pytest.mark.parametrize("rep", ["majorana", "dirac"])
@pytest.mark.parametrize("argv", [
    # Each once exited 0: with CONSTANT, or with a heavy Majorana mass called
    # ROTATING at a rate 94 % below 2E.
    [*MASS_MOMENTUM, "--t-end", "0"],
    [*MASS_MOMENTUM, "--samples", "2", "--t-end", "1.5707963267948966"],
    ["--m", "1000", "--px", "1", "--py", "1", "--pz", "1"],
    [*MASS_MOMENTUM, "--t-end", "1e-12"],  # the mass turns by about 4e-12
], ids=["no-span", "whole-turn-step", "heavy", "short-span"])
def test_classify_mass_unresolving_grid_exits_2(capsys, tmp_path, rep, argv):
    out = tmp_path / "out"
    code, stdout, err = run_main(capsys, "classify-mass", "--rep", rep, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error: t_grid") and "Traceback" not in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("rep", ["majorana", "dirac"])
def test_classify_mass_short_span_without_mass_is_constant(capsys, rep):
    code, stdout, err = run_main(capsys, "classify-mass", "--rep", rep, "--m", "0",
                                 "--px", "1", "--py", "1", "--pz", "1", "--t-end", "1e-12")
    assert (code, stdout, err) == (0, f"classify-mass {rep}: CONSTANT\n", "")


def test_compton_angle_outside_range_exits_2(capsys, tmp_path):
    out = tmp_path / "compton.csv"
    code, stdout, err = run_main(capsys, "compton", "--rep", "gamma", "--m", "1", "--omega1", "1",
                                 "--theta-grid", "0:4:8", "--out", str(out))
    assert code == 2
    assert err == "error: theta must lie in [0, pi]\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("0:pi/0:4", "angle 'pi/0' is not finite"),
    ("0:pi/1e-400:4", "angle 'pi/1e-400' is not finite"),
    ("0:1e400*pi:4", "angle '1e400*pi' is not finite"),
    ("0:inf:4", "angle 'inf' is not finite"),
    ("-inf:pi:4", "angle '-inf' is not finite"),
    ("nan:pi:4", "angle 'nan' is not finite"),
])
def test_degenerate_angle_grid_exits_2(capsys, tmp_path, grid, message):
    # pi/0 once ended in a ZeroDivisionError traceback, and inf and 1e400*pi
    # printed a numpy warning from linspace before exiting 2.
    out = tmp_path / "compton.csv"
    with np.errstate(all="raise"):
        code, stdout, err = run_main(capsys, "compton", "--rep", "gamma", "--m", "1",
                                     "--omega1", "1", f"--theta-grid={grid}", "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_parse_angle_values():
    assert cli.parse_angle("0.5") == 0.5
    assert cli.parse_angle(" pi ") == math.pi
    assert cli.parse_angle("2*pi") == math.pi * 2.0
    assert cli.parse_angle("pi/4") == math.pi / 4.0
    assert cli.parse_angle("-3*pi/2") == -(math.pi * 3.0 / 2.0)
    assert cli.parse_angle("pi/inf") == 0.0


def test_render_json_float_array_matches_recursive_rendering():
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
                       2.0, -7.0, 1e16, 1 / 3])
    for arr in (values, values[::-1], values[:1], values[3:],
                np.array([1.5, -0.0, np.nan, 3e38], dtype=np.float32)):
        for indent in (0, 2, 6):
            assert cli.render_json(arr, indent) == cli.render_json(arr.tolist(), indent)
    assert cli.render_json({"a": values}) == cli.render_json({"a": values.tolist()})
    assert cli.render_json(np.array([], dtype=float)) == "[]"


def test_evolve_system_is_checked_by_the_parser(capsys, tmp_path):
    out = tmp_path / "out"
    code, stdout, err = run_main(capsys, "evolve", "--system", "dirac",
                                 *VALID_FLOAT_ARGS["evolve"], "--out", str(out))
    assert code == 2
    assert "argument --system: invalid choice: 'dirac'" in err
    assert stdout == "" and not out.exists()


def test_negative_exponent_value_parses(tmp_path):
    args = ["evolve", "--m", "1.3", "--px", "0.5", "--py", "-2", "--t-end", "0.01",
            "--step", "1e-3"]
    separate, joined = tmp_path / "separate.csv", tmp_path / "joined.csv"
    res = run_cli(*args, "--pz", "-6e-06", "--out", str(separate))
    assert res.returncode == 0, res.stderr
    res = run_cli(*args, "--pz=-6e-06", "--out", str(joined))
    assert res.returncode == 0, res.stderr
    assert separate.read_bytes() == joined.read_bytes()


def test_frames_verdict_includes_klein_gordon(tmp_path):
    # The identities pass here, but the Klein-Gordon residual is about 3e-9.
    out = tmp_path / "frames.json"
    res = run_cli("frames", "--m=1000", "--px=1000", "--py=1000", "--pz=1000",
                  "--t=0.7", "--out", str(out))
    assert res.returncode == 1
    assert res.stdout == "frames: FAIL\n"
    payload = json.loads(out.read_text())
    assert payload["klein_gordon_residual"] >= 1e-10
    assert max(payload["residuals"].values()) < payload["tol"]
    assert payload["verdict"] == "FAIL"


def test_diverging_integration_exits_3(tmp_path):
    # The flow overflows near t = 620; this once exited 2, the input-error
    # code, after numpy overflow warnings on stderr.
    out = tmp_path / "traj.csv"
    res = run_cli("evolve", *MASS_MOMENTUM, "--t-end", "1000", "--step", "10",
                  "--out", str(out))
    assert res.returncode == 3
    assert res.stderr == "error: non-finite coefficients at t = 620.0\n"
    assert res.stdout == "" and not out.exists()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# Commands run one after another through one parser: valid runs, an argparse
# error, a non-finite option, and a run that leaves at their defaults the
# options the first call set.
REUSE_SEQUENCE = [
    ["classify-mass", "--rep", "majorana", *MASS_MOMENTUM, "--samples", "50", "--out", "cm.json"],
    ["classify-mass", "--rep", "majorana", "--px", "1"],
    ["compton", "--rep", "gamma", "--m", "nan", "--omega1", "1", "--out", "c.csv"],
    ["classify-mass", "--rep", "majorana", *MASS_MOMENTUM],
    ["report-all", "--seed", "7"],
]


def _run_sequence(capsys, monkeypatch, out_dir):
    """(exit code, stdout, stderr, files in out_dir) after each command."""
    out_dir.mkdir()
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out_dir))
    results = []
    for argv in REUSE_SEQUENCE:
        results.append((*run_main(capsys, *argv),
                        {p.name: p.read_bytes() for p in out_dir.iterdir()}))
    return results


def test_shared_parser_runs_like_a_fresh_one(capsys, monkeypatch, tmp_path):
    shared = _run_sequence(capsys, monkeypatch, tmp_path / "shared")
    assert [r[0] for r in shared] == [0, 2, 2, 0, 0]
    args = cli.build_parser().parse_args(REUSE_SEQUENCE[3])
    assert (args.samples, args.out) == (300, None)

    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert _run_sequence(capsys, monkeypatch, tmp_path / "fresh") == shared


def test_overflowing_compton_fails_without_warnings(tmp_path):
    for rep in ("gamma", "majorana"):
        res = run_cli("compton", "--rep", rep, "--m", "1e300", "--omega1", "1e300",
                      "--theta-grid", "0:pi:4", "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 1
        assert res.stdout == f"compton {rep}: FAIL over 4 angles (max residual nan)\n"
        assert "Warning" not in res.stderr and res.stderr == ""


@pytest.mark.parametrize("mass_momentum", [
    ["--m", "1e200", "--px", "1", "--py", "1", "--pz", "1"],
    ["--m", "1", "--px", "1e200", "--py", "1", "--pz", "1"],
])
def test_overflowing_frames_hamiltonian_exits_2(tmp_path, mass_momentum):
    # E^2 overflows: this once exited 2 with "h0 spectrum does not match the
    # eigenframe", after numpy warnings on stderr.
    out = tmp_path / "frames.json"
    res = run_cli("frames", *mass_momentum, "--t", "0.7", "--out", str(out))
    assert res.returncode == 2
    assert "Warning" not in res.stderr
    assert res.stderr == ("error: E^2 = m^2 + |p|^2 is not finite: "
                          "the Hamiltonian H = i m beta + alpha.p overflows\n")
    assert res.stdout == "" and not out.exists()


@pytest.mark.parametrize("mass", ["1e200", "1e154"])
def test_overflowing_evolve_system_exits_2(tmp_path, mass):
    # E^2 (m = 1e200) or k = Tr[H^2/2] (m = 1e154) overflows: this once exited
    # 3 as a divergence at t = 0.1, after numpy warnings on stderr.
    out = tmp_path / "traj.csv"
    res = run_cli("evolve", "--m", mass, "--px", "1", "--py", "1", "--pz", "1",
                  "--t-end", "1", "--step", "0.1", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == ("error: E^2 = m^2 + |p|^2 or k = Tr[H^2/2] is not finite: "
                          "the Hamiltonian H = i m beta + alpha.p overflows\n")
    assert res.stdout == "" and not out.exists()


@pytest.mark.parametrize("mass", ["1e6", "1e8", "1e154"])
def test_frames_at_large_mass_fails_without_input_error(tmp_path, mass):
    # Rounding at these scales once read as lost Hermiticity (an absolute
    # 1e-10 test) or as a spectrum mismatch (an absolute 1e-8 test): exit 2.
    out = tmp_path / "frames.json"
    res = run_cli("frames", "--m", mass, "--px", "1", "--py", "1", "--pz", "1",
                  "--t", "0.7", "--out", str(out))
    assert (res.returncode, res.stdout, res.stderr) == (1, "frames: FAIL\n", "")
    assert json.loads(out.read_text())["verdict"] == "FAIL"


def test_frames_phase_overflow_exits_2(tmp_path):
    # 2 E t overflows: this once printed four numpy warnings and then
    # "evolved Hamiltonian lost Hermiticity".
    out = tmp_path / "frames.json"
    res = run_cli("frames", *MASS_MOMENTUM, "--t", "1e308", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == "error: 2 E t is not finite at E = 2, t = 1e+308\n"
    assert res.stdout == "" and not out.exists()


@pytest.mark.parametrize("samples", [1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
def test_evolve_residual_columns_peak_at_conserved_residuals(capsys, monkeypatch, tmp_path,
                                                             samples):
    # evolve writes qbe.drifts per row; conserved_residuals takes the maxima
    # of the same drifts per block.  An integration takes at least one step,
    # so the trajectory is cut to its first `samples` rows.
    integrate = qbe.integrate_qbe

    def first_rows(sys_, t_end, step):
        traj = integrate(sys_, t_end, step)
        return replace(traj, times=traj.times[:samples], coeffs=traj.coeffs[:samples])

    monkeypatch.setattr(qbe, "integrate_qbe", first_rows)
    m, p, step = 0.7, (-1.5, 0.0, 2.25), 1e-3
    t_end = max(samples - 1, 1) * step
    out = tmp_path / "traj.csv"
    code, _, _ = run_main(capsys, "evolve", f"--m={m}", f"--px={p[0]}", f"--py={p[1]}",
                          f"--pz={p[2]}", f"--t-end={t_end!r}", f"--step={step}",
                          "--out", str(out))
    assert code == 0
    header, *lines = out.read_text().splitlines()
    assert header.split(",")[-4:] == ["res_isotropic", "res_cross_trace",
                                      "res_total_square", "res_spectrum"]
    columns = np.array([[float(x) for x in line.split(",")[-4:]] for line in lines])
    assert columns.shape == (samples, 4)
    sys_ = qbe.majorana_system(m, p)
    report = qbe.conserved_residuals(first_rows(sys_, t_end, step), sys_)
    assert list(columns.max(axis=0)) == [report["isotropic_drift"], report["cross_trace_drift"],
                                         report["total_square_drift"], report["spectrum_drift"]]
