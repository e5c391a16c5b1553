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
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qbrach import angmom4, cli, frames, propagate, qbe, scatter
from qbrach.cliffrep import build_majorana
from qbrach.matcore import BLOCK_SAMPLES, MAX_SAMPLES, anticommutator, max_abs, worst

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


def _reference_mismatch(got: bytes) -> str:
    """Why `got` may differ from the reference report: each `checks` entry
    that differs, by name, and the numpy build of this process, which the
    child inherits.  The BLAS kernel and numpy's SIMD level move residuals in
    their last digits, so the reference bytes hold on one build only."""
    want = json.loads(REFERENCE.read_bytes())["checks"]
    try:
        checks = json.loads(got)["checks"]
    except (ValueError, KeyError):
        checks = {}
    lines = [f"  {name}: {checks.get(name)}, reference {want.get(name)}"
             for name in sorted(want.keys() | checks.keys()) if checks.get(name) != want.get(name)]
    config = np.show_config(mode="dicts")
    simd = config["SIMD Extensions"]
    return "\n".join([
        f"report-all --seed 7 differs from {REFERENCE.name} in these checks:",
        *(lines or ["  none: the difference lies outside `checks`"]),
        f"numpy {np.__version__}",
        f"BLAS {config['Build Dependencies']['blas']}, "
        f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')}",
        f"SIMD baseline {simd['baseline']}, dispatched {simd['found']}",
    ])


def test_report_all_matches_reference_bytes(tmp_path):
    out = tmp_path / "report-all.json"
    res = run_cli("report-all", "--seed", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == REFERENCE.read_bytes(), _reference_mismatch(out.read_bytes())


def test_reference_mismatch_names_the_check_and_the_build():
    report = json.loads(REFERENCE.read_bytes())
    report["checks"]["diagonalization"]["residual"] = 1.7763568394002505e-15
    message = _reference_mismatch(cli.render_json(report).encode())
    named = [line for line in message.splitlines() if line.startswith("  ")]
    assert len(named) == 1 and named[0].startswith("  diagonalization: ")
    assert "1.7763568394002505e-15" in named[0]
    assert f"numpy {np.__version__}" in message
    assert "BLAS {" in message and "SIMD baseline" in message
    report = json.loads(REFERENCE.read_bytes())
    report["seed"] = 8
    assert "  none: the difference lies outside" in _reference_mismatch(
        cli.render_json(report).encode())
    assert len(_reference_mismatch(b"{").splitlines()) == 4 + len(report["checks"])


# report-all's checks as they were written before they drew arrays, one draw
# per loop pass: the references the rewritten checks must equal, residual
# bits and rng state included.

def _reference_check_diagonalization(rng):
    residuals = []
    for _ in range(20):
        m = rng.uniform(0.1, 3.0)
        p = rng.uniform(-3.0, 3.0, 3)
        frame = propagate.majorana_eigenframe(m, p)
        h = build_majorana().hamiltonian(m, p)
        residuals.append(max_abs(frame.w_inv @ h @ frame.w - frame.d))
    return [("diagonalization", worst(residuals), 1e-10)]


def _reference_check_propagator(rng):
    frame = propagate.majorana_eigenframe(1.0, (1.0, 1.0, 1.0))
    u = propagate.propagator(frame)
    residuals = []
    for _ in range(20):
        t, s, r = rng.uniform(-2, 2, 3)
        ph = np.exp(-2j * frame.energy * (t - s))
        residuals += [
            max_abs(u(t, s) - np.diag([ph, ph, 1, 1])),
            max_abs(u(t, s) @ u(t, s).conj().T - np.eye(4)),
            max_abs(u(t, s) @ u(s, r) - u(t, r)),
        ]
    return [("propagator", worst(residuals), 1e-10)]


def _reference_check_angmom(rng):
    _, _, report = cli._conservation(rng, 2.0, 1e-3)
    pairs = [(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)) for _ in range(50)]
    inv = [abs(angmom4.angmom_invariant(n, l) - 2 * (n @ n + l @ l)) for n, l in pairs]
    block = []
    for _ in range(10):
        nx, lyz, t = rng.uniform(-2, 2, 3)
        u = angmom4.block_propagator(nx, lyz, t)
        rot = angmom4.flow(angmom4.assemble_tensor((nx, 0, 0), (-lyz, 0, 0)), [t])[0].real
        block += [max_abs(u - rot), max_abs(u.T @ u - np.eye(4))]
    return [
        ("angmom_conservation", worst(report[k] for k in cli.DRIFT_KEYS[:3]), 1e-8),
        ("angmom_invariant", worst(inv), 1e-12),
        ("angmom_block_propagator", worst(block), 1e-12),
    ]


def _reference_check_frames(rng):
    residuals = []
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = rng.uniform(0.1, 3.0)
        case = frames.make_frame_case(v, t, 1.0, (1.0, 1.0, 1.0))
        residuals.extend(frames.check_frame_equivalence(case)["residuals"].values())
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    bad = frames.FrameCase(v=v, w=v, t=0.7, m=1.0, p=(1.0, 1.0, 1.0), energy=math.sqrt(1.0 + 3.0))
    control = frames.check_frame_equivalence(bad)
    return [
        ("frames_identities", worst(residuals), 1e-10),
        ("frames_negative_control", 0.0 if control["verdict"] == "FAIL" else math.inf, 1e-12),
    ]


def _reference_check_compton(rng):
    cases = [(1.0, 1.0)] + [tuple(rng.uniform(0.2, 3.0, 2)) for _ in range(5)]
    thetas = np.linspace(0.0, math.pi, 16)
    return [(f"compton_{tag}",
             worst(np.concatenate([cli._compton(m, w1, thetas, rep)[1] for m, w1 in cases])),
             1e-12)
            for rep, tag in (("gamma_scatter", "gamma"), ("majorana", "majorana"))]


def _reference_check_phase_anticom(rng):
    residuals = []
    for _ in range(50):
        p = rng.uniform(-2, 2, 3)
        q = rng.uniform(-2, 2, 3)
        th = rng.uniform(-math.pi, math.pi)
        lhs = 0.5 * anticommutator(scatter.block_momentum(p, th), scatter.block_momentum(q, 0.0))
        lhs2 = 0.5 * anticommutator(scatter.majorana_momentum_matrix(p, th),
                                    scatter.majorana_momentum_matrix(q, 0.0))
        residuals += [
            max_abs(lhs - scatter.phased_anticommutator_block(p, q, th)),
            max_abs(lhs2 - scatter.majorana_phased_dot(p, q, th) * np.eye(4)),
        ]
    return [("phase_anticommutators", worst(residuals), 1e-12)]


@pytest.mark.parametrize("check, reference, seeds", [
    (cli._check_diagonalization, _reference_check_diagonalization, range(50)),
    (cli._check_propagator, _reference_check_propagator, range(50)),
    (cli._check_angmom, _reference_check_angmom, range(3)),
    (cli._check_compton, _reference_check_compton, range(20)),
    (cli._check_phase_anticom, _reference_check_phase_anticom, range(50)),
    (cli._check_frames, _reference_check_frames, range(50)),
], ids=["diagonalization", "propagator", "angmom", "compton", "phase_anticom", "frames"])
def test_report_check_equals_its_per_draw_loop(check, reference, seeds):
    for seed in seeds:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = check(rng), reference(ref_rng)
        assert got == want
        assert [r.hex() for _, r, _ in got] == [r.hex() for _, r, _ in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.uniform() == ref_rng.uniform()


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


@pytest.mark.parametrize("argv", [
    ["evolve", *MASS_MOMENTUM, "--t-end", "1", "--step", "1e-3"],
    ["angmom-conserve"],
    ["report-all"],
], ids=["evolve", "angmom-conserve", "report-all"])
@pytest.mark.parametrize("via_env, is_dir", [(False, False), (True, False), (False, True),
                                             (True, True)],
                         ids=["path", "env", "dir-path", "dir-env"])
def test_missing_out_dir_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv, via_env,
                                                 is_dir):
    # evolve once ran its whole integration, and report-all its first checks,
    # before failing to open the file: in a missing directory, or (is_dir)
    # when --out named an existing directory.
    def never(*_):
        raise AssertionError("integrated before checking the output path")

    monkeypatch.setattr(qbe, "integrate_qbe", never)
    monkeypatch.setattr(angmom4, "integrate_qbe", never)
    folder = tmp_path / "folder"
    if is_dir:
        folder.mkdir()
        (folder / "kept.txt").write_text("kept")
        out, expected = str(folder), f"output path {str(folder)!r} is a directory"
        if via_env:
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
            out = "folder"
    else:
        out, expected = str(folder / "r.out"), f"output directory {str(folder)!r} does not exist"
        if via_env:
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(folder))
            out = "r.out"
    code, stdout, err = run_main(capsys, *argv, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: {expected}\n"
    if is_dir:
        assert [(f.name, f.read_text()) for f in folder.iterdir()] == [("kept.txt", "kept")]
    else:
        assert not folder.exists()


@pytest.mark.parametrize("argv", [
    ["evolve", *MASS_MOMENTUM, "--t-end", "5", "--step", "1e-4"],
    ["compton", "--rep", "gamma", "--m", "1", "--omega1", "1"],
    ["report-all"],
    ["verify-algebra", "--rep", "majorana"],
], ids=["evolve", "compton", "report-all", "verify-algebra"])
def test_empty_out_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv):
    # An empty --out once skipped the output check: evolve integrated all its
    # steps before failing to open "./", and report-all exited 0 with no report.
    def never(*_):
        raise AssertionError("worked before checking the output path")

    for owner, name in [(qbe, "integrate_qbe"), (angmom4, "integrate_qbe"),
                        (cli.scatter, "verify_conservation"), (cli, "_algebra")]:
        monkeypatch.setattr(owner, name, never)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_main(capsys, *argv, "--out=")
    assert (code, stdout) == (2, "")
    assert err == "error: output path './' is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, argv", [
    ("compton", ["--rep", "gamma", "--m", "1", "--omega1", "1",
                 f"--theta-grid=0:pi:{MAX_SAMPLES + 1}"]),
    ("classify-mass", ["--rep", "majorana", *MASS_MOMENTUM, "--samples", str(MAX_SAMPLES + 1)]),
])
def test_grid_count_above_cap_exits_2(capsys, monkeypatch, tmp_path, command, argv):
    # Nothing once bounded the count before linspace allocated the grid.
    assert len(cli._sample_grid(0.0, 1.0, MAX_SAMPLES)) == MAX_SAMPLES

    def never(*_):
        raise AssertionError("allocated a grid above the cap")

    monkeypatch.setattr(np, "linspace", never)
    out = tmp_path / "out"
    code, stdout, err = run_main(capsys, command, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == (f"error: grid count {MAX_SAMPLES + 1} exceeds the cap of "
                   f"{MAX_SAMPLES} samples\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    # A negative seed once reached numpy, whose message names no option.
    *(([command, *argv, "--seed", "-3"],
       "argument --seed: expected a non-negative integer, got '-3'")
      for command, argv in (("frames", [*MASS_MOMENTUM, "--t", "0.7"]), ("angmom-conserve", []),
                            ("report-all", []))),
    # --samples and --theta-grid's count share one rule; a negative --samples
    # once gave linspace's message, and 1 classify_mass's.
    *((["classify-mass", "--rep", "majorana", *MASS_MOMENTUM, "--samples", count],
       f"grid count must be at least 2, got {count}") for count in ("-5", "0", "1")),
], ids=["frames-seed", "angmom-conserve-seed", "report-all-seed", "samples--5", "samples-0",
        "samples-1"])
def test_bad_integer_input_exits_2_naming_it(capsys, tmp_path, argv, message):
    out = tmp_path / "out"
    code, stdout, err = run_main(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


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
    # A '*' without its coefficient or a '/' without its denominator once read as 1.
    ("*pi:pi:4", "cannot parse angle '*pi'"),
    ("-*pi:pi:4", "cannot parse angle '-*pi'"),
    ("0:pi/:4", "cannot parse angle 'pi/'"),
    ("0:2*pi/:4", "cannot parse angle '2*pi/'"),
    # A sign inside a token once parsed, and a malformed coefficient or
    # denominator once gave float()'s message about a fragment of it.
    *((f"0:{tok}:4", f"cannot parse angle '{tok}'") for tok in (
        "--2*pi", "-+2*pi", "+-2*pi", "pi/-2", "2*pi/-4", "-pi/-2", "pi/2/3", "2**pi", "a*pi")),
    ("0:pi:4.5", "grid count must be an integer, got '4.5'"),
    ("0:pi:1", "grid count must be at least 2, got 1"),
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
    assert cli.parse_angle("+pi") == math.pi
    assert cli.parse_angle("+pi/2") == math.pi / 2.0
    assert cli.parse_angle("pi/inf") == 0.0


def _split_parse_angle(token: str) -> float:
    """parse_angle as it was before it read one pattern: a sign stripped by
    hand, then partition and rpartition.  The reference for every token."""
    tok = token.strip().replace(" ", "")
    try:
        value = float(tok)
    except ValueError:
        sign = -1.0 if tok.startswith("-") else 1.0
        tok = tok[1:] if tok.startswith(("-", "+")) else tok
        num, slash, den = tok.partition("/")
        coef, star, tail = num.rpartition("*")
        try:
            if tail != "pi" or any(s[:1] in "+-" for s, on in ((coef, star), (den, slash)) if on):
                raise ValueError  # a signed part, or a missing one: '' in '+-' too
            value = sign * math.pi * (float(coef) if star else 1.0)
            divisor = float(den) if slash else 1.0
        except ValueError:
            raise ValueError(f"cannot parse angle {token!r}") from None
        value = value / divisor if divisor else math.inf  # x / 0 is not finite
    if not math.isfinite(value):
        raise ValueError(f"angle {token!r} is not finite")
    return value


def _angle_outcome(parse, token):
    """float.hex of the angle, or the message of the ValueError it raises."""
    try:
        return parse(token).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


ANGLE_PIECES = st.sampled_from(["pi", "*", "/", "+", "-", *"0123456789", ".", "e", "E", "inf",
                                "nan", "_", " ", "\t", "\n"])
# Tokens of freely joined pieces, and tokens near [sign][coef*]pi[/den]:
# signs and short runs of pieces around its marks, each mark kept or dropped.
_SIGN, _RUN = st.sampled_from(["", "+", "-"]), st.lists(ANGLE_PIECES, max_size=3).map("".join)
ANGLE_TOKENS = st.lists(ANGLE_PIECES, max_size=10).map("".join) | st.tuples(
    _SIGN, _SIGN, _RUN, st.sampled_from(["", "*"]), st.sampled_from(["", "pi"]),
    st.sampled_from(["", "/"]), _SIGN, _RUN).map("".join)


@settings(max_examples=1000)
@given(ANGLE_TOKENS)
def test_parse_angle_equals_split_parser(token):
    assert _angle_outcome(cli.parse_angle, token) == _angle_outcome(_split_parse_angle, token)


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
    # "evolved Hamiltonian lost Hermiticity".  The propagator's check reports it.
    out = tmp_path / "frames.json"
    res = run_cli("frames", *MASS_MOMENTUM, "--t", "1e308", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == "error: 2 E (t - s) is not finite at E = 2, t - s = 1e+308\n"
    assert res.stdout == "" and not out.exists()


@pytest.mark.parametrize("mass", ["0", "1e-170"])
def test_frames_accepts_a_zero_hamiltonian(capsys, tmp_path, mass):
    # E = 0 (at m = 1e-170, E^2 underflows) once exited 2 with
    # "E = sqrt(m^2 + |p|^2) must be positive".
    out = tmp_path / "frames.json"
    code, stdout, err = run_main(capsys, "frames", "--m", mass, "--px", "0", "--py", "0",
                                 "--pz", "0", "--t", "0.7", "--out", str(out))
    assert (code, stdout, err) == (0, "frames: PASS\n", "")
    payload = json.loads(out.read_text())
    assert payload["klein_gordon_residual"] == 0
    assert not any(payload["residuals"].values())


@pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "W-error"])
@pytest.mark.parametrize("rep", ["majorana", "dirac"])
def test_overflowing_classify_mass_exits_2(tmp_path, rep, flags):
    # |p|^2 overflows: this once printed a numpy overflow warning and then
    # blamed the grid, "2E * step = inf must stay below pi"; under -W error
    # it ended in a traceback.
    out = tmp_path / "classify.json"
    res = subprocess.run([sys.executable, *flags, *CLI[1:], "classify-mass", "--rep", rep,
                          "--m", "1", "--px", "1e200", "--py", "1", "--pz", "1",
                          "--out", str(out)], capture_output=True, text=True)
    assert res.returncode == 2
    assert "Warning" not in res.stderr
    assert res.stderr == ("error: E^2 = m^2 + |p|^2 is not finite: "
                          "the Hamiltonian H = i m beta + alpha.p overflows\n")
    assert res.stdout == "" and not out.exists()


@pytest.mark.parametrize("samples", [1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
def test_evolve_residual_columns_peak_at_conserved_residuals(capsys, monkeypatch, tmp_path,
                                                             samples):
    # evolve writes qbe.drifts per block of rows; conserved_residuals takes
    # the maxima of the same drifts per block.  Both must equal the per-row
    # drifts.  An integration takes at least one step, so the trajectory is
    # cut to its first `samples` rows.
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
    traj = first_rows(sys_, t_end, step)
    # %.17g round-trips, so the columns equal the per-row drifts exactly.
    assert np.array_equal(columns, _reference_drift_rows(traj, sys_))
    report = qbe.conserved_residuals(traj)
    assert list(columns.max(axis=0)) == [report["isotropic_drift"], report["cross_trace_drift"],
                                         report["total_square_drift"], report["spectrum_drift"]]


def _reference_drift_rows(traj, sys_) -> np.ndarray:
    """evolve's drift columns as it once filled them, one qbe.drifts call per
    row: the reference for its blocked audit."""
    invariants = qbe.initial_invariants(traj)
    return np.array([qbe.drifts(traj.h_at(i), traj.f_at(i), sys_.k, *invariants)
                     for i in range(len(traj.times))])


def test_evolve_audits_per_block_and_rebuilds_each_row_once(capsys, monkeypatch, tmp_path):
    # One drifts call per block of BLOCK_SAMPLES rows, none per row; H and F
    # are still rebuilt once per row, plus once each for the initial invariants.
    shapes, rebuilt = [], {"h_at": 0, "f_at": 0}
    drifts = qbe.drifts

    def counted_drifts(h, f, *rest):
        shapes.append((h.shape, f.shape))
        return drifts(h, f, *rest)

    def counted(name):
        method = getattr(qbe.Trajectory, name)

        def wrapper(self, i):
            rebuilt[name] += 1
            return method(self, i)
        return wrapper

    monkeypatch.setattr(qbe, "drifts", counted_drifts)
    for name in rebuilt:
        monkeypatch.setattr(qbe.Trajectory, name, counted(name))
    rows = 513
    code, out, _ = run_main(capsys, "evolve", *MASS_MOMENTUM, "--t-end=0.512", "--step=1e-3",
                            "--out", str(tmp_path / "traj.csv"))
    assert (code, out) == (0, f"evolve: wrote {rows} samples to {tmp_path / 'traj.csv'}\n")
    blocks = [BLOCK_SAMPLES, BLOCK_SAMPLES, rows - 2 * BLOCK_SAMPLES]
    assert len(blocks) == math.ceil(rows / BLOCK_SAMPLES)
    assert shapes == [((n, 4, 4), (n, 4, 4)) for n in blocks]
    assert rebuilt == {"h_at": rows + 1, "f_at": rows + 1}


def _reference_write_csv(path, header, rows) -> None:
    """The CSV writer as it was before it took float arrays: one format call
    per value; kept as the reference for the bytes of cli._write_csv."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


# Signed zeros, infinities, NaN, the smallest subnormals and values near the
# float64 limit, mixed with any other float.
_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1.7e308, -1.7e308, 1.7976931348623157e308]),
    st.floats(),
)


@pytest.mark.parametrize("rows", [1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1])
def test_write_csv_matches_per_value_loop(tmp_path_factory, rows):
    folder = tmp_path_factory.mktemp("csv")

    @settings(max_examples=25)
    @given(hnp.arrays(np.float64, rows, elements=_CSV_FLOATS),
           hnp.arrays(np.float64, (rows, 3), elements=_CSV_FLOATS))
    def check(one, many):
        header = ["a", "b", "c", "d"]
        cli._write_csv(str(folder / "new.csv"), header, one, many)
        _reference_write_csv(folder / "old.csv", header, np.column_stack([one, many]))
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()

    check()


def test_evolve_memory_grows_by_under_250_bytes_per_sample(capsys, tmp_path, traced_peak):
    # The trajectory takes 128 B per sample and the drift columns 32 B; the
    # CSV rows are rendered per block, so no per-row objects accumulate.
    def peak(samples):
        return traced_peak(["evolve", "--m=1.3", "--px=0.5", "--py=-2.0", "--pz=1.25",
                            f"--t-end={samples - 1}e-3", "--step=1e-3",
                            "--out", str(tmp_path / "traj.csv")])

    assert (peak(20_001) - peak(2_001)) / 18_000 < 250


def test_compton_memory_grows_by_under_150_bytes_per_angle(capsys, tmp_path, traced_peak):
    # The grid is checked per block of BLOCK_SAMPLES angles: only a few
    # floats per angle outlive a block, not its (k, 4, 4) stacks.
    def peak(angles):
        return traced_peak(["compton", "--rep", "gamma", "--m", "1.3", "--omega1", "0.7",
                            "--theta-grid", f"0:pi:{angles}", "--out", str(tmp_path / "c.csv")])

    assert (peak(10_000) - peak(1_000)) / 9_000 < 150
