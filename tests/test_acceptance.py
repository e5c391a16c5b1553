"""Acceptance suite: the twelve package-level criteria with pinned tolerances.

Each test prints one PASS line when its criterion holds (visible with
pytest -s); the assertions carry the same tolerances.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from qbrach import angmom4, frames, matcore, propagate, qbe, scatter
from qbrach.cliffrep import build_dirac, build_majorana, verify_algebra
from qbrach.matcore import anticommutator, kron_matrix, max_abs


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_algebra_suite():
    """Clifford relations hold with residual exactly 0; runtime < 1 s."""
    start = time.perf_counter()
    for rep in (build_majorana(), build_dirac()):
        for name, resid in verify_algebra(rep).items():
            assert resid == 0.0, f"{rep.name}: {name}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"algebra residuals all 0 in {elapsed:.3f}s")


def test_criterion_02_diagonalization():
    """100 random (m,p): closed-form frames diagonalize to < 1e-10; < 1 s."""
    rng = np.random.default_rng(101)
    rep = build_majorana()
    start = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 100:
        m = rng.uniform(0.05, 5.0)
        p = rng.uniform(-5.0, 5.0, 3)
        energy = math.sqrt(m * m + p @ p)
        if not 0.1 <= energy <= 10.0:
            continue
        count += 1
        frame = propagate.majorana_eigenframe(m, p)
        h = rep.hamiltonian(m, p)
        d = energy * np.diag([1.0, 1.0, -1.0, -1.0])
        worst = max(worst, max_abs(frame.w_inv @ h @ frame.w - d))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    _report(2, f"max diagonalization residual {worst:.2e} in {elapsed:.3f}s")


def test_criterion_03_propagator():
    """U(t,s) equals the stripped diagonal to 1e-12; group laws to 1e-10."""
    rng = np.random.default_rng(103)
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    energy = 2.0
    frame = propagate.majorana_eigenframe(m, p)
    u = partial(propagate.propagator, frame)
    diag_resid = group_resid = 0.0
    for _ in range(50):
        t, s, r, tau = rng.uniform(-3, 3, 4)
        ph = np.exp(-2j * energy * (t - s))
        diag_resid = max(diag_resid, max_abs(u(t, s) - np.diag([ph, ph, 1, 1])))
        group_resid = max(
            group_resid,
            max_abs(u(t, s) @ u(t, s).conj().T - np.eye(4)),
            max_abs(u(t, s) @ u(s, r) - u(t, r)),
            max_abs(u(t + tau, s + tau) - u(t, s)),
        )
    assert diag_resid < 1e-12
    assert group_resid < 1e-10
    _report(3, f"diagonal {diag_resid:.2e}, group laws {group_resid:.2e}")


def test_criterion_04_evolved_hamiltonian():
    """Entry (0,2) of H(t) is (p_y + im)e^{-2iEt}; Klein-Gordon < 1e-10."""
    m, p = 1.0, (1.0, 1.0, 1.0)
    energy = 2.0
    frame = propagate.majorana_eigenframe(m, p)
    h0 = build_majorana().hamiltonian(m, p)
    entry = kg = 0.0
    for t in np.linspace(0.0, 2.5, 20):
        h_t = propagate.evolve_hamiltonian(frame, h0, t)
        expected = (p[1] + 1j * m) * np.exp(-2j * energy * t)
        entry = max(entry, abs(h_t[0, 2] - expected))
        kg = max(kg, max_abs(h_t @ h_t - (m * m + 3.0) * np.eye(4)))
    assert entry < 1e-12
    assert kg < 1e-10
    _report(4, f"entry residual {entry:.2e}, Klein-Gordon {kg:.2e}")


def test_criterion_05_mass_classifier():
    """Majorana ROTATING at rate 2E (1e-6 relative), Dirac CONSTANT; < 1 s."""
    t_grid = np.linspace(0.0, 3.0, 300)
    start = time.perf_counter()
    maj = propagate.classify_mass(build_majorana(), 1.0, (1.0, 1.0, 1.0), t_grid)
    elapsed_maj = time.perf_counter() - start
    start = time.perf_counter()
    dir_ = propagate.classify_mass(build_dirac(), 1.0, (1.0, 1.0, 1.0), t_grid)
    elapsed_dir = time.perf_counter() - start

    assert maj.verdict == "ROTATING"
    assert maj.modulus_deviation < 1e-10
    assert abs(maj.phase_rate - maj.expected_rate) / maj.expected_rate < 1e-6
    assert dir_.verdict == "CONSTANT"
    assert dir_.modulus_deviation < 1e-10
    assert elapsed_maj < 1.0 and elapsed_dir < 1.0
    _report(5, f"majorana ROTATING (rate {maj.phase_rate:.6f}), dirac CONSTANT")


def test_criterion_06_oracle_equivalence():
    """RK4 mass coefficient vs analytic m0 e^{2iEt}: < 1e-6; runtime < 10 s."""
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    energy = 2.0
    start = time.perf_counter()
    sys_ = qbe.majorana_system(m, p)
    traj = qbe.integrate_qbe(sys_, 1.0, 1e-4)
    c_mass = -traj.coeff_series(("y", "1"))
    c_y = traj.coeff_series(("x", "1"))
    series = propagate.mass_series_from_pairs(m, c_mass, c_y)
    analytic = m * np.exp(2j * energy * traj.times)
    err = float(np.abs(series - analytic).max())
    elapsed = time.perf_counter() - start
    assert err < 1e-6
    assert elapsed < 10.0
    _report(6, f"max oracle error {err:.2e} in {elapsed:.2f}s")


def test_criterion_07_trace_projection_structure():
    """Tr[[H,F]a_x] is pure imaginary, supported on exactly three labels
    with multipliers {8p_z, 8m, 8p_y}; exact on integer inputs."""
    m, p = 2, (1, 3, -1)  # integers: residuals must be exactly zero
    sys_ = qbe.majorana_system(float(m), p, lam=np.zeros(11))
    ax = build_majorana().alpha[0]
    expected = {("1", "y"): 8j * p[2], ("x", "z"): 8j * m, ("y", "z"): 8j * p[1]}
    nonzero = []
    for lab in sys_.f_span:
        val = qbe.trace_project_rhs(sys_.h0, kron_matrix(lab), ax)
        assert val == expected.get(lab, 0.0), lab
        if val != 0.0:
            assert val.real == 0.0  # pure imaginary
            nonzero.append(lab)
    assert sorted(nonzero) == sorted(expected)

    # floating-point inputs stay below 1e-12
    m2, p2 = 1.7, (0.3, -0.9, 2.2)
    sys2 = qbe.majorana_system(m2, p2, lam=np.zeros(11))
    expected2 = {("1", "y"): 8j * p2[2], ("x", "z"): 8j * m2, ("y", "z"): 8j * p2[1]}
    worst = max(
        abs(qbe.trace_project_rhs(sys2.h0, kron_matrix(lab), ax)
            - expected2.get(lab, 0.0))
        for lab in sys2.f_span
    )
    assert worst < 1e-12
    _report(7, f"three coupling labels {sorted(nonzero)}, float residual {worst:.2e}")


def test_criterion_08_angular_momentum():
    """M drift < 1e-8 along the flow; invariant exact to 1e-12 over 100
    tensors; block propagator matches the closed-form cos/sin matrix and is SO(4)."""
    rng = np.random.default_rng(107)
    n = rng.uniform(-1, 1, 3)
    l = rng.uniform(-1, 1, 3)
    f_coeffs = rng.uniform(-1, 1, 9)
    report = angmom4.qbe_conservation(n, l, f_coeffs, 5.0, 1e-3)
    assert report["hamiltonian_drift"] < 1e-8

    inv = 0.0
    for _ in range(100):
        n2 = rng.uniform(-3, 3, 3)
        l2 = rng.uniform(-3, 3, 3)
        h = angmom4.toy_hamiltonian(n2, l2)
        inv = max(inv, abs(np.trace(h @ h).real / 2.0 - (n2 @ n2 + l2 @ l2)))
    assert inv < 1e-12

    block = 0.0
    for _ in range(20):
        nx, lyz, t = rng.uniform(-3, 3, 3)
        u = angmom4.block_propagator(nx, lyz, t)
        a, b = nx * t, lyz * t
        expected = np.array(
            [[np.cos(a), -np.sin(a), 0, 0], [np.sin(a), np.cos(a), 0, 0],
             [0, 0, np.cos(b), -np.sin(b)], [0, 0, np.sin(b), np.cos(b)]]
        )
        block = max(block, max_abs(u - expected),
                    max_abs(u.T @ u - np.eye(4)),
                    abs(np.linalg.det(u) - 1.0))
    assert block < 1e-12
    _report(8, f"M drift {report['hamiltonian_drift']:.2e}, invariant {inv:.2e}")


def test_criterion_09_compton():
    """64-point theta grid, 20 random (m, w1): all residuals < 1e-12 in both
    representations, with identical omega2 columns to 1e-15."""
    rng = np.random.default_rng(109)
    thetas = np.linspace(0.0, math.pi, 64)
    worst = col_diff = 0.0
    for _ in range(20):
        m, w1 = rng.uniform(0.2, 3.0, 2)
        for th in thetas:
            res_g = scatter.verify_conservation(
                scatter.ScatterConfig(m, w1, float(th), rep="gamma"))
            res_m = scatter.verify_conservation(
                scatter.ScatterConfig(m, w1, float(th), rep="majorana"))
            for res in (res_g, res_m):
                worst = max(worst, res["residual_energy"],
                            res["residual_compton"], res["residual_matrix"],
                            res["residual_lightlike_q1"],
                            res["residual_lightlike_q2"])
            col_diff = max(col_diff, abs(res_g["omega2"] - res_m["omega2"]))
    assert worst < 1e-12
    assert col_diff < 1e-15
    _report(9, f"max residual {worst:.2e}, rep column difference {col_diff:.2e}")


def test_criterion_10_phase_anticommutators():
    """Block and Majorana phased identities vs brute force, 200 triples."""
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(200):
        p = rng.uniform(-3, 3, 3)
        q = rng.uniform(-3, 3, 3)
        ang = rng.uniform(-math.pi, math.pi)
        lhs = 0.5 * anticommutator(
            scatter.block_momentum(p, ang), scatter.block_momentum(q, 0.0))
        worst = max(worst, max_abs(lhs - scatter.phased_anticommutator_block(p, q, ang)))
        lhs2 = 0.5 * anticommutator(
            scatter.majorana_momentum_matrix(p, ang),
            scatter.majorana_momentum_matrix(q, 0.0))
        worst = max(worst, max_abs(
            lhs2 - scatter.majorana_phased_dot(p, q, ang) * np.eye(4)))
    assert worst < 1e-12
    _report(10, f"max phased-anticommutator residual {worst:.2e}")


def test_criterion_11_frames():
    """Four bilinear identities + headline for 50 random states; the
    unevolved negative control FAILS."""
    rng = np.random.default_rng(127)
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = rng.uniform(0.05, 3.0)
        case = frames.make_frame_case(v, t, 1.0, (1.0, 1.0, 1.0))
        report = frames.check_frame_equivalence(case)
        # Per state, since the builtin max below drops a NaN.
        assert matcore.worst(report.values()) < 1e-10
        worst = max(worst, max(report.values()))
    assert worst < 1e-10

    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    case = frames.make_frame_case(v, 0.7, 1.0, (1.0, 1.0, 1.0))
    bad = replace(case, w=case.v)
    assert not matcore.worst(frames.check_frame_equivalence(bad).values()) < 1e-10
    _report(11, f"max identity residual {worst:.2e}, negative control FAILS")


def test_criterion_12_report_all_determinism(tmp_path):
    """report-all --seed 7 is byte-identical across two consecutive runs."""
    outs = []
    for name in ("ra1.json", "ra2.json"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "qbrach.cli", "report-all",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stdout + res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    _report(12, f"two runs byte-identical ({len(outs[0])} bytes)")
