"""Command-line front end: reproducible runs with JSON/CSV reports.

Every report carries schema_version "1"; floats are serialized with 17
significant digits so identical inputs give byte-identical files.  Exit
codes: 0 on PASS verdicts, 1 on FAIL/UNCLASSIFIED, 2 on input error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import angmom4, frames, propagate, qbe, scatter
from .cliffrep import (
    build_dirac,
    build_majorana,
    verify_algebra,
    verify_gamma_algebra,
)
from .matcore import kron_matrix, mat_to_json, max_abs

SCHEMA_VERSION = "1"
OUT_DIR_ENV = "QBRACH_OUT_DIR"


# ---------------------------------------------------------------------------
# Serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": {render_json(obj[k], indent + 2)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return render_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist(), indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), path)


def _write_json(path: str, obj: dict) -> None:
    obj = dict(obj)
    obj.setdefault("schema_version", SCHEMA_VERSION)
    with open(_resolve_out(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(obj) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(_resolve_out(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def parse_angle(token: str) -> float:
    """A float literal, optionally using pi: 'pi', '2*pi', 'pi/4', '3*pi/2'."""
    tok = token.strip().replace(" ", "")
    try:
        return float(tok)
    except ValueError:
        pass
    sign = 1.0
    if tok.startswith("-"):
        sign, tok = -1.0, tok[1:]
    num, _, den = tok.partition("/")
    coef, _, tail = num.rpartition("*")
    if tail != "pi":
        raise ValueError(f"cannot parse angle {token!r}")
    value = math.pi * (float(coef) if coef else 1.0)
    if den:
        value /= float(den)
    return sign * value


def parse_grid(spec: str) -> np.ndarray:
    """'start:end:count' with end-inclusive sampling; pi literals allowed."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:end:count, got {spec!r}")
    start, end = parse_angle(parts[0]), parse_angle(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError("grid count must be at least 2")
    return np.linspace(start, end, count)


# ---------------------------------------------------------------------------
# Commands


def _cmd_verify_algebra(args) -> int:
    if args.rep == "gamma":
        report = verify_gamma_algebra()
    else:
        rep = build_majorana() if args.rep == "majorana" else build_dirac()
        report = verify_algebra(rep)
    worst = max(report.values())
    verdict = "PASS" if worst < 1e-12 else "FAIL"
    payload = {
        "command": "verify-algebra",
        "rep": args.rep,
        "residuals": report,
        "max_residual": worst,
        "verdict": verdict,
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"verify-algebra {args.rep}: {verdict} (max residual {worst:.3g})")
    return 0 if verdict == "PASS" else 1


def _cmd_evolve(args) -> int:
    if args.system != "majorana":
        raise ValueError(f"unknown system {args.system!r}")
    sys_ = qbe.majorana_system(args.m, (args.px, args.py, args.pz))
    traj = qbe.integrate_qbe(sys_, args.t_end, args.step)

    a0 = traj.h_at(0) + traj.f_at(0)
    eig0 = np.sort(np.linalg.eigvalsh(a0))
    tr0 = np.trace(a0 @ a0).real
    rows = []
    for i, t in enumerate(traj.times):
        h, f = traj.h_at(i), traj.f_at(i)
        a = h + f
        rows.append(
            [t, *traj.coeffs[i],
             qbe.check_isotropic(h, sys_.k),
             abs(np.trace(h @ f)),
             abs(np.trace(a @ a).real - tr0),
             max_abs(np.sort(np.linalg.eigvalsh(a)) - eig0)]
        )
    header = (
        ["t"]
        + [f"c_{i}{j}" for i, j in traj.labels]
        + ["res_isotropic", "res_cross_trace", "res_total_square", "res_spectrum"]
    )
    _write_csv(args.out, header, rows)
    print(f"evolve: wrote {len(rows)} samples to {args.out}")
    return 0


def _cmd_classify_mass(args) -> int:
    rep = build_majorana() if args.rep == "majorana" else build_dirac()
    t_grid = np.linspace(0.0, args.t_end, args.samples)
    report = propagate.classify_mass(rep, args.m, (args.px, args.py, args.pz), t_grid)
    rate_err = (
        abs(report.phase_rate - report.expected_rate) / report.expected_rate
        if report.verdict == "ROTATING" and report.expected_rate > 0
        else 0.0
    )
    payload = {
        "command": "classify-mass",
        "rep": args.rep,
        "verdict": report.verdict,
        "times": report.times,
        "modulus_series": np.abs(report.mass_series),
        "phase_rate": report.phase_rate,
        "expected_rate": report.expected_rate,
        "residuals": {
            "modulus_deviation": report.modulus_deviation,
            "phase_fit_residual": report.phase_fit_residual,
            "rate_relative_error": rate_err,
        },
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"classify-mass {args.rep}: {report.verdict}")
    return 0 if report.verdict in ("CONSTANT", "ROTATING") else 1


def _cmd_angmom(args) -> int:
    u = angmom4.block_propagator(args.nx, args.lyz, args.t)
    payload = {
        "command": "angmom",
        "nx": args.nx,
        "lyz": args.lyz,
        "t": args.t,
        "u": mat_to_json(u.astype(complex)),
        "orthogonality_residual": max_abs(u.T @ u - np.eye(4)),
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"angmom: block propagator at t={args.t:g} written")
    return 0


def _cmd_angmom_conserve(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = rng.uniform(-1, 1, 3)
    l = rng.uniform(-1, 1, 3)
    f_coeffs = rng.uniform(-1, 1, 9)
    report = angmom4.qbe_conservation(n, l, f_coeffs, args.t_end, args.step)
    drift_keys = [
        "hamiltonian_drift",
        "constraint_conjugation_residual",
        "isotropic_drift",
        "cross_trace_drift",
        "total_square_drift",
        "spectrum_drift",
    ]
    # np.max, not max: a NaN drift must reach the verdict and fail it.
    worst = float(np.max([report[k] for k in drift_keys]))
    verdict = "PASS" if worst < 1e-8 else "FAIL"
    payload = {
        "command": "angmom-conserve",
        "seed": args.seed,
        "n": n,
        "l": l,
        "report": report,
        "max_drift": worst,
        "verdict": verdict,
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"angmom-conserve: {verdict} (max drift {worst:.3g})")
    return 0 if verdict == "PASS" else 1


def _cmd_compton(args) -> int:
    rep = "gamma_scatter" if args.rep == "gamma" else "majorana"
    thetas = parse_grid(args.theta_grid)
    rows = []
    worst = 0.0
    for th in thetas:
        cfg = scatter.ScatterConfig(args.m, args.omega1, float(th), rep=rep)
        res = scatter.verify_conservation(cfg)
        matrix_max = max(
            res["residual_matrix"],
            res["residual_lightlike_q1"],
            res["residual_lightlike_q2"],
        )
        worst = max(worst, res["residual_energy"], res["residual_compton"], matrix_max)
        rows.append([th, res["omega2"], res["residual_energy"], matrix_max])
    _write_csv(args.out, ["theta", "omega2", "residual_energy", "residual_matrix_max"], rows)
    verdict = "PASS" if worst < 1e-12 else "FAIL"
    print(f"compton {args.rep}: {verdict} over {len(rows)} angles (max residual {worst:.3g})")
    return 0 if verdict == "PASS" else 1


def _cmd_frames(args) -> int:
    rng = np.random.default_rng(args.seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    case = frames.make_frame_case(v, args.t, args.m, (args.px, args.py, args.pz))
    report = frames.check_frame_equivalence(case)
    kg = frames.check_klein_gordon(args.m, (args.px, args.py, args.pz),
                                   np.linspace(0.0, args.t, 16))
    payload = {
        "command": "frames",
        "seed": args.seed,
        "t": args.t,
        "residuals": report["residuals"],
        "klein_gordon_residual": kg,
        "tol": report["tol"],
        "verdict": report["verdict"],
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"frames: {report['verdict']}")
    return 0 if report["verdict"] == "PASS" and kg < 1e-10 else 1


# ---------------------------------------------------------------------------
# report-all: the full acceptance sweep


def _check_algebra() -> list[tuple[str, float, float]]:
    out = []
    for name, report in (
        ("algebra_majorana", verify_algebra(build_majorana())),
        ("algebra_dirac", verify_algebra(build_dirac())),
        ("algebra_gamma", verify_gamma_algebra()),
    ):
        out.append((name, max(report.values()), 1e-12))
    return out


def _check_diagonalization(rng) -> tuple[str, float, float]:
    worst = 0.0
    for _ in range(20):
        m = rng.uniform(0.1, 3.0)
        p = rng.uniform(-3.0, 3.0, 3)
        frame = propagate.majorana_eigenframe(m, p)
        h = build_majorana().hamiltonian(m, p)
        worst = max(worst, max_abs(frame.w_inv @ h @ frame.w - frame.d))
    return ("diagonalization", worst, 1e-10)


def _check_propagator(rng) -> tuple[str, float, float]:
    frame = propagate.majorana_eigenframe(1.0, (1.0, 1.0, 1.0))
    u = propagate.propagator(frame).u
    e = frame.energy
    worst = 0.0
    for _ in range(20):
        t, s, r = rng.uniform(-2, 2, 3)
        ph = np.exp(-2j * e * (t - s))
        worst = max(worst, max_abs(u(t, s) - np.diag([ph, ph, 1, 1])))
        worst = max(worst, max_abs(u(t, s) @ u(t, s).conj().T - np.eye(4)))
        worst = max(worst, max_abs(u(t, s) @ u(s, r) - u(t, r)))
    return ("propagator", worst, 1e-10)


def _check_evolved_hamiltonian(rng) -> tuple[str, float, float]:
    m, p = 1.0, (1.0, 1.0, 1.0)
    frame = propagate.majorana_eigenframe(m, p)
    h0 = build_majorana().hamiltonian(m, p)
    worst = 0.0
    for t in rng.uniform(0.0, 3.0, 10):
        ht = propagate.evolve_hamiltonian(frame, h0, t)
        expected = (p[1] + 1j * m) * np.exp(-2j * frame.energy * t)
        worst = max(worst, abs(ht[0, 2] - expected))
    worst = max(worst, frames.check_klein_gordon(m, p, np.linspace(0, 2, 8)))
    return ("evolved_hamiltonian", worst, 1e-10)


def _check_classify(rep_name: str) -> tuple[str, float, float]:
    rep = build_majorana() if rep_name == "majorana" else build_dirac()
    report = propagate.classify_mass(rep, 1.0, (1.0, 1.0, 1.0), np.linspace(0, 3, 200))
    if rep_name == "majorana":
        ok = report.verdict == "ROTATING"
        resid = max(
            report.modulus_deviation,
            abs(report.phase_rate - report.expected_rate) / report.expected_rate,
        )
    else:
        ok = report.verdict == "CONSTANT"
        resid = report.modulus_deviation
    return (f"classify_mass_{rep_name}", resid if ok else float("inf"), 1e-6)


def _check_oracle_equivalence() -> tuple[str, float, float]:
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    sys_ = qbe.majorana_system(m, p)
    traj = qbe.integrate_qbe(sys_, 1.0, 1e-3)
    c_mass = -traj.coeff_series(("y", "1"))
    c_y = traj.coeff_series(("x", "1"))
    series = propagate.mass_series_from_pairs(m, c_mass, c_y)
    energy = math.sqrt(m * m + float(p @ p))
    analytic = m * np.exp(2j * energy * traj.times)
    return ("oracle_equivalence", float(np.abs(series - analytic).max()), 1e-6)


def _check_trace_projection() -> tuple[str, float, float]:
    m, p = 1.5, (0.5, -2.0, 1.25)
    sys_ = qbe.majorana_system(m, p, lam=np.zeros(11))
    ax = build_majorana().alpha[0]
    expected = {("1", "y"): 8j * p[2], ("x", "z"): 8j * m, ("y", "z"): 8j * p[1]}
    worst = 0.0
    for lab in sys_.f_span:
        val = qbe.trace_project_rhs(sys_.h0, kron_matrix(lab), ax)
        worst = max(worst, abs(val - expected.get(lab, 0.0)))
    return ("trace_projection", worst, 1e-12)


def _check_angmom(rng) -> list[tuple[str, float, float]]:
    n = rng.uniform(-1, 1, 3)
    l = rng.uniform(-1, 1, 3)
    f_coeffs = rng.uniform(-1, 1, 9)
    report = angmom4.qbe_conservation(n, l, f_coeffs, 2.0, 1e-3)
    drift = max(
        report["hamiltonian_drift"],
        report["constraint_conjugation_residual"],
        report["isotropic_drift"],
    )

    inv = 0.0
    for _ in range(50):
        n2 = rng.uniform(-2, 2, 3)
        l2 = rng.uniform(-2, 2, 3)
        inv = max(
            inv,
            abs(angmom4.angmom_invariant(n2, l2) - 2 * (n2 @ n2 + l2 @ l2)),
        )

    block = 0.0
    for _ in range(10):
        nx, lyz, t = rng.uniform(-2, 2, 3)
        u = angmom4.block_propagator(nx, lyz, t)
        m_mat = angmom4.assemble_tensor((nx, 0, 0), (-lyz, 0, 0))
        vals, vecs = np.linalg.eigh(1j * m_mat)
        rot = (vecs @ np.diag(np.exp(-1j * t * vals)) @ vecs.conj().T).real
        block = max(block, max_abs(u - rot), max_abs(u.T @ u - np.eye(4)))
    return [
        ("angmom_conservation", drift, 1e-8),
        ("angmom_invariant", inv, 1e-12),
        ("angmom_block_propagator", block, 1e-12),
    ]


def _check_compton(rng) -> list[tuple[str, float, float]]:
    out = []
    cases = [(1.0, 1.0)] + [tuple(rng.uniform(0.2, 3.0, 2)) for _ in range(5)]
    for rep in ("gamma_scatter", "majorana"):
        worst = 0.0
        for m, w1 in cases:
            for th in np.linspace(0.0, math.pi, 16):
                cfg = scatter.ScatterConfig(m, w1, float(th), rep=rep)
                res = scatter.verify_conservation(cfg)
                worst = max(
                    worst,
                    res["residual_energy"],
                    res["residual_compton"],
                    res["residual_matrix"],
                    res["residual_lightlike_q1"],
                    res["residual_lightlike_q2"],
                )
        tag = "gamma" if rep == "gamma_scatter" else "majorana"
        out.append((f"compton_{tag}", worst, 1e-12))
    return out


def _check_phase_anticom(rng) -> tuple[str, float, float]:
    from .matcore import anticommutator

    worst = 0.0
    for _ in range(50):
        p = rng.uniform(-2, 2, 3)
        q = rng.uniform(-2, 2, 3)
        th = rng.uniform(-math.pi, math.pi)
        lhs = 0.5 * anticommutator(
            scatter.block_momentum(p, th), scatter.block_momentum(q, 0.0)
        )
        worst = max(worst, max_abs(lhs - scatter.phased_anticommutator_block(p, q, th)))
        lhs2 = 0.5 * anticommutator(
            scatter.majorana_momentum_matrix(p, th),
            scatter.majorana_momentum_matrix(q, 0.0),
        )
        worst = max(
            worst,
            max_abs(lhs2 - scatter.majorana_phased_dot(p, q, th) * np.eye(4)),
        )
    return ("phase_anticommutators", worst, 1e-12)


def _check_frames(rng) -> list[tuple[str, float, float]]:
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = rng.uniform(0.1, 3.0)
        case = frames.make_frame_case(v, t, 1.0, (1.0, 1.0, 1.0))
        report = frames.check_frame_equivalence(case)
        worst = max(worst, max(report["residuals"].values()))

    # Negative control: an unevolved partner must be rejected.
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    bad = frames.FrameCase(
        v=v, w=v, t=0.7, m=1.0, p=(1.0, 1.0, 1.0),
        energy=math.sqrt(1.0 + 3.0),
    )
    control = frames.check_frame_equivalence(bad)
    control_resid = 0.0 if control["verdict"] == "FAIL" else float("inf")
    return [
        ("frames_identities", worst, 1e-10),
        ("frames_negative_control", control_resid, 1e-12),
    ]


def _cmd_report_all(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, float, float]] = []
    checks.extend(_check_algebra())
    checks.append(_check_diagonalization(rng))
    checks.append(_check_propagator(rng))
    checks.append(_check_evolved_hamiltonian(rng))
    checks.append(_check_classify("majorana"))
    checks.append(_check_classify("dirac"))
    checks.append(_check_oracle_equivalence())
    checks.append(_check_trace_projection())
    checks.extend(_check_angmom(rng))
    checks.extend(_check_compton(rng))
    checks.append(_check_phase_anticom(rng))
    checks.extend(_check_frames(rng))

    summary = {}
    for name, resid, tol in sorted(checks):
        summary[name] = {
            "residual": resid,
            "tol": tol,
            "status": "PASS" if resid < tol else "FAIL",
        }
    n_fail = sum(1 for c in summary.values() if c["status"] == "FAIL")
    payload = {
        "command": "report-all",
        "seed": args.seed,
        "checks": summary,
        "n_checks": len(summary),
        "n_fail": n_fail,
        "verdict": "PASS" if n_fail == 0 else "FAIL",
    }
    out = args.out or "report-all.json"
    _write_json(out, payload)
    for name in sorted(summary):
        print(f"{summary[name]['status']}: {name} (residual {summary[name]['residual']:.3g})")
    print(f"report-all: {payload['verdict']} ({len(summary)} checks, {n_fail} failed)")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbrach",
        description="Matrix brachistochrone flows, propagators, and scattering checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, **kwargs)

    p = add("verify-algebra", help="check Clifford relations for a representation")
    p.add_argument("--rep", required=True, choices=["majorana", "dirac", "gamma"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_algebra)

    p = add("evolve", help="integrate the matrix flow and dump coefficients")
    p.add_argument("--system", default="majorana")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--py", type=float, required=True)
    p.add_argument("--pz", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = add("classify-mass", help="constant vs rotating mass coefficient")
    p.add_argument("--rep", required=True, choices=["majorana", "dirac"])
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--py", type=float, required=True)
    p.add_argument("--pz", type=float, required=True)
    p.add_argument("--t-end", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify_mass)

    p = add("angmom", help="block propagator for (N_x, L_yz) initial data")
    p.add_argument("--nx", type=float, required=True)
    p.add_argument("--lyz", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_angmom)

    p = add("angmom-conserve", help="conservation report along a random flow")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--t-end", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_angmom_conserve)

    p = add("compton", help="matrix Compton kinematics over a theta grid")
    p.add_argument("--rep", required=True, choices=["gamma", "majorana"])
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--omega1", type=float, required=True)
    p.add_argument("--theta-grid", default="0:pi:64")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compton)

    p = add("frames", help="frame-equivalence bilinear identities")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--px", type=float, required=True)
    p.add_argument("--py", type=float, required=True)
    p.add_argument("--pz", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frames)

    p = add("report-all", help="run every acceptance check with a fixed seed")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
