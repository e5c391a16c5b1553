"""Command-line front end: reproducible runs with JSON/CSV reports.

Every report carries schema_version "1"; floats are serialized with 17
significant digits so identical inputs give byte-identical files on one
machine and numpy build.  Exit codes: 0 on PASS verdicts, 1 on
FAIL/UNCLASSIFIED, 2 on input error, including a non-finite number, 3 when
an integration diverges.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import angmom4, frames, propagate, qbe, scatter
from .cliffrep import build_dirac, build_majorana, verify_algebra, verify_gamma_algebra
from .matcore import (MAX_SAMPLES, anticommutator, block_slices, kron_matrix, max_abs,
                      traceless_labels, worst)

SCHEMA_VERSION = "1"
OUT_DIR_ENV = "QBRACH_OUT_DIR"
FRAMES_TOL = 1e-10


# ---------------------------------------------------------------------------
# Serialization


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON of a dict, str, int, float or 1-D float array:
    sorted keys, 17-significant-digit floats, and a non-finite float as the
    string "nan", "inf" or "-inf".  An array is formatted in one pass."""
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
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else f'"{obj}"'
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        if not obj.size:
            return "[]"
        items = [format(x, ".17g") for x in obj.astype(float).tolist()]
        for i in np.flatnonzero(~np.isfinite(obj)):
            items[i] = f'"{items[i]}"'
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), path)


def _check_out_dir(path: str) -> None:
    """Raise if `path` resolves to a directory, or into a directory that does
    not exist or is a file, so a command fails before its work.  The file itself is created
    only when the report is written, so a run that fails later leaves none behind."""
    target = _resolve_out(path)
    if os.path.isdir(target):
        raise IsADirectoryError(f"output path {target!r} is a directory")
    folder = os.path.dirname(target) or "."
    if not os.path.isdir(folder):
        if os.path.exists(folder):
            raise NotADirectoryError(f"output directory {folder!r} is not a directory")
        raise FileNotFoundError(f"output directory {folder!r} does not exist")


def _write_csv(path: str, header: list[str], *columns: np.ndarray) -> None:
    """Write float arrays of equal length side by side, a 1-D array as one
    column and a 2-D array as several, with 17 significant digits.  Rows are
    rendered, by one % on the row template repeated once per row, and written
    per block of block_slices, so memory beyond the arrays stays bounded whatever their length."""
    width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    row = ",".join(["%.17g"] * width) + "\n"  # '%.17g' % x == format(x, ".17g")
    with open(_resolve_out(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for cut in block_slices(len(columns[0])):
            block = np.column_stack([c[cut] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


_PI_MULTIPLE = re.compile(r"([-+]?)(?:([^-+*/][^*/]*)\*)?pi(?:/([^-+*/][^*/]*))?").fullmatch


def parse_angle(token: str) -> float:
    """A finite float literal, or [sign][coef*]pi[/den] with one leading sign and
    coef and den unsigned float literals: 'pi', '+2*pi', 'pi/4', '-3*pi/2'."""
    tok = token.strip().replace(" ", "")
    match = _PI_MULTIPLE(tok)
    try:
        if match is None:
            value = float(tok)
        else:
            sign, coef, den = match.groups()
            value = (-math.pi if sign == "-" else math.pi) * float(coef or 1.0)
            divisor = float(den or 1.0)
            value = value / divisor if divisor else math.inf  # x / 0 is not finite
    except ValueError:
        raise ValueError(f"cannot parse angle {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle {token!r} is not finite")
    return value


def _sample_grid(start: float, end: float, count: int) -> np.ndarray:
    """np.linspace(start, end, count) for 2 <= count <= MAX_SAMPLES, checked before allocating."""
    if count < 2:
        raise ValueError(f"grid count must be at least 2, got {count}")
    if count > MAX_SAMPLES:
        raise ValueError(f"grid count {count} exceeds the cap of {MAX_SAMPLES} samples")
    return np.linspace(start, end, count)


def parse_grid(spec: str) -> np.ndarray:
    """'start:end:count' with end-inclusive sampling; pi literals allowed."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:end:count, got {spec!r}")
    start, end = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"grid count must be an integer, got {parts[2]!r}") from None
    return _sample_grid(start, end, count)


# ---------------------------------------------------------------------------
# Commands

# verify_conservation's residuals; the last three make up residual_matrix_max.
COMPTON_KEYS = ("residual_energy", "residual_compton", "residual_matrix",
                "residual_lightlike_q1", "residual_lightlike_q2")

# The drifts angmom-conserve gates.  report-all's angmom_conservation gates
# the first three: the tensor, the constraint and the energy budget.
DRIFT_KEYS = ("hamiltonian_drift", "constraint_conjugation_residual",
              *(f"{name}_drift" for name in qbe.DRIFTS))


def _spinor_rep(name: str):
    return build_majorana() if name == "majorana" else build_dirac()


def _algebra(rep: str) -> dict[str, float]:
    """Residual per Clifford relation for 'majorana', 'dirac' or 'gamma'."""
    if rep == "gamma":
        return verify_gamma_algebra()
    return verify_algebra(_spinor_rep(rep))


def _rate_error(report) -> float:
    """Relative error of a ROTATING report's phase rate; 0 for other verdicts."""
    if report.verdict == "ROTATING" and report.expected_rate > 0:
        return abs(report.phase_rate - report.expected_rate) / report.expected_rate
    return 0.0


def _compton(m: float, omega1: float, thetas: np.ndarray, rep: str) -> tuple[dict, np.ndarray]:
    """verify_conservation's result over an array of angles, in one call, and
    the worst of its residuals at each angle (NaN where any is NaN)."""
    res = scatter.verify_conservation(scatter.ScatterConfig(m, omega1, thetas, rep=rep))
    return res, np.max([res[k] for k in COMPTON_KEYS], axis=0)


def _conservation(rng, t_end: float, step: float):
    """(n, l, report) of qbe_conservation along a flow drawn from rng."""
    n = rng.uniform(-1, 1, 3)
    l = rng.uniform(-1, 1, 3)
    return n, l, angmom4.qbe_conservation(n, l, rng.uniform(-1, 1, 9), t_end, step)


def _finish(args, payload: dict, ok: bool, line: str) -> int:
    """Write the JSON report if --out is given, print `line`, return the exit code."""
    if args.out is not None:
        obj = {"command": args.command, "schema_version": SCHEMA_VERSION, **payload}
        with open(_resolve_out(args.out), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_json(obj) + "\n")
    print(line)
    return 0 if ok else 1


def _cmd_verify_algebra(args) -> int:
    report = _algebra(args.rep)
    resid = worst(report.values())
    verdict = "PASS" if resid < 1e-12 else "FAIL"
    payload = {
        "rep": args.rep,
        "residuals": report,
        "max_residual": resid,
        "verdict": verdict,
    }
    return _finish(args, payload, verdict == "PASS",
                   f"verify-algebra {args.rep}: {verdict} (max residual {resid:.3g})")


def _cmd_evolve(args) -> int:
    traj = qbe.integrate_qbe(qbe.majorana_system(args.m, (args.px, args.py, args.pz)),
                             args.t_end, args.step)

    invariants = qbe.initial_invariants(traj)
    res = np.empty((len(traj.times), 4))
    for rows in block_slices(len(res)):
        h = np.array([traj.h_at(i) for i in range(rows.start, rows.stop)])
        f = np.array([traj.f_at(i) for i in range(rows.start, rows.stop)])
        res[rows] = np.column_stack(qbe.drifts(h, f, traj.system.k, *invariants))
    header = (["t"] + [f"c_{i}{j}" for i, j in traceless_labels()]
              + [f"res_{name}" for name in qbe.DRIFTS])
    _write_csv(args.out, header, traj.times, traj.coeffs, res)
    print(f"evolve: wrote {len(res)} samples to {args.out}")
    return 0


def _cmd_classify_mass(args) -> int:
    t_grid = _sample_grid(0.0, args.t_end, args.samples)
    report = propagate.classify_mass(_spinor_rep(args.rep), args.m,
                                     (args.px, args.py, args.pz), t_grid)
    payload = {
        "rep": args.rep,
        "verdict": report.verdict,
        "times": report.times,
        "modulus_series": np.abs(report.mass_series),
        "phase_rate": report.phase_rate,
        "expected_rate": report.expected_rate,
        "residuals": {
            "modulus_deviation": report.modulus_deviation,
            "phase_fit_residual": report.phase_fit_residual,
            "rate_relative_error": _rate_error(report),
        },
    }
    return _finish(args, payload, report.verdict in ("CONSTANT", "ROTATING"),
                   f"classify-mass {args.rep}: {report.verdict}")


def _cmd_angmom(args) -> int:
    # Angles too large for cos and sin give a NaN propagator, which the
    # orthogonality residual reports; numpy need not warn about it.
    with np.errstate(invalid="ignore"):
        u = angmom4.block_propagator(args.nx, args.lyz, args.t)
        resid = max_abs(u.T @ u - np.eye(4))
    payload = {
        "nx": args.nx,
        "lyz": args.lyz,
        "t": args.t,
        "u": {"dim": len(u), "re": u.real.ravel(), "im": u.imag.ravel()},
        "orthogonality_residual": resid,
    }
    if worst([resid]) < 1e-12:
        written = "" if args.out is None else " written"
        return _finish(args, payload, True, f"angmom: block propagator at t={args.t:g}{written}")
    return _finish(args, payload, False,
                   f"angmom: FAIL (orthogonality residual {resid:.3g} at t={args.t:g})")


def _cmd_angmom_conserve(args) -> int:
    n, l, report = _conservation(np.random.default_rng(args.seed), args.t_end, args.step)
    drift = worst(report[k] for k in DRIFT_KEYS)
    verdict = "PASS" if drift < 1e-8 else "FAIL"
    payload = {
        "seed": args.seed,
        "n": n,
        "l": l,
        "report": report,
        "max_drift": drift,
        "verdict": verdict,
    }
    return _finish(args, payload, verdict == "PASS",
                   f"angmom-conserve: {verdict} (max drift {drift:.3g})")


def _cmd_compton(args) -> int:
    thetas = parse_grid(args.theta_grid)
    res, worsts = _compton(args.m, args.omega1, thetas, args.rep)
    matrix_max = np.max([res[k] for k in COMPTON_KEYS[2:]], axis=0)
    _write_csv(args.out, ["theta", "omega2", "residual_energy", "residual_matrix_max"],
               thetas, res["omega2"], res["residual_energy"], matrix_max)
    resid = worst(worsts)
    verdict = "PASS" if resid < 1e-12 else "FAIL"
    print(f"compton {args.rep}: {verdict} over {len(thetas)} angles (max residual {resid:.3g})")
    return 0 if verdict == "PASS" else 1


def _cmd_frames(args) -> int:
    rng = np.random.default_rng(args.seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    p = (args.px, args.py, args.pz)
    case = frames.make_frame_case(v, args.t, args.m, p)
    residuals = frames.check_frame_equivalence(case)
    kg = frames.check_klein_gordon(case.frame, case.h0, np.linspace(0.0, args.t, 16))
    # The Klein-Gordon residual gates the verdict along with the identities.
    verdict = "PASS" if worst([*residuals.values(), kg]) < FRAMES_TOL else "FAIL"
    payload = {
        "seed": args.seed,
        "t": args.t,
        "residuals": residuals,
        "klein_gordon_residual": kg,
        "tol": FRAMES_TOL,
        "verdict": verdict,
    }
    return _finish(args, payload, verdict == "PASS", f"frames: {verdict}")


# ---------------------------------------------------------------------------
# report-all: the full acceptance sweep.  Each check takes the shared rng and
# returns its (name, residual, tol) entries.


def _check_algebra(rng) -> list[tuple[str, float, float]]:
    return [(f"algebra_{rep}", worst(_algebra(rep).values()), 1e-12)
            for rep in ("majorana", "dirac", "gamma")]


def _check_diagonalization(rng) -> list[tuple[str, float, float]]:
    residuals = []
    for m, *p in rng.uniform([0.1, -3.0, -3.0, -3.0], 3.0, (20, 4)):  # (m, p) per row
        frame = propagate.majorana_eigenframe(m, p)
        h = build_majorana().hamiltonian(m, p)
        residuals.append(max_abs(frame.w_inv @ h @ frame.w - frame.d))
    return [("diagonalization", worst(residuals), 1e-10)]


def _check_propagator(rng) -> list[tuple[str, float, float]]:
    frame = propagate.majorana_eigenframe(1.0, (1.0, 1.0, 1.0))
    t, s, r = rng.uniform(-2, 2, (20, 3)).T  # 20 (t, s, r) triples, drawn row by row
    u = propagate.propagator(frame, t, s)
    ph = np.exp(-2j * frame.energy * (t - s))
    residuals = [
        max_abs(u - np.eye(4) * np.column_stack([ph, ph, np.ones((20, 2))])[:, None]),
        max_abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4)),
        max_abs(u @ propagate.propagator(frame, s, r) - propagate.propagator(frame, t, r)),
    ]
    return [("propagator", worst(residuals), 1e-10)]


def _check_evolved_hamiltonian(rng) -> list[tuple[str, float, float]]:
    m, p = 1.0, (1.0, 1.0, 1.0)
    frame = propagate.majorana_eigenframe(m, p)
    h0 = build_majorana().hamiltonian(m, p)
    t = rng.uniform(0.0, 3.0, 10)
    ht = propagate.evolve_hamiltonian(frame, h0, t)
    expected = (p[1] + 1j * m) * np.exp(-2j * frame.energy * t)
    residuals = [max_abs(ht[:, 0, 2] - expected),
                 frames.check_klein_gordon(frame, h0, np.linspace(0, 2, 8))]
    return [("evolved_hamiltonian", worst(residuals), 1e-10)]


def _check_classify(rng) -> list[tuple[str, float, float]]:
    out = []
    for name, expected in (("majorana", "ROTATING"), ("dirac", "CONSTANT")):
        report = propagate.classify_mass(_spinor_rep(name), 1.0, (1.0, 1.0, 1.0),
                                         np.linspace(0, 3, 200))
        resid = worst([report.modulus_deviation, _rate_error(report)])
        out.append((f"classify_mass_{name}",
                    resid if report.verdict == expected else math.inf, 1e-6))
    return out


def _check_oracle_equivalence(rng) -> list[tuple[str, float, float]]:
    m, p = 1.0, np.array([1.0, 1.0, 1.0])
    sys_ = qbe.majorana_system(m, p)
    traj = qbe.integrate_qbe(sys_, 1.0, 1e-3)
    series = propagate.mass_series_from_pairs(
        m, -traj.coeff_series(("y", "1")), traj.coeff_series(("x", "1")))
    energy = math.sqrt(m * m + float(p @ p))
    analytic = m * np.exp(2j * energy * traj.times)
    return [("oracle_equivalence", max_abs(series - analytic), 1e-6)]


def _check_trace_projection(rng) -> list[tuple[str, float, float]]:
    m, p = 1.5, (0.5, -2.0, 1.25)
    sys_ = qbe.majorana_system(m, p, lam=np.zeros(11))
    ax = build_majorana().alpha[0]
    expected = {("1", "y"): 8j * p[2], ("x", "z"): 8j * m, ("y", "z"): 8j * p[1]}
    resid = worst(abs(qbe.trace_project_rhs(sys_.h0, kron_matrix(lab), ax)
                      - expected.get(lab, 0.0)) for lab in sys_.f_span)
    return [("trace_projection", resid, 1e-12)]


def _check_angmom(rng) -> list[tuple[str, float, float]]:
    _, _, report = _conservation(rng, 2.0, 1e-3)
    inv = [abs(angmom4.angmom_invariant(n, l) - 2 * (n @ n + l @ l))
           for n, l in rng.uniform(-2, 2, (50, 2, 3))]

    block = []
    for nx, lyz, t in rng.uniform(-2, 2, (10, 3)):
        u = angmom4.block_propagator(nx, lyz, t)
        rot = angmom4.flow(angmom4.assemble_tensor((nx, 0, 0), (-lyz, 0, 0)), [t])[0].real
        block += [max_abs(u - rot), max_abs(u.T @ u - np.eye(4))]
    return [
        ("angmom_conservation", worst(report[k] for k in DRIFT_KEYS[:3]), 1e-8),
        ("angmom_invariant", worst(inv), 1e-12),
        ("angmom_block_propagator", worst(block), 1e-12),
    ]


def _check_compton(rng) -> list[tuple[str, float, float]]:
    cases = [(1.0, 1.0), *rng.uniform(0.2, 3.0, (5, 2))]
    thetas = np.linspace(0.0, math.pi, 16)
    return [(f"compton_{rep}",
             worst(np.concatenate([_compton(m, w1, thetas, rep)[1] for m, w1 in cases])),
             1e-12)
            for rep in ("gamma", "majorana")]


def _check_phase_anticom(rng) -> list[tuple[str, float, float]]:
    residuals = []
    for row in rng.uniform([-2] * 6 + [-math.pi], [2] * 6 + [math.pi], (50, 7)):
        p, q, th = row[:3], row[3:6], row[6]
        lhs = 0.5 * anticommutator(scatter.block_momentum(p, th), scatter.block_momentum(q, 0.0))
        lhs2 = 0.5 * anticommutator(scatter.majorana_momentum_matrix(p, th),
                                    scatter.majorana_momentum_matrix(q, 0.0))
        residuals += [
            max_abs(lhs - scatter.phased_anticommutator_block(p, q, th)),
            max_abs(lhs2 - scatter.majorana_phased_dot(p, q, th) * np.eye(4)),
        ]
    return [("phase_anticommutators", worst(residuals), 1e-12)]


def _check_frames(rng) -> list[tuple[str, float, float]]:
    residuals = []
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = rng.uniform(0.1, 3.0)
        case = frames.make_frame_case(v, t, 1.0, (1.0, 1.0, 1.0))
        residuals.extend(frames.check_frame_equivalence(case).values())

    # Negative control: an unevolved partner must be rejected.
    case = frames.make_frame_case(rng.normal(size=4) + 1j * rng.normal(size=4), 0.7, 1.0,
                                  (1.0, 1.0, 1.0))
    control = frames.check_frame_equivalence(replace(case, w=case.v))
    return [
        ("frames_identities", worst(residuals), FRAMES_TOL),
        ("frames_negative_control", math.inf if worst(control.values()) < FRAMES_TOL else 0.0,
         1e-12),
    ]


# In the order in which they draw from the seeded rng: reordering them
# changes the report's bytes.
REPORT_CHECKS = (
    _check_algebra, _check_diagonalization, _check_propagator, _check_evolved_hamiltonian,
    _check_classify, _check_oracle_equivalence, _check_trace_projection, _check_angmom,
    _check_compton, _check_phase_anticom, _check_frames,
)


def _cmd_report_all(args) -> int:
    rng = np.random.default_rng(args.seed)
    summary = {name: {"residual": resid, "tol": tol, "status": "PASS" if resid < tol else "FAIL"}
               for name, resid, tol in sorted(e for check in REPORT_CHECKS for e in check(rng))}
    n_fail = sum(1 for c in summary.values() if c["status"] == "FAIL")
    verdict = "PASS" if n_fail == 0 else "FAIL"
    payload = {
        "seed": args.seed,
        "checks": summary,
        "n_checks": len(summary),
        "n_fail": n_fail,
        "verdict": verdict,
    }
    lines = [f"{c['status']}: {name} (residual {c['residual']:.3g})" for name, c in summary.items()]
    lines.append(f"report-all: {verdict} ({len(summary)} checks, {n_fail} failed)")
    return _finish(args, payload, n_fail == 0, "\n".join(lines))


# ---------------------------------------------------------------------------
# Parser


# A negative float literal, exponent included.  argparse's own pattern
# (Python 3.11) has no exponent form, so it reads a separate '-6e-06' as an
# option name.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)

_MASS_MOMENTUM = ("--m", "--px", "--py", "--pz")


def finite_float(token: str) -> float:
    """argparse type of every float option: NaN and infinities exit 2."""
    x = float(token)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {token!r}")
    return x


def seed(token: str) -> int:
    """argparse type of every --seed option: a negative seed exits 2."""
    if int(token) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {token!r}")
    return int(token)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qbrach parser, built on the first call; every later call returns
    the same parser.  parse_args never mutates it: each call starts from a
    fresh Namespace, so no parsed value carries over to the next call."""
    parser = argparse.ArgumentParser(
        prog="qbrach",
        description="Matrix brachistochrone flows, propagators, and scattering checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(func=func)
        return p

    def floats(p, *names, **kwargs):
        for name in names:
            p.add_argument(name, type=finite_float, **kwargs)

    p = add("verify-algebra", _cmd_verify_algebra,
            help="check Clifford relations for a representation")
    p.add_argument("--rep", required=True, choices=["majorana", "dirac", "gamma"])
    p.add_argument("--out")

    p = add("evolve", _cmd_evolve, help="integrate the matrix flow and dump coefficients")
    p.add_argument("--system", default="majorana", choices=["majorana"])
    floats(p, *_MASS_MOMENTUM, "--t-end", "--step", required=True)
    p.add_argument("--out", required=True)

    p = add("classify-mass", _cmd_classify_mass, help="constant vs rotating mass coefficient")
    p.add_argument("--rep", required=True, choices=["majorana", "dirac"])
    floats(p, *_MASS_MOMENTUM, required=True)
    floats(p, "--t-end", default=3.0)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--out")

    p = add("angmom", _cmd_angmom, help="block propagator for (N_x, L_yz) initial data")
    floats(p, "--nx", "--lyz", "--t", required=True)
    p.add_argument("--out")

    p = add("angmom-conserve", _cmd_angmom_conserve,
            help="conservation report along a random flow")
    p.add_argument("--seed", type=seed, default=7)
    floats(p, "--t-end", default=5.0)
    floats(p, "--step", default=1e-3)
    p.add_argument("--out")

    p = add("compton", _cmd_compton, help="matrix Compton kinematics over a theta grid")
    p.add_argument("--rep", required=True, choices=["gamma", "majorana"])
    floats(p, "--m", "--omega1", required=True)
    p.add_argument("--theta-grid", default="0:pi:64")
    p.add_argument("--out", required=True)

    p = add("frames", _cmd_frames, help="frame-equivalence bilinear identities")
    floats(p, *_MASS_MOMENTUM, "--t", required=True)
    p.add_argument("--seed", type=seed, default=11)
    p.add_argument("--out")

    p = add("report-all", _cmd_report_all, help="run every acceptance check with a fixed seed")
    p.add_argument("--seed", type=seed, default=7)
    p.add_argument("--out", default="report-all.json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out_dir(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except qbe.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
