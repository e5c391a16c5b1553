"""Independent checks of the files the qbrach CLI writes.

The CLI prints its own verdicts, but a verdict can be wrong (a NaN
residual, for one, compares as PASS under Python's ``max``).  Each checker
here re-reads one output file, recomputes what it can from the command's
inputs, and returns the gated residuals it found as ``Gate`` tuples.  Any
violation raises ``CheckFailure``.  ``Ledger`` counts attempted and failed
commands so that one bad output is recorded and the run continues.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from typing import Callable, NamedTuple

import numpy as np


class CheckFailure(Exception):
    """An output that does not hold up under the benchmark's own checks."""


class Gate(NamedTuple):
    """One gated residual: it passes when finite and below tol."""

    name: str
    residual: float
    tol: float


def gate(name: str, residual, tol: float) -> Gate:
    """Return the gate, or raise CheckFailure if the residual misses it."""
    r = float(residual)
    if not math.isfinite(r) or not r < tol:
        raise CheckFailure(f"{name}: residual {r!r} not below {tol!r}")
    return Gate(name, r, tol)


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def gate_digits(g: Gate) -> float:
    """log10(tol / residual), capped at 16."""
    return 16.0 if g.residual == 0.0 else min(16.0, math.log10(g.tol / g.residual))


def weakest_gate(gates) -> Gate:
    """The gate with the fewest digits to spare: the one that sets accuracy_digits."""
    if not gates:
        raise CheckFailure("no gated residuals to score")
    return min(gates, key=gate_digits)


def accuracy_digits(gates) -> float:
    """Smallest log10(tol / residual) over the gates, capped at 16."""
    return gate_digits(weakest_gate(gates))


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"{path}: unreadable JSON ({exc})") from None
    require(isinstance(obj, dict), f"{path}: not a JSON object")
    require(obj.get("schema_version") == "1", f"{path}: schema_version is not \"1\"")
    return obj


def _number(x, what: str) -> float:
    """A JSON number; the CLI writes non-finite floats as strings."""
    require(isinstance(x, (int, float)) and not isinstance(x, bool),
            f"{what}: {x!r} is not a finite number")
    return float(x)


def _load_csv(path, header: list[str]) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            require(fh.readline().rstrip("\n") == ",".join(header), f"{path}: unexpected header")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"{path}: unreadable or malformed ({exc})") from None
    require(data.shape[1] == len(header), f"{path}: {data.shape[1]} columns")
    require(bool(np.all(np.isfinite(data))), f"{path}: non-finite value")
    return data


# ---------------------------------------------------------------------------
# Per-command checkers


EVOLVE_RES_TOL = 1e-8
MASS_SERIES_TOL = 1e-6


def evolve_header() -> list[str]:
    pauli = ("1", "x", "y", "z")
    labels = [(i, j) for i in pauli for j in pauli if (i, j) != ("1", "1")]
    return (["t"] + [f"c_{i}{j}" for i, j in labels]
            + ["res_isotropic", "res_cross_trace", "res_total_square", "res_spectrum"])


def check_evolve(path, m: float, p, t_end: float, step: float) -> list[Gate]:
    """Trajectory CSV: full grid, finite, small drifts, mass rotating at 2E."""
    header = evolve_header()
    data = _load_csv(path, header)
    n = int(round(t_end / step))
    require(data.shape[0] == n + 1, f"{path}: {data.shape[0]} rows, expected {n + 1}")
    t = data[:, 0]
    require(abs(t[-1] - t_end) <= 1e-12 * max(1.0, abs(t_end)),
            f"{path}: last t {t[-1]!r} is not t_end {t_end!r}")
    gates = [gate(f"evolve.{name}", np.abs(data[:, k]).max(), EVOLVE_RES_TOL)
             for k, name in enumerate(header) if name.startswith("res_")]
    col = {name: k for k, name in enumerate(header)}
    z = -data[:, col["c_y1"]] + 1j * data[:, col["c_x1"]]
    require(abs(z[0]) > 0.0, f"{path}: mass pair vanishes at t = 0")
    energy = math.sqrt(m * m + float(np.dot(p, p)))
    series = m * z / z[0]
    analytic = m * np.exp(2j * energy * t)
    gates.append(gate("evolve.mass_series", np.abs(series - analytic).max(), MASS_SERIES_TOL))
    return gates


ALGEBRA_TOL = 1e-12
ALGEBRA_KEYS = {"majorana": 17, "dirac": 17, "gamma": 10}


def check_verify_algebra(path, rep: str) -> list[Gate]:
    obj = _load_json(path)
    require(obj.get("command") == "verify-algebra" and obj.get("rep") == rep,
            f"{path}: wrong command or rep")
    res = obj.get("residuals")
    require(isinstance(res, dict) and len(res) == ALGEBRA_KEYS[rep],
            f"{path}: expected {ALGEBRA_KEYS[rep]} residuals")
    gates = [gate(f"algebra.{k}", _number(v, k), ALGEBRA_TOL) for k, v in res.items()]
    require(_number(obj.get("max_residual"), "max_residual") == max(g.residual for g in gates),
            f"{path}: max_residual is not the largest residual")
    require(obj.get("verdict") == "PASS", f"{path}: verdict {obj.get('verdict')!r}")
    return gates


MODULUS_TOL = 1e-10
RATE_TOL = 1e-6


def check_classify_mass(path, rep: str, m: float, p, t_end: float, samples: int) -> list[Gate]:
    """Majorana masses rotate at exactly 2E; Dirac masses stay constant."""
    obj = _load_json(path)
    require(obj.get("command") == "classify-mass" and obj.get("rep") == rep,
            f"{path}: wrong command or rep")
    times = np.array([_number(x, "times") for x in obj.get("times", [])])
    require(times.size == samples and times[0] == 0.0 and abs(times[-1] - t_end) < 1e-12,
            f"{path}: time grid is not 0..{t_end} with {samples} samples")
    modulus = np.array([_number(x, "modulus_series") for x in obj.get("modulus_series", [])])
    require(modulus.size == samples, f"{path}: modulus series length {modulus.size}")
    res = obj.get("residuals", {})
    deviation = _number(res.get("modulus_deviation"), "modulus_deviation")
    gates = [gate("classify.modulus", np.abs(modulus - abs(m)).max(), MODULUS_TOL),
             gate("classify.modulus_deviation", deviation, MODULUS_TOL)]
    energy = math.sqrt(m * m + float(np.dot(p, p)))
    if rep == "majorana":
        require(obj.get("verdict") == "ROTATING", f"{path}: verdict {obj.get('verdict')!r}")
        expected = _number(obj.get("expected_rate"), "expected_rate")
        require(abs(expected - 2.0 * energy) <= 1e-12 * energy, f"{path}: expected_rate is not 2E")
        rate = _number(obj.get("phase_rate"), "phase_rate")
        gates.append(gate("classify.rate", abs(rate - 2.0 * energy) / (2.0 * energy), RATE_TOL))
        gates.append(gate("classify.phase_fit", _number(res.get("phase_fit_residual"), "phase_fit"),
                          RATE_TOL))
    else:
        require(obj.get("verdict") == "CONSTANT", f"{path}: verdict {obj.get('verdict')!r}")
    return gates


COMPTON_TOL = 1e-12
COMPTON_HEADER = ["theta", "omega2", "residual_energy", "residual_matrix_max"]


def check_compton(path, m: float, omega1: float, n_angles: int) -> list[Gate]:
    data = _load_csv(path, COMPTON_HEADER)
    require(data.shape[0] == n_angles, f"{path}: {data.shape[0]} rows, expected {n_angles}")
    theta = data[:, 0]
    require(np.abs(theta - np.linspace(0.0, math.pi, n_angles)).max() < 1e-15,
            f"{path}: theta grid is not 0..pi")
    omega2 = 1.0 / (1.0 / omega1 + (1.0 - np.cos(theta)) / m)
    return [
        gate("compton.omega2", (np.abs(data[:, 1] - omega2) / omega2).max(), COMPTON_TOL),
        gate("compton.residual_energy", np.abs(data[:, 2]).max(), COMPTON_TOL),
        gate("compton.residual_matrix_max", np.abs(data[:, 3]).max(), COMPTON_TOL),
    ]


FRAMES_TOL = 1e-10
FRAMES_KEYS = {"identity_norm", "identity_pz", "identity_py", "identity_mass", "headline"}


def check_frames(path) -> list[Gate]:
    obj = _load_json(path)
    require(obj.get("command") == "frames", f"{path}: wrong command")
    res = obj.get("residuals")
    require(isinstance(res, dict) and set(res) == FRAMES_KEYS, f"{path}: unexpected residual keys")
    require(obj.get("tol") == FRAMES_TOL, f"{path}: tol {obj.get('tol')!r}")
    gates = [gate(f"frames.{k}", _number(v, k), FRAMES_TOL) for k, v in res.items()]
    kg = _number(obj.get("klein_gordon_residual"), "klein_gordon_residual")
    gates.append(gate("frames.klein_gordon", kg, FRAMES_TOL))
    require(obj.get("verdict") == "PASS", f"{path}: verdict {obj.get('verdict')!r}")
    return gates


ANGMOM_TOL = 1e-12


def check_angmom(path, nx: float, lyz: float, t: float) -> list[Gate]:
    """The block propagator equals two plane rotations by nx*t and lyz*t."""
    obj = _load_json(path)
    require(obj.get("command") == "angmom", f"{path}: wrong command")
    u = obj.get("u", {})
    re = np.array([_number(x, "u.re") for x in u.get("re", [])])
    im = np.array([_number(x, "u.im") for x in u.get("im", [])])
    require(u.get("dim") == 4 and re.size == 16 and im.size == 16, f"{path}: u is not 4x4")
    ca, sa, cb, sb = math.cos(nx * t), math.sin(nx * t), math.cos(lyz * t), math.sin(lyz * t)
    expected = np.array([[ca, -sa, 0, 0], [sa, ca, 0, 0], [0, 0, cb, -sb], [0, 0, sb, cb]])
    return [
        gate("angmom.rotation", np.abs(re.reshape(4, 4) - expected).max(), ANGMOM_TOL),
        gate("angmom.imaginary", np.abs(im).max(), ANGMOM_TOL),
        gate("angmom.orthogonality", _number(obj.get("orthogonality_residual"), "orthogonality"),
             ANGMOM_TOL),
    ]


DRIFT_TOL = 1e-8
DRIFT_KEYS = ("hamiltonian_drift", "constraint_conjugation_residual", "isotropic_drift",
              "cross_trace_drift", "total_square_drift", "spectrum_drift")


def check_angmom_conserve(path, seed: int) -> list[Gate]:
    obj = _load_json(path)
    require(obj.get("command") == "angmom-conserve" and obj.get("seed") == seed,
            f"{path}: wrong command or seed")
    report = obj.get("report", {})
    gates = [gate(f"angmom_conserve.{k}", _number(report.get(k), k), DRIFT_TOL) for k in DRIFT_KEYS]
    require(_number(obj.get("max_drift"), "max_drift") == max(g.residual for g in gates),
            f"{path}: max_drift is not the largest drift")
    n = np.array([_number(x, "n") for x in obj.get("n", [])])
    l = np.array([_number(x, "l") for x in obj.get("l", [])])
    require(n.size == 3 and l.size == 3, f"{path}: n and l must have 3 entries")
    invariant = 2.0 * float(n @ n + l @ l)
    gates.append(gate("angmom_conserve.invariant",
                      abs(_number(report.get("invariant"), "invariant") - invariant) / invariant,
                      ANGMOM_TOL))
    require(obj.get("verdict") == "PASS", f"{path}: verdict {obj.get('verdict')!r}")
    return gates


# The 18 report-all checks with the tolerance each is pinned to.
REPORT_ALL_TOLS = {
    "algebra_dirac": 1e-12, "algebra_gamma": 1e-12, "algebra_majorana": 1e-12,
    "angmom_block_propagator": 1e-12, "angmom_conservation": 1e-8, "angmom_invariant": 1e-12,
    "classify_mass_dirac": 1e-6, "classify_mass_majorana": 1e-6,
    "compton_gamma": 1e-12, "compton_majorana": 1e-12,
    "diagonalization": 1e-10, "evolved_hamiltonian": 1e-10,
    "frames_identities": 1e-10, "frames_negative_control": 1e-12,
    "oracle_equivalence": 1e-6, "phase_anticommutators": 1e-12,
    "propagator": 1e-10, "trace_projection": 1e-12,
}


def check_report_all(path, seed: int, known: dict[int, bytes]) -> list[Gate]:
    """18 passing checks at their pinned tolerances, and stable bytes.

    ``known`` maps a seed to the bytes report-all must write for it.  A seed
    seen for the first time is added once its report passes.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckFailure(f"{path}: unreadable ({exc})") from None
    obj = _load_json(path)
    require(obj.get("command") == "report-all" and obj.get("seed") == seed,
            f"{path}: wrong command or seed")
    checks = obj.get("checks")
    require(isinstance(checks, dict) and set(checks) == set(REPORT_ALL_TOLS),
            f"{path}: check names differ from the 18 expected")
    gates = []
    for name, tol in REPORT_ALL_TOLS.items():
        entry = checks[name]
        require(entry.get("tol") == tol, f"{path}: {name} tol {entry.get('tol')!r} is not {tol!r}")
        gates.append(gate(f"report_all.{name}", _number(entry.get("residual"), name), tol))
        require(entry.get("status") == "PASS", f"{path}: {name} status {entry.get('status')!r}")
    require(obj.get("n_checks") == 18 and obj.get("n_fail") == 0 and obj.get("verdict") == "PASS",
            f"{path}: summary is not 18 checks, 0 failed, PASS")
    if seed in known:
        require(data == known[seed], f"{path}: bytes differ from the recorded seed-{seed} report")
    else:
        known[seed] = data
    return gates


# ---------------------------------------------------------------------------
# Counting


class Ledger:
    """Attempted and failed command counts, with one line per failure."""

    def __init__(self, log=sys.stderr):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._log = log

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, label: str, exit_code, error: str | None,
               check: Callable[[], list[Gate]]) -> list[Gate] | None:
        """Count one command; run its checker only if the command succeeded."""
        self.attempted += 1
        try:
            require(error is None, f"raised {error}")
            require(exit_code == 0, f"exit code {exit_code!r}")
            return check()
        except Exception as exc:  # an output of the wrong shape fails, the run goes on
            if not isinstance(exc, CheckFailure):
                traceback.print_exc(file=self._log)
            self.failed += 1
            self.failures.append(f"{label}: {exc}")
            print(f"bench: FAILED {label}: {exc}", file=self._log)
            return None
