"""The benchmark's workloads: what each runs and on which inputs.

Every input is drawn from ``numpy.random.default_rng([seed, workload id,
iteration])``, so one benchmark seed gives the same commands on every run
and any iteration can be replayed on its own.  A ``Command`` is one
``qbrach.cli.main`` argument list with the files it writes and the checker
that re-reads them.  The reason for each workload is its ``why`` in
BENCHMARK.json; run.py copies it into every run record.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checkers

# Seeds this benchmark was tuned on, and one held out so that a later
# performance claim can be checked on a seed it was not developed against.
DEV_SEEDS = tuple(range(1, 11))
VALIDATION_SEED = 20260917

# The report-all seed whose bytes are committed in reference/.
REFERENCE_SEED = 7

# Iteration index used for warm-up draws, outside the range of timed ones.
WARMUP = 2**32 - 1

EVOLVE_T_END, EVOLVE_STEP = 1.0, 1e-4
CONSERVE_T_END, CONSERVE_STEP = 5.0, 1e-3
CLASSIFY_T_END, CLASSIFY_SAMPLES = 3.0, 300
COMPTON_ANGLES = 64


@dataclass(frozen=True)
class Command:
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[], list[checkers.Gate]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _f(name: str, x: float) -> str:
    # "--name=value": argparse takes a separate "-6e-06" for an option name.
    return f"--{name}={float(x)!r}"


def _rng(seed: int, wid: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, wid, i])


def _seed_draw(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# audit


def audit_report_seed(seed: int) -> int:
    """The report-all seed of a run: fixed for the run, drawn from its seed."""
    return _seed_draw(np.random.default_rng([seed % 2**64, 0]))


def report_all(seed: int, outdir: str, known: dict[int, bytes]) -> Command:
    out = os.path.join(outdir, f"report-all-{seed}.json")
    return Command(["report-all", "--seed", str(seed), "--out", out], (out,),
                   partial(checkers.check_report_all, out, seed, known))


def angmom_conserve(seed: int, outdir: str, t_end: float = CONSERVE_T_END) -> Command:
    out = os.path.join(outdir, "angmom-conserve.json")
    argv = ["angmom-conserve", "--seed", str(seed), _f("t-end", t_end),
            _f("step", CONSERVE_STEP), "--out", out]
    return Command(argv, (out,), partial(checkers.check_angmom_conserve, out, seed))


def audit_commands(seed: int, i: int, outdir: str, known) -> list[Command]:
    conserve_seed = _seed_draw(_rng(seed, 0, i))
    return [angmom_conserve(conserve_seed, outdir),
            report_all(audit_report_seed(seed), outdir, known)]


def audit_warmup(seed: int, outdir: str, known) -> list[Command]:
    """report-all at the reference seed, checked against the committed bytes."""
    return [angmom_conserve(0, outdir, t_end=0.01), report_all(REFERENCE_SEED, outdir, known)]


# ---------------------------------------------------------------------------
# evolve


def _momentum(rng) -> tuple[float, np.ndarray]:
    return float(rng.uniform(0.1, 3.0)), rng.uniform(-3.0, 3.0, 3)


def evolve(m: float, p, outdir: str, t_end: float = EVOLVE_T_END) -> Command:
    out = os.path.join(outdir, "traj.csv")
    argv = ["evolve", "--system", "majorana", _f("m", m), _f("px", p[0]), _f("py", p[1]),
            _f("pz", p[2]), _f("t-end", t_end), _f("step", EVOLVE_STEP), "--out", out]
    return Command(argv, (out,),
                   partial(checkers.check_evolve, out, m, np.asarray(p), t_end, EVOLVE_STEP))


def evolve_commands(seed: int, i: int, outdir: str, known) -> list[Command]:
    m, p = _momentum(_rng(seed, 1, i))
    return [evolve(m, p, outdir)]


def evolve_warmup(seed: int, outdir: str, known) -> list[Command]:
    return [evolve(1.0, (1.0, 1.0, 1.0), outdir, t_end=0.01)]


# ---------------------------------------------------------------------------
# closed_form


def closed_form_commands(seed: int, i: int, outdir: str, known) -> list[Command]:
    rng = _rng(seed, 2, i)
    m, p = _momentum(rng)
    omega1 = float(rng.uniform(0.2, 3.0))
    t = float(rng.uniform(0.1, 3.0))
    nx, lyz = rng.uniform(-2.0, 2.0, 2)
    frames_seed = _seed_draw(rng)
    mp = [_f("m", m), _f("px", p[0]), _f("py", p[1]), _f("pz", p[2])]
    path = partial(os.path.join, outdir)
    cmds = []
    for rep in ("majorana", "dirac"):
        out = path(f"classify-{rep}.json")
        cmds.append(Command(["classify-mass", "--rep", rep, *mp, "--out", out], (out,),
                            partial(checkers.check_classify_mass, out, rep, m, p,
                                    CLASSIFY_T_END, CLASSIFY_SAMPLES)))
    for rep in ("gamma", "majorana"):
        out = path(f"compton-{rep}.csv")
        cmds.append(Command(["compton", "--rep", rep, _f("m", m), _f("omega1", omega1),
                             "--theta-grid", f"0:pi:{COMPTON_ANGLES}", "--out", out], (out,),
                            partial(checkers.check_compton, out, m, omega1, COMPTON_ANGLES)))
    out = path("frames.json")
    cmds.append(Command(["frames", *mp, _f("t", t), "--seed", str(frames_seed), "--out", out],
                        (out,), partial(checkers.check_frames, out)))
    for rep in ("majorana", "dirac", "gamma"):
        out = path(f"algebra-{rep}.json")
        cmds.append(Command(["verify-algebra", "--rep", rep, "--out", out], (out,),
                            partial(checkers.check_verify_algebra, out, rep)))
    out = path("angmom.json")
    cmds.append(Command(["angmom", _f("nx", nx), _f("lyz", lyz), _f("t", t), "--out", out],
                        (out,), partial(checkers.check_angmom, out, float(nx), float(lyz), t)))
    return cmds


def closed_form_warmup(seed: int, outdir: str, known) -> list[Command]:
    return closed_form_commands(seed, WARMUP, outdir, known)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str
    commands: Callable[..., list[Command]]
    warmup: Callable[..., list[Command]]
    # Every measured run times at least this many iterations, and
    # accuracy_digits is taken over exactly these first iterations, so it
    # does not depend on how many iterations fit into the run.
    min_iterations: int
    # Span names that must record calls on this workload, and ones that must not.
    fires: frozenset[str]
    silent: frozenset[str]


_QBE = {"matcore.kron_matrix", "qbe.resum", "qbe.integrate_qbe"}
_AUDIT = {"qbe.conserved_residuals", "angmom4.qbe_conservation"}
_CLOSED = {"propagate.classify_mass", "propagate.majorana_eigenframe",
           "propagate.evolve_hamiltonian", "scatter.verify_conservation",
           "frames.check_frame_equivalence", "frames.check_klein_gordon"}
_CLI = {"cli.main", "cli.build_parser", "cliffrep.build_rep", "audit.eigvalsh"}

WORKLOADS = {
    w.name: w for w in [
        Workload(
            "audit",
            inputs="angmom-conserve --t-end 5 --step 1e-3 with a fresh --seed per iteration; "
                   "report-all with one --seed per run; warm-up report-all --seed 7 against "
                   "the committed bytes",
            commands=audit_commands, warmup=audit_warmup, min_iterations=3,
            fires=frozenset(_QBE | _AUDIT | _CLOSED | _CLI | {"cli.render_json"}),
            silent=frozenset()),
        Workload(
            "evolve",
            inputs="evolve --system majorana --t-end 1 --step 1e-4, m in [0.1, 3], "
                   "p in [-3, 3]^3",
            commands=evolve_commands, warmup=evolve_warmup, min_iterations=3,
            fires=frozenset(_QBE | _CLI),
            silent=frozenset(_AUDIT | _CLOSED | {"cli.render_json"})),
        Workload(
            "closed_form",
            inputs="per draw: classify-mass and compton (64 angles) for both reps, frames, "
                   "verify-algebra for all three reps, angmom; m in [0.1, 3], p in [-3, 3]^3, "
                   "omega1 in [0.2, 3], t in [0.1, 3], nx and lyz in [-2, 2]",
            commands=closed_form_commands, warmup=closed_form_warmup, min_iterations=30,
            fires=frozenset(_CLOSED | _CLI | {"cli.render_json"}),
            silent=frozenset(_QBE | _AUDIT)),
    ]
}
