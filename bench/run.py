"""qbrach benchmark: drives ``qbrach.cli.main`` in-process and checks every output.

    python3 bench/run.py --workload {audit,evolve,closed_form} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off:

- ``wall_s``: median wall time of one workload iteration (fixed input size).
- ``setup_s``: median, over several fresh interpreters, of the time to
  ``import qbrach.cli`` and call ``build_parser()``.
- ``peak_rss_mib``: peak resident memory of this process.
- ``pass_ratio``: commands that passed every check over commands attempted
  (``1 - fail_ratio``; the failed and attempted counts are the top-level keys).
- ``accuracy_digits``: smallest log10(tol / residual) over the gated
  residuals of the workload's first ``min_iterations`` iterations, capped
  at 16.  The name of the gate that sets it is printed and recorded as
  ``accuracy_gate``.

``--trace 1`` runs each iteration untraced and then traced (see
``tracer.py``), checks that both write identical bytes, and reports the
per-layer metrics of ``PER_LAYER`` plus ``trace.overhead_s``.  Spans are
written to ``.bench_work/spans/``; every run writes its full record,
environment and the workload's ``why`` from BENCHMARK.json included, to
``.bench_work/results/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One process, no extra threads: fixed before numpy is first imported.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checkers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference" / f"report-all-seed{workloads.REFERENCE_SEED}.json"

SETUP_SAMPLES = 11
SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qbrach.cli\n"
    "qbrach.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "pass_ratio": "ratio", "accuracy_digits": "digits"}


def _layer(span: str, field_: str):
    return lambda layers, counts, out_bytes: layers.get(span, {}).get(field_, 0)


def _counter(name: str, scale: int = 1):
    return lambda layers, counts, out_bytes: scale * counts.get(name, 0)


def _us_per_step(layers, counts, out_bytes):
    steps = counts.get("qbe.rk4_steps", 0)
    return 1e6 * layers.get("qbe.integrate_qbe", {}).get("self_s", 0.0) / steps if steps else 0.0


# Per-layer metric -> (unit, value from one iteration's span totals, counters
# and output bytes).  qbe.rhs_evals is computed as 4 x qbe.rk4_steps, not
# counted.  The end-to-end metric and workload each should move are listed
# in baseline.json under "predictions".
PER_LAYER = {
    "matcore.kron_matrix.calls": ("count", _layer("matcore.kron_matrix", "calls")),
    "matcore.kron_matrix.s": ("s", _layer("matcore.kron_matrix", "s")),
    "qbe.resum.calls": ("count", _layer("qbe.resum", "calls")),
    "qbe.resum.self_s": ("s", _layer("qbe.resum", "self_s")),
    "qbe.integrate_qbe.calls": ("count", _layer("qbe.integrate_qbe", "calls")),
    "qbe.integrate_qbe.self_s": ("s", _layer("qbe.integrate_qbe", "self_s")),
    "qbe.rk4_steps": ("count", _counter("qbe.rk4_steps")),
    "qbe.rhs_evals": ("count", _counter("qbe.rk4_steps", 4)),
    "qbe.us_per_step": ("us", _us_per_step),
    "qbe.conserved_residuals.self_s": ("s", _layer("qbe.conserved_residuals", "self_s")),
    "qbe.audit_samples": ("count", _counter("qbe.audit_samples")),
    "audit.eigvalsh.calls": ("count", _layer("audit.eigvalsh", "calls")),
    "audit.eigvalsh.s": ("s", _layer("audit.eigvalsh", "s")),
    "angmom4.qbe_conservation.self_s": ("s", _layer("angmom4.qbe_conservation", "self_s")),
    "cli.main.calls": ("count", _layer("cli.main", "calls")),
    "cli.main.self_s": ("s", _layer("cli.main", "self_s")),
    "cli.build_parser.s": ("s", _layer("cli.build_parser", "s")),
    "cli.render_json.s": ("s", _layer("cli.render_json", "s")),
    "cli.output_bytes": ("B", lambda layers, counts, out_bytes: out_bytes),
    "propagate.classify_mass.self_s": ("s", _layer("propagate.classify_mass", "self_s")),
    "propagate.majorana_eigenframe.calls":
        ("count", _layer("propagate.majorana_eigenframe", "calls")),
    "propagate.evolve_hamiltonian.calls":
        ("count", _layer("propagate.evolve_hamiltonian", "calls")),
    "scatter.verify_conservation.calls": ("count", _layer("scatter.verify_conservation", "calls")),
    "scatter.verify_conservation.self_s": ("s", _layer("scatter.verify_conservation", "self_s")),
    "cliffrep.build_rep.calls": ("count", _layer("cliffrep.build_rep", "calls")),
    "frames.check_frame_equivalence.self_s":
        ("s", _layer("frames.check_frame_equivalence", "self_s")),
    "frames.check_klein_gordon.self_s": ("s", _layer("frames.check_klein_gordon", "self_s")),
}


@dataclass
class Iteration:
    wall: float = 0.0  # time inside cli.main, summed over the iteration's commands
    gates: list = field(default_factory=list)
    out_bytes: int = 0
    digests: list = field(default_factory=list)
    commands: list = field(default_factory=list)  # command ids, for the tracer


def invoke(cli, argv: list[str]) -> tuple[object, float, str | None]:
    """Run one CLI command in-process: (exit code, seconds, error or None)."""
    rc, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception as exc:  # the run goes on; the command counts as failed
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    return rc, perf_counter() - t0, error


def run_iteration(cli, commands, ledger, tracer=None, next_id=None,
                  digests=False) -> Iteration:
    it = Iteration()
    for cmd in commands:
        for path in cmd.outputs:  # a command that writes nothing must not pass on old files
            if os.path.exists(path):
                os.remove(path)
        if tracer is None:
            rc, seconds, error = invoke(cli, cmd.argv)
        else:
            tracer.command = next(next_id)
            it.commands.append(tracer.command)
            with tracer.installed():
                rc, seconds, error = invoke(cli, cmd.argv)
        it.wall += seconds
        gates = ledger.record(cmd.label, rc, error, cmd.check)
        if gates is not None:
            it.gates.extend(gates)
        for path in cmd.outputs:
            if os.path.exists(path):
                it.out_bytes += os.path.getsize(path)
                if digests:
                    with open(path, "rb") as fh:
                        it.digests.append(hashlib.sha256(fh.read()).hexdigest())
    return it


def run_for(cli, workload, seed, seconds, outdir, ledger, known) -> list[Iteration]:
    """Iterate until the next iteration would end after ``seconds``.

    Gates are kept for the first ``workload.min_iterations`` iterations only,
    so that memory does not grow with the number of iterations.
    """
    its, totals = [], []
    t0 = perf_counter()
    while (len(its) < workload.min_iterations
           or perf_counter() - t0 + statistics.median(totals) <= seconds):
        start = perf_counter()
        it = run_iteration(cli, workload.commands(seed, len(its), outdir, known), ledger)
        if len(its) >= workload.min_iterations:
            it.gates = []
        its.append(it)
        totals.append(perf_counter() - start)
    return its


def measure_setup() -> list[float]:
    """Import-plus-parser time in fresh interpreters; the first is discarded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
    }


def untraced_metrics(its, ledger, setup) -> tuple[dict[str, float], str | None]:
    """The end-to-end metrics, and the name of the gate that sets accuracy_digits."""
    gates = [g for it in its for g in it.gates]
    weakest = checkers.weakest_gate(gates) if gates else None
    return {
        "wall_s": statistics.median(it.wall for it in its),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - ledger.fail_ratio,
        "accuracy_digits": checkers.gate_digits(weakest) if weakest else 0.0,
    }, weakest and weakest.name


def traced_metrics(cli, workload, seed, seconds, outdir, ledger, known, problems):
    """Each iteration untraced, then again traced; per-layer medians.

    Running the two copies back to back lets the overhead be taken pair by
    pair, on a machine whose speed drifts over a run.
    """
    tr = tracing.Tracer()
    ids = itertools.count()
    plain, traced, totals = [], [], []
    t0 = perf_counter()
    while len(plain) < 2 or perf_counter() - t0 + statistics.median(totals) <= seconds:
        start = perf_counter()
        i = len(plain)
        plain.append(run_iteration(cli, workload.commands(seed, i, outdir, known), ledger,
                                   digests=True))
        traced.append(run_iteration(cli, workload.commands(seed, i, outdir, known), ledger,
                                    tr, ids, digests=True))
        totals.append(perf_counter() - start)

    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.digests != b.digests:
            problems.append(f"iteration {i}: traced outputs differ from untraced ones")
    per_iter = []
    for it, layers in zip(traced, tracing.layer_totals(tr, [it.commands for it in traced])):
        counts = {c: tracing.counter_total(tr, c, it.commands)
                  for c in ("qbe.rk4_steps", "qbe.audit_samples")}
        per_iter.append({name: fn(layers, counts, it.out_bytes)
                         for name, (_, fn) in PER_LAYER.items()})

    totals = tracing.layer_totals(tr, [[c for it in traced for c in it.commands]])[0]
    for span in workload.fires:
        if totals.get(span, {}).get("calls", 0) == 0:
            problems.append(f"span {span} never fired on {workload.name}")
    for span in workload.silent:
        if totals.get(span, {}).get("calls", 0) != 0:
            problems.append(f"span {span} fired on {workload.name}, where it must not")
    for name, (unit, _) in PER_LAYER.items():
        if unit == "count" and len({m[name] for m in per_iter}) != 1:
            problems.append(f"{name} differs between iterations: {[m[name] for m in per_iter]}")

    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    tr.save(WORK / "spans" / f"{workload.name}-seed{seed}.npz")
    metrics = {name: statistics.median(m[name] for m in per_iter) for name in PER_LAYER}
    metrics["trace.overhead_s"] = statistics.median(b.wall - a.wall for a, b in zip(plain, traced))
    samples = {"untraced_wall_s": [it.wall for it in plain],
               "traced_wall_s": [it.wall for it in traced], "per_iteration": per_iter}
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qbrach" / "cli.py").is_file():
        print(f"bench: no qbrach sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from qbrach import cli

    workload = workloads.WORKLOADS[args.workload]
    outdir = WORK / "out" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ledger = checkers.Ledger()
    known = {workloads.REFERENCE_SEED: REFERENCE.read_bytes()}
    problems: list[str] = []
    why = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    record = {"workload": workload.name, "why": why[workload.name],
              "inputs": workload.inputs, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}

    try:
        setup = measure_setup() if args.trace == 0 else []
        run_iteration(cli, workload.warmup(args.seed, str(outdir), known), ledger)
        if args.trace == 0:
            its = run_for(cli, workload, args.seed, args.seconds, str(outdir), ledger, known)
            metrics, record["accuracy_gate"] = untraced_metrics(its, ledger, setup)
            units = END_TO_END_UNITS
            record["samples"] = {"wall_s": [it.wall for it in its], "setup_s": setup}
        else:
            metrics, record["samples"] = traced_metrics(
                cli, workload, args.seed, args.seconds, str(outdir), ledger, known, problems)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            units["trace.overhead_s"] = "s"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result, failures=ledger.failures, problems=problems,
                  fail_ratio=ledger.fail_ratio)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"bench: {workload.name} seed {args.seed}: fail_ratio {ledger.fail_ratio:g} "
          f"({ledger.failed} of {ledger.attempted} commands failed)")
    if record.get("accuracy_gate"):
        print(f"bench: accuracy_digits is set by {record['accuracy_gate']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
