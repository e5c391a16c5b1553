"""Run bench/run.py over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workload audit [--seeds {dev,validation}] [--trace 0]
        [--out summary.json]

``--seeds dev`` runs the tuning seeds of workloads.py and ``--seeds
validation`` its held-out seed.  Each run measures for BENCHMARK.json's
``run_seconds``.

Runs one seed at a time, as separate processes.  For every metric it prints
the median, the quartiles and the spread (interquartile range over the
median), the figure a run-to-run bound must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"
SEEDS = {"dev": list(workloads.DEV_SEEDS), "validation": [workloads.VALIDATION_SEED]}


def summarise(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", choices=sorted(SEEDS), default="dev")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    runs = []
    for seed in SEEDS[args.seeds]:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": SEEDS[args.seeds],
             "seconds": seconds, "trace": args.trace,
             "all_correct": all(r["correct"] for r in runs), "metrics": summary},
            indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
