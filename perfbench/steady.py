"""Steadiness check: run the benchmark once per seed on each workload and
report, for every end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, against the metric's bound.  A
spread at or above a third of the bound is flagged, and one at or above the
bound is flagged as over it; setup_s is flagged like every other metric.

    python3 perfbench/steady.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs are sequential, one process at a time.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """The run's result line, with the run's wall time added as ``wall_s``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                wall_s=time.perf_counter() - t0)


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "within_bound": spread < bound,
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workload", action="append",
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in args.seeds]
        report[workload] = {
            "seeds": args.seeds,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs], bound)
                        for name, bound in bounds.items()},
        }
        for name, s in report[workload]["metrics"].items():
            flag = ("" if s["within_third_of_bound"] else "  <-- over bound/3"
                    if s["within_bound"] else "  <-- OVER BOUND")
            print(f"{workload:18s} {name:17s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
