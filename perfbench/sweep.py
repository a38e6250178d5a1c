"""Repeat the benchmark over seeds and summarize its spread.

    python3 perfbench/sweep.py --label set1 [--workloads a,b] [--seeds 1-10] [--seconds 12]

Runs `run.py` once per (workload, seed), one run at a time, from the current
directory (the root of a checkout). Raw result lines go to
perfbench/out/<label>/<workload>.jsonl, and each run's `detail:` line (the
time of every operation in every pass, and the set-up samples) to
<workload>.detail. The summary printed at the end gives,
for each end-to-end metric, the median of the runs and the spread
(Q3 - Q1) / median, with quartiles from statistics.quantiles(values, n=4).
With --compare LABEL it also prints how far each median moved from that set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(rows):
    """{metric: (median, spread)} over the result lines of one workload."""
    out = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, (q3 - q1) / med if med else float("nan"))
    return out


def load(label, workload):
    path = os.path.join(HERE, "out", label, f"{workload}.jsonl")
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--compare", default=None, help="label of an earlier set")
    ap.add_argument("--summary-only", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    outdir = os.path.join(HERE, "out", args.label)
    os.makedirs(outdir, exist_ok=True)
    if not args.summary_only:
        for workload in workloads:
            with open(os.path.join(outdir, f"{workload}.jsonl"), "a") as fh:
                for seed in seeds_of(args.seeds):
                    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
                    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                    if proc.returncode != 0:
                        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    line = proc.stdout.strip().splitlines()[-1]
                    fh.write(line + "\n")
                    with open(os.path.join(outdir, f"{workload}.detail"), "a") as dfh:
                        dfh.writelines(f"{seed} {x}\n" for x in proc.stderr.splitlines() if x.startswith("detail: "))
                    fh.flush()
                    print(f"{workload} seed {seed}: {line}", flush=True)
    for workload in workloads:
        rows = load(args.label, workload)
        bad = sum(not r["correct"] for r in rows)
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print(f"\n{workload}: {len(rows)} runs, {bad} incorrect, failed shares {shares}")
        now = summarize(rows)
        before = summarize(load(args.compare, workload)) if args.compare else {}
        for name, (med, spread) in now.items():
            line = f"  {name:14s} median {med:12.6g}  spread {spread:7.2%}"
            if name in before:
                line += f"  vs {args.compare}: {med / before[name][0] - 1:+7.2%}"
            print(line)


if __name__ == "__main__":
    main()
