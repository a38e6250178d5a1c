"""Fixed-work benchmark of ellsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload is a fixed list of
operations; one pass runs the list once and the benchmark reports the time
per pass, never the wall time of a fixed-length run. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, pass_s, pass_cpu_s and peak_rss_mb;
with --trace 1 they are the per-module figures of a traced run. See
perfbench/README.md for the workloads and the meaning of every metric.

This file uses only the standard library. The measuring happens in child
processes (worker.py, or the ellsym CLI itself), each started with the
repository's src on PYTHONPATH, PYTHONHASHSEED=0 and one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "check-bundled", "check-ladder", "witness-fft")
SETUP_SAMPLES = 3  # set-up is timed this many times per run; the median is reported
BUDGET_S = 170.0  # every process this run starts must end within this


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def per_op_median(passes, column):
    """One pass's time: the sum over operations of each one's median over the passes.

    With two passes this is their mean. With three or more, a one-off cost of
    the first pass (a lazy import, a cold cache) is dropped by the median, so
    no pass has to be thrown away as a warm-up.
    """
    return sum(statistics.median(p[i][column] for p in passes) for i in range(len(passes[0])))


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.env = child_env(root)
        self.deadline = time.monotonic() + BUDGET_S

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        return left

    def worker_cmd(self, *extra):
        a = self.args
        return [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace), *extra,
        ]

    def start_worker(self, *extra):
        """Start a worker; return (process, seconds until it printed 'ready')."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            self.worker_cmd(*extra), cwd=self.root, env=self.env, stdout=subprocess.PIPE, bufsize=0
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if ready else b""
            if line.strip() != b"ready":
                raise RuntimeError(f"worker did not get ready: {line!r}")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc, time.perf_counter() - t0

    def finish(self, proc):
        """Wait for a worker; return the last line it printed."""
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        lines = out.decode().strip().splitlines()
        return lines[-1] if lines else ""

    def setup_sample(self):
        """Wall time of one fresh set-up."""
        if self.args.workload != "cli-cold":
            proc, t = self.start_worker("--setup-only")
            self.finish(proc)
            return t
        # the floor every CLI command pays: interpreter start plus import
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "ellsym.cli", "--version"], cwd=self.root,
            env=self.env, check=True, capture_output=True, timeout=self.remaining(),
        )
        return time.perf_counter() - t0

    def execute(self):
        in_process = self.args.workload != "cli-cold"
        # the measuring worker's own set-up is one of the samples of in-process workloads
        samples = [] if self.args.trace else [self.setup_sample() for _ in range(SETUP_SAMPLES - in_process)]
        proc, t_ready = self.start_worker()
        raw = json.loads(self.finish(proc))
        for problem in raw["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        if self.args.trace:
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in raw["layers"].items()}
        else:
            samples += [t_ready] if in_process else []
            print("detail: " + json.dumps({"passes": raw["passes"], "setup": samples}), file=sys.stderr)
            metrics = {
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
                "pass_s": {"value": per_op_median(raw["passes"], 0), "unit": "s"},
                "pass_cpu_s": {"value": per_op_median(raw["passes"], 1), "unit": "s"},
                "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            }
        return {
            "correct": raw["correct"],
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": metrics,
        }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    missing = [p for p in ("src/ellsym/__init__.py", "systems") if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"error: run from the root of an ellsym checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = Run(args, root).execute()
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
