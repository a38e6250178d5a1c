"""One benchmark process: set up a workload, then run whole passes over it.

Started by run.py with the repository's ``src`` on PYTHONPATH, a fixed
PYTHONHASHSEED and one BLAS/OpenMP thread. It prints ``ready`` as soon as
the first operation could start (so the parent can time set-up), and ends
with one JSON line of raw figures.

Untraced: at least two passes, and more until ``--seconds`` have gone by.
Only the operations are timed; checks run between them. The first output of
every operation is checked against independent facts, and every later output
must repeat it exactly.

Traced: warm-up, one untraced pass as the baseline, then traced passes with
every ellsym function wrapped (see tracer.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

MAX_PROBLEMS = 20


def cpu_s():
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs that ran but failed a check
        self.problems = []

    def run_pass(self, traced=False):
        """Run every op once; returns the (wall, cpu) seconds of each."""
        times = []
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if traced:
                self.tracer.enabled = True
            w0, c0 = time.perf_counter(), cpu_s()
            try:
                out = op.run()
                raised = None
            except Exception as exc:  # an operation that raises is a failed operation
                raised = f"{op.label}: raised {type(exc).__name__}: {exc}"
            times.append((time.perf_counter() - w0, cpu_s() - c0))
            if traced:
                self.tracer.enabled = False
            problems = [raised] if raised else self._check(i, op, out)
            if problems:
                self.failed += 1
                self.wrong += raised is None
                self.problems.extend(problems)
        return times

    def _check(self, i, op, out):
        """Problems of one output: checked in full the first time, then compared.

        A later output equal to the first repeats the first one's verdict, so
        a wrong output fails in every pass and `failed` stays the same share
        of `attempted` however many passes a run makes.
        """
        try:
            fp = op.fingerprint(out)
            if i not in self.reference:
                self.reference[i] = (fp, [f"{op.label}: {p}" for p in op.check(out)])
                return self.reference[i][1]
        except Exception as exc:  # an output the check cannot read is a wrong output
            return [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        first_fp, first_problems = self.reference[i]
        if fp != first_fp:
            return [f"{op.label}: output differs from the first pass"]
        return first_problems

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.wrong == 0,
            "problems": list(dict.fromkeys(self.problems))[:MAX_PROBLEMS],
        }


def measure(runner, seconds, min_passes, **kw):
    """Whole passes until `seconds` have gone by; returns their op times."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(**kw))
    return passes


def importtime(stderr):
    """(ellsym import, scipy import) in seconds from `python -X importtime` output.

    scipy counts every scipy module whose importer is not itself scipy, with
    its cumulative time, so the numpy and stdlib modules it pulls in count too.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line[12:]:
            continue
        _, cumulative, name = line[12:].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))
    ellsym_s = scipy_s = 0.0
    parents = []  # children are printed before their importer, so walk backwards
    for depth, name, cum in reversed(rows):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        parent = parents[-1][1] if parents else ""
        if name == "ellsym":
            ellsym_s += cum
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cum
        parents.append((depth, name))
    return ellsym_s, scipy_s


def _wall(times):
    return sum(w for w, _ in times)


def _traced_cli_pass(runner, tracer):
    """A cli-cold pass with `-X importtime` children, then the same argv in-process.

    Returns (wall time of the children, ellsym import s, scipy import s,
    in-process cli.main s); the in-process calls are traced.
    """
    from ellsym import cli

    for op in runner.ops:
        op.run.importtime = True
    wall = _wall(runner.run_pass())
    times = [importtime(op.run.last_stderr) for op in runner.ops]
    main_s = 0.0
    for _label, argv, _check in workloads.cli_argvs():
        t0 = time.perf_counter()
        tracer.enabled = True
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        tracer.enabled = False
        main_s += time.perf_counter() - t0
    return wall, sum(t[0] for t in times), sum(t[1] for t in times), main_s


def traced_run(workload, ops, seconds):
    from tracer import Tracer

    tracer = Tracer().install()
    runner = Runner(ops, tracer)
    cli = workload == "cli-cold"
    if not cli:
        runner.run_pass()  # warm-up
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ellsym"],
            capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        import_s, scipy_s = importtime(proc.stderr)
    base_wall = _wall(runner.run_pass())
    rows = []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        tracer.reset()
        if cli:
            wall, import_s, scipy_s, main_s = _traced_cli_pass(runner, tracer)
        else:
            wall, main_s = _wall(runner.run_pass(traced=True)), 0.0
        rows.append(dict(
            tracer.metrics(),
            **{
                "cli.import_s": import_s,
                "cli.import_scipy_s": scipy_s,
                "cli.main_s": main_s,
                "trace.pass_s": wall,
                "trace.overhead_s": wall - base_wall,
            },
        ))
    layers = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    return dict(runner.summary(), layers=layers)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, os.getcwd())
    print("ready", flush=True)
    if args.setup_only:
        return
    if args.trace:
        result = traced_run(args.workload, ops, args.seconds)
    else:
        runner = Runner(ops)
        passes = measure(runner, args.seconds, min_passes=2)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        result = dict(
            runner.summary(),
            passes=passes,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
