"""The four workloads: their inputs, their fixed operation lists and checks.

A workload is built by `build(name, seed, root)` and is a list of `Op`s. One
pass runs every op once, in order. `run()` is the timed part; `check(out)`
compares the output with facts computed apart from the program and
`fingerprint(out)` gives the bytes that must repeat exactly on later passes.

Operations call ellsym through module attributes (``ellsym.parse_system``),
never through names bound at set-up, so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import facts
import ladder

BUNDLED = ("divcurl_r3", "gradient_r2", "laplacian_r2", "laplacian_div_r2", "quartic_r4", "biharmonic_div_r4")
CLI_CHECKED = BUNDLED[:-1]  # biharmonic_div_r4's 10 s is measured by check-bundled
WITNESS_SEED = 20240811  # the seed of acceptance criterion 8
DIVCURL_GRID = 64
LADDER_POINTS = 4  # random points per operator for the numpy checks
CHILD_TIMEOUT_S = 120


class Op:
    def __init__(self, label, run, check, fingerprint=None):
        self.label = label
        self.run = run
        self.check = check
        self.fingerprint = fingerprint or _json_fingerprint


def _json_fingerprint(out):
    return json.dumps(out, sort_keys=True)


def _read(root, name):
    with open(os.path.join(root, "systems", f"{name}.sys")) as fh:
        return fh.read()


# -- cli-cold -------------------------------------------------------------------------


class CliCall:
    """One fresh `python -m ellsym.cli` process; output is (exit code, stdout)."""

    def __init__(self, root, argv):
        self.root = root
        self.argv = argv
        self.importtime = False  # the traced run sets it to time the imports
        self.last_stderr = ""

    def __call__(self):
        cmd = [sys.executable] + (["-X", "importtime"] if self.importtime else [])
        proc = subprocess.run(
            cmd + ["-m", "ellsym.cli"] + self.argv,
            cwd=self.root,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        self.last_stderr = proc.stderr.decode()
        return proc.returncode, proc.stdout


def _cli_check(fn):
    def check(out):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"]
        return fn(stdout.decode())

    return check


def cli_argvs():
    """The ten commands of one cli-cold pass, as (label, argv, check)."""
    out = []
    for name in CLI_CHECKED:
        out.append(
            (
                f"check {name}",
                ["check", f"systems/{name}.sys", "--json"],
                lambda text, name=name: facts.check_bundled(name, json.loads(text)["result"]),
            )
        )

    def annihilator(text):
        if facts.parse_rows(text, 2) != facts.GRADIENT_ANNIHILATOR:
            return [f"annihilator gradient_r2 reads back as a different L:\n{text}"]
        return []

    def homogenize(text):
        if facts.parse_rows(text, 3) != facts.DIVCURL_HOMOGENIZED:
            return [f"homogenize divcurl_r3 printed a different constraint:\n{text}"]
        return []

    out += [
        ("annihilator gradient_r2", ["annihilator", "systems/gradient_r2.sys"], annihilator),
        ("homogenize divcurl_r3", ["homogenize", "systems/divcurl_r3.sys"], homogenize),
        (
            "moment laplacian_r2",
            ["moment", "systems/laplacian_r2.sys", "--json"],
            lambda text: facts.check_moment_laplacian(json.loads(text)["result"]),
        ),
        (
            "witness laplacian_r2",
            ["witness", "systems/laplacian_r2.sys", "--e", "1,0", "--eps", "0.4,0.2,0.1,0.05",
             "--grid", "256", "--json"],
            lambda text: facts.check_laplacian_growth(json.loads(text)["result"]),
        ),
    ]
    return out


def cli_cold(seed, root):
    return [
        Op(label, CliCall(root, argv), _cli_check(check), fingerprint=lambda out: out)
        for label, argv, check in cli_argvs()
    ]


# -- check-bundled ----------------------------------------------------------------------


def check_bundled(seed, root):
    import ellsym

    ops = []
    for name in BUNDLED:
        text = _read(root, name)
        ops.append(
            Op(
                f"check {name}",
                lambda text=text: ellsym.run_full_check(ellsym.parse_system(text)).to_json(),
                lambda out, name=name: facts.check_bundled(name, out),
            )
        )
    return ops


# -- check-ladder -------------------------------------------------------------------------


def check_ladder(seed, root):
    import ellsym

    rng = random.Random(seed * 7919 + 1)
    ops = []
    for rung in ladder.build_ladder(seed):
        points = [tuple(rng.gauss(0, 1) for _ in range(rung.n)) for _ in range(LADDER_POINTS)]

        def run(rung=rung):
            system = ellsym.parse_system(rung.text)
            report = ellsym.run_full_check(system).to_json()
            moment = None
            if rung.k >= rung.n:
                moment = ellsym.moment_map(system.a, ellsym.build_rule(rung.n, 3)).matrix
            return report, moment

        def check(out, rung=rung, points=points):
            report, moment = out
            if report["elliptic"]["status"] == "no":
                return [f"{rung.label}: elliptic no"]
            coeffs = ellsym.annihilator(ellsym.parse_system(rung.text).a).coeffs
            return facts.check_ladder(rung, report, moment, coeffs, points)

        def fingerprint(out):
            report, moment = out
            return json.dumps(report, sort_keys=True) + repr(None if moment is None else moment.tobytes())

        ops.append(Op(rung.label, run, check, fingerprint))
    return ops


# -- witness-fft --------------------------------------------------------------------------------


def witness_fft(seed, root):
    import ellsym
    from ellsym import WitnessConfig, parse_system

    configs = [
        (
            "laplacian_r2 dirac j=inf grid 256",
            WitnessConfig(
                system=parse_system(_read(root, "laplacian_r2")),
                epsilons=[0.4, 0.2, 0.1, 0.05],
                e=(Fraction(1), Fraction(0)),
                j=None,
                grid_n=256,
                seed=WITNESS_SEED,
            ),
            facts.check_laplacian_growth,
        ),
        (
            "laplacian_div_r2 constrained j=1 grid 256",
            WitnessConfig(
                system=parse_system(_read(root, "laplacian_div_r2")),
                epsilons=[0.4, 0.2, 0.1, 0.05],
                j=1,
                grid_n=256,
                seed=WITNESS_SEED,
                mode="constrained",
            ),
            lambda out: facts.check_bounded(out, "laplacian_div_r2 witness"),
        ),
        (
            f"divcurl_r3 dirac e1 j=1 grid {DIVCURL_GRID}",
            WitnessConfig(
                system=parse_system(_read(root, "divcurl_r3")),
                epsilons=[0.4, 0.3, 0.2],
                e=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                j=1,
                grid_n=DIVCURL_GRID,
                seed=WITNESS_SEED,
            ),
            lambda out: facts.check_divcurl(out, DIVCURL_GRID),
        ),
    ]
    return [
        Op(label, lambda config=config: ellsym.blowup_experiment(config).to_json(), check)
        for label, config, check in configs
    ]


WORKLOADS = {
    "cli-cold": cli_cold,
    "check-bundled": check_bundled,
    "check-ladder": check_ladder,
    "witness-fft": witness_fft,
}


def build(name, seed, root):
    return WORKLOADS[name](seed, root)
