"""Command-line front end: check / annihilator / moment / homogenize / witness.

Every JSON report embeds the tool version, the SHA-256 of the input file, the
seed, and the tolerances in effect, and is serialized with sorted keys so a
rerun with the same config is byte-identical. Exit codes: 0 decided, 1 error,
2 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .conditions import WEAK_ZERO_TOL, run_full_check
from .dsl import format_operator, parse_system
from .errors import EllsymError, InvalidArgumentError
from .operators import annihilator, homogenize


def _read_input(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _envelope(command, input_hash, seed, tolerances, payload):
    return {
        "tool": "ellsym",
        "version": __version__,
        "command": command,
        "input_sha256": input_hash,
        "seed": seed,
        "tolerances": tolerances,
        "result": payload,
    }


def cmd_check(args):
    text, digest = _read_input(args.path)
    system = parse_system(text)
    report = run_full_check(system, tol=args.tol)
    if args.json:
        env = _envelope(
            "check", digest, args.seed, {"weak_zero_tol": args.tol}, report.to_json()
        )
        _emit(_json_dumps(env), args.out)
    else:
        lines = [f"system: n={report.n}, order={report.order}, dims={report.dims}"]
        lines.append(f"elliptic: {report.elliptic.status}")
        if report.elliptic.witness_xi is not None:
            wx = ",".join(str(x) for x in report.elliptic.witness_xi)
            kv = (
                ",".join(str(x) for x in report.elliptic.kernel_vector)
                if report.elliptic.kernel_vector
                else "?"
            )
            lines.append(f"  witness xi=({wx})  kernel vector=({kv})")
        if report.image_basis is not None:
            lines.append(f"I_A basis: {report.image_basis.to_json()}")
            lines.append(f"canceling: {report.canceling}")
        lines.append(f"K_C basis: {report.kernel_basis.to_json()}")
        lines.append(f"cocanceling: {report.cocanceling}")
        if report.cc is not None:
            w = (
                " witness=(" + ",".join(str(x) for x in report.cc.witness) + ")"
                if report.cc.witness
                else ""
            )
            lines.append(f"CC: {'holds' if report.cc.holds else 'fails'}{w}")
        if report.weak is not None:
            lines.append(
                f"weakly canceling: {report.weak.holds}"
                + (" (vacuous)" if report.weak.vacuous else "")
            )
            for e, nrm in report.weak.moments:
                lines.append(f"  |M e| = {nrm:.6e} for e=({','.join(str(x) for x in e)})")
        if report.cwc is not None:
            lines.append(
                f"CWC: {'holds' if report.cwc.holds else 'fails'}"
                + (" (vacuous)" if report.cwc.vacuous else "")
            )
        for d in report.diagnostics:
            lines.append(f"note: {d}")
        _emit("\n".join(lines) + "\n", args.out)
    return report.exit_status()


def cmd_annihilator(args):
    text, digest = _read_input(args.path)
    ann = annihilator(parse_system(text).a)
    trivial = not ann.coeffs
    if args.json:
        payload = {
            "annihilator_rows": format_operator(ann, letter="f").splitlines(),
            "trivial": trivial,
        }
        env = _envelope("annihilator", digest, args.seed, {}, payload)
        _emit(_json_dumps(env), args.out)
    else:
        note = "# not canceling: annihilator trivial\n" if trivial else ""
        _emit(note + format_operator(ann, letter="f"), args.out)
    return 0


def cmd_moment(args):
    from .quadrature import build_rule, moment_map  # the numeric layer (numpy)

    text, digest = _read_input(args.path)
    system = parse_system(text)
    rule = build_rule(system.n, args.level)
    mm = moment_map(system.a, rule)
    if args.json:
        env = _envelope(
            "moment",
            digest,
            args.seed,
            {"quad_level": args.level},
            mm.to_json(),
        )
        _emit(_json_dumps(env), args.out)
    else:
        lines = [
            f"moment map: E=R^{mm.source_dim} -> V⊙^{mm.k - mm.n} "
            f"(dim {mm.matrix.shape[0]}), levels {mm.levels}, "
            f"error estimate {mm.error_estimate:.3e}"
        ]
        for row in mm.matrix:
            lines.append("  " + "  ".join(f"{x: .9e}" for x in row))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_homogenize(args):
    text, digest = _read_input(args.path)
    system = parse_system(text)
    target = system.c if system.c is not None else system.a
    hom = homogenize(target)
    letter = "f" if system.c is not None else "u"
    if args.json:
        env = _envelope(
            "homogenize",
            digest,
            args.seed,
            {},
            {"rows": format_operator(hom, letter=letter).splitlines()},
        )
        _emit(_json_dumps(env), args.out)
    else:
        _emit(format_operator(hom, letter=letter), args.out)
    return 0


def _convert(flag, text, convert, what):
    """convert(text), or an InvalidArgumentError that names the flag."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"{flag} {text!r}: expected {what}") from None


def cmd_witness(args):
    from .witness import WitnessConfig, blowup_experiment  # the numeric layer (numpy)

    text, digest = _read_input(args.path)
    system = parse_system(text)
    e = _convert("--e", args.e, lambda v: tuple(map(Fraction, v.split(","))),
                 "comma-separated rationals") if args.e else None
    epsilons = _convert("--eps", args.eps, lambda v: [float(x) for x in v.split(",")], "comma-separated widths")
    j = None if args.j == "inf" else _convert("--j", args.j, int, "an integer or 'inf'")
    if args.mode == "constrained" and args.seed < 0:
        raise InvalidArgumentError(f"--seed {args.seed}: expected a non-negative integer for --mode constrained")
    config = WitnessConfig(
        system=system,
        epsilons=epsilons,
        e=e,
        j=j,
        grid_n=args.grid,
        seed=args.seed,
        mode=args.mode,
    )
    result = blowup_experiment(config)
    if args.json:
        env = _envelope(
            "witness",
            digest,
            args.seed,
            {key: result.config[key] for key in ("growth_factor", "flatness", "residual_tol")},
            result.to_json(),
        )
        _emit(_json_dumps(env), args.out)
    else:
        body = result.to_csv()
        body += f"# classification: {result.classification}\n"
        if result.slope is not None:
            body += (
                f"# slope: {result.slope!r}  intercept: {result.intercept!r}"
                f"  r_squared: {result.r_squared!r}\n"
            )
        for d in result.diagnostics:
            body += f"# {d}\n"
        _emit(body, args.out)
    return {"GROWING": 0, "BOUNDED": 0}.get(result.classification, 2)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellsym",
        description="Cancellation-condition analysis for constant-coefficient "
        "elliptic systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="system description file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="full condition report")
    common(p_check)
    p_check.add_argument("--tol", type=float, default=WEAK_ZERO_TOL)
    p_check.set_defaults(func=cmd_check)

    p_ann = sub.add_parser("annihilator", help="print the exact annihilator")
    common(p_ann)
    p_ann.set_defaults(func=cmd_annihilator)

    p_mom = sub.add_parser("moment", help="moment map of the operator")
    common(p_mom)
    p_mom.add_argument("--level", type=int, default=3)
    p_mom.set_defaults(func=cmd_moment)

    p_hom = sub.add_parser("homogenize", help="homogenize the constraint (or operator)")
    common(p_hom)
    p_hom.set_defaults(func=cmd_homogenize)

    p_wit = sub.add_parser("witness", help="spectral blow-up / boundedness experiment")
    common(p_wit)
    p_wit.add_argument("--e", default=None, help="direction, comma-separated rationals")
    p_wit.add_argument("--eps", default="0.4,0.2,0.1", help="widths, comma-separated")
    p_wit.add_argument("--j", default="inf", help="derivative gap j (int) or 'inf'")
    p_wit.add_argument("--grid", type=int, default=128, help="points per axis")
    p_wit.add_argument("--mode", choices=("dirac", "constrained"), default="dirac")
    p_wit.set_defaults(func=cmd_witness)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EllsymError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
