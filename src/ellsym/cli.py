"""Command-line front end: check / annihilator / moment / homogenize / witness.

Every JSON report embeds the tool version, the SHA-256 of the input file, the
seed, and the tolerances in effect, and is serialized with sorted keys so a
rerun with the same config is byte-identical. Exit codes: 0 decided, 1 error
(a usage error included), 2 inconclusive.
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


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are InvalidArgumentError (exit 1)."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _read_system(path):
    """The parsed system file and the SHA-256 of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_system(data.decode("utf-8")), hashlib.sha256(data).hexdigest()


def _emit(args, digest, tolerances, payload, text):
    """Write `text`, or with --json the report envelope around `payload`, to
    --out or standard output."""
    if args.json:
        envelope = {
            "tool": "ellsym",
            "version": __version__,
            "command": args.command,
            "input_sha256": digest,
            "seed": args.seed,
            "tolerances": tolerances,
            "result": payload,
        }
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vector(v):
    """The entries of v, comma-separated, as the text report prints a vector."""
    return ",".join(map(str, v))


def cmd_check(args):
    system, digest = _read_system(args.path)
    report = run_full_check(system)
    lines = [f"system: n={report.n}, order={report.order}, dims={report.dims}"]
    lines.append(f"elliptic: {report.elliptic.status}")
    if report.elliptic.witness_xi is not None:
        kv = _vector(report.elliptic.kernel_vector) if report.elliptic.kernel_vector else "?"
        lines.append(f"  witness xi=({_vector(report.elliptic.witness_xi)})  kernel vector=({kv})")
    if report.image_basis is not None:
        lines.append(f"I_A basis: {report.image_basis.to_json()}")
        lines.append(f"canceling: {report.canceling}")
    lines.append(f"K_C basis: {report.kernel_basis.to_json()}")
    lines.append(f"cocanceling: {report.cocanceling}")
    if report.cc is not None:
        w = f" witness=({_vector(report.cc.witness)})" if report.cc.witness else ""
        lines.append(f"CC: {'holds' if report.cc.holds else 'fails'}{w}")
    if report.weak is not None:
        lines.append(
            f"weakly canceling: {report.weak.holds}"
            + (" (vacuous)" if report.weak.vacuous else "")
        )
        for e, nrm in report.weak.moments:
            lines.append(f"  |M e| = {nrm:.6e} for e=({_vector(e)})")
    if report.cwc is not None:
        lines.append(
            f"CWC: {'holds' if report.cwc.holds else 'fails'}"
            + (" (vacuous)" if report.cwc.vacuous else "")
        )
    for d in report.diagnostics:
        lines.append(f"note: {d}")
    _emit(args, digest, {"weak_zero_tol": WEAK_ZERO_TOL}, report.to_json(), "\n".join(lines) + "\n")
    return report.exit_status()


def cmd_annihilator(args):
    system, digest = _read_system(args.path)
    ann = annihilator(system.a)
    rows = format_operator(ann, letter="f")
    trivial = ann.symbol().is_zero()
    note = "# not canceling: annihilator trivial\n" if trivial else ""
    payload = {"annihilator_rows": rows.splitlines(), "trivial": trivial}
    _emit(args, digest, {}, payload, note + rows)
    return 0


def cmd_moment(args):
    from .quadrature import build_rule, moment_map  # the numeric layer (numpy)

    system, digest = _read_system(args.path)
    rule = build_rule(system.n, args.level)
    mm = moment_map(system.a, rule)
    how = ("exact (isotropic)" if mm.method == "isotropic"
           else f"levels {mm.levels}, error estimate {mm.error_estimate:.3e}")
    lines = [f"moment map: E=R^{mm.matrix.shape[1]} -> V⊙^{mm.k - mm.n} (dim {mm.matrix.shape[0]}), {how}"]
    for row in mm.matrix:
        lines.append("  " + "  ".join(f"{x: .9e}" for x in row))
    _emit(args, digest, {"quad_level": args.level}, mm.to_json(), "\n".join(lines) + "\n")
    return 0


def cmd_homogenize(args):
    system, digest = _read_system(args.path)
    target = system.c if system.c is not None else system.a
    hom = homogenize(target)
    letter = "f" if system.c is not None else "u"
    rows = format_operator(hom, letter=letter)
    _emit(args, digest, {}, {"rows": rows.splitlines()}, rows)
    return 0


def _convert(flag, text, convert, what):
    """convert(text), or an InvalidArgumentError that names the flag."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"{flag} {text!r}: expected {what}") from None


def cmd_witness(args):
    from .witness import WitnessConfig, blowup_experiment  # the numeric layer (numpy)

    system, digest = _read_system(args.path)
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
    body = result.to_csv()
    body += f"# classification: {result.classification}\n"
    if result.slope is not None:
        body += (
            f"# slope: {result.slope!r}  intercept: {result.intercept!r}"
            f"  r_squared: {result.r_squared!r}\n"
        )
    for d in result.diagnostics:
        body += f"# {d}\n"
    tolerances = {key: result.config[key] for key in ("growth_factor", "flatness", "residual_tol")}
    _emit(args, digest, tolerances, result.to_json(), body)
    return {"GROWING": 0, "BOUNDED": 0}.get(result.classification, 2)


def build_parser():
    parser = _ArgumentParser(
        prog="ellsym",
        description="Cancellation-condition analysis for constant-coefficient "
        "elliptic systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(seed=0)  # every report records the seed; only `witness` reads one
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="system description file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", default=None, help="write output to this path")

    p_check = sub.add_parser("check", help="full condition report")
    common(p_check)
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
    p_wit.add_argument("--seed", type=int, default=0, help="seed of the constrained base field")
    p_wit.set_defaults(func=cmd_witness)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (EllsymError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
