"""Command-line interface.

Subcommands:

* ``verify [--filter PREFIX] [--format json|markdown] [--registry PATH]``
  runs the claim registry and prints a report; exit code 0 when every claim
  passes, 1 when any fails, 2 on usage errors.
* ``eval --profile LABEL --expr TEXT`` parses an intersection expression and
  prints the expanded class, plus the intersection number when the class
  has the top degree 2n-1.
* ``surface curves --degree D [--conics]`` prints (-1)-curve or conic
  classes as a JSON array of integer vectors.
* ``vmrt table`` prints the dual-VMRT class table as JSON rows with
  per-row provenance notes.
* ``schur dim --partition a,b,c --dim N`` prints a Schur functor dimension.

Each subcommand imports the layers it uses when it runs.
"""

from __future__ import annotations

import argparse
import sys

USAGE_ERROR = 2


def _ascii_int(text: str) -> int:
    """A non-negative integer in ASCII digits; int() would also read other
    Unicode digits, "_", signs and spaces."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import claims
    results = claims.run_claims(args.filter,
                                claims.load_registry(args.registry))
    sys.stdout.write(claims.emit(results, args.format))
    return 1 if any(r.status == "fail" for r in results) else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import chow, exprparse, profiles
    try:
        profile = profiles.get_profile(args.profile)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    cls = exprparse.parse_expr(profile, args.expr)
    degree = cls.homogeneous_degree()
    print(f"class: {exprparse.format_class(profile, cls)}")
    top = 2 * profile.dim - 1
    if degree == top or degree is None:
        print(f"value: {chow.fraction_str(chow.eval_top(profile, cls))}")
    else:
        print(f"degree: {degree} (intersection numbers need degree {top})")
    return 0


def _cmd_surface_curves(args: argparse.Namespace) -> int:
    import json
    from . import surfaces
    lattice = surfaces.surface_lattice(_ascii_int(args.degree))
    if args.conics:
        classes = surfaces.conic_classes(lattice)
    else:
        classes = surfaces.minus_one_curves(lattice)
    print(json.dumps([list(c.coeffs) for c in classes]))
    return 0


def _cmd_vmrt_table(args: argparse.Namespace) -> int:
    import json
    from . import threefolds
    rows = threefolds.vmrt_table()
    print(json.dumps([rows[d].to_json() for d in sorted(rows)], indent=2))
    return 0


def _cmd_schur_dim(args: argparse.Namespace) -> int:
    from . import schur
    parts = [_ascii_int(p) for p in args.partition.split(",") if p != ""]
    print(schur.schur_dim(parts, _ascii_int(args.dim)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautclass",
        description="Exact intersection numbers on projectivised tangent "
                    "bundles, del Pezzo curve enumeration and claim "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the claim registry")
    verify.add_argument("--filter", default=None, metavar="PREFIX",
                        help="only run claims whose id starts with PREFIX")
    verify.add_argument("--format", choices=("json", "markdown"),
                        default="json")
    verify.add_argument("--registry", default=None, metavar="PATH",
                        help="override the built-in registry document")
    verify.set_defaults(func=_cmd_verify)

    evaluate = sub.add_parser("eval", help="evaluate a class expression")
    evaluate.add_argument("--profile", required=True, metavar="LABEL")
    evaluate.add_argument("--expr", required=True, metavar="TEXT")
    evaluate.set_defaults(func=_cmd_eval)

    surface = sub.add_parser("surface", help="del Pezzo surface data")
    surface_sub = surface.add_subparsers(dest="surface_command", required=True)
    curves = surface_sub.add_parser("curves", help="list curve classes")
    curves.add_argument("--degree", required=True)
    curves.add_argument("--conics", action="store_true",
                        help="list conic classes instead of (-1)-curves")
    curves.set_defaults(func=_cmd_surface_curves)

    vmrt = sub.add_parser("vmrt", help="del Pezzo threefold data")
    vmrt_sub = vmrt.add_subparsers(dest="vmrt_command", required=True)
    table = vmrt_sub.add_parser("table", help="dual-VMRT class table")
    table.set_defaults(func=_cmd_vmrt_table)

    schur = sub.add_parser("schur", help="Schur functor calculations")
    schur_sub = schur.add_subparsers(dest="schur_command", required=True)
    dim = schur_sub.add_parser("dim", help="dimension of a Schur functor")
    dim.add_argument("--partition", required=True, metavar="a,b,c")
    dim.add_argument("--dim", required=True, metavar="N")
    dim.set_defaults(func=_cmd_schur_dim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
