"""Command line front end.

Exit codes: 0 success, 1 input error (bad file, bad labels, bad flags),
2 property violation from the verifier.  ``argparse`` exits with 2 on a
usage error, which would collide with that contract, so the parser's
``error`` exits with 1 instead.  Options must be spelled out in full.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# the package registers its submodules lazily, so binding one here runs
# none of its code: each command executes only the modules it reads
from . import balls, distance, dot, generate, order, regions, serialization, verify
from .errors import DocumentSyntaxError, SpaceError, UnknownPropertyError
from .spaces import FinSpace


def _load(path: str) -> FinSpace:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise DocumentSyntaxError(f"not valid UTF-8: {e}") from None
    return serialization.parse_space(text)


def _parse_subset(space: FinSpace, text: str) -> int:
    """The comma-separated labels of ``text``: a part is taken as given when
    it is a label, and with its surrounding spaces stripped otherwise."""
    parts = (p if p in space.labels else p.strip() for p in text.split(","))
    return space.mask(part for part in parts if part)


def _region_json(space: FinSpace, rep) -> dict:
    return {
        "subset": space.members(rep.subset),
        "interior": space.members(rep.interior),
        "boundary": space.members(rep.boundary),
        "center": space.members(rep.center),
        "radius": serialization.further_to_json(rep.radius),
    }


def validate(args):
    """Check that FILE holds a valid space document."""
    _load(args.file)
    print("valid")


def matrix(args):
    """Furtherness matrix with row and column labels."""
    space = _load(args.file)
    m = distance.furtherness_matrix(space)
    if args.as_json:
        print(json.dumps({"points": space.labels, "matrix": m.rows}))
        return
    print(m)


def region(args):
    """Interior, boundary, center, and radius of a subset."""
    space = _load(args.file)
    rep = regions.region_report(space, _parse_subset(space, args.subset))
    print(json.dumps(_region_json(space, rep), indent=2))


def quasi(args):
    """Quasi-center and quasi-radius of a subset against its complement."""
    space = _load(args.file)
    rep = regions.quasi_report(space, _parse_subset(space, args.subset))
    print(
        json.dumps(
            {
                "subset": space.members(rep.subset),
                "quasi_center": space.members(rep.quasi_center),
                "quasi_radius": serialization.further_to_json(rep.quasi_radius),
            },
            indent=2,
        )
    )


def union(args):
    """Predicted versus direct center/radius of a separated union."""
    space = _load(args.file)
    parts = [_parse_subset(space, chunk) for chunk in args.subsets.split("|")]
    ana = regions.union_analysis(space, parts)
    print(
        json.dumps(
            {
                "inputs": [space.members(p) for p in ana.inputs],
                "reports": [_region_json(space, rep) for rep in ana.reports],
                "tilde_sets": [space.members(t) for t in ana.tilde_sets],
                "dominant": ana.dominant,
                "case": ana.case,
                "predicted_center": None
                if ana.predicted_center is None
                else space.members(ana.predicted_center),
                "predicted_radius": serialization.further_to_json(ana.predicted_radius),
                "direct": _region_json(space, ana.direct),
            },
            indent=2,
        )
    )


def balls_cmd(args):
    """Members of one forward or backward ball."""
    space = _load(args.file)
    mask = balls.ball(space, args.center, args.radius, backward=args.backward)
    print(
        json.dumps(
            {
                "center": args.center,
                "radius": args.radius,
                "backward": args.backward,
                "ball": space.members(mask),
            }
        )
    )


def quotient(args):
    """Kolmogorov quotient as a space document."""
    print(serialization.serialize_space(order.kolmogorov_quotient(_load(args.file)).space))


def opposite(args):
    """Opposite topology (opens become closeds) as a space document."""
    print(serialization.serialize_space(_load(args.file).opposite()))


def core_cmd(args):
    """Core after quotienting and beat-point removal, as a space document."""
    print(serialization.serialize_space(order.core(_load(args.file))))


def product_cmd(args):
    """Product space of two documents, row-major point order."""
    space = order.product([_load(args.file1), _load(args.file2)])
    print(serialization.serialize_space(space))


def dot_cmd(args):
    """DOT diagram: Hasse order of the quotient, or the open-set lattice."""
    print(dot.export_dot(_load(args.file), "lattice" if args.lattice else "hasse"), end="")


def enumerate_cmd(args):
    """Every labeled topology on n points, one JSON document per line."""
    if args.count_only:
        print(generate.count_topologies(args.n, t0_only=args.t0))
        return
    for space in generate.enumerate_topologies(args.n, t0_only=args.t0):
        print(serialization.serialize_space(space))


def verify_cmd(args):
    """Run the theorem checkers; exit 2 if any property fails."""
    fields = verify.VerifyOptions._fields
    opts = verify.VerifyOptions._make(getattr(args, field) for field in fields)
    reports = verify.run_all(args.props, opts)  # None: the whole registry
    for report in reports:
        print(json.dumps(report.to_json()))
    if not all(report.passed for report in reports):
        sys.exit(2)


def _property(name: str) -> str:
    """A ``--prop`` value: the name of a registered property."""
    # read here, not at import: the first read runs verify, so no other
    # command runs it
    if name not in verify.PROPERTIES:
        raise argparse.ArgumentTypeError(str(UnknownPropertyError(name, verify.PROPERTIES)))
    return name


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_SUBSET = dict(
    required=True,
    help="comma-separated point labels; a label that holds ',' cannot be named",
)

# name -> (handler, positional file arguments, options as (flag, add_argument keywords))
COMMANDS = {
    "validate": (validate, ("file",), ()),
    "matrix": (matrix, ("file",), (
        ("--json", dict(dest="as_json", action="store_true", help="emit JSON instead of a table")),
    )),
    "region": (region, ("file",), (("--subset", _SUBSET),)),
    "quasi": (quasi, ("file",), (("--subset", _SUBSET),)),
    "union": (union, ("file",), (
        ("--subsets", dict(required=True, help=(
            'pipe-separated subsets, e.g. "d|b" or "a,b|c"; a label that holds'
            " '|' or ',' cannot be named"
        ))),
    )),
    "balls": (balls_cmd, ("file",), (
        ("--center", dict(required=True, help="point label")),
        ("--radius", dict(required=True, type=int)),
        ("--backward", dict(action="store_true", help="use the reversed distance")),
    )),
    "quotient": (quotient, ("file",), ()),
    "opposite": (opposite, ("file",), ()),
    "core": (core_cmd, ("file",), ()),
    "product": (product_cmd, ("file1", "file2"), ()),
    "dot": (dot_cmd, ("file",), (
        ("--lattice", dict(action="store_true", help="cover graph of the open-set family")),
    )),
    "enumerate": (enumerate_cmd, (), (
        ("--n", dict(required=True, type=int)),
        ("--t0", dict(action="store_true", help="only Kolmogorov spaces")),
        ("--count-only", dict(action="store_true")),
    )),
    # each default is its VerifyOptions field's, set when the parser is built
    "verify": (verify_cmd, (), (
        ("--max-n", dict(type=int, help="default: %(default)s")),
        ("--samples", dict(type=int, help="default: %(default)s")),
        ("--sample-n", dict(type=int, help="default: %(default)s")),
        ("--seed", dict(type=int, help="default: %(default)s")),
        ("--jobs", dict(
            type=int,
            help="worker processes for sweeps, at most one per CPU (default: %(default)s)",
        )),
        ("--prop", dict(
            dest="props", action="append", type=_property, metavar="NAME",
            help="run one property (repeatable); default all",
        )),
    )),
}


def _parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the commands ``names``, by default all of them."""
    parser = _Parser(
        prog="furtherness",
        description="Finite topological spaces and their furtherness distance.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in names:
        run, files, options = COMMANDS[name]
        sub = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        for file in files:
            sub.add_argument(file, metavar=file.upper())
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        # reading the defaults runs verify.  main builds the parser of every
        # command only when the first argument names none, and that parser
        # never parses a verify command line, so it skips them
        if run is verify_cmd and len(names) == 1:
            sub.set_defaults(**verify.VerifyOptions()._asdict())
        sub.set_defaults(run=run)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the named command's parser: each costs about 0.3 ms, most
    # of it in argparse's message translation lookups
    parser = _parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        try:
            args = parser.parse_args(argv)  # exits after --help
            if args.command is None:
                parser.print_help()
            else:
                args.run(args)
        finally:
            # a closed stdout shows when its buffer is written out
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: end quietly, with stdout on the null device
        # so that the interpreter's flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (SpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
