"""Command line front end.

Exit codes: 0 success, 1 input error (bad file, bad labels, bad flags),
2 property violation from the verifier.  Click's default of exiting with
2 on usage errors would collide with that contract, so the entry point
runs the group in non-standalone mode and remaps.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .balls import ball
from .distance import furtherness_matrix
from .dot import export_dot
from .errors import SpaceError
from .generate import count_topologies, enumerate_topologies
from .order import core as core_of
from .order import kolmogorov_quotient, product
from .regions import quasi_report, region_report, union_analysis
from .serialization import further_to_json, parse_space, serialize_space
from .spaces import FinSpace
from .verify import PROPERTIES, VerifyOptions, run_all


def _load(path: str) -> FinSpace:
    return parse_space(Path(path).read_text())


def _parse_subset(space: FinSpace, text: str) -> int:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    mask = 0
    for lab in labels:
        mask |= 1 << space.index(lab)
    return mask


def _members(space: FinSpace, mask: int) -> list:
    return list(space.members(mask))


def _region_json(space: FinSpace, rep) -> dict:
    return {
        "subset": _members(space, rep.subset),
        "interior": _members(space, rep.interior),
        "boundary": _members(space, rep.boundary),
        "center": _members(space, rep.center),
        "radius": further_to_json(rep.radius),
    }


@click.group()
def cli():
    """Finite topological spaces and their furtherness distance."""


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file):
    """Check that FILE holds a valid space document."""
    _load(file)
    click.echo("valid")


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="emit JSON instead of a table")
def matrix(file, as_json):
    """Furtherness matrix with row and column labels."""
    space = _load(file)
    m = furtherness_matrix(space)
    if as_json:
        click.echo(json.dumps({"points": list(space.labels), "matrix": [list(r) for r in m.rows]}))
        return
    click.echo(str(m))


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--subset", required=True, help="comma-separated point labels")
def region(file, subset):
    """Interior, boundary, center, and radius of a subset."""
    space = _load(file)
    rep = region_report(space, _parse_subset(space, subset))
    click.echo(json.dumps(_region_json(space, rep), indent=2))


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--subset", required=True, help="comma-separated point labels")
def quasi(file, subset):
    """Quasi-center and quasi-radius of a subset against its complement."""
    space = _load(file)
    rep = quasi_report(space, _parse_subset(space, subset))
    click.echo(
        json.dumps(
            {
                "subset": _members(space, rep.subset),
                "quasi_center": _members(space, rep.quasi_center),
                "quasi_radius": further_to_json(rep.quasi_radius),
            },
            indent=2,
        )
    )


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--subsets", required=True, help='pipe-separated subsets, e.g. "d|b" or "a,b|c"')
def union(file, subsets):
    """Predicted versus direct center/radius of a separated union."""
    space = _load(file)
    parts = [_parse_subset(space, chunk) for chunk in subsets.split("|")]
    ana = union_analysis(space, parts)
    click.echo(
        json.dumps(
            {
                "inputs": [_members(space, p) for p in ana.inputs],
                "reports": [_region_json(space, rep) for rep in ana.reports],
                "tilde_sets": [_members(space, t) for t in ana.tilde_sets],
                "dominant": list(ana.dominant),
                "case": ana.case,
                "predicted_center": None
                if ana.predicted_center is None
                else _members(space, ana.predicted_center),
                "predicted_radius": further_to_json(ana.predicted_radius),
                "direct": _region_json(space, ana.direct),
            },
            indent=2,
        )
    )


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--center", required=True, help="point label")
@click.option("--radius", required=True, type=int)
@click.option("--backward", is_flag=True, help="use the reversed distance")
def balls(file, center, radius, backward):
    """Members of one forward or backward ball."""
    space = _load(file)
    mask = ball(space, center, radius, backward=backward)
    click.echo(
        json.dumps(
            {
                "center": center,
                "radius": radius,
                "backward": backward,
                "ball": _members(space, mask),
            }
        )
    )


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def quotient(file):
    """Kolmogorov quotient as a space document."""
    click.echo(serialize_space(kolmogorov_quotient(_load(file)).space))


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def opposite(file):
    """Opposite topology (opens become closeds) as a space document."""
    click.echo(serialize_space(_load(file).opposite()))


@cli.command(name="core")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def core_cmd(file):
    """Core after quotienting and beat-point removal, as a space document."""
    click.echo(serialize_space(core_of(_load(file))))


@cli.command(name="product")
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
def product_cmd(file1, file2):
    """Product space of two documents, row-major point order."""
    click.echo(serialize_space(product([_load(file1), _load(file2)])))


@cli.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--lattice", is_flag=True, help="cover graph of the open-set family")
def dot(file, lattice):
    """DOT diagram: Hasse order of the quotient, or the open-set lattice."""
    click.echo(export_dot(_load(file), "lattice" if lattice else "hasse"), nl=False)


@cli.command(name="enumerate")
@click.option("--n", "n", required=True, type=int)
@click.option("--t0", "t0_only", is_flag=True, help="only Kolmogorov spaces")
@click.option("--count-only", is_flag=True)
def enumerate_cmd(n, t0_only, count_only):
    """Every labeled topology on n points, one JSON document per line."""
    if count_only:
        click.echo(str(count_topologies(n, t0_only=t0_only)))
        return
    for space in enumerate_topologies(n, t0_only=t0_only):
        click.echo(serialize_space(space))


@cli.command()
@click.option("--max-n", default=4, show_default=True, type=int)
@click.option("--samples", default=1000, show_default=True, type=int)
@click.option("--sample-n", default=6, show_default=True, type=int)
@click.option("--seed", default=1, show_default=True, type=int)
@click.option(
    "--jobs", default=1, show_default=True, type=int,
    help="worker processes for sweeps, at most one per CPU",
)
@click.option("--prop", "props", multiple=True, help="run one property (repeatable); default all")
def verify(max_n, samples, sample_n, seed, jobs, props):
    """Run the theorem checkers; exit 2 if any property fails."""
    opts = VerifyOptions(max_n=max_n, samples=samples, sample_n=sample_n, seed=seed, jobs=jobs)
    names = props or tuple(PROPERTIES)
    for name in names:
        if name not in PROPERTIES:
            known = ", ".join(sorted(PROPERTIES))
            raise click.UsageError(f"unknown property {name!r}; known: {known}")
    reports = run_all(names, opts)
    for report in reports:
        click.echo(json.dumps(report.to_json()))
    if not all(report.passed for report in reports):
        sys.exit(2)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (SpaceError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
