"""Balls of the furtherness semidistance and the topologies they induce.

Forward balls look outward from a point (who is within n-1 steps of me),
backward balls look inward (who reaches me within n-1 steps).  The balls of
one center are the levels of its matrix row (column, backward), built in
one pass by ``_ball_levels``, which every ball reader reads.  Radius-one
balls are the minimal open and the point closure, and the two ball families
regenerate the original topology and its opposite.  Taking the pointwise
maximum of the two directions gives a genuine pseudo-metric whose topology
is the join of the two.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import SpaceError, ZeroRadiusError
from .spaces import (
    FinSpace,
    OpenFamily,
    PointLike,
    _as_int,
    _check_points,
    _iterable,
    _open_family,
    _point_meets,
)


def _ball_levels(space: FinSpace, x: int, backward: bool = False) -> list[int]:
    """``levels[r - 1]`` is the ball of radius r around the point index x,
    for r = 1..n: each point goes in the bucket of its entry in x's matrix
    row (column, backward), and a level is the union of the buckets below
    it.  Entries run 0..n-1, so n levels cover every radius."""
    n = space.n
    flat = space.further_flat
    line = flat[x::n] if backward else flat[x * n : x * n + n]
    buckets = [0] * n
    for y, v in enumerate(line):
        buckets[v] |= 1 << y
    return list(accumulate(buckets, int.__or__))


def ball(space: FinSpace, center: PointLike, radius: int, backward: bool = False) -> int:
    """Points with furtherness below ``radius`` from (or to) the center."""
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 1:
        raise ZeroRadiusError()
    return _ball_levels(space, space.index(center), backward)[min(radius, space.n) - 1]


def symmetrized_furtherness(space: FinSpace, x: PointLike, y: PointLike) -> int:
    """max of the two one-way values; symmetric and triangle-true."""
    n = space.n
    i = space.index(x)
    j = space.index(y)
    flat = space.further_flat
    there = flat[i * n + j]
    back = flat[j * n + i]
    return there if there > back else back


def symmetrized_ball(space: FinSpace, center: PointLike, radius: int) -> int:
    """Ball of the symmetrized distance; the two directed balls intersected."""
    return ball(space, center, radius) & ball(space, center, radius, backward=True)


def generated_topology(n: int, generators) -> OpenFamily:
    """The smallest topology on n points containing every generator.

    A finite topology is the unions of its minimal opens, and the minimal
    open of x is the intersection of the generators that contain x, or all
    n points when none does.  Refused past ``OPEN_FAMILY_LIMIT`` opens, as
    every open family is.  A number of points that is not an ``int`` of at
    least 1, or a generator that is not an ``int`` mask of the n points,
    raises ``SpaceError``.
    """
    _check_points(n)
    full = (1 << n) - 1
    generators = _iterable(generators, "the generators must be an iterable of masks, got {!r}")
    gens = {_as_int(g, "a generator") for g in generators}
    for g in gens:
        if g & ~full:
            raise SpaceError(f"generator {g:#x} out of range for {n} points")
    return _open_family(_point_meets(n, gens))


def ball_topology(space: FinSpace, backward: bool = False) -> OpenFamily:
    """Topology generated by all balls of one direction.

    Radii run 1..n only; balls stabilize once the radius clears the largest
    matrix entry.  Forward regenerates the space's own topology, backward
    the opposite one.
    """
    n = space.n
    return generated_topology(n, [b for x in range(n) for b in _ball_levels(space, x, backward)])


def symmetrized_topology(space: FinSpace) -> OpenFamily:
    """Topology of the symmetrized distance.

    Equals the smallest topology containing both the original opens and
    their complements; on a space with distinguishable points it is the full
    power set.
    """
    n = space.n
    gens = [
        f & b
        for x in range(n)
        for f, b in zip(_ball_levels(space, x), _ball_levels(space, x, True))
    ]
    return generated_topology(n, gens)
