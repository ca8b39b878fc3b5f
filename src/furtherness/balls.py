"""Balls of the furtherness semidistance and the topologies they induce.

Forward balls look outward from a point (who is within n-1 steps of me),
backward balls look inward (who reaches me within n-1 steps).  Radius-one
balls are the minimal open and the point closure, and the two ball families
regenerate the original topology and its opposite.  Taking the pointwise
maximum of the two directions gives a genuine pseudo-metric whose topology
is the join of the two.
"""

from __future__ import annotations

from .errors import SpaceError, ZeroRadiusError
from .spaces import FinSpace, OpenFamily, PointLike, _as_int, _check_points, _open_family, _point_meets


def ball(space: FinSpace, center: PointLike, radius: int, backward: bool = False) -> int:
    """Points with furtherness below ``radius`` from (or to) the center."""
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 1:
        raise ZeroRadiusError()
    x = space.index(center)
    n = space.n
    flat = space.further_flat
    out = 0
    for y in range(n):
        v = flat[y * n + x] if backward else flat[x * n + y]
        if v < radius:
            out |= 1 << y
    return out


def symmetrized_furtherness(space: FinSpace, x: PointLike, y: PointLike) -> int:
    """max of the two one-way values; symmetric and triangle-true."""
    n = space.n
    # an in-range int index is its own coercion
    i = x if type(x) is int and 0 <= x < n else space.index(x)
    j = y if type(y) is int and 0 <= y < n else space.index(y)
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
    gens = {_as_int(g, "a generator") for g in generators}
    for g in gens:
        if g & ~full:
            raise SpaceError(f"generator {g:#x} out of range for {n} points")
    return _open_family(n, _point_meets(n, gens))


def ball_topology(space: FinSpace, backward: bool = False) -> OpenFamily:
    """Topology generated by all balls of one direction.

    Radii run 1..n only; balls stabilize once the radius clears the largest
    matrix entry.  Forward regenerates the space's own topology, backward
    the opposite one.
    """
    n = space.n
    gens = [
        ball(space, x, r, backward=backward)
        for x in range(n)
        for r in range(1, n + 1)
    ]
    return generated_topology(n, gens)


def symmetrized_topology(space: FinSpace) -> OpenFamily:
    """Topology of the symmetrized distance.

    Equals the smallest topology containing both the original opens and
    their complements; on a space with distinguishable points it is the full
    power set.
    """
    n = space.n
    gens = [
        symmetrized_ball(space, x, r) for x in range(n) for r in range(1, n + 1)
    ]
    return generated_topology(n, gens)
