"""Centers, radii, and the union and quasi-center theory of subsets.

The center of a subset collects its points furthest from the boundary and
the radius is that furthest value, with infinity exactly for clopen sets
(no boundary to be far from).  The quasi variants measure against the
complement instead of the boundary.  ``union_analysis`` evaluates the
predicted center and radius of a separated union from the per-part data
and always carries the directly computed answer alongside, because the
prediction is a claim under test here, not a shortcut.

``region_report`` and ``quasi_report`` answer one subset per call and are
the definition.  ``subset_table`` answers the region questions for every
subset of a space at once, for the verifier's sweeps, which check it
against the per-query functions; it is built whole in one call.  A
sampler that needs only closures and interiors calls ``_closure_pass``,
which builds no distances.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import _kernels as K
from . import balls
from .errors import EmptyOrFullSubsetError, PreconditionViolatedError, SizeTooLargeError
from .spaces import FinSpace, Further, SetLike, _iterable, mask_indices

# a subset table holds about n * 2**n entries
SUBSET_TABLE_LIMIT = 12


class RegionReport(NamedTuple):
    """Center/radius of a subset against its own boundary (all masks)."""

    subset: int
    interior: int
    boundary: int
    center: int
    radius: Further


def region_report(space: FinSpace, subset: SetLike) -> RegionReport:
    a = space.mask(subset)
    interior = space.interior(a)
    boundary = space.closure(a) & ~interior
    center, r = K.center_radius(space.n, space.further_flat, a, boundary)
    return RegionReport(a, interior, boundary, center, r)


class QuasiReport(NamedTuple):
    """Center/radius of a subset against its complement (all masks)."""

    subset: int
    quasi_center: int
    quasi_radius: Further


def quasi_report(space: FinSpace, subset: SetLike) -> QuasiReport:
    a = space.mask(subset)
    center, r = K.center_radius(space.n, space.further_flat, a, space.full & ~a)
    return QuasiReport(a, center, r)


def _centers(targets, p2s):
    """Points of each subset furthest from its target, and that distance.

    ``targets[a]`` is the target of subset ``a``.  Follows the
    ``center_radius`` conventions: an empty subset has center 0, an empty
    target makes the whole subset central, and both give infinity.
    """
    centers = []
    radii = []
    for a, t in enumerate(targets):
        if not a or not t:
            centers.append(a)
            radii.append(math.inf)
            continue
        best = -1
        center = 0
        rest = a
        while rest:
            low = rest & -rest
            rest ^= low
            v = p2s[low.bit_length() - 1][t]
            if v > best:
                best = v
                center = low
            elif v == best:
                center |= low
        centers.append(center)
        radii.append(best)
    return tuple(centers), tuple(radii)


# distinct distance rows whose point-to-set rows are kept: every row of the
# spaces on at most five points (925 of them) fits
_P2S_ROWS = 1024


@lru_cache(maxsize=_P2S_ROWS)
def _p2s_row(distances: tuple[int, ...]) -> tuple[Further, ...]:
    """The distance from one point to every subset, indexed by mask, from
    that point's row of the distance matrix, which is all it depends on.

    A set s gains point x at distance ``min(row[s], distances[x])``.  The
    corpus repeats rows across spaces (925 distinct among the 36,226 rows
    of the spaces on at most five points), so the rows are shared through
    a cache of the last ``_P2S_ROWS`` distinct ones.  At most
    ``_P2S_ROWS * 2**SUBSET_TABLE_LIMIT`` entries are held, 4,194,304
    pointers or about 34 MB of tuples in the worst case, and under 0.5 MB,
    keys included, over the spaces on at most five points.
    """
    row = [math.inf]
    for v in distances:
        row += [r if r < v else v for r in row]
    return tuple(row)


class SubsetTable(NamedTuple):
    """Region data of every subset of one space, indexed by mask.

    ``closure[s]``, ``interior[s]``, ``boundary[s]``, ``center[s]`` and
    ``radius[s]`` equal the fields of ``region_report(space, s)`` (with the
    closure added), and ``p2s[x][t]`` is ``point_to_set(space, x, t)``;
    infinity is ``math.inf`` throughout.
    """

    closure: tuple[int, ...]
    interior: tuple[int, ...]
    boundary: tuple[int, ...]
    p2s: tuple[tuple[Further, ...], ...]
    center: tuple[int, ...]
    radius: tuple[Further, ...]


def _closure_pass(space: FinSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The closure and the interior of every subset of ``space``, indexed
    by mask, in one pass over all 2**n subsets, with no distances.

    The subsets of the first x + 1 points are those of the first x points,
    without and with point x, so a set s gains x with closure
    ``closure[s] | closure({x})``.  Interiors are complements of closures
    of complements.  Raises ``SizeTooLargeError`` above
    ``SUBSET_TABLE_LIMIT`` points, before anything is allocated.
    """
    n = space.n
    if n > SUBSET_TABLE_LIMIT:
        raise SizeTooLargeError(n, SUBSET_TABLE_LIMIT, "subset table")
    full = space.full
    closure = [0]
    for point in space.point_closures:
        closure += [c | point for c in closure]
    # s ranges upward while full ^ s ranges downward
    return tuple(closure), tuple(full ^ c for c in reversed(closure))


def subset_table(space: FinSpace) -> SubsetTable:
    """The :class:`SubsetTable` of ``space``, built whole on the first call
    and kept on the space object, as its distance matrix is; the one table
    kept.  Each point's ``p2s`` row comes from the cache of ``_p2s_row``,
    shared by every space with the same distance row.  Raises
    ``SizeTooLargeError`` above ``SUBSET_TABLE_LIMIT`` points, before
    anything is allocated."""
    table = space.__dict__.get("_subset_table")
    if table is None:
        closure, interior = _closure_pass(space)
        boundary = tuple(c & ~i for c, i in zip(closure, interior))
        n = space.n
        flat = space.further_flat
        p2s = tuple(_p2s_row(flat[y * n : (y + 1) * n]) for y in range(n))
        # one _centers pass gives the centers and the radii
        table = SubsetTable(closure, interior, boundary, p2s, *_centers(boundary, p2s))
        space.__dict__["_subset_table"] = table
    return table


def are_separated(space: FinSpace, first: SetLike, second: SetLike) -> bool:
    """Neither set meets the closure of the other."""
    a = space.mask(first)
    b = space.mask(second)
    return not (a & space.closure(b)) and not (space.closure(a) & b)


class UnionAnalysis(NamedTuple):
    """Predicted versus direct center/radius of a separated union.

    ``tilde_sets[j]`` holds the centers of input j sitting closer to some
    other input's boundary than their own radius; those drop out of the
    union's center.  ``dominant`` indexes the inputs of maximal radius whose
    centers survive that pruning.  When any survivors exist the union's
    center is exactly their union (case ``*-dominates``); otherwise the
    union's radius drops strictly below the max (case ``*-collapses``) and
    only the direct computation answers.
    """

    inputs: tuple[int, ...]
    reports: tuple[RegionReport, ...]
    tilde_sets: tuple[int, ...]
    dominant: tuple[int, ...]
    case: str
    predicted_center: Optional[int]
    predicted_radius: Optional[Further]
    direct: RegionReport


def union_analysis(space: FinSpace, subsets: Sequence[SetLike]) -> UnionAnalysis:
    subsets = _iterable(subsets, "the subsets must be an iterable of point sets, got {!r}")
    masks = [space.mask(s) for s in subsets]
    if not masks:
        raise PreconditionViolatedError("at least one subset is required")
    # each part's report serves the clopen test, which a part without
    # boundary fails, and the separation test, through its closure
    reports = []
    for j, a in enumerate(masks):
        if not a:
            raise PreconditionViolatedError(f"subset #{j} is empty")
        rep = region_report(space, a)
        if not rep.boundary:
            raise PreconditionViolatedError(
                f"subset #{j} {{{','.join(space.members(a))}}} is clopen"
            )
        reports.append(rep)
    closures = [rep.interior | rep.boundary for rep in reports]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & closures[j] or closures[i] & masks[j]:
                raise PreconditionViolatedError(
                    f"subsets #{i} and #{j} are not separated"
                )

    # radii are finite here: every part has a boundary
    n = space.n
    flat = space.further_flat
    top = max(r.radius for r in reports)
    tilde = []
    for j, rep in enumerate(reports):
        t = 0
        for c in mask_indices(rep.center):
            for i, other in enumerate(reports):
                if i == j:
                    continue
                if K.point_to_set(n, flat, c, other.boundary) < rep.radius:
                    t |= 1 << c
                    break
        tilde.append(t)

    dominant = tuple(
        j
        for j, rep in enumerate(reports)
        if rep.radius == top and rep.center & ~tilde[j]
    )
    predicted = 0
    for j in dominant:
        predicted |= reports[j].center & ~tilde[j]

    two = len(masks) == 2
    radii_tie = two and reports[0].radius == reports[1].radius
    if predicted:
        if two:
            case = "tie-dominates" if radii_tie else "max-dominates"
        else:
            case = "dominant-union"
        predicted_center: Optional[int] = predicted
        predicted_radius: Optional[Further] = top
    else:
        if two:
            case = "tie-collapses" if radii_tie else "max-collapses"
        else:
            case = "direct-only"
        predicted_center = None
        predicted_radius = None

    union = 0
    for a in masks:
        union |= a
    direct = region_report(space, union)
    return UnionAnalysis(
        inputs=tuple(masks),
        reports=tuple(reports),
        tilde_sets=tuple(tilde),
        dominant=dominant,
        case=case,
        predicted_center=predicted_center,
        predicted_radius=predicted_radius,
        direct=direct,
    )


class BallEntry(NamedTuple):
    """One largest contained forward ball; ``contained`` marks nesting."""

    center: int
    radius: int
    ball: int
    contained: bool


def largest_forward_balls(space: FinSpace, subset: SetLike) -> tuple[BallEntry, ...]:
    """Largest forward balls inside a proper nonempty subset.

    A ball of radius r around x stays inside the subset exactly when r is at
    most the furtherness from x to the complement, so the maximal radius is
    the quasi-radius and the admissible centers are the quasi-center.  Balls
    strictly inside a sibling ball are flagged rather than dropped; radius
    maximality and inclusion maximality genuinely differ.
    """
    a = space.mask(subset)
    if not a or a == space.full:
        raise EmptyOrFullSubsetError()
    _, center, radius = quasi_report(space, a)
    found = [(x, balls.ball(space, x, radius) if radius else 0) for x in mask_indices(center)]
    out = []
    for x, m in found:
        nested = any(m != other and not (m & ~other) for _, other in found)
        out.append(BallEntry(center=x, radius=radius, ball=m, contained=nested))
    return tuple(out)
