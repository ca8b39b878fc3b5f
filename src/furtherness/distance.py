"""The furtherness distance and its matrix.

``furtherness(space, x, y)`` measures how far y is from x, asymmetrically:
it is the least position at which y can appear in a chain of opens that
starts at the minimal open of x and grows with no open strictly between
consecutive steps.  Equivalently it counts the indistinguishability classes
that the minimal open of y adds over the one of x.  The value is 0 exactly
when y lies in the minimal open of x, so rows of zeros in the matrix list
minimal opens and columns of zeros list point closures.

On a space where distinct points are topologically distinguishable this is
an asymmetric metric; in general only the separation axiom fails.  Set-level
variants take the minimum over the target (and source) set, with infinity
for an empty side.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernels as K
from .errors import SpaceError
from .spaces import FinSpace, Frozen, Further, PointLike, SetLike, _as_ints, _iterable


def furtherness(space: FinSpace, x: PointLike, y: PointLike) -> int:
    i = space.index(x)
    j = space.index(y)
    return space.further_flat[i * space.n + j]


def furtherness_to_set(space: FinSpace, source: SetLike, target: SetLike) -> Further:
    """min over the target (and over the source when it is a set).

    Either side empty gives infinity; there is nothing to be close to.
    """
    t = space.mask(target)
    s = space.mask(source)
    return K.set_to_set(space.n, space.further_flat, s, t)


def point_to_set(space: FinSpace, x: PointLike, target: SetLike) -> Further:
    t = space.mask(target)
    return K.point_to_set(space.n, space.further_flat, space.index(x), t)


def _zero_masks(n: int, flat: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Zero masks of a flat n-by-n matrix: ``rows[x]`` holds the y with entry
    (x, y) zero and ``cols[y]`` the x with it zero."""
    rows = [0] * n
    cols = [0] * n
    for x in range(n):
        at = x * n
        for y in range(n):
            if flat[at + y] == 0:
                rows[x] |= 1 << y
                cols[y] |= 1 << x
    return rows, cols


class MatrixReport(NamedTuple):
    """Structural read-off of a furtherness matrix.

    All sets are masks over the matrix's point order.  ``row_zeros[x]`` is
    the set with furtherness 0 from x (the minimal open of x) and
    ``col_zeros[x]`` the set of points from which x has furtherness 0 (the
    closure of {x}).  A point is flagged maximum/minimum when its row/column
    vanishes entirely; on a distinguishable space those are the points above
    resp. below every other point.
    """

    labels: tuple[str, ...]
    row_zeros: tuple[int, ...]
    col_zeros: tuple[int, ...]
    open_singletons: int
    maximum_points: int
    minimum_points: int
    distinct_rows: bool
    distinct_cols: bool
    has_zero_row_or_col: bool

    @property
    def t0(self) -> bool:
        return self.distinct_rows


class FurtherMatrix(Frozen):
    """Square table of pairwise furtherness values, each a non-negative int."""

    _fields = ("labels", "flat")

    def __init__(self, labels: tuple[str, ...], flat: tuple[int, ...]):
        points = FinSpace.discrete(labels)
        n = points.n
        flat = tuple(_iterable(flat, "a flat matrix must be an iterable of ints, got {!r}"))
        if len(flat) != n * n:
            raise SpaceError("flat matrix length must be n*n")
        flat = _as_ints(flat, "a matrix entry")
        if min(flat) < 0:
            raise SpaceError(f"matrix entries must be non-negative, got {min(flat)}")
        self.__dict__.update(labels=points.labels, flat=flat, n=n, _points=points)

    @classmethod
    def of(cls, space: FinSpace) -> "FurtherMatrix":
        return cls(space.labels, space.further_flat)

    def index(self, point: PointLike) -> int:
        return self._points.index(point)

    def entry(self, x: PointLike, y: PointLike) -> int:
        return self.flat[self.index(x) * self.n + self.index(y)]

    def row(self, x: PointLike) -> tuple[int, ...]:
        i = self.index(x) * self.n
        return self.flat[i : i + self.n]

    def col(self, y: PointLike) -> tuple[int, ...]:
        j = self.index(y)
        return self.flat[j :: self.n]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(self.flat[i * n : (i + 1) * n] for i in range(n))

    def row_dominates(self, x: PointLike, y: PointLike) -> bool:
        """Entrywise row[x] <= row[y]; holds exactly when x is 0-far from y.

        Wherever x's row is zero, y's must then be zero too, so domination
        pins down the containment of minimal opens.
        """
        rx = self.row(x)
        ry = self.row(y)
        return all(a <= b for a, b in zip(rx, ry))

    def report(self) -> MatrixReport:
        n = self.n
        full = (1 << n) - 1
        row_zeros, col_zeros = _zero_masks(n, self.flat)
        singles = 0
        maxima = 0
        minima = 0
        for x, (rz, cz) in enumerate(zip(row_zeros, col_zeros)):
            if rz == 1 << x:
                singles |= 1 << x
            if rz == full:
                maxima |= 1 << x
            if cz == full:
                minima |= 1 << x
        rows = self.rows
        cols = tuple(self.col(j) for j in range(n))
        return MatrixReport(
            labels=self.labels,
            row_zeros=tuple(row_zeros),
            col_zeros=tuple(col_zeros),
            open_singletons=singles,
            maximum_points=maxima,
            minimum_points=minima,
            distinct_rows=len(set(rows)) == n,
            distinct_cols=len(set(cols)) == n,
            has_zero_row_or_col=bool(maxima or minima),
        )

    def __str__(self):
        w = max(len(lab) for lab in self.labels)
        w = max(w, max(len(str(v)) for v in self.flat))
        head = " " * (w + 2) + " ".join(lab.rjust(w) for lab in self.labels)
        lines = [head]
        for x, lab in enumerate(self.labels):
            row = " ".join(str(v).rjust(w) for v in self.row(x))
            lines.append(f"{lab.rjust(w)}  {row}")
        return "\n".join(lines)


def furtherness_matrix(space: FinSpace) -> FurtherMatrix:
    return FurtherMatrix.of(space)


def matrix_report(space_or_matrix) -> MatrixReport:
    if isinstance(space_or_matrix, FurtherMatrix):
        return space_or_matrix.report()
    if isinstance(space_or_matrix, FinSpace):
        return FurtherMatrix.of(space_or_matrix).report()
    raise SpaceError(f"need a space or a furtherness matrix, got {space_or_matrix!r}")
