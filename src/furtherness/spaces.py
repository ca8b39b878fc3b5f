"""Finite topological spaces, represented by their minimal basis.

Every point x of a finite space has a smallest open set containing it (the
intersection of all opens containing x), and the topology is exactly the
family of unions of these basic sets.  A :class:`FinSpace` therefore stores
one bitmask per point.  Two invariants characterize valid bases:

* each point belongs to its own basic set, and
* whenever y belongs to the basic set of x, the basic set of y is contained
  in it.

Point sets are bitmasks over point indices throughout the core API; the
``mask`` / ``members`` helpers convert between masks and label collections.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Collection, Iterable, Iterator, Optional, Union

from . import _kernels as K
from .errors import (
    BasisNotNestedError,
    DuplicateLabelError,
    EmptyInputError,
    MissingEmptyOrFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    PointNotInOwnBasisError,
    SizeTooLargeError,
    SpaceError,
    UnknownLabelError,
)

PointLike = Union[int, str]
SetLike = Union[int, Iterable[PointLike]]
Further = Union[int, float]  # non-negative int, or math.inf

_LABELS = "the labels must be an iterable of strings, got {!r}"

# opens in the largest family built: the discrete space on twelve points,
# as large as a subset table goes
OPEN_FAMILY_LIMIT = 1 << 12


def mask_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending; a negative mask, or one that is
    not an ``int``, raises ``SpaceError`` at the call."""
    if type(mask) is not int:
        mask = _as_int(mask, "a mask")
    if mask < 0:
        raise SpaceError(f"a mask cannot be negative, got {mask}")
    return _set_bits(mask)


def _set_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_sets(masks: Iterable[int]) -> tuple[int, ...]:
    """Sort point sets by cardinality, then by their sorted index lists.

    Two stable sorts, with no index tuple built per set: among sets of one
    cardinality, the one with the smaller index list has a 1 where the
    other has a 0 at the first bit that tells them apart, so it comes first
    when the bit strings, least significant bit first, are sorted
    descending; then a sort by cardinality keeps that order within each
    cardinality.
    """
    out = sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)
    out.sort(key=int.bit_count)
    return tuple(out)


def _open_sets(basis: tuple[int, ...], stop: Optional[int] = None) -> set[int]:
    """The unions of basic sets, by breadth-first search from the empty set.

    The search ends early, with ``stop`` opens found, when there are at
    least that many.
    """
    seen = {0}
    queue = [0]
    for o in queue:
        for b in basis:
            v = o | b
            if v not in seen:
                seen.add(v)
                if len(seen) == stop:
                    return seen
                queue.append(v)
    return seen


def _point_meets(n: int, family: Collection[int]) -> tuple[int, ...]:
    """Per point, the meet of the sets in ``family`` that hold it, or all n
    points when none does: the minimal opens of the topology it generates."""
    full = (1 << n) - 1
    out = []
    for x in range(n):
        m = full
        for o in family:
            if (o >> x) & 1:
                m &= o
        out.append(m)
    return tuple(out)


def _check_points(n: int) -> None:
    """Refuse a number of points below 1 or not an ``int``, as a ``bool``
    is not."""
    if type(n) is not int:
        raise SpaceError(f"the number of points must be an int, got {n!r}")
    if n < 1:
        raise SpaceError("need at least one point")


def _iterable(values, message: str):
    """``values`` itself, once ``iter`` takes it, so a tuple is not copied;
    a value that is not iterable raises ``SpaceError`` with ``message``,
    formatted with its repr."""
    try:
        iter(values)
    except TypeError:
        raise SpaceError(message.format(values)) from None
    return values


def _as_int(value, what: str) -> int:
    """``value`` through ``operator.index``, so a bool reads as its int; a
    float, a string or ``None`` raises ``SpaceError`` naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise SpaceError(f"{what} must be an int, got {value!r}") from None


def _as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, each entry read by ``_as_int`` unless every
    one is exactly an ``int``."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            return tuple(_as_int(v, what) for v in values)
    return values


class Frozen:
    """Base of the immutable records that keep a ``__dict__``.

    Their fields are written once, straight into ``__dict__`` (as is every
    ``cached_property``); assignment and deletion raise ``AttributeError``.
    Records of one class compare, hash and print by the fields named in
    ``_fields``.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        values = self.__dict__
        return tuple(values[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OpenFamily(Frozen):
    """A topology given extensionally, in canonical order."""

    _fields = ("n", "opens")

    def __init__(self, n: int, opens: tuple[int, ...]):
        self.__dict__.update(n=n, opens=opens)

    @cached_property
    def _lookup(self) -> frozenset[int]:
        return frozenset(self.opens)

    def __contains__(self, mask: int) -> bool:
        return mask in self._lookup

    def __iter__(self) -> Iterator[int]:
        return iter(self.opens)

    def __len__(self) -> int:
        return len(self.opens)


def _open_family(basis: tuple[int, ...]) -> OpenFamily:
    """The topology whose minimal opens are ``basis``, in canonical order.

    Raises ``SizeTooLargeError`` past ``OPEN_FAMILY_LIMIT`` opens; the
    search stops one past the limit, so the refusal comes before the
    family is built.
    """
    opens = _open_sets(basis, stop=OPEN_FAMILY_LIMIT + 1)
    if len(opens) > OPEN_FAMILY_LIMIT:
        raise SizeTooLargeError(
            len(opens), OPEN_FAMILY_LIMIT, "open family", "opens", at_least=True
        )
    return OpenFamily(len(basis), canonical_sets(opens))


class FinSpace(Frozen):
    """A finite topological space with labeled points.

    ``basis[i]`` is the bitmask of the minimal open set of point i.  The
    constructor validates the basis invariants; use :func:`from_open_sets`
    to build a space from a full open family instead.  The number of points
    ``n`` and the mask ``full`` of all points are stored at construction.
    """

    _fields = ("labels", "basis")

    def __init__(self, labels: Iterable[str], basis: Iterable[int]):
        # the builders in the package pass tuples, which need no check
        if type(labels) is not tuple:
            labels = tuple(_iterable(labels, _LABELS))
        if type(basis) is not tuple:
            basis = _iterable(basis, "a basis must be an iterable of masks, got {!r}")
        basis = _as_ints(basis, "a basic set")
        if not labels:
            raise EmptyInputError("point list")
        seen: set[str] = set()
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise SpaceError(f"point labels must be nonempty strings, got {lab!r}")
            if lab in seen:
                raise DuplicateLabelError(lab)
            seen.add(lab)
        n = len(labels)
        if len(basis) != n:
            raise SpaceError("basis must assign one open set per point")
        full = (1 << n) - 1
        for x, m in enumerate(basis):
            if m & ~full:
                raise SpaceError(f"basic set of {labels[x]!r} is out of range")
            if not (m >> x) & 1:
                raise PointNotInOwnBasisError(labels[x])
        # a basic set nests those of its points exactly when it is their union
        for x, m in enumerate(basis):
            if K.minimal_open_mask(basis, m) != m:
                y = next(y for y in mask_indices(m) if basis[y] & ~m)
                raise BasisNotNestedError(labels[x], labels[y])
        self.__dict__.update(labels=labels, basis=basis, n=n, full=full)

    @classmethod
    def discrete(cls, labels: Iterable[str]) -> "FinSpace":
        """The discrete space on ``labels``: every point set is open.

        Its ``mask``, ``index`` and ``members`` depend on the labels alone,
        so it is also the validated label lookup for data that is not a
        space yet (an open family, a basis given by labels, a matrix).
        """
        labels = tuple(_iterable(labels, _LABELS))
        return cls(labels, tuple(1 << i for i in range(len(labels))))

    # -- coercion ----------------------------------------------------------

    def index(self, point: PointLike) -> int:
        if type(point) is int:
            if 0 <= point < self.n:
                return point
            raise SpaceError(f"point index {point} out of range")
        if isinstance(point, str):
            try:
                return self._label_index[point]
            except KeyError:
                raise UnknownLabelError(point) from None
        i = _as_int(point, "a point index")
        if not 0 <= i < self.n:
            raise SpaceError(f"point index {i} out of range")
        return i

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def mask(self, points: SetLike) -> int:
        """Coerce an int mask or an iterable of labels/indices to a mask."""
        if type(points) is int:
            if points & ~self.full:
                raise SpaceError(f"mask {points:#x} out of range for {self.n} points")
            return points
        if isinstance(points, int):
            # a bool reads as its int
            return self.mask(operator.index(points))
        out = 0
        for p in _iterable(points, "a point set must be a mask or an iterable, got {!r}"):
            out |= 1 << self.index(p)
        return out

    def members(self, mask: SetLike) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in mask_indices(self.mask(mask)))

    # -- topology ----------------------------------------------------------

    def min_open(self, point: PointLike) -> int:
        return self.basis[self.index(point)]

    def minimal_open(self, points: SetLike) -> int:
        """Smallest open superset of a nonempty point set."""
        a = self.mask(points)
        if not a:
            raise EmptyInputError()
        return K.minimal_open_mask(self.basis, a)

    def is_open(self, points: SetLike) -> bool:
        a = self.mask(points)
        return K.minimal_open_mask(self.basis, a) == a

    @cached_property
    def open_family(self) -> OpenFamily:
        """Every open set, i.e. every union of basic sets; refused past
        ``OPEN_FAMILY_LIMIT`` opens."""
        return _open_family(self.basis)

    def closure(self, points: SetLike) -> int:
        return K.closure_mask(self.basis, self.mask(points))

    def interior(self, points: SetLike) -> int:
        return K.interior_mask(self.basis, self.mask(points))

    def boundary(self, points: SetLike) -> int:
        a = self.mask(points)
        return K.closure_mask(self.basis, a) & ~K.interior_mask(self.basis, a)

    @cached_property
    def is_t0(self) -> bool:
        """Whether distinct points always have distinct minimal opens."""
        return len(set(self.basis)) == self.n

    def opposite(self) -> "FinSpace":
        """Same points, opens and closed sets exchanged.

        The minimal open of x in the opposite space is the closure of {x}
        here.
        """
        return FinSpace(self.labels, self.point_closures)

    def subspace(self, points: SetLike) -> "FinSpace":
        """Restriction to a nonempty point set, labels kept: the ``images`` of
        the kept basic sets, cut to it, under the kept points' positions."""
        a = self.mask(points)
        if not a:
            raise EmptyInputError("subspace carrier")
        kept = list(mask_indices(a))
        pos = [0] * self.n
        for k, x in enumerate(kept):
            pos[x] = k
        labels = tuple(self.labels[x] for x in kept)
        return FinSpace(labels, K.images([self.basis[x] & a for x in kept], pos))

    # -- kernel products shared by the other modules ------------------------

    @cached_property
    def further_flat(self) -> tuple[int, ...]:
        """Row-major distance matrix as a flat tuple (see ``distance``)."""
        return K.further_matrix(self.class_opens)

    @cached_property
    def class_ids(self) -> tuple[int, ...]:
        """Indistinguishability class of each point, by first occurrence;
        0..n-1 on a T0 space."""
        return tuple(range(self.n)) if self.is_t0 else K.class_ids(self.basis)

    @cached_property
    def class_opens(self) -> tuple[int, ...]:
        """Each basic set as the mask of the ``class_ids`` it meets; the
        basis itself on a T0 space."""
        return self.basis if self.is_t0 else K.images(self.basis, self.class_ids)

    @cached_property
    def point_closures(self) -> tuple[int, ...]:
        """The closure of each point: the points whose minimal open holds
        it.  These are the zero columns of the distance matrix, and the
        basis of the opposite space."""
        return tuple(K.closure_mask(self.basis, 1 << x) for x in range(self.n))

    def __repr__(self):
        sets = ",".join("{" + ",".join(self.members(m)) + "}" for m in self.basis)
        return f"FinSpace({','.join(self.labels)}; {sets})"


def from_minimal_basis(labels: Iterable[str], basis: Iterable[SetLike]) -> FinSpace:
    """Build a space from per-point minimal opens (masks or label lists)."""
    points = FinSpace.discrete(labels)
    basis = _iterable(basis, "a basis must be an iterable of point sets, got {!r}")
    return FinSpace(points.labels, tuple(points.mask(b) for b in basis))


def from_open_sets(labels: Iterable[str], opens: Iterable[SetLike]) -> FinSpace:
    """Build a space from its full open family.

    The family must contain the empty and the full set and be closed under
    pairwise union and intersection; violations raise with a witness pair.
    The minimal basis is recovered by intersecting, for every point, all
    opens that contain it.
    """
    points = FinSpace.discrete(labels)
    opens = _iterable(opens, "the opens must be an iterable of point sets, got {!r}")
    family = canonical_sets({points.mask(o) for o in opens})
    if 0 not in family:
        raise MissingEmptyOrFullError("empty")
    if points.full not in family:
        raise MissingEmptyOrFullError("full")
    have = set(family)
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if a | b not in have:
                raise NotClosedUnderUnionError((points.members(a), points.members(b)))
            if a & b not in have:
                raise NotClosedUnderIntersectionError((points.members(a), points.members(b)))
    return FinSpace(points.labels, _point_meets(points.n, family))
