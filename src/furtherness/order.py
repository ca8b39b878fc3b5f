"""Specialization order, quotients, maps, beat points, cores, and products.

A finite topology and a reflexive transitive relation are two views of the
same data: x <= y exactly when x belongs to the minimal open of y, so the
minimal basis read column-wise IS the relation.  Everything here leans on
that translation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import _kernels as K
from .errors import (
    DuplicateLabelError,
    EmptyInputError,
    PreconditionViolatedError,
    SpaceError,
    UnknownLabelError,
)
from .spaces import FinSpace, Frozen, PointLike, _as_ints, _iterable, mask_indices


class Preorder(Frozen):
    """Reflexive transitive relation; ``below[y]`` masks {x | x <= y}.

    The down-sets are a minimal basis, so the constructor validates them as
    a ``FinSpace``, which it keeps: a relation that is not a preorder raises
    that ``SpaceError`` at construction."""

    _fields = ("labels", "below")

    def __init__(self, labels: Iterable[str], below: Iterable[int]):
        space = FinSpace(labels, below)
        self.__dict__.update(labels=space.labels, below=space.basis, _space=space)

    @property
    def n(self) -> int:
        return self._space.n

    def leq(self, x: PointLike, y: PointLike) -> bool:
        """Whether x <= y, for indices or labels as ``FinSpace.index`` takes
        them: an unknown label raises ``UnknownLabelError``, and any other
        point that is not an index in range ``SpaceError``."""
        index = self._space.index
        return bool((self.below[index(y)] >> index(x)) & 1)

    @property
    def is_antisymmetric(self) -> bool:
        return self._space.is_t0

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction, as (lower, upper) pairs; needs antisymmetry."""
        if not self.is_antisymmetric:
            raise PreconditionViolatedError(
                "cover relation is only defined for a partial order"
            )
        covers = _covers(self.below, self._space.point_closures)
        return tuple(sorted((x, y) for y, lower in enumerate(covers) for x in mask_indices(lower)))


def specialization_preorder(space: FinSpace) -> Preorder:
    """x <= y iff x lies in the minimal open of y iff y is 0-far from x."""
    return Preorder(space.labels, space.basis)


def order_to_space(order: Preorder) -> FinSpace:
    """Inverse translation; down-set masks are exactly a minimal basis."""
    return order._space


def _joined_labels(members: Sequence[tuple[str, ...]], sep: str) -> tuple[str, ...]:
    """Each tuple of member labels joined by ``sep``.  Two tuples that join
    to one label, as ``('a', 'b,c')`` and ``('a,b', 'c')`` do with ``,``,
    raise ``DuplicateLabelError`` naming both and the separator."""
    seen: dict[str, tuple[str, ...]] = {}
    for ms in members:
        label = sep.join(ms)
        if label in seen:
            raise DuplicateLabelError(label, (seen[label], ms), sep)
        seen[label] = ms
    return tuple(seen)


class QuotientResult(NamedTuple):
    """Identification of mutually 0-far points.

    ``class_of[x]`` is the class index of original point x and
    ``representatives[c]`` the first original point of class c; the quotient
    space carries one point per class, labeled by joining member labels
    with "|"; two classes whose labels join alike raise
    ``DuplicateLabelError``.
    """

    space: FinSpace
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]


def kolmogorov_quotient(space: FinSpace) -> QuotientResult:
    """The quotient by indistinguishability; see :class:`QuotientResult`.

    A T0 space is its own quotient.  Otherwise the basic set of a class is
    its representative's class recoding, from ``FinSpace.class_opens``.
    """
    cls = space.class_ids
    if space.is_t0:
        # the class ids are then 0..n-1, and each point represents its class
        return QuotientResult(space, cls, cls)
    members: list[list[int]] = [[] for _ in range(max(cls) + 1)]
    for x, c in enumerate(cls):
        members[c].append(x)
    reps = tuple(ms[0] for ms in members)
    labels = _joined_labels([tuple(space.labels[x] for x in ms) for ms in members], "|")
    opens = space.class_opens
    return QuotientResult(FinSpace(labels, tuple(opens[r] for r in reps)), cls, reps)


class SpaceMap(Frozen):
    """A total map between spaces, by codomain index per domain point."""

    _fields = ("domain", "codomain", "image")

    def __init__(self, domain: FinSpace, codomain: FinSpace, image: Iterable[int]):
        image = tuple(_iterable(image, "a map's images must be an iterable of indices, got {!r}"))
        if len(image) != domain.n:
            raise SpaceError("map must assign an image to every domain point")
        image = _as_ints(image, "an image index")
        for i in image:
            if not 0 <= i < codomain.n:
                raise SpaceError(f"image index {i} out of codomain range")
        self.__dict__.update(domain=domain, codomain=codomain, image=image)

    def __call__(self, x: PointLike) -> int:
        return self.image[self.domain.index(x)]


def space_map(
    domain: FinSpace,
    codomain: FinSpace,
    mapping: Union[Mapping[str, str], Sequence[PointLike]],
) -> SpaceMap:
    if isinstance(mapping, Mapping):
        for key in mapping:
            if key not in domain.labels:
                raise UnknownLabelError(key)
        missing = [lab for lab in domain.labels if lab not in mapping]
        if missing:
            raise SpaceError(f"map assigns no image to domain point {missing[0]!r}")
        image = tuple(codomain.index(mapping[lab]) for lab in domain.labels)
    else:
        mapping = _iterable(mapping, "a map must be a mapping or an iterable of points, got {!r}")
        image = tuple(codomain.index(p) for p in mapping)
    return SpaceMap(domain, codomain, image)


def identity_map(space: FinSpace) -> SpaceMap:
    return SpaceMap(space, space, tuple(range(space.n)))


def is_continuous(f: SpaceMap) -> bool:
    """Zero-distance preservation: y in U_x forces f(y) in U_{f(x)}, so the
    image of each minimal open U_x (from ``images``) lies in U_{f(x)}."""
    dom, cod, img = f.domain, f.codomain, f.image
    for u, y in zip(K.images(dom.basis, img), img):
        if u & ~cod.basis[y]:
            return False
    return True


def is_continuous_by_preimages(f: SpaceMap) -> bool:
    """Textbook continuity: the preimage of every open is open."""
    dom, cod, img = f.domain, f.codomain, f.image
    for o in cod.open_family:
        pre = 0
        for x in range(dom.n):
            if (o >> img[x]) & 1:
                pre |= 1 << x
        if not dom.is_open(pre):
            return False
    return True


def is_furtherness_preserving(f: SpaceMap) -> bool:
    """Distance equality on every ordered pair; implies continuity."""
    dom, cod, img = f.domain, f.codomain, f.image
    df = dom.further_flat
    cf = cod.further_flat
    for x in range(dom.n):
        for y in range(dom.n):
            if df[x * dom.n + y] != cf[img[x] * cod.n + img[y]]:
                return False
    return True


def _covers(rel: Sequence[int], inv: Sequence[int]) -> list[int]:
    """Each point's mask of covers in the relation: the other points y in
    ``rel[x]`` that no third point sits between, that is no z in ``rel[x]``
    that also lies in ``inv[y]``."""
    out = []
    for x, related in enumerate(rel):
        covers = 0
        for y in mask_indices(related & ~(1 << x)):
            if not related & inv[y] & ~(1 << x | 1 << y):
                covers |= 1 << y
        out.append(covers)
    return out


def beat_points(space: FinSpace) -> tuple[int, int]:
    """Masks (down, up) of beat points, via zero-furtherness relations.

    x beats downward when exactly one other point y is 0-far from x with no
    third point strictly between them in the 0-far relation; upward is the
    mirror image.  On a space with distinguishable points this says the set
    strictly below (above) x has a maximum (minimum).  Both directions are
    read from the two masks of the relation, ``zero[x]`` the points 0-far
    from x (its minimal open) and ``zero_to[x]`` the points x is 0-far from
    (its closure), in O(n^2) mask operations and with no distance matrix.
    """
    zero, zero_to = space.basis, space.point_closures
    down = up = 0
    for x, (lower, upper) in enumerate(zip(_covers(zero, zero_to), _covers(zero_to, zero))):
        if lower.bit_count() == 1:
            down |= 1 << x
        if upper.bit_count() == 1:
            up |= 1 << x
    return down, up


def is_minimal(space: FinSpace) -> bool:
    """No identifications to make and no beat points to strip."""
    if not space.is_t0:
        return False
    down, up = beat_points(space)
    return not (down | up)


def core(space: FinSpace) -> FinSpace:
    """Kolmogorov quotient, then iterated beat-point removal.

    Removal order is fixed (lowest index first) so the output is a
    deterministic function of the input; the no-beat-point postcondition
    does not depend on the order.
    """
    out = kolmogorov_quotient(space).space
    while True:
        down, up = beat_points(out)
        beats = down | up
        if not beats:
            return out
        low = beats & -beats
        out = out.subspace(out.full & ~low)


def _factors(factors: Iterable[FinSpace]) -> tuple[FinSpace, ...]:
    """The factors of a product, read once into a tuple.  A single space,
    or anything else that is not iterable, and an entry that is not a
    ``FinSpace`` raise ``SpaceError``; an empty list raises
    ``EmptyInputError``."""
    factors = tuple(_iterable(factors, "the factors must be an iterable of spaces, got {!r}"))
    if not factors:
        raise EmptyInputError("factor list")
    for f in factors:
        if not isinstance(f, FinSpace):
            raise SpaceError(f"a factor must be a FinSpace, got {f!r}")
    return factors


def product(factors: Iterable[FinSpace]) -> FinSpace:
    """Product space; points are factor-index tuples in row-major order.

    The minimal open of a tuple is the product of the factor minimal opens;
    labels join the factor labels with a comma, and two label tuples that
    join alike raise ``DuplicateLabelError`` (see ``_joined_labels``).
    Factors are multiplied in one at a time: point p of the product so far
    becomes the block of points p * k to p * k + k - 1 for a k-point
    factor, so the minimal open of (p, j) holds ``f.basis[j] << (q * k)``
    for each q in that of p.
    """
    first, *rest = _factors(factors)
    points = [(label,) for label in first.labels]
    basis = list(first.basis)
    for f in rest:
        size = f.n
        opens = f.basis
        points = [p + (label,) for p in points for label in f.labels]
        grown = []
        for m in basis:
            shifts = [q * size for q in mask_indices(m)]
            for u in opens:
                acc = 0
                for shift in shifts:
                    acc |= u << shift
                grown.append(acc)
        basis = grown
    return FinSpace(_joined_labels(points, ","), tuple(basis))


def _check_arity(k: int, p, q) -> None:
    """Raise ``SpaceError`` unless both points have one coordinate per factor."""
    try:
        ok = len(p) == k == len(q)
    except TypeError:
        ok = False
    if not ok:
        raise SpaceError(f"points of a {k}-fold product need {k} coordinates, got {p!r} and {q!r}")


def product_furtherness(
    space_x: FinSpace,
    space_y: FinSpace,
    p: tuple[PointLike, PointLike],
    q: tuple[PointLike, PointLike],
) -> int:
    """Distance between two points of a binary product: the two-factor case
    of :func:`product_furtherness_nfold`, fx * |U_d| + fy * |U_c| - fx * fy
    for factor distances fx, fy and the class counts of the target minimal
    opens.  Raises ``SpaceError`` unless both points are pairs."""
    return product_furtherness_nfold((space_x, space_y), p, q)


def product_furtherness_nfold(
    factors: Iterable[FinSpace],
    ps: Sequence[PointLike],
    qs: Sequence[PointLike],
) -> int:
    """Closed form for any number of factors.

    The distance is the difference between the product of the target class
    counts and the product of their per-factor leftovers, read from each
    factor's matrix and class recoding, so the product space itself is
    never built.  The factors are read as :func:`product` reads them; then
    ``SpaceError`` is raised unless both points have one coordinate per
    factor, and each coordinate of ``ps``, then of ``qs``, is indexed.
    """
    factors = _factors(factors)
    _check_arity(len(factors), ps, qs)
    sources = list(map(FinSpace.index, factors, ps))
    targets = list(map(FinSpace.index, factors, qs))
    whole = 1
    left = 1
    for f, a, c in zip(factors, sources, targets):
        size = f.class_opens[c].bit_count()
        whole *= size
        left *= size - f.further_flat[a * f.n + c]
    return whole - left
