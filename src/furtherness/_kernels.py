"""Word-level set algebra on finite spaces: the kernels under every module.

Point sets are bitmasks over point indices 0..n-1, and a space is handed to
the kernels as its minimal basis: a sequence ``basis`` where ``basis[i]`` is
the mask of the smallest open set containing point ``i``.  A basis kernel
takes the basis alone, since its length is the number of points; a
distance kernel takes the flat n x n matrix and its side ``n``, the row
stride.  Python integers are unbounded, so the kernels take spaces of any
size.  This module is the only implementation; the rest of the package
calls it as ``from . import _kernels as K``.

Distance values reported by ``point_to_set`` / ``set_to_set`` /
``center_radius`` are ``math.inf`` for an empty side, as at the API, and
an ``int`` otherwise; the loops compare ``int`` entries only.

Each loop is written once: ``images`` maps masks through a point map (the
class recoding, a subspace's renumbering, a map's image of each minimal
open), and ``minimal_open_mask`` unions the basic sets over a mask (the
constructor's nesting check, each row of ``transitive_closure``).  Three
kernels nest another by module attribute, so a wrapper installed from
outside, such as a profiler or a call counter, sees those calls too:
``set_to_set`` and ``center_radius`` call ``point_to_set``, and
``transitive_closure`` calls ``minimal_open_mask``.  The enumerator's
nesting prune stays its own loop: it reads only the rows already placed
and stops at the first that fails, where a union call per candidate made
``enumerate_bases`` slower.
"""

from __future__ import annotations

from math import inf


def class_ids(basis):
    """Indistinguishability class of each point, numbered by first occurrence.

    Two points share a class exactly when they have the same minimal open
    set.
    """
    seen: dict[int, int] = {}
    out = []
    for m in basis:
        c = seen.get(m)
        if c is None:
            c = len(seen)
            seen[m] = c
        out.append(c)
    return tuple(out)


def images(masks, ids):
    """Each mask as the mask of the ids its points carry: point y of a mask
    becomes bit ``ids[y]``."""
    out = []
    for m in masks:
        acc = 0
        while m:
            low = m & -m
            acc |= 1 << ids[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return tuple(out)


def further_matrix(cls_open):
    """Flat row-major matrix of pairwise distances from the class recoding.

    Entry (x, y) counts the indistinguishability classes that meet
    ``cls_open[y]`` but not ``cls_open[x]``, which equals the least chain
    position at which y shows up when growing opens outward from x.
    """
    outside = [~c for c in cls_open]
    return tuple([(cj & out).bit_count() for out in outside for cj in cls_open])


def closure_mask(basis, a):
    out = 0
    for y, m in enumerate(basis):
        if m & a:
            out |= 1 << y
    return out


def interior_mask(basis, a):
    out = 0
    rest = ~a
    for x, m in enumerate(basis):
        if (a >> x) & 1 and not (m & rest):
            out |= 1 << x
    return out


def minimal_open_mask(basis, a):
    out = 0
    while a:
        low = a & -a
        out |= basis[low.bit_length() - 1]
        a ^= low
    return out


def point_to_set(n, flat, x, target):
    """min over t in target of flat[x][t]; ``math.inf`` when target is empty."""
    if not target:
        return inf
    row = x * n
    low = target & -target
    best = flat[row + low.bit_length() - 1]
    target ^= low
    while target:
        low = target & -target
        v = flat[row + low.bit_length() - 1]
        if v < best:
            best = v
        target ^= low
    return best


def set_to_set(n, flat, a, b):
    """min over pairs; ``math.inf`` when either side is empty."""
    if not a or not b:
        return inf
    low = a & -a
    a ^= low
    best = point_to_set(n, flat, low.bit_length() - 1, b)
    while a:
        low = a & -a
        a ^= low
        v = point_to_set(n, flat, low.bit_length() - 1, b)
        if v < best:
            best = v
    return best


def center_radius(n, flat, a, target):
    """Points of ``a`` furthest from ``target``, with that furthest value.

    Returns ``(center_mask, radius)``; radius is ``math.inf`` when
    ``target`` is empty, in which case every point of ``a`` is central.
    An empty ``a`` yields ``(0, math.inf)``.
    """
    if not a or not target:
        return a, inf
    center = a & -a
    rest = a ^ center
    best = point_to_set(n, flat, center.bit_length() - 1, target)
    while rest:
        low = rest & -rest
        rest ^= low
        v = point_to_set(n, flat, low.bit_length() - 1, target)
        if v > best:
            best = v
            center = low
        elif v == best:
            center |= low
    return center, best


def transitive_closure(rows):
    """Reflexive-transitive saturation of down-set rows.

    ``rows[i]`` holds the points currently known to lie at or below point i;
    the result is the smallest family of rows containing it that is
    reflexive and closed under chaining, i.e. a valid minimal basis.
    """
    out = [r | (1 << i) for i, r in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for x, row in enumerate(out):
            acc = minimal_open_mask(out, row)
            if acc != row:
                out[x] = acc
                changed = True
    return tuple(out)


def enumerate_bases(n):
    """All minimal bases on points 0..n-1, lexicographic by row masks.

    Row i contains bit i and lies inside every earlier row that contains
    i, so it ranges over the submasks of their intersection that contain
    i, in ascending numeric order, and no other mask is looked at.  Each
    candidate is pruned against the earlier rows it contains, which must
    lie inside it, so each leaf is a valid basis with no final check.
    """
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []
    rows = [0] * n

    def extend(i):
        if i == n:
            out.append(tuple(rows))
            return
        bit = 1 << i
        free = full
        for j in range(i):
            if (rows[j] >> i) & 1:
                free &= rows[j]
        free ^= bit
        # the submasks of ``free``, ascending: 0, ..., free
        sub = 0
        while True:
            m = sub | bit
            ok = True
            below = m & (bit - 1)
            while ok and below:
                low = below & -below
                ok = not rows[low.bit_length() - 1] & ~m
                below ^= low
            if ok:
                rows[i] = m
                extend(i + 1)
            if sub == free:
                break
            sub = (sub - free) & free

    extend(0)
    return out
