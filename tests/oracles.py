"""Definition-literal oracles used to freeze expected values.

Everything here works on frozensets of labels and scans the whole open
family, so no bitmask trick, minimal-basis shortcut, counting formula, or
candidate lemma from the package is shared.  Slow on purpose; meant for
spaces with a handful of points.  ``own_sweep`` is the verifier's sweep in
its plainest form: one property walking the enumerated corpus on its own,
and ``scan_all_masks_bases`` the basis enumerator in its plainest form.
``fixpoint_generated_topology`` and ``scan_beat_points`` are the library's
earlier generated topology and beat points, a closure under union and
intersection run to a fixpoint and a triple loop over point pairs, kept
as references for the minimal-open and mask forms, and
``zero_continuous_self_maps`` the walk over all n**n self-maps that
``minimal-rigidity`` made before it walked only its candidates.
"""

from functools import reduce
from itertools import chain, combinations, product

from furtherness import enumerate_topologies


def family_from_basis(labels, basis_sets):
    """All unions of minimal basis sets, as a set of frozensets."""
    opens = {frozenset()}
    for r in range(1, len(basis_sets) + 1):
        for combo in combinations(sorted(basis_sets, key=sorted), r):
            opens.add(frozenset(chain.from_iterable(combo)))
    return opens


def brute_min_open(family, x):
    return reduce(frozenset.__and__, (o for o in family if x in o))


def brute_closure(family, labels, a):
    return frozenset(
        x for x in labels if all(o & a for o in family if x in o)
    )


def brute_interior(family, a):
    return frozenset(
        x for x in a if any(x in o and o <= a for o in family)
    )


def brute_boundary(family, labels, a):
    return brute_closure(family, labels, a) - brute_interior(family, a)


def covers_of(family, o):
    """Strict open supersets of ``o`` with no open strictly between."""
    return [
        v
        for v in family
        if o < v and not any(o < w < v for w in family)
    ]


def saturated_chains(family, start):
    """Every maximal nested run of opens from ``start`` (they end at X)."""
    chains = []

    def grow(path):
        nxt = covers_of(family, path[-1])
        if not nxt:
            chains.append(list(path))
            return
        for v in nxt:
            grow(path + [v])

    grow([start])
    return chains


def brute_furtherness(family, x, y):
    """Least chain position at which y appears, minimized over all runs."""
    best = None
    for run in saturated_chains(family, brute_min_open(family, x)):
        for k, o in enumerate(run):
            if y in o:
                if best is None or k < best:
                    best = k
                break
    return best


def brute_point_to_set(family, x, target):
    if not target:
        return None
    return min(brute_furtherness(family, x, t) for t in target)


def brute_center_radius(family, a, target):
    """Returns (center frozenset, radius or None-for-infinite)."""
    if not a:
        return frozenset(), None
    if not target:
        return frozenset(a), None
    dist = {x: brute_point_to_set(family, x, target) for x in a}
    radius = max(dist.values())
    return frozenset(x for x in a if dist[x] == radius), radius


def brute_lattice_edges(family):
    """Every covering pair (a, b) of the family, by a triple loop."""
    return {
        (a, b)
        for a in family
        for b in family
        if a < b and not any(a < w < b for w in family)
    }


def brute_product(factors):
    """``(label, minimal open as a label set)`` of every point of a product,
    in row-major order: a tuple's minimal open is the product of the
    factors' minimal opens, each read from its factor's whole open family,
    and labels join with a comma."""
    points = []
    for f in factors:
        family = family_from_basis(f.labels, [frozenset(f.members(m)) for m in f.basis])
        points.append([(lab, brute_min_open(family, lab)) for lab in f.labels])
    return [
        (
            ",".join(lab for lab, _ in combo),
            frozenset(",".join(t) for t in product(*(o for _, o in combo))),
        )
        for combo in product(*points)
    ]


def zero_continuous_self_maps(space):
    """Every continuous self-map f of ``space`` with d(f(x), x) = 0 for each
    point x, as a tuple of point indices, in lexicographic order: the walk
    over all n**n maps, each tested on the whole open family."""
    labels = space.labels
    n = len(labels)
    family = family_from_basis(labels, [frozenset(space.members(m)) for m in space.basis])
    zero = [[brute_furtherness(family, y, x) == 0 for x in labels] for y in labels]
    maps = []
    for image in product(range(n), repeat=n):
        if not all(zero[image[x]][x] for x in range(n)):
            continue
        preimages = (frozenset(labels[x] for x in range(n) if labels[image[x]] in o) for o in family)
        if all(p in family for p in preimages):
            maps.append(image)
    return maps


def own_sweep(check, max_n):
    """(spaces checked, first witness or None) of one per-space check run
    alone over every labelled topology on at most ``max_n`` points, in
    enumeration order, stopping at its first failure."""
    checked = 0
    for n in range(1, max_n + 1):
        for sp in enumerate_topologies(n):
            checked += 1
            witness = check(sp)
            if witness is not None:
                return checked, witness
    return checked, None


def reference_basis_outcome(labels, basis):
    """What the validating constructor must do with ``(labels, basis)``.

    ``None`` when the pair is a space, else ``(exception class name,
    witness labels)`` of the first fault, in the constructor's order: the
    labels (nonempty, nonempty distinct strings), one basic set per point
    inside the point range, then the two invariants, each point in its own
    basic set and every basic set nested in those that contain its point,
    scanned by outer point and then inner point, ascending.  Labels or a
    basis that cannot be iterated, as ``None`` or an int, come first, the
    labels before the basis.  Works on Python sets of indices; ``basis``
    holds ints or bools.
    """
    try:
        labels = list(labels)
        basis = list(basis)
    except TypeError:
        return ("SpaceError", ())
    if not labels:
        return ("EmptyInputError", ())
    seen = []
    for lab in labels:
        if not isinstance(lab, str) or lab == "":
            return ("SpaceError", ())
        if lab in seen:
            return ("DuplicateLabelError", (lab,))
        seen.append(lab)
    n = len(labels)
    if len(basis) != n:
        return ("SpaceError", ())
    sets = [{i for i in range(int(m).bit_length()) if (int(m) >> i) & 1} for m in basis]
    for x, s in enumerate(sets):
        if any(i >= n for i in s):
            return ("SpaceError", ())
        if x not in s:
            return ("PointNotInOwnBasisError", (labels[x],))
    for x, s in enumerate(sets):
        for y in sorted(s):
            if not sets[y] <= s:
                return ("BasisNotNestedError", (labels[x], labels[y]))
    return None


def scan_all_masks_bases(n, t0_only=False):
    """Every minimal basis on points 0..n-1, lexicographic by row masks, by
    scanning all 2**n masks for each row and keeping those that contain
    their point and nest both ways with every earlier row (and, with
    ``t0_only``, differ from it): the enumerator kernel without its walk
    over submasks."""
    full = (1 << n) - 1
    out = []
    rows = [0] * n

    def extend(i):
        if i == n:
            out.append(tuple(rows))
            return
        bit = 1 << i
        for m in range(bit, full + 1):
            if not (m & bit):
                continue
            ok = True
            for j in range(i):
                rj = rows[j]
                if (m >> j) & 1 and (rj & ~m):
                    ok = False
                if (rj >> i) & 1 and (m & ~rj):
                    ok = False
                if t0_only and m == rj:
                    ok = False
            if ok:
                rows[i] = m
                extend(i + 1)

    extend(0)
    return out


def fixpoint_generated_topology(n, generators):
    """The opens, as a frozenset of masks, of the smallest topology on n
    points holding every generator: the empty and full sets and the
    generators, closed under pairwise union and intersection until nothing
    changes."""
    full = (1 << n) - 1
    fam = {0, full}
    fam.update(generators)
    while True:
        fresh = set()
        members = sorted(fam)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                u = a | b
                if u not in fam:
                    fresh.add(u)
                v = a & b
                if v not in fam:
                    fresh.add(v)
        if not fresh:
            return frozenset(fam)
        fam |= fresh


def scan_beat_points(space):
    """Masks (down, up) of the points x with exactly one other point y
    0-far from x (down), or with x 0-far from y (up), that no third point
    sits between in that relation, by scanning every triple of points in
    the distance matrix."""
    n = space.n
    flat = space.further_flat
    down = 0
    up = 0
    for x in range(n):
        dcount = 0
        ucount = 0
        for y in range(n):
            if y == x:
                continue
            if flat[x * n + y] == 0:
                blocked = any(
                    z != x and z != y and flat[x * n + z] == 0 and flat[z * n + y] == 0
                    for z in range(n)
                )
                if not blocked:
                    dcount += 1
            if flat[y * n + x] == 0:
                blocked = any(
                    z != x and z != y and flat[y * n + z] == 0 and flat[z * n + x] == 0
                    for z in range(n)
                )
                if not blocked:
                    ucount += 1
        if dcount == 1:
            down |= 1 << x
        if ucount == 1:
            up |= 1 << x
    return down, up


def brute_quotient(space):
    """(labels, basis, class_of, representatives) of the Kolmogorov
    quotient, read off the sets of equal minimal opens: classes numbered by
    first point, each basic set the classes its representative's open
    meets."""
    opens = list(dict.fromkeys(space.basis))
    class_of = tuple(opens.index(m) for m in space.basis)
    members = [[x for x in range(space.n) if class_of[x] == c] for c in range(len(opens))]
    reps = tuple(ms[0] for ms in members)
    labels = tuple("|".join(space.labels[x] for x in ms) for ms in members)
    basis = tuple(
        sum(1 << c for c in {class_of[y] for y in range(space.n) if (m >> y) & 1})
        for m in (space.basis[r] for r in reps)
    )
    return labels, basis, class_of, reps
