"""Reference model of finite spaces and the CLI's expected answers.

Nothing here imports the package under test.  A space is a list of labels
plus one bitmask per point, the minimal open set U_x; x lies below y in the
specialization order exactly when x belongs to U_y.  Every expected CLI
answer is derived from that order:

* Points with equal minimal opens form one indistinguishability class, and
  the classes form a poset (the Kolmogorov quotient).
* Furtherness Ψ(x, y) is the number of classes below y that are not below
  x.  ``psi_by_chains`` recomputes it from the definition, a breadth-first
  search over covers in the lattice of opens, and the harness self-check
  holds the two to each other and to the package's own chain oracle.
* A down beat point has a largest point strictly below it, an up beat
  point a smallest point strictly above it.
"""

from __future__ import annotations

import itertools
import json
import math
import string

# Labeled topologies (OEIS A000798) and labeled T0 topologies (A001035).
TOPOLOGY_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
T0_TOPOLOGY_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}

_MASK64 = (1 << 64) - 1


def bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def default_labels(n: int) -> list[str]:
    if n <= 26:
        return list(string.ascii_lowercase[:n])
    return [f"p{i}" for i in range(n)]


def canonical_key(mask: int):
    return (bin(mask).count("1"), bits(mask))


def closure_rows(n: int, rows: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as down-set rows."""
    out = [rows[i] | (1 << i) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if (out[i] >> k) & 1:
                out[i] |= out[k]
    return out


def is_valid_basis(basis) -> bool:
    n = len(basis)
    for x, m in enumerate(basis):
        if m >> n or not (m >> x) & 1:
            return False
        for y in bits(m):
            if basis[y] & ~m:
                return False
    return True


def all_bases(n: int) -> list[tuple[int, ...]]:
    """Every valid minimal basis on n points, lexicographic by rows.

    A plain filter over all row tuples, so only for n <= 4.
    """
    choices = [[m for m in range(1 << n) if (m >> i) & 1] for i in range(n)]
    return [rows for rows in itertools.product(*choices) if is_valid_basis(rows)]


class Space:
    def __init__(self, labels, basis):
        self.labels = list(labels)
        self.basis = list(basis)
        self.n = len(self.labels)
        self.full = (1 << self.n) - 1
        self._psi = None

    # -- sets ---------------------------------------------------------------

    def members(self, mask: int) -> list[str]:
        return [self.labels[i] for i in bits(mask)]

    def closure(self, a: int) -> int:
        return sum(1 << y for y in range(self.n) if self.basis[y] & a)

    def interior(self, a: int) -> int:
        return sum(1 << x for x in bits(a) if not self.basis[x] & ~a)

    def is_open(self, a: int) -> bool:
        return all(not self.basis[x] & ~a for x in bits(a))

    def is_clopen(self, a: int) -> bool:
        return self.is_open(a) and self.is_open(self.full & ~a)

    def opens(self) -> list[int]:
        seen = {0}
        frontier = [0]
        for o in frontier:
            for b in self.basis:
                if o | b not in seen:
                    seen.add(o | b)
                    frontier.append(o | b)
        return sorted(seen, key=canonical_key)

    # -- order and distance -------------------------------------------------

    def classes(self) -> list[int]:
        ids: dict[int, int] = {}
        return [ids.setdefault(m, len(ids)) for m in self.basis]

    def psi(self) -> list[list[int]]:
        if self._psi is None:
            cls = self.classes()
            below = []
            for x in range(self.n):
                below.append({cls[y] for y in bits(self.basis[x])})
            self._psi = [[len(below[y] - below[x]) for y in range(self.n)] for x in range(self.n)]
        return self._psi

    def to_set(self, x: int, target: int):
        row = self.psi()[x]
        return min((row[t] for t in bits(target)), default=math.inf)

    def center_radius(self, a: int, target: int):
        if not a:
            return 0, math.inf
        if not target:
            return a, math.inf
        far = {x: self.to_set(x, target) for x in bits(a)}
        radius = max(far.values())
        return sum(1 << x for x, v in far.items() if v == radius), radius

    # -- derived spaces -----------------------------------------------------

    def quotient(self) -> "Space":
        cls = self.classes()
        k = max(cls) + 1
        groups = [[x for x in range(self.n) if cls[x] == c] for c in range(k)]
        labels = ["|".join(self.labels[x] for x in g) for g in groups]
        basis = [sum(1 << c for c in {cls[y] for y in bits(self.basis[g[0]])}) for g in groups]
        return Space(labels, basis)

    def opposite(self) -> "Space":
        return Space(self.labels, [self.closure(1 << x) for x in range(self.n)])

    def subspace(self, a: int) -> "Space":
        kept = bits(a)
        pos = {x: k for k, x in enumerate(kept)}
        basis = [sum(1 << pos[y] for y in bits(self.basis[x] & a)) for x in kept]
        return Space([self.labels[x] for x in kept], basis)

    def beat_points(self) -> int:
        """Beat points of a T0 space, as a mask."""
        out = 0
        for x in range(self.n):
            down = self.basis[x] & ~(1 << x)
            up = self.closure(1 << x) & ~(1 << x)
            if down and any(self.basis[m] == down for m in bits(down)):
                out |= 1 << x
            elif up and any(self.closure(1 << m) == up for m in bits(up)):
                out |= 1 << x
        return out

    def core(self) -> "Space":
        out = self.quotient()
        while True:
            beats = out.beat_points()
            if not beats:
                return out
            out = out.subspace(out.full & ~(beats & -beats))

    def product(self, other: "Space") -> "Space":
        labels = []
        basis = []
        for i in range(self.n):
            for j in range(other.n):
                labels.append(f"{self.labels[i]},{other.labels[j]}")
                basis.append(
                    sum(1 << (a * other.n + b) for a in bits(self.basis[i]) for b in bits(other.basis[j]))
                )
        return Space(labels, basis)

    def document(self) -> dict:
        return {
            "points": list(self.labels),
            "min_basis": {lab: self.members(self.basis[i]) for i, lab in enumerate(self.labels)},
        }


def psi_by_chains(space: Space) -> list[list[int]]:
    """Ψ from its definition: the least number of cover steps, starting at
    U_x and moving up the lattice of opens, after which the open holds y."""
    opens = space.opens()

    def covers(o):
        above = [v for v in opens if v != o and not o & ~v]
        return [v for v in above if not any(w != v and not w & ~v for w in above)]

    out = []
    for x in range(space.n):
        depth = {space.basis[x]: 0}
        layer = [space.basis[x]]
        while layer:
            nxt = []
            for o in layer:
                for v in covers(o):
                    if v not in depth:
                        depth[v] = depth[o] + 1
                        nxt.append(v)
            layer = nxt
        out.append([min(d for o, d in depth.items() if (o >> y) & 1) for y in range(space.n)])
    return out


# ---------------------------------------------------------------------------
# expected CLI answers


def _radius(r):
    return "inf" if r == math.inf else r


def region_json(space: Space, a: int) -> dict:
    interior = space.interior(a)
    boundary = space.closure(a) & ~interior
    center, radius = space.center_radius(a, boundary)
    return {
        "subset": space.members(a),
        "interior": space.members(interior),
        "boundary": space.members(boundary),
        "center": space.members(center),
        "radius": _radius(radius),
    }


def quasi_json(space: Space, a: int) -> dict:
    center, radius = space.center_radius(a, space.full & ~a)
    return {
        "subset": space.members(a),
        "quasi_center": space.members(center),
        "quasi_radius": _radius(radius),
    }


def separated(space: Space, a: int, b: int) -> bool:
    return not a & space.closure(b) and not space.closure(a) & b


def union_json(space: Space, parts: list[int]):
    """Expected ``union`` answer, or None when the parts break its hypotheses
    (an empty or clopen part, or two parts that are not separated)."""
    for a in parts:
        if not a or space.is_clopen(a):
            return None
    for a, b in itertools.combinations(parts, 2):
        if not separated(space, a, b):
            return None
    reports = []
    for a in parts:
        interior = space.interior(a)
        boundary = space.closure(a) & ~interior
        center, radius = space.center_radius(a, boundary)
        reports.append((boundary, center, radius))
    top = max(r for _, _, r in reports)
    # A center of one part that sits closer to another part's boundary than
    # its own radius cannot be a center of the union.
    pruned = []
    for j, (_, center, radius) in enumerate(reports):
        pruned.append(
            sum(
                1 << c
                for c in bits(center)
                if any(space.to_set(c, reports[i][0]) < radius for i in range(len(parts)) if i != j)
            )
        )
    dominant = [j for j, (_, c, r) in enumerate(reports) if r == top and c & ~pruned[j]]
    predicted = 0
    for j in dominant:
        predicted |= reports[j][1] & ~pruned[j]
    if len(parts) == 2:
        tie = reports[0][2] == reports[1][2]
        case = ("tie-" if tie else "max-") + ("dominates" if predicted else "collapses")
    else:
        case = "dominant-union" if predicted else "direct-only"
    union = 0
    for a in parts:
        union |= a
    return {
        "inputs": [space.members(a) for a in parts],
        "reports": [region_json(space, a) for a in parts],
        "tilde_sets": [space.members(t) for t in pruned],
        "dominant": dominant,
        "case": case,
        "predicted_center": space.members(predicted) if predicted else None,
        "predicted_radius": top if predicted else None,
        "direct": region_json(space, union),
    }


def ball_mask(space: Space, x: int, radius: int, backward: bool) -> int:
    psi = space.psi()
    if backward:
        return sum(1 << y for y in range(space.n) if psi[y][x] < radius)
    return sum(1 << y for y in range(space.n) if psi[x][y] < radius)


def matrix_table(space: Space) -> str:
    psi = space.psi()
    width = max(max(len(lab) for lab in space.labels), max(len(str(v)) for row in psi for v in row))
    lines = [" " * (width + 2) + " ".join(lab.rjust(width) for lab in space.labels)]
    for x, lab in enumerate(space.labels):
        lines.append(f"{lab.rjust(width)}  " + " ".join(str(v).rjust(width) for v in psi[x]))
    return "\n".join(lines) + "\n"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _set_name(members) -> str:
    return "{" + ",".join(members) + "}"


def dot_hasse(space: Space) -> str:
    q = space.quotient()
    names = [_set_name(lab.split("|")) for lab in q.labels]
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f"  {_quote(name)};" for name in names]
    edges = []
    for y in range(q.n):
        strict = q.basis[y] & ~(1 << y)
        for x in bits(strict):
            if not any((q.basis[z] >> x) & 1 for z in bits(strict & ~(1 << x))):
                edges.append((x, y))
    lines += [f"  {_quote(names[x])} -> {_quote(names[y])};" for x, y in sorted(edges)]
    return "\n".join(lines + ["}"]) + "\n"


def dot_lattice(space: Space) -> str:
    family = space.opens()
    names = {o: _set_name(space.members(o)) for o in family}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f"  {_quote(names[o])};" for o in family]
    for a in family:
        for b in family:
            if a == b or a & ~b:
                continue
            if not any(w not in (a, b) and not a & ~w and not w & ~b for w in family):
                lines.append(f"  {_quote(names[a])} -> {_quote(names[b])};")
    return "\n".join(lines + ["}"]) + "\n"


def dumps_compact(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the verifier's union-random sample, rebuilt from its documented generator


def splitmix64(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def documented_random_space(n: int, seed: int) -> Space:
    """One word per ordered pair (i, j), i != j, row-major; the pair is an
    edge j-below-i when the word's top two bits are zero."""
    stream = splitmix64(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and next(stream) >> 62 == 0:
                rows[i] |= 1 << j
    return Space(default_labels(n), closure_rows(n, rows))


def union_random_checked(samples: int, sample_n: int, seed: int, per_space: int = 10) -> int:
    """Number of separated pairs the ``union-random`` property checks: up to
    ``per_space`` qualifying pairs (a < b, disjoint, neither clopen,
    separated) from each sampled space."""
    total = 0
    for i in range(samples):
        sp = documented_random_space(sample_n, seed + i)
        full = sp.full
        closures = [sp.closure(s) for s in range(full + 1)]
        clopen = {s for s in range(full + 1) if sp.is_clopen(s)}
        taken = 0
        for a in range(1, full):
            if a in clopen:
                continue
            for b in range(a + 1, full + 1):
                if b in clopen or a & b or a & closures[b] or closures[a] & b:
                    continue
                taken += 1
                if taken == per_space:
                    break
            if taken == per_space:
                break
        total += taken
    return total
