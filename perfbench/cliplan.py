"""Query plan of the cli-queries workload.

``plan(seed, count)`` makes every space document, the command line of each
query and its expected answer from the seed alone.  The answers come from
``model``, never from the package under test.

The command mix is a fixed cycle, so every seed sends the same commands on
documents of the same size classes; the seed picks the spaces, subsets,
points and radii.  Each query gets documents of its own, so no per-space
cache can be reused between queries.  Every eighth query is invalid (a
broken document, an unknown label, a zero radius, parts that are not
separated, an enumeration size over the limit) and must exit 1.
"""

from __future__ import annotations

import json
import math
import random

from model import (
    T0_TOPOLOGY_COUNTS,
    TOPOLOGY_COUNTS,
    Space,
    all_bases,
    ball_mask,
    closure_rows,
    default_labels,
    dot_hasse,
    dot_lattice,
    dumps_compact,
    matrix_table,
    quasi_json,
    region_json,
    union_json,
)

SIZES = {"S": (6, 10), "M": (16, 32), "L": (48, 96)}

# Weighted toward region, quasi, matrix and balls; covers every command but
# ``verify``.
CYCLE = [
    ("region", "M"), ("matrix", "L"), ("quasi", "M"), ("balls", "S"), ("region", "L"),
    ("validate", "M"), ("matrix-table", "S"), ("quasi", "L"), ("balls", "L"), ("union", "M"),
    ("region", "S"), ("quotient", "L"), ("opposite", "M"), ("core", "S"), ("product", "S"),
    ("dot", "S"), ("enumerate", "-"), ("matrix", "M"), ("balls", "M"), ("quasi", "S"),
]
INVALID_EVERY = 8
INVALID_AT = 5
NO_LABEL = "zz9"  # never produced by default_labels
LATTICE_MAX_OPENS = 48


class Query:
    """One CLI invocation: ``argv`` after ``furtherness.cli``, the documents
    it reads, and what it must print (``expect`` is None for exit 1)."""

    def __init__(self, command, argv, files, expect, form="text"):
        self.command = command
        self.argv = argv
        self.files = files
        self.expect = expect
        self.form = form

    def check(self, rc: int, out: str, err: str) -> str | None:
        """None when the output is right, else a one-line reason."""
        if self.expect is None:
            if rc != 1 or out or "error:" not in err:
                return f"expected exit 1 with 'error:' on stderr, got rc={rc} err={err[:80]!r}"
            return None
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        if self.form == "json":
            try:
                got = json.loads(out)
            except ValueError:
                return "stdout is not JSON"
        elif self.form == "jsonl":
            try:
                got = [json.loads(line) for line in out.splitlines()]
            except ValueError:
                return "stdout is not JSON lines"
        else:
            got = out
        return None if got == self.expect else "output differs from the reference"


def _poset(rng: random.Random, k: int) -> Space:
    order = list(range(k))
    rng.shuffle(order)
    p = min(0.6, 2.5 / k)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p:
                rows[order[j]] |= 1 << order[i]
    return Space(default_labels(k), closure_rows(k, rows))


_KINDS = ("poset", "blowup", "dense", "product")


def _space(rng: random.Random, n: int, kinds=_KINDS) -> Space:
    kind = rng.choice(kinds)
    if kind == "poset":
        return _poset(rng, n)
    if kind == "product":
        a = rng.randint(2, max(2, int(math.sqrt(n))))
        prod = _poset(rng, a).product(_poset(rng, max(2, round(n / a))))
        return Space(default_labels(prod.n), prod.basis)
    if kind == "blowup":
        k = rng.randint(2, min(12, n))
        base = _poset(rng, k)
        cls = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(cls)
        basis = [
            sum(1 << y for y in range(n) if (base.basis[cls[x]] >> cls[y]) & 1) for x in range(n)
        ]
        return Space(default_labels(n), basis)
    # a dense random relation, which collapses to a few classes
    rows = [sum(1 << j for j in range(n) if j != i and rng.random() < 0.25) for i in range(n)]
    return Space(default_labels(n), closure_rows(n, rows))


def _document(rng: random.Random, sp: Space) -> str:
    if sp.n <= 8 and rng.random() < 0.3:
        opens = sp.opens()
        if len(opens) <= 64:
            return json.dumps({"points": sp.labels, "opens": [sp.members(o) for o in opens]})
    return json.dumps(sp.document())


def _broken_document(rng: random.Random, sp: Space) -> str:
    """A document the package must reject, with the reason picked by rng."""
    doc = sp.document()
    labels = sp.labels
    reason = rng.choice(("not-nested", "own-point", "syntax", "schema", "duplicate", "unknown", "not-closed"))
    if reason == "not-closed" and sp.n <= 8:
        opens = sp.opens()
        pairs = [(a, b) for a in opens for b in opens if a | b not in (a, b)]
        if pairs:
            a, b = rng.choice(pairs)
            kept = [sp.members(o) for o in opens if o != a | b]
            return json.dumps({"points": labels, "opens": kept})
    if reason == "not-nested":
        pairs = [
            (x, y)
            for x in range(sp.n)
            for y in range(sp.n)
            if not (sp.basis[x] >> y) & 1 and sp.basis[y] & ~(sp.basis[x] | 1 << y)
        ]
        if pairs:
            x, y = rng.choice(pairs)
            doc["min_basis"][labels[x]] = sp.members(sp.basis[x] | 1 << y)
            return json.dumps(doc)
    if reason == "syntax":
        text = json.dumps(doc)
        return text[: len(text) // 2]
    if reason == "schema":
        doc["extra"] = 1
        return json.dumps(doc)
    if reason == "duplicate":
        doc["points"] = labels + [labels[0]]
        return json.dumps(doc)
    if reason == "unknown":
        doc["min_basis"][rng.choice(labels)].append(NO_LABEL)
        return json.dumps(doc)
    x = rng.randrange(sp.n)
    doc["min_basis"][labels[x]] = sp.members(sp.basis[x] & ~(1 << x))
    return json.dumps(doc)


def _subset(rng: random.Random, sp: Space) -> int:
    k = rng.randint(1, max(1, sp.n // 3))
    return sum(1 << x for x in rng.sample(range(sp.n), k))


def _subset_arg(rng: random.Random, sp: Space, mask: int) -> str:
    labels = sp.members(mask)
    rng.shuffle(labels)
    return ",".join(labels)


def _union_parts(rng: random.Random, sp: Space):
    arity = 3 if rng.random() < 0.3 else 2
    for _ in range(400):
        parts = [sum(1 << x for x in rng.sample(range(sp.n), rng.randint(1, 2))) for _ in range(arity)]
        expect = union_json(sp, parts)
        if expect is not None:
            return parts, expect
    return None, None


def _query(rng: random.Random, index: int, command: str, size: str) -> Query:
    invalid = index % INVALID_EVERY == INVALID_AT
    name = f"q{index}"
    if command == "enumerate":
        if invalid:
            return Query(command, ["enumerate", "--n", "6", "--count-only"], {}, None)
        k = rng.randint(1, 5)
        t0 = rng.random() < 0.5
        flag = ["--t0"] if t0 else []
        if k <= 3 and rng.random() < 0.4:
            lines = [
                json.loads(dumps_compact(Space(default_labels(k), rows).document()))
                for rows in all_bases(k)
                if not t0 or len(set(rows)) == k
            ]
            return Query(command, ["enumerate", "--n", str(k)] + flag, {}, lines, "jsonl")
        count = (T0_TOPOLOGY_COUNTS if t0 else TOPOLOGY_COUNTS)[k]
        return Query(command, ["enumerate", "--n", str(k), "--count-only"] + flag, {}, f"{count}\n")

    if command == "product":
        left = _space(rng, rng.randint(3, 8))
        right = _space(rng, rng.randint(3, 8))
        files = {f"{name}a.json": _document(rng, left), f"{name}b.json": _document(rng, right)}
        argv = ["product", f"{name}a.json", f"{name}b.json"]
        if invalid:
            files[f"{name}a.json"] = _broken_document(rng, left)
            return Query(command, argv, files, None)
        return Query(command, argv, files, dumps_compact(left.product(right).document()) + "\n")

    # separated parts need distinguishable points, so unions get T0 spaces
    sp = _space(rng, rng.randint(*SIZES[size]), ("poset", "product") if command == "union" else _KINDS)
    path = f"{name}.json"
    files = {path: _document(rng, sp)}
    if command in ("region", "quasi"):
        mask = _subset(rng, sp)
        arg = _subset_arg(rng, sp, mask)
        if invalid:
            return Query(command, [command, path, "--subset", f"{arg},{NO_LABEL}"], files, None)
        expect = (region_json if command == "region" else quasi_json)(sp, mask)
        return Query(command, [command, path, "--subset", arg], files, expect, "json")
    if command == "balls":
        x = rng.randrange(sp.n)
        radius = rng.randint(1, max(max(row) for row in sp.psi()) + 1)
        backward = rng.random() < 0.5
        argv = ["balls", path, "--center", sp.labels[x], "--radius", str(radius)]
        argv += ["--backward"] if backward else []
        if invalid:
            argv[argv.index("--radius") + 1] = "0"
            return Query(command, argv, files, None)
        expect = {
            "center": sp.labels[x],
            "radius": radius,
            "backward": backward,
            "ball": sp.members(ball_mask(sp, x, radius, backward)),
        }
        return Query(command, argv, files, expect, "json")
    if command == "union":
        parts, expect = (None, None) if invalid else _union_parts(rng, sp)
        if parts is None:
            # a part is never separated from itself
            arg = _subset_arg(rng, sp, _subset(rng, sp))
            return Query(command, ["union", path, "--subsets", f"{arg}|{arg}"], files, None)
        arg = "|".join(_subset_arg(rng, sp, p) for p in parts)
        return Query(command, ["union", path, "--subsets", arg], files, expect, "json")

    argv = {
        "validate": ["validate", path],
        "matrix": ["matrix", path, "--json"],
        "matrix-table": ["matrix", path],
        "quotient": ["quotient", path],
        "opposite": ["opposite", path],
        "core": ["core", path],
        "dot": ["dot", path],
    }[command]
    if invalid:
        files[path] = _broken_document(rng, sp)
        return Query(command, argv, files, None)
    if command == "validate":
        return Query(command, argv, files, "valid\n")
    if command == "matrix":
        return Query(command, argv, files, {"points": sp.labels, "matrix": sp.psi()}, "json")
    if command == "matrix-table":
        return Query(command, argv, files, matrix_table(sp))
    if command == "dot":
        if len(sp.opens()) <= LATTICE_MAX_OPENS and rng.random() < 0.5:
            return Query(command, argv + ["--lattice"], files, dot_lattice(sp))
        return Query(command, argv, files, dot_hasse(sp))
    derived = {"quotient": sp.quotient, "opposite": sp.opposite, "core": sp.core}[command]()
    return Query(command, argv, files, dumps_compact(derived.document()) + "\n")


def plan(seed: int, count: int, only_size: str | None = None) -> list[Query]:
    """``count`` queries for ``seed``; ``only_size`` replaces every size
    class (the harness self-check uses small documents only)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        command, size = CYCLE[i % len(CYCLE)]
        out.append(_query(rng, i, command, only_size or size))
    return out

