"""DOT export of the order diagram and the open-set lattice.

Hasse mode draws the specialization order of the Kolmogorov quotient
(transitive reduction, classes labeled by their members); lattice mode
draws the cover graph of the open family under inclusion, taking each
open's covers from ``oracle.cover_successors``.  Node statements come in
canonical set order and edges sorted, so output is byte-stable.

The lattice costs O(n * |opens|**2), so it is refused for families of more
than ``LATTICE_OPEN_LIMIT`` opens, the discrete space on ten points.  The
refusal comes from a search of the opens that stops one past the limit,
before the family is built.
"""

from __future__ import annotations

from .errors import SizeTooLargeError, SpaceError
from .oracle import cover_successors
from .order import kolmogorov_quotient, specialization_preorder
from .spaces import FinSpace, _open_sets

LATTICE_OPEN_LIMIT = 1024


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _set_name(members: tuple[str, ...]) -> str:
    return "{" + ",".join(members) + "}"


def export_dot(space: FinSpace, mode: str = "hasse") -> str:
    if mode == "hasse":
        return _hasse(space)
    if mode == "lattice":
        return _lattice(space)
    raise SpaceError(f"unknown dot mode {mode!r}")


def _hasse(space: FinSpace) -> str:
    quotient = kolmogorov_quotient(space)
    members: list[list[str]] = [[] for _ in range(quotient.space.n)]
    for label, c in zip(space.labels, quotient.class_of):
        members[c].append(label)
    names = [_set_name(tuple(ms)) for ms in members]
    order = specialization_preorder(quotient.space)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for name in names:
        lines.append(f"  {_quote(name)};")
    for lower, upper in order.covers():
        lines.append(f"  {_quote(names[lower])} -> {_quote(names[upper])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _lattice(space: FinSpace) -> str:
    found = len(_open_sets(space.basis, stop=LATTICE_OPEN_LIMIT + 1))
    if found > LATTICE_OPEN_LIMIT:
        raise SizeTooLargeError(
            found, LATTICE_OPEN_LIMIT, "lattice export", "opens", at_least=True
        )
    family = space.open_family
    names = {o: _set_name(space.members(o)) for o in family}
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for o in family:
        lines.append(f"  {_quote(names[o])};")
    for a in family:
        for b in cover_successors(space, a):
            lines.append(f"  {_quote(names[a])} -> {_quote(names[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
