"""Chain-search oracle for the furtherness distance.

This module recomputes furtherness straight from its definition: the value
for (x, y) is the least position at which y shows up in some nested run of
opens that starts at the minimal open of x and, at each step, jumps to an
open with nothing strictly between.  It shares no code with the fast
counting formula in ``distance`` beyond the space type itself, which is the
point: the two routes check each other.

The search walks the cover graph of the open-set lattice.  Every cover of
an open O has the form O | min_open(a) for some point a outside O, so the
candidate step set is small; candidates are then filtered by an explicit
no-open-in-between scan against the full family.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import SizeTooLargeError, SpaceError
from .spaces import OPEN_FAMILY_LIMIT, FinSpace, PointLike, canonical_sets

# full-length cover paths that ``witness_chains`` walks before it refuses:
# the discrete space on n - 1 points plus a top point has (n - 2)! of them
# from a discrete point to the top, 720 at 8 points and 5,040 at 9
WITNESS_PATH_LIMIT = 1 << 12


def _nothing_between(family, o: int, v: int) -> bool:
    """Whether no member of ``family`` lies strictly between ``o`` and ``v``."""
    for w in family:
        if w != o and w != v and not (o & ~w) and not (w & ~v):
            return False
    return True


def cover_successors(space: FinSpace, o: int) -> tuple[int, ...]:
    """Opens covering the open ``o``: strict supersets with nothing strictly
    between.  A mask that is not an open of the space raises ``SpaceError``,
    one that is not an ``int`` before the cache sees it; a bool reads as its
    int."""
    if not isinstance(o, int):
        raise SpaceError(f"{o!r} is not an open set of the space")
    return _cover_successors(space, o)


# bounded by the most opens one space can have: the largest family fits,
# and the spaces seen before it are let go with all their tables
@lru_cache(maxsize=OPEN_FAMILY_LIMIT)
def _cover_successors(space: FinSpace, o: int) -> tuple[int, ...]:
    fam = space.open_family
    if o not in fam:
        raise SpaceError(f"{o!r} is not an open set of the space")
    candidates = []
    seen = set()
    for a in range(space.n):
        if (o >> a) & 1:
            continue
        v = o | space.basis[a]
        if v != o and v not in seen:
            seen.add(v)
            candidates.append(v)
    return canonical_sets(v for v in candidates if _nothing_between(fam, o, v))


# the cache's counters under the public name, where perfbench/tracer.py reads them
cover_successors.cache_info = _cover_successors.cache_info


class ChainWitness(NamedTuple):
    """A nested run of opens, each step a cover in the open-set lattice."""

    opens: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.opens) - 1

    def validate(self, space: FinSpace, x: PointLike) -> None:
        """Raise ``SpaceError`` unless this is a nested run of covers from x's
        open.  ``opens`` that is not a tuple or list of ``int`` masks is
        refused before any lookup; a bool reads as its int."""
        opens = self.opens
        if not isinstance(opens, (tuple, list)) or not all(isinstance(o, int) for o in opens):
            raise SpaceError("chain is not a tuple or list of int masks")
        if not opens:
            raise SpaceError("empty chain")
        if opens[0] != space.min_open(x):
            raise SpaceError("chain does not start at the minimal open of x")
        fam = space.open_family
        for o in opens:
            if o not in fam:
                raise SpaceError("chain contains a non-open set")
        for o, v in zip(opens, opens[1:]):
            if not (o & ~v == 0 and o != v):
                raise SpaceError("chain is not strictly increasing")
            if not _nothing_between(fam, o, v):
                raise SpaceError("chain step is not a cover")


def _chain_search(space: FinSpace, x: PointLike, bound: int, accept) -> tuple[int, ChainWitness]:
    """Breadth-first search over the cover graph from the minimal open of x,
    through opens inside ``bound``, to the first open ``accept`` takes.

    Returns its depth, which is minimal, and the chain to it, recovered
    from parent pointers.
    """
    start = space.min_open(x)
    parent: dict[int, int | None] = {start: None}
    layer = [start]
    k = 0
    while layer:
        for o in layer:
            if accept(o):
                chain = [o]
                at: int | None = o
                while parent[at] is not None:
                    at = parent[at]
                    chain.append(at)
                chain.reverse()
                return k, ChainWitness(tuple(chain))
        nxt = []
        for o in layer:
            for v in cover_successors(space, o):
                if not v & ~bound and v not in parent:
                    parent[v] = o
                    nxt.append(v)
        layer = nxt
        k += 1
    raise AssertionError("unreachable: the bound holds an accepted open above the start")


def furtherness_oracle(space: FinSpace, x: PointLike, y: PointLike) -> tuple[int, ChainWitness]:
    """Least position at which y appears in a nested run around x, and one
    such run: the chain search with no bound, to the first open holding y."""
    j = space.index(y)
    return _chain_search(space, x, space.full, lambda o: (o >> j) & 1)


def union_witness(space: FinSpace, x: PointLike, y: PointLike) -> ChainWitness:
    """Shortest nested run from x's minimal open to min_open({x,y}).

    The target is the union of the two minimal opens; the returned chain
    ends at exactly that open (its length is checked against the oracle
    value by the test suite, not assumed here).  Chains to the target stay
    inside it, as covers only grow.
    """
    target = space.min_open(x) | space.min_open(y)
    return _chain_search(space, x, target, lambda o: o == target)[1]


def witness_chains(space: FinSpace, x: PointLike, y: PointLike) -> tuple[ChainWitness, ...]:
    """Every nested run of minimal length whose last open contains y.

    Enumerates all cover paths of length furtherness_oracle(x, y) from the
    minimal open of x and keeps those ending in an open containing y; no
    path is pruned, so callers can inspect the full witness set.  Raises
    ``SizeTooLargeError`` once the walk reaches more than
    ``WITNESS_PATH_LIMIT`` such paths.
    """
    k, _ = furtherness_oracle(space, x, y)
    j = space.index(y)
    out: list[ChainWitness] = []
    chain = [space.min_open(x)]
    walked = 0

    def rec():
        nonlocal walked
        if len(chain) - 1 == k:
            walked += 1
            if walked > WITNESS_PATH_LIMIT:
                raise SizeTooLargeError(
                    walked, WITNESS_PATH_LIMIT, "witness chain search", "cover paths", at_least=True
                )
            if (chain[-1] >> j) & 1:
                out.append(ChainWitness(tuple(chain)))
            return
        for v in cover_successors(space, chain[-1]):
            chain.append(v)
            rec()
            chain.pop()

    rec()
    return tuple(out)
