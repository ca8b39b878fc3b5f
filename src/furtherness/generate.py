"""Topology enumeration and seeded random space generation.

Enumeration walks reflexive transitive relations row by row (a minimal
basis IS such a relation, read as down-sets), which gives every labeled
topology exactly once in a fixed order.  An independent cross-generator
filters raw set families instead; the two must agree and the test suite
holds them to it.  The enumerated bases of each size are kept in a cache
as the kernel gives them, and the T0 ones are those whose rows are pairwise
distinct.  Every space is built from its basis through the validating
constructor, in the process that reads it: ``enumerate_topologies`` yields
the spaces one at a time, and ``count_topologies`` counts the cached bases.

Random spaces come from a fixed, documented generator so that seeds are
portable: a splitmix64 stream seeded with the given value produces one
64-bit word per ordered point pair (i, j), i != j, in row-major order; the
pair becomes an edge j-below-i when the top two bits of its word are zero
(probability 1/4); the reflexive-transitive closure of the edge set is the
minimal basis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from . import _kernels as K
from .errors import SizeTooLargeError
from .spaces import FinSpace, _as_int, _check_points

ENUMERATION_LIMIT = 5

_FAMILY_LIMIT = 4


def default_labels(n: int) -> tuple[str, ...]:
    _check_points(n)
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return tuple(f"p{i}" for i in range(n))


@lru_cache(maxsize=None)
def _bases(n: int) -> tuple[tuple[int, ...], ...]:
    """The enumerated bases of one size, as the kernel gives them.

    None is validated here: the spaces are built from them through the
    validating constructor.
    """
    return tuple(K.enumerate_bases(n))


def _enumerated(n: int, t0_only: bool) -> tuple[tuple[int, ...], ...]:
    """The cached bases of one size, or with ``t0_only`` those whose rows are
    pairwise distinct, the predicate of ``FinSpace.is_t0``."""
    _check_size(n)
    if t0_only:
        return tuple(basis for basis in _bases(n) if len(set(basis)) == n)
    return _bases(n)


def _check_size(n: int) -> None:
    _check_points(n)
    if n > ENUMERATION_LIMIT:
        raise SizeTooLargeError(n, ENUMERATION_LIMIT)


def enumerate_topologies(n: int, t0_only: bool = False) -> Iterator[FinSpace]:
    """Every labeled topology on n points, deterministically ordered."""
    bases = _enumerated(n, t0_only)
    labels = default_labels(n)
    for basis in bases:
        yield FinSpace(labels, basis)


def count_topologies(n: int, t0_only: bool = False) -> int:
    return len(_enumerated(n, t0_only))


def family_generated_bases(n: int, t0_only: bool = False) -> frozenset[tuple[int, ...]]:
    """Cross-generator: bases of all union/intersection-closed families.

    Scans every subfamily of the proper nonempty subsets (plus the empty and
    full sets), keeps the closed ones, and reads off each minimal basis;
    the T0 answer is those bases with pairwise distinct rows.  Exponential
    in 2^n, hence the low size cap; exists purely to check the relation
    enumerator against an unrelated construction.
    """
    _check_points(n)
    if n > _FAMILY_LIMIT:
        raise SizeTooLargeError(n, _FAMILY_LIMIT, "family enumeration")
    bases = _family_scan(n)
    if t0_only:
        return frozenset(basis for basis in bases if len(set(basis)) == n)
    return bases


@lru_cache(maxsize=None)
def _family_scan(n: int) -> frozenset[tuple[int, ...]]:
    """The scan behind ``family_generated_bases``, run once per n."""
    full = (1 << n) - 1
    propers = list(range(1, full))
    out = set()
    for bits in range(1 << len(propers)):
        fam = [0]
        rest = bits
        while rest:
            low = rest & -rest
            fam.append(propers[low.bit_length() - 1])
            rest ^= low
        fam.append(full)
        ok = True
        have = set(fam)
        for i, a in enumerate(fam):
            for b in fam[i + 1 :]:
                if (a | b) not in have or (a & b) not in have:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        basis = []
        for x in range(n):
            m = full
            for o in fam:
                if (o >> x) & 1:
                    m &= o
            basis.append(m)
        out.add(tuple(basis))
    return frozenset(out)


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The classic 64-bit splitmix stream; documented for seed portability."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_space(n: int, seed: int) -> FinSpace:
    """Deterministic pseudo-random space; see the module docstring.  The
    seed is taken modulo 2**64, so -1 and 2**64 - 1 give one space; a seed
    that is not an ``int`` raises ``SpaceError``."""
    _check_points(n)
    stream = splitmix64(_as_int(seed, "the seed"))
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if next(stream) >> 62 == 0:
                rows[i] |= 1 << j
    return FinSpace(default_labels(n), K.transitive_closure(rows))
