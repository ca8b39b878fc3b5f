import gc
import time
import weakref

import pytest

from furtherness import (
    ChainWitness,
    FinSpace,
    SizeTooLargeError,
    SpaceError,
    cover_successors,
    enumerate_topologies,
    furtherness,
    furtherness_oracle,
    union_witness,
    witness_chains,
)
from furtherness.spaces import OPEN_FAMILY_LIMIT
from oracles import covers_of


def test_value_and_witness_e2(e2):
    k, chain = furtherness_oracle(e2, "a", "b")
    assert k == 1
    # the short route is {a} ⊂ {a,b}; the long route through {a,d} loses
    assert chain.opens == (e2.mask("a"), e2.mask("ab"))
    chain.validate(e2, "a")


def test_oracle_matches_formula_small():
    for sp in enumerate_topologies(3):
        for x in range(sp.n):
            for y in range(sp.n):
                k, chain = furtherness_oracle(sp, x, y)
                assert k == furtherness(sp, x, y)
                assert chain.length == k
                chain.validate(sp, x)


def test_cover_successors_match_definition(e1, e2, q1):
    for sp in (e1, e2, q1):
        fam_sets = {frozenset(sp.members(o)) for o in sp.open_family}
        for o in sp.open_family:
            got = {frozenset(sp.members(v)) for v in cover_successors(sp, o)}
            assert got == set(covers_of(fam_sets, frozenset(sp.members(o))))


def test_union_witness_endpoint(e2):
    for x in range(e2.n):
        for y in range(e2.n):
            chain = union_witness(e2, x, y)
            chain.validate(e2, x)
            assert chain.opens[-1] == e2.basis[x] | e2.basis[y]
            assert chain.length == furtherness(e2, x, y)


def test_all_minimal_chains_end_at_the_two_point_open(e2):
    for x in range(e2.n):
        for y in range(e2.n):
            target = e2.basis[x] | e2.basis[y]
            chains = witness_chains(e2, x, y)
            assert chains
            for chain in chains:
                assert chain.opens[-1] == target


def _discrete_with_top(n):
    """The discrete space on n - 1 points and a top point whose minimal open
    is every point: (n - 2)! minimal chains from a discrete point to the top."""
    return FinSpace([f"p{i}" for i in range(n)], [1 << i for i in range(n - 1)] + [(1 << n) - 1])


def test_witness_chains_walks_every_minimal_chain_under_the_bound():
    sp = _discrete_with_top(8)
    chains = witness_chains(sp, 0, 7)
    assert len(chains) == 720
    assert len(set(chains)) == 720
    for chain in chains:
        chain.validate(sp, 0)


def test_witness_chains_refuses_past_the_path_bound():
    # 5,040 full-length paths at 9 points; the walk stops at the 4,097th
    sp = _discrete_with_top(9)
    start = time.perf_counter()
    with pytest.raises(SizeTooLargeError, match="4096 cover paths, got at least 4097"):
        witness_chains(sp, 0, 8)
    assert time.perf_counter() - start < 5


def test_validate_rejects_wrong_start(e2):
    with pytest.raises(SpaceError, match="does not start"):
        ChainWitness((e2.mask("ab"), e2.full)).validate(e2, "a")


def test_validate_rejects_non_cover_step(e2):
    # {a} to {a,b,d} skips {a,b} and {a,d}
    with pytest.raises(SpaceError, match="not a cover"):
        ChainWitness((e2.mask("a"), e2.mask("abd"))).validate(e2, "a")


def test_validate_rejects_non_open(e2):
    with pytest.raises(SpaceError, match="non-open"):
        ChainWitness((e2.mask("a"), e2.mask("ac"))).validate(e2, "a")


def test_validate_rejects_repeated_open(e2):
    # both sets are open and the start is right, but the step stands still
    with pytest.raises(SpaceError, match="not strictly increasing"):
        ChainWitness((e2.mask("a"), e2.mask("a"))).validate(e2, "a")


@pytest.mark.parametrize("opens", [5, (1, [3]), (1, 3.0), "ab", [1, None], range(1, 3)])
def test_validate_rejects_a_chain_that_is_not_int_masks(e2, opens):
    with pytest.raises(SpaceError, match="not a tuple or list of int masks"):
        ChainWitness(opens).validate(e2, "a")


def test_validate_reads_a_bool_as_its_int():
    sp = FinSpace(("a", "b"), (1, 3))
    ChainWitness((True, 3)).validate(sp, "a")
    ChainWitness([1, 3]).validate(sp, "a")


def test_validate_rejects_empty():
    with pytest.raises(SpaceError, match="empty chain"):
        ChainWitness(()).validate(None, 0)


def test_zero_length_chain(e2):
    k, chain = furtherness_oracle(e2, "c", "a")
    assert k == 0 and chain.opens == (e2.full,)


def test_cover_successors_refuse_a_mask_that_is_not_open():
    sp = FinSpace(("a", "b", "c"), (1, 3, 7))
    before = cover_successors.cache_info()
    for bad in (99, 2, -1, 1.5, [1], None):
        with pytest.raises(SpaceError, match="is not an open set"):
            cover_successors(sp, bad)
    after = cover_successors.cache_info()
    # a refusal is a miss that caches nothing
    assert after.currsize == before.currsize
    assert after.hits == before.hits
    assert cover_successors(sp, 1) == (3,)
    hits = cover_successors.cache_info().hits
    # a bool reads as its int and gets the same covers
    assert cover_successors(sp, True) == (3,)
    assert cover_successors.cache_info().hits == hits + 1


def test_cover_successors_refuse_a_float_equal_to_a_cached_open():
    sp = FinSpace(("a", "b", "c"), (1, 3, 7))
    assert cover_successors(sp, 1) == (3,)
    with pytest.raises(SpaceError, match="is not an open set"):
        cover_successors(sp, 1.0)


def test_cover_cache_holds_at_most_one_family():
    # one entry per (space, open): a bound of the most opens one space can
    # have keeps the spaces seen before that family out of memory
    before = cover_successors.cache_info()
    first = None
    opens = 0
    for sp in enumerate_topologies(5):
        if first is None:
            first = weakref.ref(sp)
        for o in sp.open_family:
            cover_successors(sp, o)
        opens += len(sp.open_family)
        if opens > OPEN_FAMILY_LIMIT + 100:
            break
    info = cover_successors.cache_info()
    assert info.misses - before.misses == opens
    assert info.currsize == OPEN_FAMILY_LIMIT
    gc.collect()
    assert first() is None
    # repeated oracle calls on one space still hit
    furtherness_oracle(sp, "a", "e")
    before = cover_successors.cache_info()
    furtherness_oracle(sp, "a", "e")
    after = cover_successors.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
