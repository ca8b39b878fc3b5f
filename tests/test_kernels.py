"""The kernels: brute-force checks of the inlined loops, spaces wider than
a machine word, and the names that outside wrappers bind to.
"""

import math
import random

import pytest

import furtherness
from furtherness import _kernels as K
from furtherness import enumerate_topologies, family_generated_bases
from furtherness.regions import subset_table

from oracles import scan_all_masks_bases

# the kernels that perfbench/tracer.py wraps, one layer each
KERNEL_NAMES = (
    "class_ids", "further_matrix", "closure_mask", "interior_mask", "minimal_open_mask",
    "point_to_set", "set_to_set", "center_radius", "transitive_closure", "enumerate_bases",
)


def all_bases(max_n):
    for n in range(1, max_n + 1):
        for basis in K.enumerate_bases(n):
            yield n, basis


def test_kernels_handle_more_than_64_points():
    # 70-point chain: U_i = {0..i}; wider than a machine word
    n = 70
    basis = tuple((1 << (i + 1)) - 1 for i in range(n))
    flat = K.further_matrix(basis)
    assert flat[0 * n + 69] == 69
    assert flat[69 * n + 0] == 0
    assert K.closure_mask(basis, 1) == (1 << n) - 1


def test_backend_name_is_reported():
    assert furtherness.kernel_backend == "pure"


def test_kernel_contract_for_tracer():
    # the benchmark tracer wraps the kernels by these names on this module
    for name in KERNEL_NAMES:
        assert callable(getattr(K, name)), name


def _subsets(n):
    return range(1 << n)


def _members(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def test_class_opens_against_brute_force():
    # the images of the basic sets under the class ids: the set of class
    # ids each basic set meets, on every basis up to 5 points and on
    # seeded random spaces of 6 to 10 points
    bases = list(all_bases(5))
    bases += [(sp.n, sp.basis) for sp in (furtherness.random_space(6 + s % 5, s) for s in range(60))]
    for n, b in bases:
        cls = K.class_ids(b)
        got = K.images(b, cls)
        assert got == tuple(sum(1 << c for c in {cls[z] for z in _members(m)}) for m in b)
        if len(set(b)) == n:
            assert furtherness.FinSpace(furtherness.default_labels(n), b).class_opens is b


def test_pure_leaf_kernels_against_brute_force():
    # further_matrix counts the classes of the class recoding, and
    # set_to_set and center_radius take each point's distance through
    # point_to_set: hold the three to the class counts and to minima and
    # maxima of those point-to-set values
    for n, b in all_bases(3):
        cls = K.class_ids(b)
        flat = K.further_matrix(K.images(b, cls))
        for x in range(n):
            for y in range(n):
                grown = {cls[z] for z in _members(b[y])} - {cls[z] for z in _members(b[x])}
                assert flat[x * n + y] == len(grown)
        for a in _subsets(n):
            for t in _subsets(n):
                dists = {x: K.point_to_set(n, flat, x, t) for x in _members(a)}
                want = min(dists.values()) if a and t else math.inf
                assert K.set_to_set(n, flat, a, t) == want
                if not a:
                    want = (0, math.inf)
                elif not t:
                    want = (a, math.inf)
                else:
                    best = max(dists.values())
                    want = (sum(1 << x for x, v in dists.items() if v == best), best)
                assert K.center_radius(n, flat, a, t) == want


def _fixpoint_closure(n, rows):
    """The reflexive-transitive closure of the relation {(i, j) : j in
    rows[i]}, as pairs, grown until no chained pair is new; read back as
    one mask per point."""
    pairs = {(i, i) for i in range(n)}
    pairs |= {(i, j) for i in range(n) for j in _members(rows[i])}
    while True:
        chained = {(i, k) for i, j in pairs for j2, k in pairs if j == j2}
        if chained <= pairs:
            return tuple(sum(1 << j for i2, j in pairs if i2 == i) for i in range(n))
        pairs |= chained


def test_transitive_closure_against_a_brute_fixpoint(monkeypatch):
    # random rows of 1 to 9 points, each pair related with probability 1/4
    rng = random.Random(7)
    for n in range(1, 10):
        for _ in range(40):
            rows = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
            assert K.transitive_closure(rows) == _fixpoint_closure(n, rows), (n, rows)
    # each row grows through the union kernel, by module attribute, so a
    # wrapper around the kernels sees those calls
    calls = []
    kernel = K.minimal_open_mask

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(K, "minimal_open_mask", counted)
    assert K.transitive_closure([0b010, 0b100, 0]) == (0b111, 0b110, 0b100)
    assert len(calls) >= 3


def _class_count_matrix(n, basis):
    """Entry (x, y): the classes of equal basic sets meeting basis[y] but
    not basis[x], from the classes as point sets."""
    classes = {}
    for z, m in enumerate(basis):
        classes.setdefault(m, set()).add(z)
    out = []
    for x in range(n):
        for y in range(n):
            out.append(
                sum(
                    1
                    for members in classes.values()
                    if any((basis[y] >> z) & 1 for z in members)
                    and not any((basis[x] >> z) & 1 for z in members)
                )
            )
    return tuple(out)


def _recoded(basis):
    return K.images(basis, K.class_ids(basis))


def test_further_matrix_is_the_class_count():
    for n, b in all_bases(4):
        assert K.further_matrix(_recoded(b)) == _class_count_matrix(n, b), b
    # a wide T0 chain, where the basic sets are their own class recoding,
    # and the same chain with every point doubled, where they are not
    n = 40
    chain = tuple((1 << (i + 1)) - 1 for i in range(n))
    assert K.further_matrix(chain) == _class_count_matrix(n, chain)
    doubled = tuple((1 << (2 * (i // 2) + 2)) - 1 for i in range(n))
    assert K.further_matrix(_recoded(doubled)) == _class_count_matrix(n, doubled)


def test_each_class_kernel_runs_at_most_once_per_space(monkeypatch):
    # FinSpace derives the class ids, the class recoding and the matrix
    # once each, every one from the one before it, and a T0 space, its
    # own recoding and its own quotient, runs neither class kernel
    calls = []
    for name in ("class_ids", "images", "further_matrix"):
        kernel = getattr(K, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(K, name, counted)
    for n, b in all_bases(4):
        sp = furtherness.FinSpace(furtherness.default_labels(n), b)
        calls.clear()
        assert len(sp.further_flat) == n * n and len(sp.class_opens) == n
        assert furtherness.kolmogorov_quotient(sp).class_of == sp.class_ids
        assert len(calls) == len(set(calls)), (b, calls)
        want = {"further_matrix"} if sp.is_t0 else {"class_ids", "images", "further_matrix"}
        assert set(calls) == want, (b, calls)


def test_the_point_closures_run_the_closure_kernel_at_most_once_per_point(monkeypatch):
    # the opposite space, the closure table and the beat points all read
    # the one tuple of point closures
    calls = []
    kernel = K.closure_mask

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(K, "closure_mask", counted)
    for n, b in all_bases(4):
        sp = furtherness.FinSpace(furtherness.default_labels(n), b)
        calls.clear()
        assert sp.opposite().basis == sp.point_closures
        assert subset_table(sp).closure[sp.full] == sp.full
        furtherness.beat_points(sp)
        assert len(calls) <= n, (b, calls)


@pytest.mark.parametrize("t0_only", [False, True])
def test_enumerate_bases_walks_the_masks_a_scan_keeps(t0_only):
    # the same bases in the same order as the scan over every mask; the T0
    # bases are the kernel's, filtered, against the scan's own T0 mode
    for n in range(1, 6):
        if t0_only:
            got = [sp.basis for sp in enumerate_topologies(n, t0_only=True)]
        else:
            got = K.enumerate_bases(n)
        assert got == scan_all_masks_bases(n, t0_only), n


def test_enumerate_bases_is_lexicographic():
    # against the independent family generator, sorted
    for n in range(1, 5):
        assert K.enumerate_bases(n) == sorted(family_generated_bases(n))
        t0 = [sp.basis for sp in enumerate_topologies(n, t0_only=True)]
        assert t0 == sorted(family_generated_bases(n, t0_only=True))


def test_enumerate_bases_counts_on_six_points():
    # OEIS A000798 and A001035: the topologies and the T0 ones on 6 points
    bases = K.enumerate_bases(6)
    assert len(bases) == 209_527
    # the T0 ones: rows pairwise distinct, as ``FinSpace.is_t0`` reads them
    assert sum(len(set(basis)) == 6 for basis in bases) == 130_023
