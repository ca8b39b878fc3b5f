import string

import pytest

from furtherness import (
    SizeTooLargeError,
    SpaceError,
    VerifyOptions,
    count_topologies,
    default_labels,
    enumerate_topologies,
    family_generated_bases,
    random_space,
    run_property,
)
from furtherness import generate as G
from furtherness import verify as V
from furtherness.generate import splitmix64


def test_counts():
    assert [count_topologies(n) for n in (1, 2, 3, 4)] == [1, 4, 29, 355]


def test_t0_counts():
    assert [count_topologies(n, t0_only=True) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]


def test_bases_cache_is_keyed_by_the_size_alone():
    # the T0 answer filters the cached bases, so any truthy flag reads the
    # one entry of its size
    G._bases.cache_clear()
    try:
        assert {count_topologies(4, k) for k in range(1, 51)} == {219}
        assert G._bases.cache_info().currsize == 1
        assert count_topologies(3, [1]) == 19
    finally:
        G._bases.cache_clear()


def test_no_duplicates():
    for n in (2, 3, 4):
        seen = [sp.basis for sp in enumerate_topologies(n)]
        assert len(seen) == len(set(seen))


def test_t0_stream_is_a_subset():
    every = {sp.basis for sp in enumerate_topologies(3)}
    t0 = {sp.basis for sp in enumerate_topologies(3, t0_only=True)}
    assert t0 < every
    assert all(len(set(b)) == 3 for b in t0)


def test_matches_family_generator():
    # independent route: scan all union/intersection-closed set families
    for n in (1, 2, 3):
        assert family_generated_bases(n) == frozenset(
            sp.basis for sp in enumerate_topologies(n)
        )
        assert family_generated_bases(n, t0_only=True) == frozenset(
            sp.basis for sp in enumerate_topologies(n, t0_only=True)
        )


def test_t0_family_answer_filters_the_full_answer():
    for n in (1, 2, 3, 4):
        every = family_generated_bases(n)
        assert family_generated_bases(n, t0_only=True) == frozenset(
            basis for basis in every if len(set(basis)) == n
        )


def test_enumerator_counts_scans_each_n_once():
    G._family_scan.cache_clear()
    report = run_property("enumerator-counts", VerifyOptions(max_n=4))
    assert report.passed
    # the full and the T0 cross-checks share one scan per n
    info = G._family_scan.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def test_size_cap():
    with pytest.raises(SizeTooLargeError):
        list(enumerate_topologies(6))


@pytest.mark.parametrize("top", [1, 2, 3, 4, 5])
def test_sweep_tasks_cut_the_enumeration_in_order(top):
    # each task carries at most SLICE bases of one size; in task order they
    # are the enumeration of every size up to top
    tasks = V._slices(top)
    sizes = [n for n, _ in tasks]
    assert sizes == sorted(sizes) and set(sizes) == set(range(1, top + 1))
    assert all(0 < len(bases) <= V.SLICE for _, bases in tasks)
    for n in range(1, top + 1):
        got = [basis for size, bases in tasks if size == n for basis in bases]
        assert got == [sp.basis for sp in enumerate_topologies(n)]


def test_labels():
    assert default_labels(3) == ("a", "b", "c")
    assert len(set(default_labels(30))) == 30


def test_default_labels_unchanged():
    # letters up to 26 points, then p0, p1, ...
    for n in range(1, 27):
        assert default_labels(n) == tuple(string.ascii_lowercase[:n])
    for n in range(27, 31):
        assert default_labels(n) == tuple(f"p{i}" for i in range(n))


@pytest.mark.parametrize("bad", [-1, 0, None, 1.5, True])
def test_default_labels_refuses_what_is_no_number_of_points(bad):
    # -1 gave the 25 labels a..y and 0 gave none, as random_space refuses
    with pytest.raises(SpaceError):
        default_labels(bad)


def test_splitmix_reference_stream():
    # first outputs of the well-known generator for seed 0
    gen = splitmix64(0)
    assert [next(gen) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_random_space_deterministic():
    for seed in (0, 1, 99):
        assert random_space(6, seed) == random_space(6, seed)
    # the seed is taken modulo 2**64
    assert random_space(6, 0) == random_space(6, 2**64)
    assert random_space(6, -1) == random_space(6, 2**64 - 1)


def test_random_space_varies():
    spaces = {random_space(6, seed).basis for seed in range(30)}
    assert len(spaces) > 1


def _warshall_basis(n, seed):
    """The documented construction in its plainest form: one splitmix64
    word per ordered pair (i, j), i != j, row-major, makes j lie below i
    when its top two bits are zero; then Warshall's closure of that
    relation with the diagonal, read back as one mask per point."""
    stream = splitmix64(seed)
    below = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and next(stream) >> 62 == 0:
                below[i][j] = True
    for k in range(n):
        for i in range(n):
            if below[i][k]:
                for j in range(n):
                    below[i][j] = below[i][j] or below[k][j]
    return tuple(sum(1 << j for j in range(n) if below[i][j]) for i in range(n))


def test_random_space_is_the_closure_of_the_documented_edges():
    for n in range(1, 13):
        for seed in range(50):
            assert random_space(n, seed).basis == _warshall_basis(n, seed), (n, seed)


def test_random_space_one_point():
    sp = random_space(1, 5)
    assert sp.n == 1 and sp.basis == (1,)


def test_random_space_validates():
    # construction runs the full basis validation, so surviving is the test
    for seed in range(200):
        random_space(6, seed)


def test_enumerated_bases_are_validated(monkeypatch):
    # every space is built through the validating constructor in the process
    # that reads it, so a basis the enumerator got wrong is caught when a
    # sweep task holding it builds its spaces, in a verifier worker too, and
    # a task without it builds
    from furtherness import BasisNotNestedError

    real = G.K.enumerate_bases
    bad = (0b011, 0b110, 0b100)  # b is in U_a, U_b is not in U_a

    def enumerate_bases(n):
        out = real(n)
        return out + [bad] if n == 3 else out

    G._bases.cache_clear()
    monkeypatch.setattr(G.K, "enumerate_bases", enumerate_bases)
    try:
        assert count_topologies(3) == 30  # the kernel's bases, as they come
        with pytest.raises(BasisNotNestedError):
            list(enumerate_topologies(3))
        bases = G._bases(3)
        plan = [("triangle-inequality", 3)]
        assert V._slice_task(plan, (3, bases[:29]))[0].checked == 29
        with pytest.raises(BasisNotNestedError):
            V._slice_task(plan, (3, bases[28:]))
        for jobs in (1, 2):
            opts = VerifyOptions(max_n=2, jobs=jobs)
            assert run_property("triangle-inequality", opts).passed
            with pytest.raises(BasisNotNestedError):
                run_property("triangle-inequality", opts._replace(max_n=3))
    finally:
        G._bases.cache_clear()


def test_family_scan_refuses_five_points():
    # 2^30 subfamilies of the proper subsets of 5 points
    with pytest.raises(SizeTooLargeError, match="family enumeration supports at most 4 points"):
        family_generated_bases(5)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, False, None])
def test_a_size_must_be_an_int(n):
    for call in (count_topologies, family_generated_bases):
        with pytest.raises(SpaceError, match="must be an int"):
            call(n)
    with pytest.raises(SpaceError, match="must be an int"):
        list(enumerate_topologies(n))
    with pytest.raises(SpaceError, match="must be an int"):
        random_space(n, 1)


@pytest.mark.parametrize("seed", [2.5, "3", None, b"3"])
def test_a_seed_must_be_an_int(seed):
    with pytest.raises(SpaceError, match="the seed must be an int"):
        random_space(3, seed)


def test_a_seed_reads_through_operator_index():
    # a bool seed is its int, as a bool point index is
    assert random_space(4, True) == random_space(4, 1)
    assert random_space(4, False) == random_space(4, 0)
