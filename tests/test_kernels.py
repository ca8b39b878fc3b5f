"""Backend parity: the compiled kernels must match the pure reference
bit for bit, including iteration order, tie-breaking, and sentinel values.
"""

import random

import pytest

from furtherness._kernels import backend, pure

try:
    from furtherness._kernels import _ckern
except ImportError:
    _ckern = None

needs_c = pytest.mark.skipif(_ckern is None, reason="compiled kernels not built")


def all_bases(max_n=4):
    for n in range(1, max_n + 1):
        for basis in pure.enumerate_bases(n):
            yield n, basis


@needs_c
def test_class_ids_parity():
    for n, b in all_bases():
        assert _ckern.class_ids(n, b) == pure.class_ids(n, b)


@needs_c
def test_matrix_parity():
    for n, b in all_bases():
        assert _ckern.further_matrix(n, b) == pure.further_matrix(n, b)


@needs_c
def test_mask_function_parity():
    rng = random.Random(11)
    for n, b in all_bases():
        full = (1 << n) - 1
        for _ in range(6):
            a = rng.randint(0, full)
            assert _ckern.closure_mask(n, b, a) == pure.closure_mask(n, b, a)
            assert _ckern.interior_mask(n, b, a) == pure.interior_mask(n, b, a)
            assert _ckern.minimal_open_mask(n, b, a) == pure.minimal_open_mask(n, b, a)


@needs_c
def test_distance_function_parity():
    rng = random.Random(12)
    for n, b in all_bases():
        flat = pure.further_matrix(n, b)
        full = (1 << n) - 1
        for _ in range(6):
            a = rng.randint(0, full)
            t = rng.randint(0, full)
            x = rng.randrange(n)
            assert _ckern.point_to_set(n, flat, x, t) == pure.point_to_set(
                n, flat, x, t
            )
            assert _ckern.set_to_set(n, flat, a, t) == pure.set_to_set(n, flat, a, t)
            assert _ckern.center_radius(n, flat, a, t) == pure.center_radius(
                n, flat, a, t
            )


@needs_c
def test_transitive_closure_parity():
    rng = random.Random(13)
    for n in (2, 3, 4, 6):
        full = (1 << n) - 1
        for _ in range(40):
            rows = tuple(rng.randint(0, full) for _ in range(n))
            assert _ckern.transitive_closure(n, rows) == pure.transitive_closure(
                n, rows
            )


@needs_c
def test_enumeration_parity():
    for n in (1, 2, 3, 4):
        assert _ckern.enumerate_bases(n) == pure.enumerate_bases(n)
        assert _ckern.enumerate_bases(n, True) == pure.enumerate_bases(n, True)
    assert len(_ckern.enumerate_bases(5)) == 6942


@needs_c
def test_sentinel_values_parity():
    n, b = 3, (0b001, 0b011, 0b111)
    flat = pure.further_matrix(n, b)
    assert _ckern.point_to_set(n, flat, 0, 0) == -1
    assert _ckern.set_to_set(n, flat, 0, 0b111) == -1
    assert _ckern.center_radius(n, flat, 0, 0b111) == (0, -1)
    assert _ckern.center_radius(n, flat, 0b011, 0) == (0b011, -1)


def test_large_space_routes_to_pure():
    # 70-point chain: U_i = {0..i}; fits no machine word, must still work
    from furtherness import _kernels

    n = 70
    basis = tuple((1 << (i + 1)) - 1 for i in range(n))
    flat = _kernels.further_matrix(n, basis)
    assert flat[0 * n + 69] == 69
    assert flat[69 * n + 0] == 0
    assert _kernels.closure_mask(n, basis, 1) == (1 << n) - 1


def test_backend_name_is_reported():
    assert backend in ("c", "pure")


def _subsets(n):
    return range(1 << n)


def _members(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def test_pure_leaf_kernels_against_brute_force():
    # set_to_set, center_radius and further_matrix repeat the point_to_set
    # and class_ids loops inline; hold them to those two kernels
    for n, b in all_bases(3):
        cls = pure.class_ids(n, b)
        flat = pure.further_matrix(n, b)
        for x in range(n):
            for y in range(n):
                grown = {cls[z] for z in _members(b[y])} - {cls[z] for z in _members(b[x])}
                assert flat[x * n + y] == len(grown)
        for a in _subsets(n):
            for t in _subsets(n):
                dists = {x: pure.point_to_set(n, flat, x, t) for x in _members(a)}
                want = min(dists.values()) if a and t else -1
                assert pure.set_to_set(n, flat, a, t) == want
                if not a:
                    want = (0, -1)
                elif not t:
                    want = (a, -1)
                else:
                    best = max(dists.values())
                    want = (sum(1 << x for x, v in dists.items() if v == best), best)
                assert pure.center_radius(n, flat, a, t) == want


def test_compiled_binding_routes_large_spaces(monkeypatch):
    from types import SimpleNamespace

    from furtherness import _kernels

    seen = []
    fake = SimpleNamespace(point_to_set=lambda *args: seen.append(args) or "fast")
    monkeypatch.setattr(_kernels, "_fast", fake)
    bound = _kernels._bind("point_to_set")
    assert bound.__name__ == "point_to_set"
    assert bound(64, (0,) * 64 * 64, 0, 1) == "fast"
    assert seen == [(64, (0,) * 64 * 64, 0, 1)]
    n = 65
    flat = tuple(range(n * n))
    assert bound(n, flat, 1, 0b110) == pure.point_to_set(n, flat, 1, 0b110) == n + 1
    assert len(seen) == 1


@pytest.mark.skipif(backend != "pure", reason="compiled kernels are live")
def test_pure_backend_binds_pure_functions():
    from furtherness import _kernels

    for name in ("class_ids", "further_matrix", "point_to_set", "enumerate_bases"):
        assert getattr(_kernels, name) is getattr(pure, name)
