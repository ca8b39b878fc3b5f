import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furtherness import (
    FinSpace,
    FurtherMatrix,
    SpaceError,
    UnknownLabelError,
    enumerate_topologies,
    furtherness,
    furtherness_matrix,
    furtherness_to_set,
    matrix_report,
    point_to_set,
    random_space,
)
from furtherness.distance import _zero_masks
from oracles import brute_furtherness, brute_point_to_set

E2_ROWS = ((0, 1, 3, 1), (0, 0, 2, 1), (0, 0, 0, 0), (1, 2, 3, 0))
E1_ROWS = ((0, 0, 1), (0, 0, 1), (0, 0, 0))


def test_matrix_e2(e2):
    assert furtherness_matrix(e2).rows == E2_ROWS


def test_matrix_e1(e1):
    assert furtherness_matrix(e1).rows == E1_ROWS


def test_single_values(e2):
    assert furtherness(e2, "a", "b") == 1
    assert furtherness(e2, "a", "c") == 3
    assert furtherness(e2, "d", "a") == 1
    assert furtherness(e2, "c", "a") == 0


def test_point_set_asymmetry(e2):
    # one direction can vanish while the other does not
    assert point_to_set(e2, "a", "bc") == 1
    assert furtherness_to_set(e2, "bc", "a") == 0


def test_set_to_set_empty_is_infinite(e2):
    assert furtherness_to_set(e2, "a", ()) == math.inf
    assert furtherness_to_set(e2, (), "a") == math.inf


def test_matrix_entry_row_col(e2):
    m = furtherness_matrix(e2)
    assert m.entry("a", "c") == 3
    assert m.row("d") == (1, 2, 3, 0)
    assert m.col("c") == (3, 2, 0, 3)


def test_row_dominates(e2):
    m = furtherness_matrix(e2)
    assert m.row_dominates("b", "a")
    assert not m.row_dominates("a", "b")
    assert m.row_dominates("c", "a")


def test_report_e2(e2):
    rep = matrix_report(e2)
    # a matrix reports what its space does, and hashes with its equals
    m = furtherness_matrix(e2)
    assert matrix_report(m) == rep
    assert hash(m) == hash(furtherness_matrix(FinSpace(e2.labels, e2.basis)))
    assert rep.t0
    assert rep.open_singletons == e2.mask("ad")
    assert rep.maximum_points == e2.mask("c")
    assert rep.minimum_points == 0
    assert rep.row_zeros == e2.basis
    assert rep.col_zeros == tuple(e2.closure(1 << x) for x in range(e2.n))
    assert rep.has_zero_row_or_col


def test_report_e1(e1):
    rep = matrix_report(e1)
    assert not rep.t0
    assert not rep.distinct_rows and not rep.distinct_cols
    assert rep.row_zeros == e1.basis
    assert rep.col_zeros == tuple(e1.closure(1 << x) for x in range(e1.n))


def test_matrix_str_contains_labels(e2):
    text = str(furtherness_matrix(e2))
    assert "a" in text and "0" in text


def test_matrix_equality(e2, e1):
    assert furtherness_matrix(e2) == furtherness_matrix(e2)
    assert furtherness_matrix(e2) != furtherness_matrix(e1)


def test_against_definition_small():
    # every space on up to three points, every ordered pair, straight from
    # the chain definition
    for sp in enumerate_topologies(3):
        fam = {frozenset(sp.members(o)) for o in sp.open_family}
        for x in sp.labels:
            for y in sp.labels:
                assert furtherness(sp, x, y) == brute_furtherness(fam, x, y)


def test_point_to_set_against_definition(q1):
    fam = {frozenset(q1.members(o)) for o in q1.open_family}
    for x in q1.labels:
        for mask in range(1, q1.full + 1):
            target = frozenset(q1.members(mask))
            assert point_to_set(q1, x, mask) == brute_point_to_set(fam, x, target)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_triangle_on_random_spaces(seed):
    sp = random_space(7, seed)
    n = sp.n
    flat = sp.further_flat
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert flat[x * n + y] <= flat[x * n + z] + flat[z * n + y]


def test_range_bound_rows(e2):
    for v in e2.further_flat:
        assert 0 <= v <= e2.n - 1


def test_unknown_label_raises(e2):
    with pytest.raises(Exception):
        furtherness(e2, "a", "nope")


def test_matrix_index_out_of_range(e2):
    m = furtherness_matrix(e2)
    for bad in (-1, -5, e2.n, e2.n + 3):
        with pytest.raises(SpaceError):
            m.row(bad)
        with pytest.raises(SpaceError):
            m.col(bad)
        with pytest.raises(SpaceError):
            m.entry(bad, 0)
        with pytest.raises(SpaceError):
            m.entry(0, bad)
    assert m.entry(3, 0) == m.entry("d", "a") == 1


def test_matrix_unknown_label(e2):
    m = furtherness_matrix(e2)
    with pytest.raises(UnknownLabelError):
        m.entry("nope", "a")
    with pytest.raises(UnknownLabelError):
        m.row("nope")


def test_matrix_duplicate_labels_rejected():
    with pytest.raises(SpaceError):
        FurtherMatrix(("a", "a"), (0, 0, 0, 0))


def test_matrix_length_mismatch_is_space_error():
    with pytest.raises(SpaceError, match="flat matrix length must be n\\*n"):
        FurtherMatrix(("a", "b"), (0, 0, 0))


def test_zero_masks_match_a_per_entry_scan():
    rng = random.Random(19)
    flats = [(sp.n, sp.further_flat) for n in range(1, 5) for sp in enumerate_topologies(n)]
    for _ in range(200):
        n = rng.randint(1, 7)
        flats.append((n, tuple(rng.choice((0, 0, 1, 2)) for _ in range(n * n))))
    for n, flat in flats:
        rows, cols = _zero_masks(n, flat)
        assert rows == [sum(1 << y for y in range(n) if flat[x * n + y] == 0) for x in range(n)]
        assert cols == [sum(1 << x for x in range(n) if flat[x * n + y] == 0) for y in range(n)]


@pytest.mark.parametrize("bad", [42, None, "ab", ((0, 1), (1, 0))])
def test_matrix_report_refuses_anything_but_a_space_or_a_matrix(bad):
    with pytest.raises(SpaceError, match="need a space or a furtherness matrix"):
        matrix_report(bad)


def test_matrix_entries_must_be_non_negative_ints():
    for bad in ("x", 1.0, None):
        with pytest.raises(SpaceError, match="a matrix entry must be an int"):
            FurtherMatrix(("a", "b"), (0, bad, 1, 0))
    with pytest.raises(SpaceError, match="must be non-negative, got -1"):
        FurtherMatrix(("a", "b"), (0, -1, 1, 0))
    m = FurtherMatrix(("a", "b"), (False, True, 1, 0))
    assert m.flat == (0, 1, 1, 0)
    assert all(type(v) is int for v in m.flat)
    assert m == FurtherMatrix(("a", "b"), [0, 1, 1, 0])


def test_matrix_is_a_frozen_value(e2):
    m = furtherness_matrix(e2)
    twin = FurtherMatrix(list(e2.labels), list(m.flat))
    assert m == twin and hash(m) == hash(twin)
    assert m != FurtherMatrix(e2.labels, (0,) * 16)
    # another type is not equal, whatever its fields
    assert m != (m.labels, m.flat) and m != m.flat
    assert m.__eq__(m.flat) is NotImplemented
    table = {m: 1}
    for name, value in (("labels", ("a",)), ("flat", (9,) * 16), ("n", 1)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        with pytest.raises(AttributeError):
            delattr(m, name)
    # so a matrix keeps the hash it was stored under
    assert m.flat == twin.flat and m in table and table[twin] == 1
