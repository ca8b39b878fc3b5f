import math

import pytest

from furtherness import (
    EmptyOrFullSubsetError,
    FinSpace,
    PreconditionViolatedError,
    SizeTooLargeError,
    are_separated,
    ball,
    enumerate_topologies,
    largest_forward_balls,
    point_to_set,
    quasi_report,
    random_space,
    region_report,
    union_analysis,
)
from furtherness import regions as R
from furtherness.regions import SUBSET_TABLE_LIMIT, SubsetTable, _closure_pass, subset_table


def test_region_e1_no_interior(e1):
    rep = region_report(e1, e1.mask(["2", "3"]))
    assert rep.interior == 0
    assert rep.boundary == e1.full
    assert rep.center == e1.mask(["2", "3"])
    assert rep.radius == 0


def test_region_e2_two_points(e2):
    rep = region_report(e2, e2.mask("ac"))
    assert rep.center == e2.mask("a")
    assert rep.radius == 1
    assert rep.boundary == e2.mask("bc")


def test_region_singleton_d(e2):
    rep = region_report(e2, e2.mask("d"))
    assert rep.boundary == e2.mask("c")
    assert rep.radius == 3


def test_clopen_radius_infinite(q1):
    rep = region_report(q1, q1.mask("ab"))
    assert rep.boundary == 0
    assert rep.center == q1.mask("ab")
    assert rep.radius == math.inf


def test_quasi_differs_from_region_on_clopen(q1):
    rep = quasi_report(q1, q1.mask("ab"))
    assert rep.quasi_center == q1.mask("ab")
    assert rep.quasi_radius == 1


def test_quasi_full_set_infinite(e2):
    assert quasi_report(e2, e2.full).quasi_radius == math.inf


def test_separated(e2):
    assert are_separated(e2, e2.mask("d"), e2.mask("b"))
    assert not are_separated(e2, e2.mask("b"), e2.mask("c"))
    assert not are_separated(e2, e2.mask("ab"), e2.mask("b"))


def test_union_collapse_case(e2):
    ana = union_analysis(e2, [e2.mask("d"), e2.mask("b")])
    assert ana.case == "max-collapses"
    assert ana.predicted_center is None
    assert ana.direct.radius == 2
    assert ana.direct.radius < max(rep.radius for rep in ana.reports)
    assert ana.tilde_sets == (e2.mask("d"), 0)


def test_union_tie_dominates(q1):
    ana = union_analysis(q1, [q1.mask("a"), q1.mask("c")])
    assert ana.case == "tie-dominates"
    assert ana.predicted_center == q1.mask("ac")
    assert ana.predicted_radius == 1
    assert ana.direct.center == ana.predicted_center
    assert ana.direct.radius == ana.predicted_radius


def test_union_single_subset_is_its_own_report(e2):
    ana = union_analysis(e2, [e2.mask("d")])
    rep = region_report(e2, e2.mask("d"))
    assert ana.predicted_center == rep.center
    assert ana.predicted_radius == rep.radius
    assert ana.direct == rep


def test_union_rejects_empty_part(e2):
    with pytest.raises(PreconditionViolatedError):
        union_analysis(e2, [0, e2.mask("b")])


def test_union_rejects_clopen_part(q1):
    with pytest.raises(PreconditionViolatedError):
        union_analysis(q1, [q1.mask("ab"), q1.mask("c")])


def test_union_rejects_non_separated(e2):
    with pytest.raises(PreconditionViolatedError):
        union_analysis(e2, [e2.mask("b"), e2.mask("c")])


def test_union_rejects_no_subsets(e2):
    with pytest.raises(PreconditionViolatedError):
        union_analysis(e2, [])


def test_union_refusals_keep_their_messages(e2, q1):
    refusals = [
        (e2, [], "at least one subset is required"),
        (e2, [e2.mask("d"), 0], "subset #1 is empty"),
        (q1, [q1.mask("c"), q1.mask("ab")], r"subset #1 \{a,b\} is clopen"),
        (e2, [e2.mask("d"), e2.mask("b"), e2.mask("c")], "subsets #0 and #2 are not separated"),
        # the parts are tested one by one before any pair is
        (q1, [q1.mask("b"), q1.mask("a"), q1.mask("cd")], r"subset #2 \{c,d\} is clopen"),
        (e2, [e2.mask("b"), e2.mask("c"), 0], "subset #2 is empty"),
    ]
    for space, parts, message in refusals:
        with pytest.raises(PreconditionViolatedError, match=f"^{message}$"):
            union_analysis(space, parts)


def _qualifying_pairs(sp):
    """Pairs ``a < b`` of separated nonempty sets, neither clopen."""
    def clopen(s):
        return sp.is_open(s) and sp.is_open(sp.full & ~s)

    for a in range(1, sp.full + 1):
        for b in range(a + 1, sp.full + 1):
            if not clopen(a) and not clopen(b) and are_separated(sp, a, b):
                yield a, b


def test_union_part_reports_are_region_reports():
    pairs = 0
    for n in range(1, 5):
        for sp in enumerate_topologies(n):
            for a, b in _qualifying_pairs(sp):
                ana = union_analysis(sp, [a, b])
                assert ana.reports == (region_report(sp, a), region_report(sp, b))
                assert ana.direct == region_report(sp, a | b)
                pairs += 1
    assert pairs > 0


def test_largest_balls_q1(q1):
    entries = largest_forward_balls(q1, q1.mask("ab"))
    by_center = {q1.labels[e.center]: e for e in entries}
    assert set(by_center) == {"a", "b"}
    assert all(e.radius == 1 for e in entries)
    assert by_center["a"].ball == q1.mask("a")
    assert by_center["b"].ball == q1.mask("ab")
    assert by_center["a"].contained and not by_center["b"].contained


def test_largest_balls_match_ball_function(e2):
    for mask in range(1, e2.full):
        for entry in largest_forward_balls(e2, mask):
            if entry.radius >= 1:
                assert entry.ball == ball(e2, entry.center, entry.radius)
                assert not entry.ball & ~mask


def test_largest_balls_reject_trivial(e2):
    with pytest.raises(EmptyOrFullSubsetError):
        largest_forward_balls(e2, 0)
    with pytest.raises(EmptyOrFullSubsetError):
        largest_forward_balls(e2, e2.full)


def test_subspace_radius_can_drop_when_recomputed():
    # the ambient radius of {a} is 2, yet inside the subspace {a,c} the
    # recomputed distance to the same boundary point is 1: restricting a
    # space shortens chains, so radii measured wholly inside the subspace
    # may shrink, never the reverse for the ambient-distance version
    sp = FinSpace(("a", "b", "c"), (0b001, 0b010, 0b111))
    assert region_report(sp, 0b001).radius == 2
    sub = sp.subspace(0b101)
    assert region_report(sub, 0b01).radius == 1


def test_radius_zero_iff_no_interior(e1, e2, q1):
    for sp in (e1, e2, q1):
        for mask in range(1, sp.full + 1):
            rep = region_report(sp, mask)
            assert (rep.radius == 0) == (rep.interior == 0)


def _assert_table_is_the_definition(sp):
    table = subset_table(sp)
    for s in range(sp.full + 1):
        rep = region_report(sp, s)
        assert table.closure[s] == sp.closure(s)
        assert table.interior[s] == sp.interior(s) == rep.interior
        assert table.boundary[s] == sp.boundary(s) == rep.boundary
        assert (table.center[s], table.radius[s]) == (rep.center, rep.radius)
        # the quasi radius is the largest distance from the subset to the
        # rest (infinite for an empty side), the quasi center the points
        # that reach it
        limits = {x: point_to_set(sp, x, sp.full & ~s) for x in range(sp.n) if s >> x & 1}
        top = max(limits.values(), default=math.inf)
        center = sum(1 << x for x, lim in limits.items() if lim == top)
        assert tuple(quasi_report(sp, s)) == (s, center, top)
        for x in range(sp.n):
            assert table.p2s[x][s] == point_to_set(sp, x, s)


def test_subset_table_matches_per_query_functions():
    for n in range(1, 5):
        for sp in enumerate_topologies(n):
            _assert_table_is_the_definition(sp)
    for seed in (1, 2, 3):
        _assert_table_is_the_definition(random_space(6, seed))
        _assert_table_is_the_definition(random_space(7, seed))


def test_subset_tables_share_point_to_set_rows():
    # spaces of mixed sizes in one process: each point-to-set row comes from
    # the cache, keyed by the distance row alone, and is still the definition
    R._p2s_row.cache_clear()
    bound = R._p2s_row.cache_info().maxsize
    assert bound >= 925  # every distinct distance row on at most five points
    mixed = [sp for n in (3, 1, 4, 2) for sp in enumerate_topologies(n)]
    mixed += [random_space(n, seed) for seed in (1, 2) for n in (7, 5, 6)]
    tables = [subset_table(sp) for sp in mixed]
    for sp, table in zip(mixed, tables):
        for x in range(sp.n):
            row = table.p2s[x]
            assert row is R._p2s_row(sp.further_flat[x * sp.n : (x + 1) * sp.n])
            assert row == tuple(point_to_set(sp, x, s) for s in range(sp.full + 1))
    assert R._p2s_row.cache_info().currsize <= bound
    # more distinct rows than the bound: the cache stays within it, and rows
    # it dropped come back equal
    for seed in range(200):
        for n in (6, 7):
            subset_table(random_space(n, seed)).p2s
            assert R._p2s_row.cache_info().currsize <= bound
    assert R._p2s_row.cache_info().currsize == bound
    for sp, table in zip(mixed, tables):
        assert subset_table(FinSpace(sp.labels, sp.basis)).p2s == table.p2s


def _assert_closure_pass_is_the_definition(sp):
    closure, interior = _closure_pass(sp)
    assert len(closure) == len(interior) == sp.full + 1
    for s in range(sp.full + 1):
        assert closure[s] == sp.closure(s)
        assert interior[s] == sp.interior(s)
    # the closure pass builds no distances and keeps no table
    assert "further_flat" not in vars(sp) and "_subset_table" not in vars(sp)


def test_topology_half_needs_no_distances():
    for n in range(1, 5):
        for sp in enumerate_topologies(n):
            _assert_closure_pass_is_the_definition(sp)
    for seed in (1, 2, 3):
        _assert_closure_pass_is_the_definition(random_space(6, seed))
        _assert_closure_pass_is_the_definition(random_space(7, seed))


def test_subset_table_is_built_in_one_pass(monkeypatch):
    sp = random_space(6, 2)
    passes = []
    real_centers = R._centers

    def counted(targets, p2s):
        passes.append(targets)
        return real_centers(targets, p2s)

    monkeypatch.setattr(R, "_centers", counted)
    table = subset_table(sp)
    assert isinstance(table, SubsetTable)
    assert passes == [table.boundary]  # one pass serves center and radius
    # the table holds no space, so a table kept on its space forms no cycle
    assert not any(field is sp for field in table)
    for s in range(sp.full + 1):
        rep = region_report(sp, s)
        assert (table.closure[s], table.interior[s]) == (sp.closure(s), rep.interior)
        assert table.boundary[s] == sp.boundary(s) == rep.boundary
        assert (table.center[s], table.radius[s]) == (rep.center, rep.radius)
        for x in range(sp.n):
            assert table.p2s[x][s] == point_to_set(sp, x, s)
    assert subset_table(sp) is table and len(passes) == 1


def test_subset_table_is_the_one_table_kept(e2):
    table = subset_table(e2)
    assert subset_table(e2) is table


def test_subset_table_shape(e2):
    table = subset_table(e2)
    size = 1 << e2.n
    for field in ("closure", "interior", "boundary", "center", "radius"):
        assert len(getattr(table, field)) == size
    assert len(table.p2s) == e2.n and all(len(row) == size for row in table.p2s)
    # empty target, empty subset and clopen full set are infinite
    assert all(row[0] == math.inf for row in table.p2s)
    assert table.radius[0] == table.radius[e2.full] == math.inf
    # the table is kept on the space and built once
    assert subset_table(e2) is table


def test_subset_table_size_limit():
    at_limit = random_space(SUBSET_TABLE_LIMIT, 1)
    assert len(subset_table(at_limit).radius) == 1 << SUBSET_TABLE_LIMIT
    # 2**40 subsets could never be allocated, so the refusal comes first
    sp = FinSpace.discrete([f"p{i}" for i in range(40)])
    with pytest.raises(SizeTooLargeError, match=f"at most {SUBSET_TABLE_LIMIT} points"):
        subset_table(sp)
    assert "further_flat" not in sp.__dict__ and "_subset_table" not in sp.__dict__


def test_subset_table_constructor_size_limit():
    at_limit = random_space(SUBSET_TABLE_LIMIT, 1)
    assert len(_closure_pass(at_limit)[0]) == 1 << SUBSET_TABLE_LIMIT
    # the closure pass itself refuses, before any subset row is allocated
    sp = FinSpace.discrete([f"p{i}" for i in range(40)])
    with pytest.raises(SizeTooLargeError, match=f"at most {SUBSET_TABLE_LIMIT} points"):
        _closure_pass(sp)
    assert "further_flat" not in sp.__dict__ and "_subset_table" not in sp.__dict__
