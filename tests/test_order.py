import itertools
import pickle

import pytest

from furtherness import (
    BasisNotNestedError,
    DuplicateLabelError,
    EmptyInputError,
    FinSpace,
    PointNotInOwnBasisError,
    PreconditionViolatedError,
    Preorder,
    SpaceError,
    SpaceMap,
    UnknownLabelError,
    beat_points,
    core,
    enumerate_topologies,
    furtherness,
    identity_map,
    is_continuous,
    is_continuous_by_preimages,
    is_furtherness_preserving,
    is_minimal,
    kolmogorov_quotient,
    order_to_space,
    product,
    product_furtherness,
    product_furtherness_nfold,
    random_space,
    space_map,
    specialization_preorder,
)
from oracles import brute_product, brute_quotient, scan_beat_points


def test_preorder_roundtrip(e2):
    order = specialization_preorder(e2)
    a, b = e2.index("a"), e2.index("b")
    assert order.leq(a, b)  # a sits inside U_b
    assert not order.leq(b, a)
    assert order.is_antisymmetric
    assert order_to_space(order) == e2


def test_leq_takes_indices_or_labels_and_refuses_anything_else():
    order = Preorder(("a", "b", "c"), (0b001, 0b011, 0b111))
    assert order.leq("a", "b") is order.leq(0, 1) is order.leq("a", 1) is True
    assert order.leq("c", "b") is order.leq(2, "b") is False
    for x, y in ((0, 5), (5, 0), (-1, 0), (0, -1), (0, 1.0), (None, 0)):
        with pytest.raises(SpaceError):
            order.leq(x, y)
    with pytest.raises(UnknownLabelError, match="'z'"):
        order.leq("a", "z")


def test_preorder_n_counts_its_points(e2):
    assert Preorder(("a", "b", "c"), (0b001, 0b011, 0b111)).n == 3
    assert specialization_preorder(e2).n == e2.n == 4


def test_preorder_covers(e2):
    order = specialization_preorder(e2)
    assert order.covers() == ((0, 1), (1, 2), (3, 2))


def test_preorder_covers_match_the_triple_scan():
    # x < y with no z strictly between them, scanning every triple with leq
    for n in range(1, 6):
        for sp in enumerate_topologies(n, t0_only=True):
            order = specialization_preorder(sp)
            scan = [
                (x, y)
                for y in range(n)
                for x in range(n)
                if x != y
                and order.leq(x, y)
                and not any(
                    z not in (x, y) and order.leq(x, z) and order.leq(z, y) for z in range(n)
                )
            ]
            assert order.covers() == tuple(sorted(scan))


def test_covers_requires_antisymmetry(e1):
    with pytest.raises(PreconditionViolatedError):
        specialization_preorder(e1).covers()


@pytest.mark.parametrize(
    "below, error",
    [
        ((0b11, 0b01), PointNotInOwnBasisError),
        ((0b011, 0b110, 0b100), BasisNotNestedError),
        ((0b1,), SpaceError),
    ],
)
def test_covers_refuses_a_relation_that_is_not_a_preorder(below, error):
    # antisymmetric, but not reflexive (the first) or not transitive (the
    # second), or one down-set short of its two labels (the third): each is
    # refused when the preorder is built, before covers or leq can read it
    labels = ("a", "b", "c")[: max(len(below), 2)]
    with pytest.raises(error):
        Preorder(labels, below)


def test_quotient_e1(e1):
    q = kolmogorov_quotient(e1)
    assert q.class_of == (0, 0, 1)
    assert q.space.labels == ("1|2", "3")
    assert q.space.basis == (0b01, 0b11)
    assert q.space.is_t0


def test_quotient_refuses_labels_that_join_alike():
    # the class {a, b} joins to the label of the class {a|b}
    sp = FinSpace(("a|b", "a", "b"), (1, 6, 6))
    with pytest.raises(DuplicateLabelError) as info:
        kolmogorov_quotient(sp)
    assert info.value.label == "a|b"
    assert "('a|b',) and ('a', 'b') both join to it with '|'" in str(info.value)
    # a class label that collides with none is kept
    sp = FinSpace(("a|b", "a", "c"), (1, 6, 6))
    assert kolmogorov_quotient(sp).space.labels == ("a|b", "a|c")


def test_quotient_distance_preserved(e1):
    q = kolmogorov_quotient(e1)
    for x in range(e1.n):
        for y in range(e1.n):
            assert furtherness(q.space, q.class_of[x], q.class_of[y]) == furtherness(
                e1, x, y
            )


def test_quotient_of_t0_is_identity_shaped(e2):
    q = kolmogorov_quotient(e2)
    assert q.space.basis == e2.basis
    assert q.representatives == (0, 1, 2, 3)


def test_quotient_of_every_t0_space_keeps_its_basis_and_labels():
    for n in range(1, 5):
        for sp in enumerate_topologies(n, t0_only=True):
            q = kolmogorov_quotient(sp)
            assert q.space == sp
            assert q.class_of == q.representatives == tuple(range(n))


def test_quotient_is_the_space_itself_exactly_when_t0():
    for n in range(1, 5):
        for sp in enumerate_topologies(n):
            assert (kolmogorov_quotient(sp).space is sp) == sp.is_t0


def test_quotient_matches_the_class_scan():
    for n in range(1, 6):
        for sp in enumerate_topologies(n):
            q = kolmogorov_quotient(sp)
            got = (q.space.labels, q.space.basis, q.class_of, q.representatives)
            assert got == brute_quotient(sp)


def test_beat_points_e2(e2):
    down, up = beat_points(e2)
    assert down == e2.mask("b")
    assert up == e2.mask("abd")


def test_beat_points_match_the_triple_scan():
    for n in range(1, 6):
        for sp in enumerate_topologies(n):
            assert beat_points(sp) == scan_beat_points(sp)
    for seed in range(100):
        sp = random_space(6 + seed % 5, seed)
        assert beat_points(sp) == scan_beat_points(sp)


def test_beat_points_core_and_is_minimal_build_no_distance_matrix():
    # the 0-far relation is read from the basis and the point closures
    for n in range(1, 5):
        for sp in enumerate_topologies(n):
            beat_points(sp)
            is_minimal(sp)
            out = core(sp)
            assert "further_flat" not in sp.__dict__ and "further_flat" not in out.__dict__


def test_core_collapses_contractible(e1, e2):
    assert core(e2).n == 1
    assert core(e1).n == 1


def test_minimal_spaces():
    # discrete two points: no beat points, already minimal
    disc = FinSpace(("a", "b"), (0b01, 0b10))
    assert is_minimal(disc)
    assert core(disc) == disc
    assert not is_minimal(FinSpace(("a", "b"), (0b01, 0b11)))


def test_identity_and_continuity(e2):
    f = identity_map(e2)
    assert is_continuous(f)
    assert is_furtherness_preserving(f)


def test_continuity_definitions_agree_small():
    spaces = list(enumerate_topologies(2))
    for dom, cod in itertools.product(spaces, repeat=2):
        for image in itertools.product(range(cod.n), repeat=dom.n):
            f = space_map(dom, cod, dict(zip(dom.labels, (cod.labels[i] for i in image))))
            assert is_continuous(f) == is_continuous_by_preimages(f)
            if is_furtherness_preserving(f):
                assert is_continuous(f)


def test_constant_map_continuous(e2, sierp):
    f = space_map(e2, sierp, {lab: "a" for lab in e2.labels})
    assert is_continuous(f)


def test_noncontinuous_map(sierp):
    # swapping Sierpinski's points pulls the open {a} back to {b}, not open
    f = space_map(sierp, sierp, {"a": "b", "b": "a"})
    assert not is_continuous(f)
    assert not is_continuous_by_preimages(f)


def test_product_basis(sierp, sierp_xy):
    prod = product([sierp, sierp_xy])
    assert prod.labels == ("a,x", "a,y", "b,x", "b,y")
    assert prod.min_open("a,x") == prod.mask(["a,x"])
    assert prod.min_open("b,y") == prod.full


def test_product_refuses_labels_that_join_alike():
    # ('a', 'b,c') and ('a,b', 'c') both join to 'a,b,c'
    left = FinSpace(("a", "a,b"), (1, 2))
    right = FinSpace(("b,c", "c"), (1, 2))
    with pytest.raises(DuplicateLabelError) as info:
        product([left, right])
    assert info.value.label == "a,b,c"
    assert "('a', 'b,c') and ('a,b', 'c') both join to it with ','" in str(info.value)
    # labels that join apart are kept as they are
    assert product([left, FinSpace(("b", "c"), (1, 2))]).labels == ("a,b", "a,c", "a,b,b", "a,b,c")


@pytest.mark.parametrize("call", [
    lambda: product([]),
    lambda: product_furtherness_nfold([], (), ()),
    lambda: product_furtherness_nfold(iter([]), (), ()),
])
def test_products_refuse_an_empty_factor_list(call):
    with pytest.raises(EmptyInputError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda sp: product(sp), "iterable of spaces"),
    (lambda sp: product([1, 2]), "a factor must be a FinSpace, got 1"),
    (lambda sp: product_furtherness_nfold(sp, ("a",), ("b",)), "iterable of spaces"),
    (lambda sp: product_furtherness_nfold(5, ("a",), ("b",)), "iterable of spaces"),
    (lambda sp: product_furtherness(sp, 3, ("a", "a"), ("b", "b")), "a factor must be a FinSpace, got 3"),
])
def test_products_refuse_factors_that_are_not_a_list_of_spaces(call, message):
    # a space passed where its list is expected, or a list holding anything
    # but spaces, is refused before a coordinate is read
    sp = FinSpace(("a", "b"), (1, 3))
    with pytest.raises(SpaceError, match=message):
        call(sp)


def test_product_formulas_index_every_source_coordinate_first(sierp, e2):
    # the arity, then each coordinate of p, then each of q: of two bad
    # coordinates, the first in that order is named
    for p, q, named in (
        (("x", 0), ("y", 0), "x"),
        ((0, "x"), ("y", 0), "x"),
        ((0, 0), ("y", "z"), "y"),
    ):
        with pytest.raises(UnknownLabelError, match=f"'{named}'"):
            product_furtherness(sierp, e2, p, q)
        with pytest.raises(UnknownLabelError, match=f"'{named}'"):
            product_furtherness_nfold([sierp, e2], p, q)
    with pytest.raises(SpaceError, match="2-fold product need 2 coordinates"):
        product_furtherness(sierp, e2, ("x", 0), ("y",))
    with pytest.raises(SpaceError, match="point index 9 out of range"):
        product_furtherness(sierp, e2, (0, 9), (-1, 0))


def test_product_sierpinski_pair_value(sierp, sierp_xy):
    assert product_furtherness(sierp, sierp_xy, ("a", "x"), ("b", "y")) == 3


def test_product_formula_matches_direct(sierp, sierp_xy, e2):
    for left, right in ((sierp, sierp_xy), (sierp, e2), (e2, sierp)):
        prod = product([left, right])
        for px, py, qx, qy in itertools.product(
            range(left.n), range(right.n), range(left.n), range(right.n)
        ):
            direct = furtherness(prod, px * right.n + py, qx * right.n + qy)
            assert product_furtherness(left, right, (px, py), (qx, qy)) == direct


def _wrapper_product_furtherness(space_x, space_y, p, q):
    # the closed form through the per-query wrappers, one call per value
    def class_open_size(space, point):
        cls = space.class_ids
        return len({cls[y] for y in range(space.n) if space.basis[point] >> y & 1})

    (a, b), (c, d) = p, q
    fx = furtherness(space_x, a, c)
    fy = furtherness(space_y, b, d)
    size_c = class_open_size(space_x, space_x.index(c))
    size_d = class_open_size(space_y, space_y.index(d))
    return fx * size_d + fy * size_c - fx * fy


def test_product_formula_reads_the_wrapper_formula():
    corpus = [sp for n in range(1, 4) for sp in enumerate_topologies(n)]
    for left, right in itertools.product(corpus, repeat=2):
        for ax, ay, cx, cy in itertools.product(
            range(left.n), range(right.n), range(left.n), range(right.n)
        ):
            p, q = (ax, ay), (cx, cy)
            want = _wrapper_product_furtherness(left, right, p, q)
            assert product_furtherness(left, right, p, q) == want
            labels_p = (left.labels[ax], right.labels[ay])
            labels_q = (left.labels[cx], right.labels[cy])
            assert product_furtherness(left, right, labels_p, labels_q) == want


def test_nfold_formula(sierp, sierp_xy, e1):
    factors = [sierp, sierp_xy, e1]
    prod = product(factors)
    sizes = [f.n for f in factors]
    for ps in itertools.product(*(range(s) for s in sizes)):
        for qs in itertools.product(*(range(s) for s in sizes)):
            flat_p = (ps[0] * sizes[1] + ps[1]) * sizes[2] + ps[2]
            flat_q = (qs[0] * sizes[1] + qs[1]) * sizes[2] + qs[2]
            assert product_furtherness_nfold(factors, ps, qs) == furtherness(
                prod, flat_p, flat_q
            )


def test_product_formulas_need_one_coordinate_per_factor(sierp, e2):
    for p, q in (((0, 1, 1), (1, 0)), ((0, 1), (1,)), ((0, 1), 3), (0, (1, 0))):
        with pytest.raises(SpaceError, match="2-fold product need 2 coordinates"):
            product_furtherness(sierp, e2, p, q)
    for ps, qs in (([0], [1]), ([0, 1], [1, 0, 0]), ([0, 1], None)):
        with pytest.raises(SpaceError, match="2-fold product need 2 coordinates"):
            product_furtherness_nfold([sierp, e2], ps, qs)
    assert product_furtherness_nfold([sierp, e2], [0, 1], [1, 0]) == product_furtherness(
        sierp, e2, (0, 1), (1, 0)
    )


def test_nfold_formula_takes_any_iterable_of_factors(sierp, e2):
    # as product does: a generator or an iterator is read once, in order
    ps, qs = ("a", "b"), ("b", "a")
    want = product_furtherness_nfold([sierp, e2], ps, qs)
    assert product_furtherness_nfold(iter([sierp, e2]), ps, qs) == want
    assert product_furtherness_nfold((f for f in (sierp, e2)), ps, qs) == want
    assert product_furtherness_nfold(iter([sierp]), ("a",), ("b",)) == furtherness(sierp, "a", "b")


def test_product_single_factor(e2):
    assert product([e2]).basis == e2.basis


def _product_points(prod):
    return [(lab, frozenset(prod.members(m))) for lab, m in zip(prod.labels, prod.basis)]


def test_product_is_the_brute_force_product():
    small = [sp for n in (1, 2, 3) for sp in enumerate_topologies(n)]
    for factors in itertools.product(small, repeat=2):
        assert _product_points(product(factors)) == brute_product(factors)
    for factors in itertools.product(list(enumerate_topologies(2)), repeat=3):
        assert _product_points(product(factors)) == brute_product(factors)


def test_map_requires_total_assignment(sierp, e2):
    with pytest.raises(SpaceError, match="'b'"):
        space_map(e2, sierp, {"a": "a"})


@pytest.mark.parametrize(
    "mapping, label",
    [
        ({"a": "a", "b": "a", "c": "a"}, "'d'"),
        ({"a": "a", "b": "a", "c": "a", "d": "a", "z": "a"}, "'z'"),
        ({"z": "a"}, "'z'"),
    ],
)
def test_map_names_a_missing_or_unknown_domain_label(sierp, e2, mapping, label):
    with pytest.raises(SpaceError, match=label):
        space_map(e2, sierp, mapping)


def test_map_checks_images_after_the_domain(sierp, e2):
    with pytest.raises(UnknownLabelError, match="'q'"):
        space_map(e2, sierp, {lab: "q" for lab in e2.labels})


def test_space_map_is_a_value(e2, sierp):
    f = space_map(e2, sierp, {lab: "a" for lab in e2.labels})
    same = SpaceMap(FinSpace(e2.labels, e2.basis), sierp, (0, 0, 0, 0))
    assert f == same and hash(f) == hash(same)
    assert f != SpaceMap(e2, sierp, (0, 0, 0, 1))
    back = pickle.loads(pickle.dumps(f))
    assert back == f and hash(back) == hash(f) and back("d") == 0
    with pytest.raises(AttributeError):
        f.image = (1, 1, 1, 1)
    assert f.image == (0, 0, 0, 0)
    assert repr(f) == f"SpaceMap(domain={e2!r}, codomain={sierp!r}, image=(0, 0, 0, 0))"


def test_space_map_rejects_a_bad_image(e2, sierp):
    for image in ((0, 0, 0), (0, 0, 0, 2), (0, 0, 0, -1)):
        with pytest.raises(SpaceError):
            SpaceMap(e2, sierp, image)


def test_space_map_refuses_a_float_image(e2):
    # a float used to be truncated to an index, so the map was built
    with pytest.raises(SpaceError, match="a point index must be an int, got 1.9"):
        space_map(e2, e2, [0, 1.9, 2, 3])


@pytest.mark.parametrize("bad", [0.5, "a", None])
def test_space_map_refuses_an_image_entry_that_is_not_an_int(bad):
    sp = FinSpace(("a", "b", "c"), (1, 3, 7))
    with pytest.raises(SpaceError, match=f"an image index must be an int, got {bad!r}"):
        SpaceMap(sp, sp, (0, bad, 1))


def test_space_map_reads_a_bool_image_as_its_int():
    sp = FinSpace(("a", "b", "c"), (1, 3, 7))
    f = SpaceMap(sp, sp, (0, True, 1))
    assert f.image == (0, 1, 1) and all(type(i) is int for i in f.image)
    assert f == SpaceMap(sp, sp, (0, 1, 1))
    assert is_continuous(f)
    with pytest.raises(SpaceError, match="image index 3 out of codomain range"):
        SpaceMap(sp, sp, (0, True, 3))
