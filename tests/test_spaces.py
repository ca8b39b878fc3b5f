import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furtherness
from furtherness import (
    BasisNotNestedError,
    DuplicateLabelError,
    EmptyInputError,
    FinSpace,
    MissingEmptyOrFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    PointNotInOwnBasisError,
    SpaceError,
    UnknownLabelError,
    enumerate_topologies,
    from_minimal_basis,
    from_open_sets,
    default_labels,
    mask_indices,
    random_space,
    symmetrized_furtherness,
)
from furtherness.distance import _zero_masks
from furtherness.spaces import canonical_sets
from oracles import (
    brute_boundary,
    brute_closure,
    brute_interior,
    brute_min_open,
    family_from_basis,
    reference_basis_outcome,
)


def to_sets(space, masks):
    return {frozenset(space.members(m)) for m in masks}


def test_basis_masks_e2(e2):
    assert e2.basis == (0b0001, 0b0011, 0b1111, 0b1000)


def test_open_family_e2(e2):
    assert to_sets(e2, e2.open_family) == family_from_basis(
        e2.labels, [frozenset(e2.members(b)) for b in e2.basis]
    )


def test_membership_helpers(e2):
    assert e2.mask(["a", "c"]) == 0b0101
    assert e2.mask("bd") == 0b1010
    assert list(e2.members(0b0101)) == ["a", "c"]
    assert list(mask_indices(0b1010)) == [1, 3]
    assert e2.index("d") == 3
    with pytest.raises(UnknownLabelError):
        e2.index("z")


def test_min_open_is_intersection(e2):
    fam = to_sets(e2, e2.open_family)
    for x in e2.labels:
        assert frozenset(e2.members(e2.min_open(x))) == brute_min_open(fam, x)


def test_closure_interior_boundary_against_definitions(e1, e2, q1):
    for sp in (e1, e2, q1):
        fam = to_sets(sp, sp.open_family)
        for mask in range(sp.full + 1):
            a = frozenset(sp.members(mask))
            assert frozenset(sp.members(sp.closure(mask))) == brute_closure(
                fam, sp.labels, a
            )
            assert frozenset(sp.members(sp.interior(mask))) == brute_interior(fam, a)
            assert frozenset(sp.members(sp.boundary(mask))) == brute_boundary(
                fam, sp.labels, a
            )


def test_worked_closure_values(e2):
    # closures of singletons pull in every point whose opens all meet them
    assert e2.closure(e2.mask("a")) == e2.mask("abc")
    assert e2.interior(e2.mask("ac")) == e2.mask("a")
    assert e2.boundary(e2.mask("ac")) == e2.mask("bc")


def test_is_open(e2):
    assert e2.is_open(0)
    assert e2.is_open(e2.full)
    assert e2.is_open(e2.mask("ab"))
    assert not e2.is_open(e2.mask("b"))


def test_opposite_family(e2):
    op = e2.opposite()
    assert to_sets(op, op.open_family) == {
        frozenset(e2.members(e2.full & ~o)) for o in e2.open_family
    }
    assert op.opposite() == e2


def test_point_closures_are_the_closures_zero_columns_and_opposite_basis():
    spaces = [sp for n in range(1, 6) for sp in enumerate_topologies(n)]
    spaces += [random_space(n, seed) for n in range(6, 21) for seed in range(1, 4)]
    for sp in spaces:
        n = sp.n
        closures = sp.point_closures
        assert closures == tuple(sp.closure(1 << x) for x in range(n))
        assert closures == tuple(_zero_masks(n, sp.further_flat)[1])
        assert closures == sp.opposite().basis


def test_subspace(e2):
    sub = e2.subspace(e2.mask("ac"))
    assert sub.labels == ("a", "c")
    assert sub.basis == (0b01, 0b11)
    with pytest.raises(EmptyInputError, match="subspace carrier"):
        e2.subspace(0)


def _restricted_family(space, carrier):
    """The opens of ``space`` cut to ``carrier``, as label sets, from the
    whole open family of its basis."""
    family = family_from_basis(space.labels, [frozenset(space.members(m)) for m in space.basis])
    cut = frozenset(space.members(carrier))
    return {o & cut for o in family}


def test_subspace_opens_are_the_restricted_opens():
    # every carrier of every space on at most 4 points and of random spaces
    # of 6 to 8 points: the subspace topology is {O & C : O open}
    spaces = [sp for n in range(1, 5) for sp in enumerate_topologies(n)]
    spaces += [random_space(6 + s % 3, s) for s in range(6)]
    for sp in spaces:
        for carrier in range(1, sp.full + 1):
            sub = sp.subspace(carrier)
            assert sub.labels == sp.members(carrier)
            got = family_from_basis(sub.labels, [frozenset(sub.members(m)) for m in sub.basis])
            assert got == _restricted_family(sp, carrier), (sp, carrier)


def test_t0(e1, e2):
    assert e2.is_t0
    assert not e1.is_t0
    assert e1.class_ids == (0, 0, 1)


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabelError):
        FinSpace(("a", "a"), (0b01, 0b11))


def test_point_missing_from_own_basis():
    with pytest.raises(PointNotInOwnBasisError):
        FinSpace(("a", "b"), (0b10, 0b10))


def test_basis_needs_one_open_per_point():
    with pytest.raises(SpaceError, match="one open set per point"):
        FinSpace(("a", "b"), (0b01,))


def test_basis_nesting_enforced():
    # b lies in a's minimal open, so b's own must be contained in it
    with pytest.raises(BasisNotNestedError):
        FinSpace(("a", "b", "c"), (0b011, 0b110, 0b100))


def test_from_open_sets_requires_empty_and_full():
    with pytest.raises(MissingEmptyOrFullError):
        from_open_sets(("a", "b"), [0b01, 0b11])
    with pytest.raises(MissingEmptyOrFullError):
        from_open_sets(("a", "b"), [0b00, 0b01])


def test_union_closure_enforced_with_witness():
    bad = [0b000, 0b001, 0b100, 0b111]
    with pytest.raises(NotClosedUnderUnionError) as exc:
        from_open_sets(("a", "b", "c"), bad)
    assert "{a}" in str(exc.value) and "{c}" in str(exc.value)


def test_intersection_closure_enforced():
    # closed under union but {a,b} ∩ {b,c} = {b} is missing
    bad = [0b000, 0b011, 0b110, 0b111]
    with pytest.raises(NotClosedUnderIntersectionError):
        from_open_sets(("a", "b", "c"), bad)


def test_all_three_point_families_reconstruct():
    from furtherness import enumerate_topologies

    for sp in enumerate_topologies(3):
        assert from_open_sets(sp.labels, list(sp.open_family)) == sp


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_duality_on_random_spaces(seed, n):
    sp = random_space(n, seed)
    for mask in range(min(sp.full, 255) + 1):
        rest = sp.full & ~mask
        assert sp.interior(mask) == sp.full & ~sp.closure(rest)


def test_equality_and_hash(e2):
    twin = FinSpace(e2.labels, e2.basis)
    assert twin == e2 and hash(twin) == hash(e2)
    assert FinSpace(("a", "b"), (0b01, 0b11)) != FinSpace(("a", "b"), (0b11, 0b10))
    # another type is not equal, whatever its fields
    assert e2 != (e2.labels, e2.basis)
    assert e2.__eq__(e2.open_family) is NotImplemented


def test_subspace_of_everything_is_identity(e2):
    assert e2.subspace(e2.full) == e2


def test_iter_subsets_order(e2):
    fam = e2.open_family
    assert list(fam) == sorted(fam, key=lambda m: (bin(m).count("1"), tuple(mask_indices(m))))


def test_enumerated_spaces_equal_validated_ones():
    for n in range(1, 6):
        for sp in enumerate_topologies(n):
            checked = FinSpace(sp.labels, sp.basis)
            assert sp == checked
            assert hash(sp) == hash(checked)
            assert (sp.n, sp.full) == (checked.n, checked.full) == (n, (1 << n) - 1)
            assert type(sp.labels) is tuple and type(sp.basis) is tuple


def test_size_fields_are_read_only(e2):
    before = {name: getattr(e2, name) for name in ("n", "full", "labels", "basis")}
    for name in before:
        with pytest.raises(AttributeError):
            setattr(e2, name, 3)
        with pytest.raises(AttributeError):
            delattr(e2, name)
    assert {name: getattr(e2, name) for name in before} == before
    assert (e2.n, e2.full) == (4, 0b1111)


def test_open_family_is_a_value(e2):
    fam = e2.open_family
    same = FinSpace(e2.labels, e2.basis).open_family
    assert fam is not same and fam == same and hash(fam) == hash(same)
    assert fam != e2.opposite().open_family
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam and hash(back) == hash(fam)
    assert list(back) == list(fam) and 0b1111 in back
    with pytest.raises(AttributeError):
        fam.opens = ()
    assert repr(fam).startswith("OpenFamily(n=4, opens=(0, ")


def test_size_fields_survive_pickle(e2):
    enumerated = next(iter(enumerate_topologies(3)))
    for sp in (e2, enumerated):
        back = pickle.loads(pickle.dumps(sp))
        assert back == sp and hash(back) == hash(sp)
        assert (back.n, back.full) == (sp.n, sp.full)


def test_errors_survive_pickle():
    # a verifier worker sends the errors its slice raised to the parent by
    # pickle, whatever the parameters of their constructors
    from furtherness import errors as E

    pair = (("a",), ("b",))
    errors = [
        E.SpaceError("plain"), E.DuplicateLabelError("a"), E.MissingEmptyOrFullError("empty"),
        E.NotClosedUnderUnionError(pair), E.NotClosedUnderIntersectionError(pair),
        E.PointNotInOwnBasisError("a"), E.BasisNotNestedError("a", "b"),
        E.UnknownLabelError("z"), E.UnknownPropertyError("p", ["q"]), E.EmptyInputError(),
        E.ZeroRadiusError(), E.EmptyOrFullSubsetError("part"),
        E.PreconditionViolatedError("why"), E.SizeTooLargeError(9, 5, at_least=True),
        E.SchemaError("shape"), E.DocumentSyntaxError("json"),
    ]
    every = {c for c in vars(E).values() if isinstance(c, type) and issubclass(c, E.SpaceError)}
    assert {type(e) for e in errors} == every
    for error in errors:
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))


def test_index_and_mask_edge_cases(e2):
    assert e2.index(True) == 1
    assert e2.index(False) == 0
    with pytest.raises(SpaceError):
        FinSpace(("a",), (1,)).index(True)
    for bad in (-1, e2.n):
        with pytest.raises(SpaceError, match=f"point index {bad} out of range"):
            e2.index(bad)
    assert e2.mask(True) == 1
    assert e2.mask([True, 3]) == 0b1010
    with pytest.raises(SpaceError, match="mask 0x10 out of range for 4 points"):
        e2.mask(1 << e2.n)


def test_points_and_basic_sets_coerce_through_operator_index(e2):
    # a bool reads as its int; a float, a string, bytes or None is refused
    # rather than truncated or parsed
    basis = FinSpace(("a", "b"), (True, 0b11)).basis
    assert basis == (1, 3) and all(type(m) is int for m in basis)
    for bad in (1.9, "1", None):
        with pytest.raises(SpaceError, match="a basic set must be an int"):
            FinSpace(("a",), (bad,))
    for bad in (1.5, 2.0, None, b"a"):
        with pytest.raises(SpaceError, match="a point index must be an int"):
            e2.index(bad)
        with pytest.raises(SpaceError, match="a point index must be an int"):
            e2.mask([0, bad])
    for flag in (True, False):
        assert type(e2.mask(flag)) is int and e2.mask(flag) == flag
    for bad in (None, 1.5):
        with pytest.raises(SpaceError, match="a mask or an iterable"):
            e2.mask(bad)


def test_discrete_space_is_the_label_lookup():
    sp = FinSpace.discrete(["a", "b", "c"])
    assert sp.basis == (0b001, 0b010, 0b100)
    assert len(sp.open_family) == 8
    assert sp.mask("ac") == 0b101 and sp.members(0b110) == ("b", "c")
    # the builders coerce through it, so they raise what it raises
    for build in (from_minimal_basis, from_open_sets):
        with pytest.raises(EmptyInputError):
            build((), [])
        with pytest.raises(DuplicateLabelError):
            build(("a", "a"), [0b11])
        with pytest.raises(SpaceError, match="nonempty strings"):
            build(("a", 1), [0b11])
        with pytest.raises(UnknownLabelError):
            build(("a", "b"), [["a"], ["z"]])
        with pytest.raises(SpaceError, match="point index 5 out of range"):
            build(("a", "b"), [[0], [5]])


def _constructor_outcome(labels, basis):
    try:
        sp = FinSpace(labels, basis)
    except SpaceError as err:
        if isinstance(err, BasisNotNestedError):
            witness = (err.outer, err.inner)
        elif isinstance(err, (DuplicateLabelError, PointNotInOwnBasisError)):
            witness = (err.label,)
        else:
            witness = ()
        return (type(err).__name__, witness)
    # an accepted basis is stored as plain ints, equal to the given entries
    assert all(type(m) is int for m in sp.basis) and sp.basis == tuple(basis)
    return None


def test_constructor_matches_the_reference_validator_on_every_row_tuple():
    for n in (1, 2, 3):
        labels = default_labels(n)
        # one mask past the range, so the range check is exercised too
        for basis in itertools.product(range((1 << n) + 1), repeat=n):
            assert _constructor_outcome(labels, basis) == reference_basis_outcome(
                labels, basis
            ), basis
        # bool entries are coerced like the ints they equal
        for basis in itertools.product((False, True, 0, 1, 2, 3), repeat=min(n, 2)):
            lab = labels[: len(basis)]
            assert _constructor_outcome(lab, basis) == reference_basis_outcome(lab, basis)


@pytest.mark.parametrize(
    "labels",
    [
        (), ("",), ("a", ""), ("a", 1), (None,), ("a", "a"), ("b", "a", "b"), ("a", "b", ""),
        None, 5,
    ],
)
def test_constructor_matches_the_reference_validator_on_bad_labels(labels):
    for basis in [(), (0b1,), (0b1, 0b10), (0b1, 0b11, 0b111), (0b10, 0b1), None, 5]:
        assert _constructor_outcome(labels, basis) == reference_basis_outcome(labels, basis)


def _index_key_sort(masks):
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), tuple(mask_indices(m)))))


def test_canonical_sets_is_the_index_list_order():
    for n in range(1, 6):
        for sp in enumerate_topologies(n):
            family = set(sp.open_family)
            assert canonical_sets(family) == _index_key_sort(family)
    rng = random.Random(12)
    for _ in range(300):
        width = rng.randint(1, 96)
        masks = {rng.getrandbits(width) for _ in range(rng.randint(0, 40))}
        assert canonical_sets(masks) == _index_key_sort(masks)


def test_open_set_queries_take_masks_and_labels_alike(e1, e2, q1):
    for sp in (e1, e2, q1):
        for s in range(sp.full + 1):
            names = sp.members(s)
            assert sp.is_open(s) == sp.is_open(list(names))
            if s:
                assert sp.minimal_open(s) == sp.minimal_open(list(names))
        for bad in (sp.full + 1, 1 << sp.n, -1):
            with pytest.raises(SpaceError, match="out of range"):
                sp.is_open(bad)
            with pytest.raises(SpaceError, match="out of range"):
                sp.minimal_open(bad)
        with pytest.raises(EmptyInputError):
            sp.minimal_open(0)


def test_a_negative_mask_has_no_indices():
    # refused at the call, before any index is read
    for bad in (-1, -8):
        with pytest.raises(SpaceError, match="cannot be negative"):
            mask_indices(bad)
    for bad in ("a", 1.5, None):
        with pytest.raises(SpaceError, match="must be an int"):
            mask_indices(bad)
    assert list(mask_indices(0)) == []
    assert list(mask_indices(True)) == [0]


def test_members_coerces_like_every_mask_argument():
    sp = FinSpace.discrete("abc")
    for bad in (-1, 8):
        with pytest.raises(SpaceError, match="out of range for 3 points"):
            sp.members(bad)
    with pytest.raises(SpaceError, match="must be a mask or an iterable"):
        sp.members(1.5)
    assert sp.members(0b101) == sp.members("ac") == sp.members([0, "c"]) == ("a", "c")
    assert sp.members(True) == ("a",)


def test_int_masks_and_indices_coerce_through_mask_and_index(monkeypatch, e2):
    # an in-range int is read by FinSpace.mask or index like any other
    # point or point set, so no caller keeps a copy of their checks
    calls = []

    def counted(name):
        real = getattr(FinSpace, name)

        def wrapper(self, value):
            calls.append(name)
            return real(self, value)

        return wrapper

    for name in ("mask", "index"):
        monkeypatch.setattr(FinSpace, name, counted(name))
    e2.further_flat
    queries = [
        (lambda: e2.is_open(0b0101), ["mask"]),
        (lambda: e2.minimal_open(0b0101), ["mask"]),
        (lambda: e2.members(0b0101), ["mask"]),
        (lambda: symmetrized_furtherness(e2, 0, 3), ["index", "index"]),
    ]
    for query, want in queries:
        calls.clear()
        query()
        assert calls == want


def test_class_opens_is_the_kernel_recoding_kept_on_the_space(e1, e2):
    assert e2.class_opens is e2.basis
    assert e1.class_opens == (0b01, 0b01, 0b11)


_SPACE = FinSpace(("a", "b"), (0b01, 0b11))

# every public reader of a collection, given something that is not iterable
NOT_ITERABLE = {
    "FinSpace labels": lambda: FinSpace(None, [1]),
    "FinSpace basis": lambda: FinSpace(["a"], None),
    "FinSpace.discrete": lambda: FinSpace.discrete(None),
    "from_minimal_basis": lambda: from_minimal_basis(["a"], None),
    "from_open_sets": lambda: from_open_sets(["a"], 5),
    "Preorder": lambda: furtherness.Preorder(["a"], None),
    "SpaceMap": lambda: furtherness.SpaceMap(_SPACE, _SPACE, None),
    "space_map": lambda: furtherness.space_map(_SPACE, _SPACE, 5),
    "generated_topology": lambda: furtherness.generated_topology(3, 5),
    "union_analysis": lambda: furtherness.union_analysis(_SPACE, 5),
    "FurtherMatrix": lambda: furtherness.FurtherMatrix(("a",), None),
    "run_all": lambda: furtherness.run_all(5),
}


@pytest.mark.parametrize("call", list(NOT_ITERABLE))
def test_a_collection_that_is_not_iterable_raises_space_error(call):
    with pytest.raises(SpaceError, match="must be a.* iterable"):
        NOT_ITERABLE[call]()
