import random
import time

import pytest

from furtherness import (
    FinSpace,
    SizeTooLargeError,
    SpaceError,
    ZeroRadiusError,
    ball,
    ball_topology,
    enumerate_topologies,
    furtherness,
    generated_topology,
    largest_forward_balls,
    random_space,
    symmetrized_ball,
    symmetrized_furtherness,
    symmetrized_topology,
)
from furtherness.balls import _ball_levels
from furtherness.spaces import canonical_sets
from oracles import fixpoint_generated_topology


def test_radius_one_forward_is_min_open(e2):
    for x in e2.labels:
        assert ball(e2, x, 1) == e2.min_open(x)


def test_radius_one_backward_is_closure(e2):
    for x in range(e2.n):
        assert ball(e2, x, 1, backward=True) == e2.closure(1 << x)


def test_ball_growth(e2):
    assert ball(e2, "a", 1) == e2.mask("a")
    assert ball(e2, "a", 2) == e2.mask("abd")
    assert ball(e2, "a", 3) == e2.mask("abd")
    assert ball(e2, "a", 4) == e2.full


def test_radius_must_be_positive(e2):
    with pytest.raises(ZeroRadiusError):
        ball(e2, "a", 0)
    with pytest.raises(ZeroRadiusError):
        ball(e2, "a", -2)
    # ball's check is the one radius validation, and it comes before the
    # center's lookup
    for bad in (0, -2, True, 1.5):
        with pytest.raises(ZeroRadiusError):
            symmetrized_ball(e2, "a", bad)
        with pytest.raises(ZeroRadiusError):
            symmetrized_ball(e2, "no-such-point", bad)


def test_forward_topology_recovers_original(e1, e2, q1):
    for sp in (e1, e2, q1):
        assert ball_topology(sp) == sp.open_family


def test_backward_topology_is_opposite(e1, e2, q1):
    for sp in (e1, e2, q1):
        assert ball_topology(sp, backward=True) == sp.opposite().open_family


def test_generated_topology_closes_generators():
    fam = generated_topology(3, [0b011, 0b110])
    assert set(fam) == {0b000, 0b010, 0b011, 0b110, 0b111}


def _ball_families(sp):
    """(library topology, its generating balls) for the forward, backward
    and symmetrized balls of ``sp``, the balls read off the matrix: the
    points below each radius 1..n, one way, the other, or both."""
    n, flat = sp.n, sp.further_flat
    there = [[flat[x * n + y] for y in range(n)] for x in range(n)]
    back = [list(col) for col in zip(*there)]
    both = [[max(u, v) for u, v in zip(*rows)] for rows in zip(there, back)]
    for fam, rows in (
        (ball_topology(sp), there),
        (ball_topology(sp, backward=True), back),
        (symmetrized_topology(sp), both),
    ):
        gens = []
        for row in rows:
            # distances run 0..n-1, and the ball of radius r holds those below r
            level = [0] * n
            for y, v in enumerate(row):
                level[v] |= 1 << y
            inside = 0
            for points in level:
                inside |= points
                gens.append(inside)
        yield fam, gens


def _brute_balls(sp, backward=False):
    """``balls[x][r - 1]`` is {y : furtherness(x, y) < r}, or furtherness(y,
    x) when backward, for radii 1..n+1."""
    n = sp.n
    far = [[furtherness(sp, x, y) for y in range(n)] for x in range(n)]
    if backward:
        far = [list(col) for col in zip(*far)]
    return [
        [sum(1 << y for y in range(n) if far[x][y] < r) for r in range(1, n + 2)]
        for x in range(n)
    ]


@pytest.fixture(scope="module")
def brute_corpus():
    """Every space on at most five points, then six random larger ones,
    each with its brute-force forward and backward balls."""
    spaces = [sp for n in range(1, 6) for sp in enumerate_topologies(n)]
    spaces += [random_space(n, seed) for n in (6, 7) for seed in (1, 2, 3)]
    return [(sp, _brute_balls(sp), _brute_balls(sp, backward=True)) for sp in spaces]


def test_balls_match_a_brute_force_on_every_small_space(brute_corpus):
    for sp, forward, backward_balls in brute_corpus:
        n = sp.n
        for backward, balls in ((False, forward), (True, backward_balls)):
            for x, want in enumerate(balls):
                assert _ball_levels(sp, x, backward) == want[:n]
                for r in range(1, n + 2):
                    assert ball(sp, x, r, backward=backward) == want[r - 1]


def test_largest_forward_balls_match_a_brute_force(brute_corpus):
    # every proper nonempty subset of every space on two to five points
    for sp, balls, _ in brute_corpus:
        if not 2 <= sp.n <= 5:
            continue
        for s in range(1, sp.full):
            for e in largest_forward_balls(sp, s):
                assert e.ball == (balls[e.center][e.radius - 1] if e.radius else 0)


def test_ball_topologies_match_the_fixpoint_on_every_small_space(brute_corpus):
    # the minimal-open construction against the union and intersection
    # closure, on every space with at most five points; one reference run
    # serves every family with the same generators
    reference = {}
    for sp, _, _ in brute_corpus:
        if sp.n > 5:
            continue
        for fam, gens in _ball_families(sp):
            key = (sp.n, frozenset(gens))
            if key not in reference:
                reference[key] = fixpoint_generated_topology(sp.n, gens)
            assert set(fam) == reference[key]


def test_generated_topology_matches_the_fixpoint_on_random_families():
    rng = random.Random(18)
    uncovered = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        # drawn generators miss the points of ``hole``; duplicates, the
        # empty set and the full set are mixed in
        hole = rng.getrandbits(n)
        drawn = [rng.getrandbits(n) & ~hole for _ in range(rng.randint(0, 6))]
        gens = drawn + rng.sample(drawn, rng.randint(0, len(drawn)))
        gens += rng.choice([[], [0], [full], [0, full, full]])
        rng.shuffle(gens)
        covered = 0
        for g in gens:
            covered |= g
        uncovered += covered != full
        fam = generated_topology(n, gens)
        assert set(fam) == fixpoint_generated_topology(n, gens)
        assert fam.opens == canonical_sets(fam.opens)
    assert uncovered


def test_generated_topologies_refuse_past_the_open_limit_quickly():
    start = time.perf_counter()
    with pytest.raises(SizeTooLargeError):
        generated_topology(13, [1 << i for i in range(13)])
    assert time.perf_counter() - start < 1.0
    # the ball topologies are built the same way, so they refuse too
    discrete = FinSpace.discrete([f"p{i}" for i in range(13)])
    for build in (ball_topology, symmetrized_topology):
        with pytest.raises(SizeTooLargeError):
            build(discrete)


def test_generator_outside_the_points_is_refused():
    for bad in (0b100, -1):
        with pytest.raises(SpaceError, match="out of range for 2 points"):
            generated_topology(2, [0b01, bad])
    for bad in (1.0, None, "1"):
        with pytest.raises(SpaceError, match="a generator must be an int"):
            generated_topology(2, [0b01, bad])
    assert generated_topology(2, [True]) == generated_topology(2, [0b01])


def test_symmetrized_values(e2):
    assert symmetrized_furtherness(e2, "a", "c") == 3
    assert symmetrized_furtherness(e2, "c", "a") == 3
    assert symmetrized_furtherness(e2, "a", "b") == 1


def test_symmetrized_ball_is_two_sided(e2):
    for x in range(e2.n):
        for r in range(1, e2.n + 1):
            want = ball(e2, x, r) & ball(e2, x, r, backward=True)
            assert symmetrized_ball(e2, x, r) == want


def test_symmetrized_topology_discrete_for_t0(e2):
    assert len(symmetrized_topology(e2)) == 1 << e2.n


def test_symmetrized_topology_partition(e1):
    # classes {1,2} and {3}: opens are unions of classes
    assert set(symmetrized_topology(e1)) == {0b000, 0b011, 0b100, 0b111}


def test_symmetrized_balls_of_radius_one_are_classes(e1):
    for x in range(e1.n):
        cls = sum(
            1 << y for y in range(e1.n) if e1.class_ids[y] == e1.class_ids[x]
        )
        assert symmetrized_ball(e1, x, 1) == cls


def test_indiscrete_pair_stays_connected():
    # both distances vanish, so the symmetrized topology stays indiscrete;
    # a proper clopen set only appears once points are distinguishable
    indis = FinSpace(("a", "b"), (0b11, 0b11))
    assert symmetrized_furtherness(indis, "a", "b") == 0
    assert set(symmetrized_topology(indis)) == {0b00, 0b11}


def test_two_class_space_splits(e1):
    fam = set(symmetrized_topology(e1))
    assert 0b011 in fam and 0b100 in fam  # complementary proper opens


def test_bool_radius_is_rejected(e2):
    for radius in (True, False):
        with pytest.raises(ZeroRadiusError):
            ball(e2, "a", radius)
        with pytest.raises(ZeroRadiusError):
            ball(e2, "a", radius, backward=True)
        with pytest.raises(ZeroRadiusError):
            symmetrized_ball(e2, "a", radius)


@pytest.mark.parametrize("bad", [-1, 0, 2.5, True, "2", None])
def test_generated_topology_checks_the_number_of_points(bad):
    # the same refusal as random_space and count_topologies
    with pytest.raises(SpaceError) as got:
        generated_topology(bad, [])
    with pytest.raises(SpaceError) as want:
        random_space(bad, 0)
    assert str(got.value) == str(want.value)
