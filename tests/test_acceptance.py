"""Acceptance gate.

Twelve numbered criteria, each one test.  Every criterion prints a single
pass/fail line (run with -s to watch them stream) and the timed ones assert
their budget.  All value checks are exact; nothing here is statistical.
"""

import json
import time

from furtherness import (
    FinSpace,
    cli,
    from_open_sets,
    furtherness_matrix,
    product_furtherness,
    quasi_report,
    region_report,
    run_property,
    VerifyOptions,
)
from furtherness import theorems as T
from furtherness import verify as V

DEFAULTS = VerifyOptions()


def _sweep(names, opts=DEFAULTS):
    """Run named checkers, return (all_passed, first_failure, seconds)."""
    t0 = time.perf_counter()
    for name in names:
        report = run_property(name, opts)
        if not report.passed:
            return False, report, time.perf_counter() - t0
    return True, None, time.perf_counter() - t0


def _line(num, tag, ok, secs):
    verdict = "pass" if ok else "FAIL"
    print(f"[acceptance] {num:02d} {tag}: {verdict} ({secs:.2f}s)")


def _finish(num, tag, ok, secs, budget=None, detail=None):
    _line(num, tag, ok, secs)
    assert ok, (num, tag, detail)
    if budget is not None:
        assert secs < budget, f"criterion {num} took {secs:.2f}s, budget {budget}s"


def _e1():
    return from_open_sets(("1", "2", "3"), [0b000, 0b011, 0b111])


def _e2():
    return from_open_sets(
        ("a", "b", "c", "d"),
        [0b0000, 0b0001, 0b1000, 0b0011, 0b1001, 0b1011, 0b1111],
    )


def test_criterion_01_worked_examples():
    t0 = time.perf_counter()
    e1, e2 = _e1(), _e2()
    ok = furtherness_matrix(e2).rows == ((0, 1, 3, 1), (0, 0, 2, 1), (0, 0, 0, 0), (1, 2, 3, 0))
    ok &= furtherness_matrix(e1).rows == ((0, 0, 1), (0, 0, 1), (0, 0, 0))
    s = FinSpace(("a", "b"), (0b01, 0b11))
    sp = FinSpace(("x", "y"), (0b01, 0b11))
    ok &= product_furtherness(s, sp, ("a", "x"), ("b", "y")) == 3
    r1 = region_report(e1, 0b110)
    ok &= r1.center == 0b110 and r1.radius == 0
    r2 = region_report(e2, 0b0101)
    ok &= r2.center == 0b0001 and r2.radius == 1
    _finish(1, "worked-examples", ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_02_oracle_equivalence():
    ok, detail, secs = _sweep(["oracle-equivalence"])
    _finish(2, "oracle-equivalence", ok, secs, budget=30.0, detail=detail)


def test_criterion_03_distance_axioms():
    ok, detail, secs = _sweep(
        ["zero-diagonal", "triangle-inequality", "t0-criterion", "range-bound"]
    )
    _finish(3, "distance-axioms", ok, secs, detail=detail)


def test_criterion_04_chain_theorems():
    ok, detail, secs = _sweep(["chain-witness", "cover-single-step"])
    _finish(4, "chain-theorems", ok, secs, detail=detail)


def test_criterion_05_ball_topologies():
    ok, detail, secs = _sweep(
        [
            "forward-ball-topology",
            "backward-ball-topology",
            "symmetrized-smallest-join",
            "symmetrized-discrete-t0",
        ]
    )
    _finish(5, "ball-topologies", ok, secs, detail=detail)


def test_criterion_06_matrix_theorems():
    ok, detail, secs = _sweep(
        ["row-dominance", "t0-criterion", "extreme-points", "zero-count-bound"]
    )
    _finish(6, "matrix-theorems", ok, secs, detail=detail)


def test_criterion_07_quotient_and_products():
    ok, detail, secs = _sweep(["quotient-preserves", "product-formula", "product-nfold"])
    _finish(7, "quotient-and-products", ok, secs, budget=30.0, detail=detail)


def test_criterion_08_map_predicates():
    ok, detail, secs = _sweep(
        ["continuity-agreement", "preserving-implies-continuous", "minimal-rigidity"]
    )
    _finish(8, "map-predicates", ok, secs, detail=detail)


def test_criterion_09_region_theory():
    ok, detail, secs = _sweep(
        [
            "point-set-closure",
            "separation-obstruction",
            "radius-zero-interior",
            "center-in-interior",
            "radius-clopen",
            "radius-monotone",
            "subspace-radius-monotone",
        ]
    )
    _finish(9, "region-theory", ok, secs, detail=detail)


def test_criterion_10_union_theorems():
    ok, detail, secs = _sweep(["union-pairs", "union-random", "union-triples"])
    _finish(10, "union-theorems", ok, secs, budget=60.0, detail=detail)


def test_criterion_11_quasi_ball_identity():
    t0 = time.perf_counter()
    ok, detail, _ = _sweep(["quasi-ball-identity"])
    q1 = FinSpace(("a", "b", "c", "d"), (0b0001, 0b0011, 0b0100, 0b1100))
    rep = quasi_report(q1, 0b0011)
    ok &= rep.quasi_center == 0b0011 and rep.quasi_radius == 1
    _finish(11, "quasi-ball-identity", ok, time.perf_counter() - t0, detail=detail)


def test_criterion_12_infrastructure(tmp_path, capsys):
    t0 = time.perf_counter()
    ok, detail, _ = _sweep(["enumerator-counts", "roundtrip-identity", "dot-stable"])

    # exit-code contract: 0 valid input, 1 bad input, 2 failed verification
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": ["a"], "opens": [[], ["a"]]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a", "b"], "opens": [[], ["a"], ["b"]]}))

    def exit_code(argv):
        try:
            cli.main(argv)
        except SystemExit as exc:
            return exc.code or 0
        return 0

    ok &= exit_code(["validate", str(good)]) == 0
    ok &= exit_code(["validate", str(bad)]) == 1

    name = "acceptance-bogus-claim"

    @V.space_property(name)
    def bogus(sp):
        return T._fail(sp)

    try:
        ok &= exit_code(["verify", "--prop", name, "--max-n", "1"]) == 2
    finally:
        del V.PROPERTIES[name]
    capsys.readouterr()  # swallow CLI noise so the verdict line stands alone

    _finish(12, "infrastructure", ok, time.perf_counter() - t0, detail=detail)
