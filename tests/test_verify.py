import concurrent.futures
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import pytest

from furtherness import (
    PROPERTIES,
    FinSpace,
    SizeTooLargeError,
    SpaceError,
    UnknownPropertyError,
    VerifyOptions,
    document_to_space,
    enumerate_topologies,
    furtherness_to_set,
    random_space,
    run_all,
    run_property,
)
from furtherness import generate
from furtherness import regions as R
from furtherness import theorems as T
from furtherness import verify as V
from furtherness.spaces import mask_indices
from oracles import own_sweep, zero_continuous_self_maps

SMALL = VerifyOptions(max_n=3, samples=25, sample_n=5)


def _default_start_method():
    # without fixing it, as get_start_method() would; the first method
    # listed is the platform default
    return (
        multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0]
    )


# for a pooled sweep of a check registered inside the test: a worker that was
# not forked, as under forkserver, the Linux default from Python 3.14, does
# not know the check and fails the sweep with SpaceError
forked_only = pytest.mark.skipif(
    _default_start_method() != "fork",
    reason="the property is registered at run time, which only forked workers see",
)
POOLED = pytest.param(2, marks=forked_only)


def test_every_registered_property_passes_small():
    for report in run_all(opts=SMALL):
        assert report.passed, (report.prop, report.counterexample)
        assert report.checked > 0
        assert report.seconds >= 0


def test_report_json_shape():
    report = run_property("zero-diagonal", SMALL)
    data = report.to_json()
    assert data["prop"] == "zero-diagonal"
    assert data["passed"] is True
    assert data["counterexample"] is None
    json.dumps(data)  # must be serializable as-is


def test_registry_names_are_kebab_case():
    for name in PROPERTIES:
        assert name == name.lower()
        assert " " not in name and "_" not in name


def test_counterexample_replays():
    # register a deliberately false claim; the reported document must
    # rebuild a space on which the same check fails again
    name = "every-space-is-t0"

    @V.space_property(name)
    def bogus(sp):
        if not sp.is_t0:
            return T._fail(sp, reason="not t0")
        return None

    try:
        report = run_property(name, SMALL)
        assert not report.passed
        ce = report.counterexample
        assert ce is not None and "space" in ce
        replayed = document_to_space(ce["space"])
        assert bogus(replayed) is not None
        # sweep stops at the first counterexample in enumeration order:
        # the one-point space, then four 2-point spaces, last of them indiscrete
        assert report.checked == 5
        assert not replayed.is_t0
    finally:
        del PROPERTIES[name]


def test_parallel_sweep_matches_serial():
    serial = run_property("triangle-inequality", VerifyOptions(max_n=4, jobs=1))
    parallel = run_property("triangle-inequality", VerifyOptions(max_n=4, jobs=2))
    assert serial.passed and parallel.passed
    assert serial.checked == parallel.checked


@forked_only
def test_parallel_sweep_finds_same_counterexample():
    name = "no-space-has-three-points"

    @V.space_property(name)
    def bogus(sp):
        if sp.n == 3:
            return T._fail(sp, n=sp.n)
        return None

    try:
        serial = run_property(name, VerifyOptions(max_n=3, jobs=1))
        parallel = run_property(name, VerifyOptions(max_n=3, jobs=2))
        assert not serial.passed and not parallel.passed
        assert serial.checked == parallel.checked == 6  # 1 + 4 spaces, then first n=3
        assert serial.counterexample == parallel.counterexample
    finally:
        del PROPERTIES[name]


def test_unknown_property_raises():
    with pytest.raises(KeyError):
        run_property("no-such-property", SMALL)


def test_unknown_property_is_a_space_error_raised_first():
    # the sweep of the known name beside it never starts
    start = time.perf_counter()
    with pytest.raises(SpaceError, match="typo"):
        run_all(["triangle-inequality", "typo"], VerifyOptions(max_n=5))
    with pytest.raises(SpaceError, match="unknown property 'typo'; known: backward-ball"):
        run_property("typo")
    assert time.perf_counter() - start < 1.0


def test_empty_selection_gives_no_reports():
    # an empty selection is not the default: it selects nothing
    assert run_all([], SMALL) == []
    assert run_all((), SMALL) == []
    assert [r.prop for r in run_all(None, VerifyOptions(max_n=1, samples=0))] == list(PROPERTIES)


def test_registering_a_name_again_replaces_its_record():
    # either way round, the last registration is the one that runs: a space
    # property's check fails on the indiscrete two-point space, the fifth
    name = "registered-twice"

    def off_t0(sp):
        return None if sp.is_t0 else T._fail(sp, reason="not t0")

    def runner(opts):
        return 7, None

    try:
        V.space_property(name)(off_t0)
        V.custom_property(name)(runner)
        report = run_property(name, SMALL)
        assert (report.checked, report.passed) == (7, True)
        assert PROPERTIES[name] == V.Property(runner, False, None)
        V.space_property(name, cap=2)(off_t0)
        report = run_property(name, SMALL)
        assert (report.checked, report.passed) == (5, False)
        assert report.counterexample["reason"] == "not t0"
        assert PROPERTIES[name] == V.Property(off_t0, True, 2)
    finally:
        del PROPERTIES[name]
    assert name not in PROPERTIES


@pytest.mark.parametrize("bad", [dict(max_n=0), dict(max_n=-1), dict(samples=-1)])
def test_empty_corpus_is_refused(bad):
    with pytest.raises(SpaceError, match="must be at least"):
        run_all(opts=VerifyOptions(**bad))
    with pytest.raises(SpaceError, match="must be at least"):
        run_property("triangle-inequality", VerifyOptions(**bad))


@pytest.mark.parametrize(
    "names, sample_n, why",
    [
        (None, 13, "sample_n must be at most 12 for union-random, got 13"),
        (["union-random"], 0, "sample_n must be at least 1, got 0"),
        (["triangle-inequality", "random-valid"], -2, "sample_n must be at least 1, got -2"),
    ],
)
def test_bad_sample_n_is_refused_before_the_sweep(names, sample_n, why):
    # the refusal comes before the registry's sweep, not after it
    start = time.perf_counter()
    with pytest.raises(SpaceError, match=why):
        run_all(names, VerifyOptions(sample_n=sample_n))
    assert time.perf_counter() - start < 1.0


def test_sample_n_is_free_where_no_sampler_runs():
    # random-valid builds spaces of any size; other properties ignore it
    report = run_property("random-valid", VerifyOptions(samples=3, sample_n=13))
    assert report.passed and report.checked == 3
    assert run_property("zero-diagonal", VerifyOptions(max_n=2, sample_n=0)).passed


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_refused(jobs):
    start = time.perf_counter()
    with pytest.raises(SpaceError, match=f"jobs must be at least 1, got {jobs}$"):
        run_all(None, VerifyOptions(jobs=jobs))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field", VerifyOptions._fields)
@pytest.mark.parametrize("bad", [2.5, "3", None])
def test_an_option_that_is_not_an_int_is_refused(field, bad):
    # refused before anything runs, whichever properties are selected
    start = time.perf_counter()
    with pytest.raises(SpaceError, match=f"^{field} must be an int, got {bad!r}$"):
        run_all(["zero-diagonal"], VerifyOptions(**{field: bad}))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", [0, [], "", (), 1.5, (4,), {"max_n": 3}], ids=repr)
def test_options_that_are_not_verify_options_are_refused(bad):
    # a falsy value would run the defaults, a dict would read its keys
    start = time.perf_counter()
    message = f"the options must be a VerifyOptions, got {bad!r}"
    with pytest.raises(SpaceError, match=re.escape(message)):
        run_all(["zero-diagonal"], bad)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call",
    [lambda: run_all([["x"]], SMALL), lambda: run_property({"a"})],
    ids=["run_all", "run_property"],
)
def test_an_unhashable_name_is_an_unknown_property(call):
    with pytest.raises(UnknownPropertyError, match="unknown property"):
        call()


@pytest.mark.parametrize("cap", [-1, 0, 2.5, "3"])
def test_a_cap_that_is_not_a_positive_int_is_refused(cap):
    # a cap below 1 would check nothing and pass, 0 would run uncapped and
    # 2.5 would run up to 2 points
    before = dict(PROPERTIES)
    with pytest.raises(SpaceError, match="^cap must be"):
        V.space_property("badly-capped", cap=cap)(lambda sp: None)
    assert PROPERTIES == before


@pytest.mark.parametrize("name", [5, None, ["x"], ""], ids=["int", "None", "list", "empty"])
@pytest.mark.parametrize("register", [V.space_property, V.custom_property])
def test_a_name_that_is_not_a_nonempty_string_is_refused(register, name):
    # a name that is not a string broke the sorted name list of every later
    # unknown-name error, and an unhashable one raised a bare TypeError
    before = dict(PROPERTIES)
    with pytest.raises(SpaceError, match="^a property name must be"):
        register(name)(lambda sp: None)
    assert PROPERTIES == before
    with pytest.raises(UnknownPropertyError):
        run_property("typo")


def test_a_bool_option_reads_as_its_int():
    report = run_all(["zero-diagonal"], VerifyOptions(max_n=True))[0]
    assert report.passed and report.checked == 1


def test_singleton_cap_applies():
    report = run_property("symmetrized-smallest-join", VerifyOptions(max_n=4))
    # capped at three points: 1 + 4 + 29 spaces
    assert report.checked == 34


@pytest.mark.parametrize("max_n", [6, 9])
def test_sweep_past_the_enumeration_limit_is_refused_first(max_n):
    # the refusal comes before the sweep, not after every space on <= 5 points
    names = ["triangle-inequality", "subspace-radius-monotone"]
    start = time.perf_counter()
    with pytest.raises(SizeTooLargeError, match=f"at most 5 points, got {max_n}$"):
        run_all(names, VerifyOptions(max_n=max_n))
    assert time.perf_counter() - start < 1.0


def test_capped_property_ignores_a_large_max_n():
    report = run_property("roundtrip-identity", VerifyOptions(max_n=9))
    assert report.passed and report.checked == 34


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    assert V._workers(10**6) == 2
    assert V._workers(2) == 2
    assert V._workers(1) == 1
    monkeypatch.setattr(V.os, "cpu_count", lambda: None)
    assert V._workers(8) == 1


def test_sweep_starts_clamped_pool(monkeypatch):
    # a stand-in pool that records its size and runs tasks in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    # the sweep imports the executor from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    report = run_property("triangle-inequality", VerifyOptions(max_n=3, jobs=10**6))
    assert report.passed and report.checked == 34
    assert sizes == [2]


SPACE_PROPS = [name for name, prop in PROPERTIES.items() if prop.space]


def test_worker_that_does_not_fork_loads_the_catalog():
    # a spawned worker starts from a fresh interpreter: it has only what
    # unpickling the task imports, and _slice_task's module, verify, imports
    # its registry from the catalog, which runs it; each task carries its
    # bases, so the worker enumerates nothing unless a check does, as
    # symmetrized-smallest-join does.  The package registers the catalog
    # unrun, so it has run once it is a plain module, as sys is
    has_catalog = (
        "type(__import__('sys').modules.get('furtherness.theorems')) is type(__import__('sys'))"
    )
    cached = "__import__('furtherness.generate').generate._bases.cache_info().currsize"
    plan = [(name, PROPERTIES[name].cap or 3) for name in SPACE_PROPS]
    without_join = [(name, limit) for name, limit in plan if name != "symmetrized-smallest-join"]
    slices = V._slices(3)
    task = partial(V._slice_task, plan)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        assert pool.apply(eval, (has_catalog,)) is False
        assert pool.apply(eval, (cached,)) == 0
        pool.map(partial(V._slice_task, without_join), slices)
        assert pool.apply(eval, (has_catalog,)) is True
        assert pool.apply(eval, (cached,)) == 0
        spawned = pool.map(task, slices)
        assert pool.apply(eval, (cached,)) == 3  # the join's bases on 1, 2 and 3 points
    in_process = [task(t) for t in slices]
    assert [sum(s.checked for s in summaries) for summaries in spawned] == [
        len(plan) * count for count in (1, 4, 29)
    ]
    assert [[s._replace(seconds=0) for s in summaries] for summaries in spawned] == [
        [s._replace(seconds=0) for s in summaries] for summaries in in_process
    ]


def _own_sweeps(names, max_n):
    """(prop, checked, passed, counterexample) of each property, each
    walking the corpus on its own up to its size cap."""
    out = []
    for name in names:
        check, _, cap = PROPERTIES[name]
        checked, counter = own_sweep(check, min(max_n, cap) if cap else max_n)
        out.append((name, checked, counter is None, counter))
    return out


def _verdicts(reports):
    return [(r.prop, r.checked, r.passed, r.counterexample) for r in reports]


@pytest.fixture(scope="module")
def own_sweeps_n4():
    return _own_sweeps(SPACE_PROPS, 4)


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_sweep_matches_per_property_sweeps(own_sweeps_n4, jobs):
    reports = run_all(SPACE_PROPS, VerifyOptions(max_n=4, jobs=jobs))
    assert len(reports) == 41
    assert _verdicts(reports) == own_sweeps_n4


@pytest.mark.parametrize("jobs", [1, POOLED])
def test_one_sweep_keeps_each_first_failure(jobs):
    # two false claims that fail at different spaces, beside a capped and an
    # uncapped property that must still run to the end; a repeated name
    # repeats its report
    @V.space_property("fails-on-three-points")
    def on_three(sp):
        return T._fail(sp, n=sp.n) if sp.n == 3 else None

    @V.space_property("fails-off-t0")
    def off_t0(sp):
        return None if sp.is_t0 else T._fail(sp, reason="not t0")

    names = [
        "fails-on-three-points", "symmetrized-smallest-join", "fails-off-t0",
        "triangle-inequality", "fails-on-three-points",
    ]
    try:
        reports = run_all(names, VerifyOptions(max_n=4, jobs=jobs))
        assert _verdicts(reports) == _own_sweeps(names, 4)
        # the indiscrete two-point space is the fifth; the first three-point
        # space the sixth; the cap is 1 + 4 + 29 spaces, the corpus 389
        assert [r.checked for r in reports] == [6, 34, 5, 389, 6]
        assert [r.passed for r in reports] == [False, True, False, True, False]
    finally:
        for name in ("fails-on-three-points", "fails-off-t0"):
            del PROPERTIES[name]


@pytest.mark.parametrize("jobs", [1, POOLED])
def test_failures_at_slice_boundaries_match_own_sweeps(jobs):
    # one check fails on the last space of a slice, one on the first of the
    # next, and one only at n = 5, after the other two have failed
    on4 = [sp.basis for sp in enumerate_topologies(4)]
    on5 = [sp.basis for sp in enumerate_topologies(5)]
    targets = {
        "fails-on-slice-end": on4[V.SLICE - 1],
        "fails-on-slice-start": on4[V.SLICE],
        "fails-on-five-points": on5[2 * V.SLICE + V.SLICE // 2],
    }
    calls = dict.fromkeys(targets, 0)

    def counted(name, basis):
        def check(sp):
            calls[name] += 1
            return T._fail(sp, at=name) if sp.basis == basis else None

        return check

    for name, basis in targets.items():
        V.space_property(name)(counted(name, basis))
    names = list(targets)
    try:
        own = _own_sweeps(names, 5)
        assert [checked for _, checked, _, _ in own] == [
            34 + V.SLICE, 34 + V.SLICE + 1, 389 + 2 * V.SLICE + V.SLICE // 2 + 1
        ]
        calls.update(dict.fromkeys(names, 0))
        reports = run_all(names, VerifyOptions(max_n=5, jobs=jobs))
        assert _verdicts(reports) == own
        if jobs == 1:  # in this process: each check ran up to its counterexample
            assert calls == {r.prop: r.checked for r in reports}
        # within a slice, a check stops at its counterexample
        plan = [(name, 5) for name in names]
        for task in [(4, on4[: V.SLICE]), (4, on4[V.SLICE :])]:
            calls.update(dict.fromkeys(names, 0))
            summaries = V._slice_task(plan, task)
            assert calls == {s.name: s.checked for s in summaries}
        rest = len(on4) - V.SLICE
        assert [(s.checked, s.witness is None) for s in summaries] == [
            (rest, True), (1, False), (rest, True)
        ]
    finally:
        for name in names:
            del PROPERTIES[name]


@pytest.mark.parametrize("jobs", [1, POOLED])
def test_a_check_is_not_raised_after_its_counterexample(jobs):
    # it fails on the indiscrete two-point space, the last of its slice, and
    # raises on every larger space: pooled or serial, it stops at the former
    name = "fails-then-raises"

    @V.space_property(name)
    def fails_then_raises(sp):
        if sp.n > 2:
            raise RuntimeError("ran past its counterexample")
        return None if sp.is_t0 else T._fail(sp, reason="not t0")

    try:
        reports = run_all([name, "triangle-inequality"], VerifyOptions(max_n=4, jobs=jobs))
        assert [(r.checked, r.passed) for r in reports] == [(5, False), (389, True)]
        assert reports[0].counterexample["reason"] == "not t0"
    finally:
        del PROPERTIES[name]


# (check name, (n, position in its enumeration) of the first space it raises on)
_RAISERS = {
    "raises-on-four-points": (4, 0),
    "raises-on-third-of-three": (3, 2),
    "raises-on-first-of-three": (3, 0),
    "raises-on-first-of-three-too": (3, 0),
}


@pytest.mark.parametrize("jobs", [1, POOLED])
@pytest.mark.parametrize(
    "names, raised",
    [
        # the first in enumeration order wins, across slices and within one
        (["raises-on-four-points", "raises-on-third-of-three"], "raises-on-third-of-three"),
        (["raises-on-third-of-three", "raises-on-first-of-three"], "raises-on-first-of-three"),
        # then the first in plan order
        (
            ["raises-on-first-of-three-too", "raises-on-first-of-three"],
            "raises-on-first-of-three-too",
        ),
    ],
)
def test_the_first_exception_in_corpus_then_plan_order_is_raised(jobs, names, raised):
    def raiser(name, n, position):
        def check(sp):
            if sp.n > n or sp.n == n and on[n].index(sp.basis) >= position:
                raise RuntimeError(name)
            return None

        return check

    on = {n: [sp.basis for sp in enumerate_topologies(n)] for n in (3, 4)}
    for name in names:
        V.space_property(name)(raiser(name, *_RAISERS[name]))
    try:
        with pytest.raises(RuntimeError, match=f"^{raised}$") as info:
            run_all(names, VerifyOptions(max_n=4, jobs=jobs))
        # the check's own frame is shown, also when a worker raised it
        assert "raise RuntimeError(name)" in "".join(traceback.format_exception(info.value))
    finally:
        for name in names:
            del PROPERTIES[name]


@forked_only
@pytest.mark.parametrize("fails_by", ["counterexample", "SpaceError"])
def test_a_sweep_that_stops_early_signals_no_worker(tmp_path, fails_by):
    # the check fails on the first 4-point space, so the sweep stops with
    # slices still queued and running; a worker that is signalled records
    # its pid, and still dies
    name = "stops-the-sweep"
    parent = os.getpid()

    def record_and_exit(signum, frame):
        (tmp_path / str(os.getpid())).touch()
        os._exit(1)

    @V.space_property(name)
    def stops_the_sweep(sp):
        if os.getpid() != parent and signal.getsignal(signal.SIGTERM) is not record_and_exit:
            signal.signal(signal.SIGTERM, record_and_exit)
        if sp.n < 4:
            return None
        if fails_by == "SpaceError":
            raise SpaceError("four points")
        return T._fail(sp, reason="four points")

    def outcome(jobs):
        try:
            report = run_property(name, VerifyOptions(max_n=5, jobs=jobs))
        except SpaceError as exc:
            return repr(exc)
        return {k: v for k, v in report.to_json().items() if k != "seconds"}

    try:
        serial = outcome(1)
        assert outcome(2) == serial
    finally:
        del PROPERTIES[name]
    assert serial == (
        "SpaceError('four points')"
        if fails_by == "SpaceError"
        else {
            "prop": name,
            "checked": 35,
            "passed": False,
            "counterexample": T._fail(next(iter(enumerate_topologies(4))), reason="four points"),
        }
    )
    assert not list(tmp_path.iterdir())  # no worker was signalled
    assert not multiprocessing.active_children()


def _run_script(tmp_path, source):
    """Run ``source`` as a script in a fresh interpreter that imports this
    package, with warnings as errors; a script, not ``-c``, so that a spawned
    worker can import it as its main module."""
    script = tmp_path / "script.py"
    script.write_text(source)
    src = str(Path(V.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )


def test_a_worker_that_dies_fails_the_sweep(tmp_path):
    # a worker killed from outside, as by the OOM killer, breaks the pool:
    # the sweep raises at once instead of waiting for the dead worker's slice
    done = _run_script(tmp_path, """
import multiprocessing, os
from concurrent.futures.process import BrokenProcessPool
from furtherness import verify as V

@V.space_property("dies-in-a-worker")
def dies_in_a_worker(sp):
    if multiprocessing.parent_process() is not None:
        os._exit(1)

if __name__ == "__main__":
    try:
        V.run_all(["dies-in-a-worker"], V.VerifyOptions(max_n=4, jobs=2))
    except BrokenProcessPool:
        print("BrokenProcessPool")
""")
    assert (done.returncode, done.stdout, done.stderr) == (0, "BrokenProcessPool\n", "")


def test_a_property_a_spawned_worker_does_not_know_is_a_space_error(tmp_path):
    # registered under the main guard, so a spawned worker, which imports the
    # script as its main module, never registers it; a property registered at
    # module level reaches it.  The errors are raised in corpus then plan order
    done = _run_script(tmp_path, """
import json, multiprocessing
from furtherness import verify as V

@V.space_property("raises-everywhere")
def raises_everywhere(sp):
    raise RuntimeError("raises-everywhere")

def outcome(names, jobs):
    try:
        return [r.passed for r in V.run_all(names, V.VerifyOptions(max_n=3, jobs=jobs))]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    V.space_property("registered-in-main")(lambda sp: None)
    print(json.dumps([
        outcome(["registered-in-main"], 1),
        outcome(["registered-in-main", "raises-everywhere"], 2),
        outcome(["raises-everywhere", "registered-in-main"], 2),
    ]))
""")
    assert done.returncode == 0, done.stderr
    serial, unknown_first, raiser_first = json.loads(done.stdout)
    assert serial == [True]
    assert unknown_first[0] == "SpaceError"
    assert unknown_first[1].startswith(
        "property 'registered-in-main' is not registered in a worker that was not forked"
    )
    assert raiser_first == ["RuntimeError", "raises-everywhere"]


# (property, table field, subset whose entry is wrong, wrong value,
#  witness key and value that name the fault)
_TABLE_CHECKS = [
    ("radius-clopen", field, 0b001, -1, "table", field)
    for field in ("closure", "interior", "boundary", "center", "radius")
] + [
    ("quasi-ball-identity", "p2s", 0b001, -1, "table", "p2s"),
    # the set-to-set rows are built from the p2s rows, and held to
    # furtherness_to_set at each set's complement
    ("separation-obstruction", "p2s", 0b001, -1, "table", "set"),
    # the union of the first two points: its table reading differs from
    # union_analysis on the space's first pair
    ("union-pairs", "radius", 0b011, 99, "table", "union"),
    ("union-pairs", "center", 0b011, 0b100, "table", "union"),
]


@pytest.mark.parametrize(
    "prop, field, subset, value, key, tag",
    _TABLE_CHECKS,
    ids=[f"{row[0]}-{row[1]}-{row[5]}" for row in _TABLE_CHECKS],
)
def test_table_cross_check_catches_a_wrong_entry(
    monkeypatch, prop, field, subset, value, key, tag
):
    # the region properties read subset_table, radius-clopen,
    # quasi-ball-identity and separation-obstruction hold it to
    # region_report, point_to_set and furtherness_to_set, and union-pairs
    # holds it to union_analysis on the first pair of every
    # space: one wrong entry must surface as a counterexample that names
    # the subset
    real = R.subset_table

    def one_wrong_entry(sp):
        table = real(sp)
        if sp.n < 3:
            return table
        if field == "p2s":
            rows = [list(row) for row in table.p2s]
            rows[0][sp.full & ~subset] = value  # from the point to the rest
            return table._replace(p2s=tuple(map(tuple, rows)))
        values = list(getattr(table, field))
        values[subset] = value  # no mask or radius is negative
        return table._replace(**{field: tuple(values)})

    monkeypatch.setattr(R, "subset_table", one_wrong_entry)
    report = run_property(prop, VerifyOptions(max_n=3, jobs=1))
    assert not report.passed
    ce = report.counterexample
    assert ce[key] == tag
    members = list(document_to_space(ce["space"]).members(subset))
    if prop == "union-pairs":
        assert ce["parts"] == [[label] for label in members]
        # 1 + 4 spaces, then the fourth on three points, the first where
        # the first two points are separated
        assert report.checked == 9
    else:
        assert ce["subset"] == members
        assert report.checked == 6  # 1 + 4 spaces, then the first on three points


@pytest.mark.parametrize("field, value", [("quasi_center", 0b011), ("quasi_radius", 99)])
def test_quasi_ball_identity_holds_quasi_report_to_point_to_set(monkeypatch, field, value):
    # quasi-ball-identity reads the distance from every point of a proper
    # subset to the rest: a quasi report that is not the largest of those
    # distances and the points that reach it must surface, naming the
    # subset and the reported quasi center
    real = R.quasi_report

    def one_wrong_report(sp, subset):
        q = real(sp, subset)
        if sp.n < 3 or subset != 0b001:
            return q
        return q._replace(**{field: value})

    monkeypatch.setattr(R, "quasi_report", one_wrong_report)
    report = run_property("quasi-ball-identity", VerifyOptions(max_n=3, jobs=1))
    assert not report.passed
    ce = report.counterexample
    sp = document_to_space(ce["space"])
    center = value if field == "quasi_center" else real(sp, 0b001).quasi_center
    assert ce["subset"] == list(sp.members(0b001))
    assert ce["quasi_center"] == list(sp.members(center))
    assert report.checked == 6  # 1 + 4 spaces, then the first on three points


def test_union_pair_verdict_names_the_broken_theorem():
    # the Sierpinski-like space where {a} and {b} are separated with equal
    # radii 2 and the union {a, b} has center {a, b} and radius 2
    sp = FinSpace(("a", "b", "c"), (0b001, 0b010, 0b111))
    table = R.subset_table(sp)
    assert list(T._qualifying_pairs(table.closure, table.interior)) == [(0b001, 0b010)]
    ana = R.union_analysis(sp, [0b001, 0b010])
    assert (ana.case, ana.predicted_center, ana.direct.center, ana.direct.radius) == (
        "tie-dominates", 0b011, 0b011, 2
    )
    assert [rep.radius for rep in ana.reports] == [2, 2]
    assert T._pair_union(table, 0b001, 0b010) == ("tie-dominates", 0b011, 2, 0b011, 2)

    def verdict(table):
        return T._union_verdict(sp, [0b001, 0b010], T._pair_union(table, 0b001, 0b010))

    assert verdict(table) is None
    radius = list(table.radius)
    radius[0b011] = 99  # larger than both parts
    w = verdict(table._replace(radius=tuple(radius)))
    assert w["bound"] == "exceeded" and w["parts"] == [["a"], ["b"]]
    center = list(table.center)
    center[0b011] = 0b100  # not the two centers the theorem predicts
    w = verdict(table._replace(center=tuple(center)))
    assert w["case"] == "tie-dominates"
    assert (w["predicted"], w["direct"]) == (["a", "b"], ["c"])


def _fast_path_corpus():
    for n in range(1, 5):
        yield from enumerate_topologies(n)
    for seed in (1, 2, 3):
        yield random_space(6, seed)
        yield random_space(7, seed)


def _clopen(sp, s):
    return sp.is_open(s) and sp.is_open(sp.full & ~s)


def test_union_pair_core_matches_union_analysis():
    # the table-fed qualifier and core against are_separated, is_open and
    # the union_analysis definition, on every qualifying pair
    pairs = 0
    for sp in _fast_path_corpus():
        table = R.subset_table(sp)
        found = list(T._qualifying_pairs(table.closure, table.interior))
        assert found == [
            (a, b)
            for a in range(1, sp.full + 1)
            for b in range(a + 1, sp.full + 1)
            if not (a & b or _clopen(sp, a) or _clopen(sp, b))
            and R.are_separated(sp, a, b)
        ]
        for a, b in found:
            ana = R.union_analysis(sp, [a, b])
            reading = T._pair_union(table, a, b)
            case, predicted, top, center, radius = reading
            assert case == ana.case
            assert predicted == (ana.predicted_center or 0)
            assert top == max(rep.radius for rep in ana.reports)
            assert ana.predicted_radius in (None, top)
            assert center == ana.direct.center
            assert radius == ana.direct.radius
            assert reading == T._reading(ana)
            verdict = T._union_verdict(sp, [a, b], reading)
            assert verdict == T._check_union(sp, [a, b])
        pairs += len(found)
    assert pairs > 500  # 768 here


def test_set_rows_match_per_query():
    for sp in _fast_path_corpus():
        rows = T._set_to_set_rows(R.subset_table(sp))
        assert len(rows) == sp.full + 1
        for a in range(sp.full + 1):
            for b in range(sp.full + 1):
                assert rows[a][b] == furtherness_to_set(sp, a, b)


def test_relative_boundary_is_the_subspace_boundary():
    for sp in _fast_path_corpus():
        table = R.subset_table(sp)
        for carrier in range(1, sp.full + 1):
            kept = list(mask_indices(carrier))
            sub_boundary = R.subset_table(sp.subspace(carrier)).boundary
            got = list(T._relative_boundaries(table, carrier))
            assert len(got) == len(sub_boundary)
            for inner, (small, boundary) in enumerate(got):
                # inner is small in the subspace's own point positions
                assert small == sum(1 << x for p, x in enumerate(kept) if inner >> p & 1)
                assert boundary == sum(
                    1 << x for p, x in enumerate(kept) if sub_boundary[inner] >> p & 1
                )


def test_open_hulls_are_smallest_open_supersets():
    for sp in _fast_path_corpus():
        fam = sorted(sp.open_family, key=int.bit_count)
        hulls = T._open_hulls(set(fam), sp.full)
        assert len(hulls) == sp.full + 1
        for s in range(sp.full + 1):
            # the first open containing s, by size, is the smallest
            assert hulls[s] == next(o for o in fam if not s & ~o)


def test_open_membership_catches_a_larger_minimal_open(monkeypatch):
    real = FinSpace.minimal_open

    def too_large(self, points):
        mo = real(self, points)
        return mo if mo == points else self.full  # still open, not minimal

    monkeypatch.setattr(FinSpace, "minimal_open", too_large)
    report = run_property("open-membership", VerifyOptions(max_n=3))
    assert not report.passed
    ce = report.counterexample
    sp = document_to_space(ce["space"])
    assert ce["minimal"] == list(sp.labels)
    subset = sp.mask(ce["subset"])
    assert real(sp, subset) != sp.full and not sp.is_open(subset)


def test_union_samplers_read_no_distance_half(monkeypatch):
    # they find their pairs in the closures and interiors of one closure
    # pass per space, which builds no distances, and keep no subset table
    # on any space; union_analysis reads no table
    spaces = []
    passes = []
    real_random = generate.random_space
    real_space = T.FinSpace
    real_pass = R._closure_pass

    def _closure_pass(sp):
        passes.append(sp)
        return real_pass(sp)

    def random_space(n, seed):
        spaces.append(real_random(n, seed))
        return spaces[-1]

    def FinSpace(labels, basis):
        spaces.append(real_space(labels, basis))
        return spaces[-1]

    monkeypatch.setattr(generate, "random_space", random_space)
    monkeypatch.setattr(T, "FinSpace", FinSpace)
    monkeypatch.setattr(R, "_closure_pass", _closure_pass)
    opts = VerifyOptions(samples=40, sample_n=6)
    reports = run_all(["union-random", "union-triples"], opts)
    assert all(r.passed for r in reports) and reports[1].checked == 63
    # the random spaces come first, then every 31st space on 5 points, the
    # only ones union-triples builds
    assert len(spaces) == 40 + 224
    on5 = [sp.basis for sp in generate.enumerate_topologies(5)]
    assert [sp.basis for sp in spaces[40:]] == on5[::31]
    assert len(passes) == len(spaces) and all(a is b for a, b in zip(passes, spaces))
    assert not any("_subset_table" in vars(sp) for sp in spaces)


def test_minimal_rigidity_witness_is_the_first_of_all_maps(monkeypatch):
    # with every space taken as minimal, the property's witness is the
    # first map other than the identity of the walk over all n**n maps
    monkeypatch.setattr(T.O, "is_minimal", lambda sp: True)
    witnesses = 0
    for n in range(1, 5):
        identity = tuple(range(n))
        for sp in enumerate_topologies(n):
            first = next((f for f in zero_continuous_self_maps(sp) if f != identity), None)
            w = T._minimal_rigidity(sp)
            if first is None:
                assert w is None, sp
            else:
                assert w["map"] == [sp.labels[i] for i in first], sp
                witnesses += 1
    assert witnesses > 0


def test_minimal_rigidity_holds_on_minimal_spaces():
    minimal = [sp for sp in enumerate_topologies(5) if T.O.is_minimal(sp)]
    assert len(minimal) == 51
    assert all(T._minimal_rigidity(sp) is None for sp in minimal)
    # S0*S0*S0*S0: four levels of two points, each point above every point
    # of the lower levels; 7**2 * 5**2 * 3**2 candidate maps, not 8**8
    sphere = FinSpace(
        tuple("abcdefgh"), tuple((1 << x) | ((1 << (x & ~1)) - 1) for x in range(8))
    )
    assert T.O.is_minimal(sphere)
    assert T._minimal_rigidity(sphere) is None


@pytest.mark.parametrize("max_n, built", [(4, 631), (5, 11804)])
def test_enumerator_counts_enumerates_each_corpus_once(monkeypatch, max_n, built):
    # every topology and every T0 topology on n points, once each: 389 + 242
    # spaces up to 4 points, and 6,942 + 4,231 more on 5
    constructed = []
    real_init = FinSpace.__init__

    def init(self, *args, **kwargs):
        constructed.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(FinSpace, "__init__", init)
    report = run_property("enumerator-counts", VerifyOptions(max_n=max_n))
    assert report.passed and report.checked == {4: 389, 5: 7331}[max_n]
    assert len(constructed) == built


@pytest.mark.parametrize("names", ["union-triples", ""])
def test_a_string_of_names_is_refused(names):
    # a string would read as its characters: "union-triples" as the
    # unknown name 'u', and "" as no name at all, so nothing would run
    message = f"got the string {names!r}; pass [name] or call run_property(name)"
    with pytest.raises(SpaceError, match=re.escape(message)):
        run_all(names, SMALL)
    assert [r.prop for r in run_all(["union-triples"], SMALL)] == ["union-triples"]
