import json

import pytest

from furtherness import (
    PROPERTIES,
    VerifyOptions,
    document_to_space,
    run_all,
    run_property,
)
from furtherness import regions as R
from furtherness import verify as V

SMALL = VerifyOptions(max_n=3, samples=25, sample_n=5)


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
            return V._fail(sp, reason="not t0")
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
        del V._SPACE_CHECKS[name]


def test_parallel_sweep_matches_serial():
    serial = run_property("triangle-inequality", VerifyOptions(max_n=4, jobs=1))
    parallel = run_property("triangle-inequality", VerifyOptions(max_n=4, jobs=2))
    assert serial.passed and parallel.passed
    assert serial.checked == parallel.checked


def test_parallel_sweep_finds_same_counterexample():
    name = "no-space-has-three-points"

    @V.space_property(name)
    def bogus(sp):
        if sp.n == 3:
            return V._fail(sp, n=sp.n)
        return None

    try:
        serial = run_property(name, VerifyOptions(max_n=3, jobs=1))
        parallel = run_property(name, VerifyOptions(max_n=3, jobs=2))
        assert not serial.passed and not parallel.passed
        assert serial.checked == parallel.checked == 6  # 1 + 4 spaces, then first n=3
        assert serial.counterexample == parallel.counterexample
    finally:
        del PROPERTIES[name]
        del V._SPACE_CHECKS[name]


def test_unknown_property_raises():
    with pytest.raises(KeyError):
        run_property("no-such-property", SMALL)


def test_singleton_cap_applies():
    report = run_property("symmetrized-smallest-join", VerifyOptions(max_n=4))
    # capped at three points: 1 + 4 + 29 spaces
    assert report.checked == 34


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
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

        def terminate(self):
            pass

    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(V, "Pool", RecordingPool)
    report = run_property("triangle-inequality", VerifyOptions(max_n=3, jobs=10**6))
    assert report.passed and report.checked == 34
    assert sizes == [2]


_TABLE_CHECKS = [
    ("radius-clopen", field, field)
    for field in ("closure", "interior", "boundary", "center", "radius")
] + [
    ("quasi-ball-identity", "quasi_center", "quasi"),
    ("quasi-ball-identity", "quasi_radius", "quasi"),
    ("quasi-ball-identity", "p2s", "p2s"),
]


@pytest.mark.parametrize("prop, field, tag", _TABLE_CHECKS)
def test_table_cross_check_catches_a_wrong_entry(monkeypatch, prop, field, tag):
    # the region properties read subset_table, and these two hold it to
    # region_report, quasi_report and point_to_set: one wrong entry, for the
    # subset of the first point, must surface as a counterexample
    real = R.subset_table

    def one_wrong_entry(sp):
        table = real(sp)
        if sp.n < 3:
            return table
        if field == "p2s":
            rows = [list(row) for row in table.p2s]
            rows[0][sp.full & ~1] = -1  # from the point to the rest
            return table._replace(p2s=tuple(map(tuple, rows)))
        values = list(getattr(table, field))
        values[1] = -1  # no mask or radius is negative
        return table._replace(**{field: tuple(values)})

    monkeypatch.setattr(R, "subset_table", one_wrong_entry)
    report = run_property(prop, VerifyOptions(max_n=3, jobs=1))
    assert not report.passed
    ce = report.counterexample
    assert ce["table"] == tag
    assert ce["subset"] == [document_to_space(ce["space"]).labels[0]]
    assert report.checked == 6  # 1 + 4 spaces, then the first on three points
