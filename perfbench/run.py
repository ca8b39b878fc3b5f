"""Benchmark of the furtherness package: verifier sweeps and CLI queries.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload, both passes
    python3 perfbench/run.py --self-check                       # the harness at tiny sizes
    python3 perfbench/run.py --compare OLD.json NEW.json        # two run records

Run from the repository root.  The package is loaded from ``src`` through
``PYTHONPATH``, as the test suite loads it; nothing is built or installed.

Workloads (one client, each operation in a fresh interpreter):

* ``verify-n4``: ``furtherness verify`` over the whole 49-property registry
  at ``--max-n 4 --jobs 1``.  One operation is one sweep.
* ``verify-n5-par``: six per-space properties over all 7,331 labelled spaces
  on at most 5 points, at ``--jobs min(2, nproc)``, so the multiprocessing
  sweep is live.  One operation is one sweep.
* ``cli-queries``: a closed loop of single CLI queries (every command but
  ``verify``) on documents of 6 to 96 points, each document used once.  One
  operation is one query.

With ``--trace 0`` a run reports the end-to-end metrics: the median and
90th percentile of the operation latency, the set-up time (a fresh
interpreter importing ``furtherness.cli``, the entry module of every
workload) and the peak RSS of any process of the workload.  With
``--trace 1`` it reports per-layer metrics instead, from separate
in-process passes (see ``tracer.py``).  The amount of work is fixed by
``--seconds``, not by the clock, so a run cannot get faster by doing less.

Every output is checked outside the timed region: verifier verdicts and
their exact ``checked`` counts against counts derived here, CLI answers
against ``model.py``.  A mismatch is a failed operation.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record, with run metadata, is written under
``perfbench/results``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import cliplan  # noqa: E402
import model  # noqa: E402

PY = sys.executable
WORKLOADS = ("verify-n4", "verify-n5-par", "cli-queries")
RUN_DEADLINE_S = 170  # a run must end within 180 s

# The registry, in its order; a run that checks other properties fails.
N4_PROPS = (
    "family-closure open-membership interior-closure-duality opposite-involution reconstruction "
    "t0-opposite zero-diagonal range-bound triangle-inequality zero-characterization t0-criterion "
    "oracle-equivalence chain-witness cover-single-step row-dominance zero-count-bound "
    "extreme-points matrix-report-flags preorder-laws quotient-preserves minimal-rigidity "
    "core-properties continuity-agreement preserving-implies-continuous product-formula "
    "product-nfold ball-radius-one forward-ball-topology backward-ball-topology ball-basis "
    "symmetrized-metric symmetrized-discrete-t0 symmetrized-smallest-join symmetrized-disconnected "
    "point-set-closure separation-obstruction radius-zero-interior center-in-interior radius-clopen "
    "radius-monotone subspace-radius-monotone union-pairs union-random union-triples "
    "quasi-ball-identity enumerator-counts roundtrip-identity dot-stable random-valid"
).split()
N5_PROPS = (
    "radius-monotone point-set-closure union-pairs symmetrized-metric quotient-preserves open-membership"
).split()
CAPPED_AT_3 = ("symmetrized-smallest-join", "roundtrip-identity", "dot-stable")
# union-triples checks at most 3 separated triples in every 31st labelled
# space on 5 points, whatever --max-n and --seed are.
UNION_TRIPLES_CHECKED = 63

END_TO_END = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
# Layers reported by call count on every workload.
COUNTED = (
    "kernels", "kernels.further_matrix", "kernels.center_radius", "kernels.point_to_set",
    "kernels.set_to_set", "kernels.closure_mask", "kernels.interior_mask",
    "spaces.construct", "spaces.coerce", "spaces.topology", "spaces.derive",
    "distance.point", "distance.set", "distance.matrix",
    "regions", "regions.region_report", "regions.quasi_report", "regions.union_analysis",
    "balls", "order", "dot", "generate", "serialization.parse", "serialization.serialize",
    "oracle", "verify",
)
# Layers that every workload calls, so their self time is never zero.
TIMED = (
    "kernels", "kernels.further_matrix", "kernels.center_radius", "kernels.point_to_set",
    "kernels.closure_mask", "kernels.interior_mask", "spaces.construct", "spaces.coerce",
    "spaces.topology", "regions", "regions.region_report", "regions.union_analysis",
    "balls", "order", "generate",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in TIMED},
    "verify.spaces_checked": "count",
    "oracle.cover_cache_hits": "count",
    "oracle.cover_cache_lookups": "count",
    "oracle.cover_cache_size": "count",
    "cli.import_ms": "ms",
    "work.untraced_s": "s",
    "trace.overhead": "ratio",
}


class Scale:
    """How much work one run does."""

    def __init__(self, seconds: int, tiny: bool = False):
        if tiny:
            self.n4 = dict(max_n=2, samples=20, sample_n=6, sweeps=1)
            self.n5 = dict(max_n=3, sweeps=1)
            self.queries, self.only_size, self.setup_reps = len(cliplan.CYCLE), "S", 3
        else:
            self.n4 = dict(max_n=4, samples=1000, sample_n=6, sweeps=max(1, round(seconds / 7.5)))
            self.n5 = dict(max_n=5, sweeps=max(1, round(seconds / 15)))
            self.queries, self.only_size, self.setup_reps = max(20, round(seconds * 10 / 3)), None, 7


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    def __init__(self, rc, out, err, wall, rss_mb):
        self.rc, self.out, self.err, self.wall, self.rss_mb = rc, out, err, wall, rss_mb


def run_child(argv, cwd=ROOT, timeout=60.0, stdin: bytes | None = None) -> Child:
    """Run to completion, timing from spawn to reaping.  The child is
    killed after ``timeout``.  stderr is read after stdout, which is safe
    for the small diagnostics these programs write there."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timer = threading.Timer(max(timeout, 0.1), proc.kill)
    timer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out.decode(errors="replace"), err.decode(errors="replace"), wall,
                 usage.ru_maxrss / 1024)


def fresh_import_s(module: str | None, reps: int) -> list[float]:
    code = f"import {module}" if module else "pass"
    run_child([PY, "-c", code])  # writes bytecode caches before timing
    return [run_child([PY, "-c", code]).wall for _ in range(reps)]


def reference_loop_s() -> float:
    """A fixed pure-Python loop; flags host drift, never rescales a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# pinned verifier work


def expected_checked(max_n: int, samples: int, sample_n: int, seed: int) -> dict[str, int]:
    """The exact ``checked`` count of every property, from the labelled
    topology counts and the properties' documented corpora."""
    counts = model.TOPOLOGY_COUNTS
    upto = sum(counts[n] for n in range(1, max_n + 1))
    small = range(1, min(max_n, 3) + 1)
    upto3 = sum(counts[n] for n in small)
    maps = sum(counts[a] * counts[b] * b**a for a in small for b in small)
    out = {name: upto for name in N4_PROPS}
    out.update({name: upto3 for name in CAPPED_AT_3})
    out["continuity-agreement"] = out["preserving-implies-continuous"] = maps
    out["product-formula"] = upto3 * upto3
    out["product-nfold"] = 4**3
    out["union-random"] = model.union_random_checked(samples, sample_n, seed)
    out["union-triples"] = UNION_TRIPLES_CHECKED
    out["enumerator-counts"] = sum(counts[n] for n in range(1, min(max_n, 5) + 1))
    out["random-valid"] = samples
    return out


def check_reports(reports, props, expected) -> list[str]:
    """One reason per property whose verdict or count is wrong, missing or
    not asked for."""
    got = {prop: (checked, passed) for prop, checked, passed in reports}
    bad = [f"{prop}: not asked for" for prop in got if prop not in props]
    for prop in props:
        if prop not in got:
            bad.append(f"{prop}: no verdict")
        elif not got[prop][1]:
            bad.append(f"{prop}: failed")
        elif got[prop][0] != expected[prop]:
            bad.append(f"{prop}: checked {got[prop][0]}, expected {expected[prop]}")
    return bad


def parse_verify_output(child: Child):
    reports = []
    for line in child.out.splitlines():
        try:
            d = json.loads(line)
            reports.append((d["prop"], d["checked"], d["passed"]))
        except (ValueError, KeyError, TypeError):
            continue
    return reports


# ---------------------------------------------------------------------------
# workloads


class Run:
    """Inputs and outcome of one run of one workload."""

    def __init__(self, workload, seed, seconds, trace, scale, corrupt=False):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.scale = scale
        self.corrupt = corrupt  # self-check only: a deliberately wrong reference
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list[float]] = {}
        self.spans: list = []
        self.layers: dict = {}

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1)

    def verify_setup(self):
        """(properties, options, expected counts, sweeps) of a verify workload."""
        if self.workload == "verify-n4":
            s = self.scale.n4
            opts = dict(max_n=s["max_n"], samples=s["samples"], sample_n=s["sample_n"], seed=self.seed)
            props = list(N4_PROPS)
            expected = expected_checked(**opts)
        else:
            s = self.scale.n5
            opts = dict(max_n=s["max_n"], samples=1000, sample_n=6, seed=self.seed)
            props = list(N5_PROPS)
            random.Random(self.seed).shuffle(props)  # the only input a full sweep has
            spaces = sum(model.TOPOLOGY_COUNTS[n] for n in range(1, s["max_n"] + 1))
            expected = {name: spaces for name in props}
        if self.corrupt:
            expected = dict(expected, **{props[0]: expected[props[0]] + 1})
        return props, opts, expected, s["sweeps"]

    def verify_argv(self, props, opts, jobs):
        argv = [PY, "-m", "furtherness.cli", "verify", "--jobs", str(jobs)]
        for key in ("max_n", "samples", "sample_n", "seed"):
            argv += ["--" + key.replace("_", "-"), str(opts[key])]
        if self.workload != "verify-n4":
            argv += [arg for prop in props for arg in ("--prop", prop)]
        return argv

    def plan(self):
        queries = cliplan.plan(self.seed, self.scale.queries, self.scale.only_size)
        if self.corrupt:
            first = next(q for q in queries if q.expect is not None and q.form == "text")
            first.expect = first.expect + " "
        return queries


def timed_verify(run: Run):
    props, opts, expected, sweeps = run.verify_setup()
    jobs = 1 if run.workload == "verify-n4" else run.jobs()
    argv = run.verify_argv(props, opts, jobs)
    children = []
    for _ in range(sweeps):
        if run.remaining() <= 0:
            children.append(None)
            continue
        children.append(run_child(argv, timeout=run.remaining()))
    for child in children:
        run.attempted += len(props)
        if child is None:
            run.failures += [f"{p}: not run before the deadline" for p in props]
            continue
        bad = check_reports(parse_verify_output(child), props, expected)
        if child.rc != 0 and not bad:
            bad = [f"verify exited {child.rc}: {child.err.strip()[-200:]}"]
        run.failures += bad
    done = [c for c in children if c is not None]
    return [c.wall for c in done], [c.rss_mb for c in done]


def write_documents(queries, where: Path):
    where.mkdir(parents=True, exist_ok=True)
    for q in queries:
        for name, text in q.files.items():
            (where / name).write_text(text)


def timed_cli(run: Run, workdir: Path):
    queries = run.plan()
    write_documents(queries, workdir)
    children = []
    for q in queries:
        if run.remaining() <= 0:
            children.append(None)
            continue
        children.append(run_child([PY, "-m", "furtherness.cli"] + q.argv, cwd=workdir,
                                  timeout=min(30.0, run.remaining())))
    for i, (q, child) in enumerate(zip(queries, children)):
        run.attempted += 1
        why = "not run before the deadline" if child is None else q.check(child.rc, child.out, child.err)
        if why:
            run.failures.append(f"query {i} ({' '.join(q.argv[:2])}): {why}")
    done = [c for c in children if c is not None]
    return [c.wall for c in done], [c.rss_mb for c in done]


def run_timed(run: Run, workdir: Path):
    setup = fresh_import_s("furtherness.cli", run.scale.setup_reps)
    if run.workload == "cli-queries":
        walls, rss = timed_cli(run, workdir)
    else:
        walls, rss = timed_verify(run)
    run.samples = {"latency_s": walls, "setup_s": setup}
    run.metrics = {
        "latency_p50_ms": (statistics.median(walls) * 1000, "ms"),
        "latency_p90_ms": (percentile(walls, 0.9) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    run.extra["operations"] = (len(walls), "count")


def run_tracer(spec: dict, run: Run) -> dict | None:
    """One in-process pass in a fresh interpreter; None when it failed."""
    child = run_child([PY, str(BENCH / "tracer.py")], timeout=run.remaining(),
                      stdin=json.dumps(spec).encode())
    try:
        return json.loads(child.out.splitlines()[-1])
    except (ValueError, IndexError):
        run.failures.append(f"{spec['mode']} pass exited {child.rc}: {child.err.strip()[-300:]}")
        return None


def layer_stat(layers: dict, name: str):
    """(calls, self_s) of a layer, its sublayers summed in."""
    picked = [v for k, v in layers.items() if k == name or k.startswith(name + ".")]
    return sum(v[0] for v in picked), sum(v[2] for v in picked)


def span_seconds(spans) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for name, start, end in spans:
        out.setdefault(name, []).append(end - start)
    return out


def run_traced(run: Run, workdir: Path):
    if run.workload == "cli-queries":
        queries = run.plan()
        write_documents(queries, workdir)
        base = {"kind": "cli", "dir": str(workdir), "queries": [q.argv for q in queries]}
    else:
        props, opts, expected, _ = run.verify_setup()
        base = {"kind": "verify", "props": props, "jobs": 1, **opts}
    plain = run_tracer(dict(base, mode="plain"), run)
    parallel = None
    if run.workload == "verify-n5-par":
        parallel = run_tracer(dict(base, mode="plain", jobs=run.jobs()), run)
    traced = run_tracer(dict(base, mode="traced"), run)

    for result in (plain, parallel, traced):
        if result is None:
            continue
        if run.workload == "cli-queries":
            for i, (q, (rc, out, err)) in enumerate(zip(queries, result["results"])):
                run.attempted += 1
                why = q.check(rc, out, err)
                if why:
                    run.failures.append(f"query {i} ({' '.join(q.argv[:2])}): {why}")
            missing = len(queries) - len(result["results"])
            run.attempted += max(0, missing)
            run.failures += ["query not answered"] * max(0, missing)
        else:
            run.attempted += len(props)
            run.failures += check_reports(result["results"], props, expected)
    if plain is None or traced is None:
        run.attempted = max(run.attempted, 1)
        return

    layers = traced["layers"]
    run.layers = {"layers": layers, "callers": traced["callers"]}
    run.spans = traced["spans"]
    for name in COUNTED:
        run.metrics[f"{name}.calls"] = (layer_stat(layers, name)[0], "count")
    for name in sorted({k.split(".")[0] for k in layers} | set(layers)):
        self_s = layer_stat(layers, name)[1]
        target = run.metrics if name in TIMED else run.extra
        target[f"{name}.self_s"] = (self_s, "s")
    checked = sum(r[1] for r in traced["results"]) if run.workload != "cli-queries" else 0
    run.metrics["verify.spaces_checked"] = (checked, "count")
    cache = traced["cover_cache"]
    lookups = cache["hits"] + cache["misses"]
    run.metrics["oracle.cover_cache_hits"] = (cache["hits"], "count")
    run.metrics["oracle.cover_cache_lookups"] = (lookups, "count")
    run.metrics["oracle.cover_cache_size"] = (cache["size"], "count")
    if lookups:
        run.extra["oracle.cover_cache_hit_ratio"] = (cache["hits"] / lookups, "ratio")
    imports = statistics.median(fresh_import_s("furtherness.cli", run.scale.setup_reps))
    bare = statistics.median(fresh_import_s(None, run.scale.setup_reps))
    run.metrics["cli.import_ms"] = ((imports - bare) * 1000, "ms")
    run.metrics["work.untraced_s"] = (plain["work_s"], "s")
    run.metrics["trace.overhead"] = (traced["work_s"] / plain["work_s"], "ratio")

    per_step = span_seconds(plain["spans"])
    if run.workload == "cli-queries":
        every = [d for ds in per_step.values() for d in ds]
        run.extra["cli.work_ms"] = (statistics.median(every) * 1000, "ms")
        commands = {}
        for q, (name, start, end) in zip(queries, plain["spans"]):
            commands.setdefault(q.command, []).append(end - start)
        for command, ds in sorted(commands.items()):
            run.extra[f"cli.{command}.p50_ms"] = (statistics.median(ds) * 1000, "ms")
    else:
        for prop, ds in per_step.items():
            run.extra[f"verify.prop.{prop}_s"] = (sum(ds), "s")
    if parallel is not None:
        run.extra["sweep.speedup_jobs2"] = (plain["work_s"] / parallel["work_s"], "ratio")
        run.extra["sweep.jobs"] = (run.jobs(), "count")


# ---------------------------------------------------------------------------
# records and output


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "furtherness").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def preflight() -> str | None:
    """The live kernel backend, or None when the package cannot be loaded."""
    if not (SRC / "furtherness" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'furtherness'}", file=sys.stderr)
        return None
    child = run_child([PY, "-c", "import furtherness, furtherness.cli; print(furtherness.kernel_backend)"])
    if child.rc != 0:
        print(f"error: the package does not import:\n{child.err}", file=sys.stderr)
        return None
    return child.out.strip()


def execute(run: Run, backend: str) -> dict:
    meta = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
        "commit": commit(), "source_digest": source_digest(), "kernel_backend": backend,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "reference_loop_before_s": reference_loop_s(),
    }
    workdir = WORK / f"{run.workload}-{os.getpid()}"
    try:
        (run_traced if run.trace else run_timed)(run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["reference_loop_after_s"] = reference_loop_s()
    run.attempted = max(run.attempted, 1)
    return {
        "meta": meta,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": min(len(run.failures), run.attempted),
        "error_rate": min(len(run.failures), run.attempted) / run.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in run.extra.items()},
        "samples": run.samples,
        "failures": run.failures[:50],
        "spans": run.spans,
        "layers": run.layers,
    }


def report(record: dict) -> str:
    """Human-readable lines, then the result line."""
    m = record["meta"]
    lines = [
        f"# {m['workload']} seed={m['seed']} seconds={m['seconds']} trace={m['trace']} "
        f"backend={m['kernel_backend']} python={m['python']} nproc={m['nproc']} "
        f"commit={m['commit']} source={m['source_digest']}",
        f"# reference loop {m['reference_loop_before_s']:.3f} s before, "
        f"{m['reference_loop_after_s']:.3f} s after (host drift diagnostic only)",
    ]
    counts = {name: len(vals) for name, vals in record["samples"].items()}
    for group in ("metrics", "extra"):
        for name, entry in record[group].items():
            note = ""
            if name.startswith("latency_"):
                note = f"  (n={counts.get('latency_s', 0)})"
            elif name == "setup_s":
                note = f"  (n={counts.get('setup_s', 0)})"
            lines.append(f"{name} {entry['value']} {entry['unit']}{note}")
    lines.append(f"error_rate {record['error_rate']} ratio  ({record['failed']}/{record['attempted']})")
    lines += [f"# failure: {why}" for why in record["failures"][:10]]
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    lines.append(json.dumps(result))
    return "\n".join(lines)


def save(record: dict) -> Path:
    m = record["meta"]
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{m['workload']}-s{m['seed']}-t{m['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


# ---------------------------------------------------------------------------
# compare and self-check


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    ob, nb = old["meta"]["kernel_backend"], new["meta"]["kernel_backend"]
    if ob != nb:
        print(f"error: refusing to compare kernel backends {ob!r} and {nb!r}", file=sys.stderr)
        return 2
    if old["meta"]["workload"] != new["meta"]["workload"]:
        print("error: the records are of different workloads", file=sys.stderr)
        return 2
    limits = bounds()
    status = 0
    for name, entry in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        a, b = old["metrics"][name]["value"], entry["value"]
        change = (b - a) / a if a else 0.0
        flag = ""
        if name in limits and change > limits[name]:
            flag, status = "  REGRESSION", 1
        print(f"{name:40s} {a:14.6g} -> {b:14.6g} {entry['unit']:6s} {change:+8.2%}{flag}")
    same_work = all(old["meta"][k] == new["meta"][k] for k in ("seed", "seconds", "trace"))
    if old["meta"]["trace"] and same_work:
        counts = [n for n, e in new["metrics"].items() if e["unit"] == "count"]
        differ = [n for n in counts if old["metrics"].get(n, {}).get("value") != new["metrics"][n]["value"]]
        if old["meta"]["source_digest"] == new["meta"]["source_digest"] and differ:
            print(f"call counts differ between two passes of the same code: {differ}")
            status = 1
    return status


def self_check() -> int:
    problems = []
    # the reference distance against its definition and the package's oracle
    sys.path.insert(0, str(SRC))
    from furtherness import FinSpace, furtherness_oracle

    spaces = [model.Space(model.default_labels(n), b) for n in (1, 2, 3) for b in model.all_bases(n)]
    spaces += [model.documented_random_space(5, seed) for seed in range(5)]
    for sp in spaces:
        psi = sp.psi()
        fin = FinSpace(tuple(sp.labels), tuple(sp.basis))
        oracle = [[furtherness_oracle(fin, x, y)[0] for y in range(sp.n)] for x in range(sp.n)]
        if psi != model.psi_by_chains(sp) or psi != oracle:
            problems.append(f"reference distance disagrees with the chain definition on {sp.basis}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if want[0] != END_TO_END or want[1] != PER_LAYER:
        problems.append("BENCHMARK.json and run.py name different metrics")
    backend = preflight()
    scale = Scale(0, tiny=True)
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            record = execute(Run(workload, 3, 0, trace, scale), backend)
            got = {k: e["unit"] for k, e in record["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want[trace]))}")
            if not record["correct"]:
                problems.append(f"{workload} trace={trace}: {record['failures'][:3]}")
            values = {k: e["value"] for k, e in record["metrics"].items()}
            if trace == 0 and not all(v > 0 for v in values.values()):
                problems.append(f"{workload}: an end-to-end metric is not positive: {values}")
            if trace == 1:
                zero = [n for n in TIMED if not values.get(f"{n}.self_s", 0) > 0]
                if zero:
                    problems.append(f"{workload}: layers not called: {zero}")
                counts.append({k: v for k, v in values.items() if want[1][k] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: call counts differ between two traced passes")
        wrong = execute(Run(workload, 3, 0, 0, scale, corrupt=True), backend)
        if not wrong["failed"] or wrong["error_rate"] <= 0:
            problems.append(f"{workload}: a wrong reference answer did not raise error_rate")
    for p in problems:
        print(f"self-check: {p}")
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    backend = preflight()
    if backend is None:
        return 2
    scale = Scale(args.seconds)
    if args.workload == "all":
        runs = [(w, t) for t in (0, 1) for w in WORKLOADS]
    else:
        runs = [(args.workload, args.trace)]
    for workload, trace in runs:
        record = execute(Run(workload, args.seed, args.seconds, trace, scale), backend)
        path = save(record)
        print(f"# record {path.relative_to(ROOT)}")
        print(report(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
