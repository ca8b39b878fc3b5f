"""Exhaustive and sampled verification of the package's theorems.

Every mathematical claim the library relies on is a named property in the
registry kept here.  A property runner sweeps a corpus (all labeled
topologies up to a size cap, or seeded random spaces) and reports the first
counterexample as a replayable space document plus witness data.  The
command line exposes the registry via ``verify``; the acceptance test
suite drives the same runners.

This module is the sweep runner.  The properties themselves live in the
theorem catalog, ``theorems``, which registers them through
``space_property`` and ``custom_property``.  The last lines of this module
run the catalog, below the decorators, so running either module runs both,
in either order, and the registry starts with the catalog's properties.
The package runs this module only when one of its attributes is first
read, so a CLI command other than ``verify`` compiles no theorem.

Runners are deterministic: corpora are enumerated in a fixed order, random
sampling is seeded, and parallel sweeps merge results in enumeration order.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import SizeTooLargeError, SpaceError, UnknownPropertyError
from .generate import ENUMERATION_LIMIT, _bases, default_labels
from .regions import SUBSET_TABLE_LIMIT
from .spaces import FinSpace, _as_int, _iterable


class VerifyOptions(NamedTuple):
    max_n: int = 4
    samples: int = 1000
    sample_n: int = 6
    seed: int = 1
    jobs: int = 1


class VerifyReport(NamedTuple):
    prop: str
    checked: int
    passed: bool
    counterexample: Optional[dict]
    seconds: float

    def to_json(self) -> dict:
        return {
            "prop": self.prop,
            "checked": self.checked,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "seconds": round(self.seconds, 3),
        }


class Property(NamedTuple):
    """One registered property.  A space property (``space`` true) is a
    check(space) -> witness | None, which ``_sweep`` runs over the corpus up
    to ``cap`` points (None: up to ``max_n``); a custom property is a
    runner(opts) -> (checked, counterexample | None) with a corpus of its own.
    """

    run: Callable
    space: bool
    cap: Optional[int] = None


# The registry, in its order: name -> ``Property``.  The catalog's
# properties come first, in the order of ``theorems``; a property registered
# at run time comes after them.
PROPERTIES: dict[str, Property] = {}


def run_property(name: str, opts: Optional[VerifyOptions] = None) -> VerifyReport:
    return run_all([name], opts)[0]


def run_all(names=None, opts: Optional[VerifyOptions] = None) -> list[VerifyReport]:
    """One report per entry of ``names`` (default: the registry), in order.

    The space properties among ``names`` share one sweep of the corpus
    (see ``_sweep``); each custom property runs its own runner.  A repeated
    name is run once and its report repeated.  ``opts`` None runs with the
    defaults.  Raises ``SpaceError`` before anything runs when ``opts`` is
    not a ``VerifyOptions``, when an option is not an int (a bool reads as
    its int), when ``max_n`` is below 1 or ``samples`` below 0, where
    every sweep would check nothing and pass, when ``jobs`` is below 1,
    when ``names`` is a string, which would read as its characters, or not
    iterable, or a name is not registered or cannot be a registry key
    (``UnknownPropertyError``), or when a selected sampler cannot build
    spaces of ``sample_n`` points.
    """
    if opts is None:
        opts = VerifyOptions()
    elif not isinstance(opts, VerifyOptions):
        raise SpaceError(f"the options must be a VerifyOptions, got {opts!r}")
    fields = zip(VerifyOptions._fields, opts)
    opts = VerifyOptions._make(_as_int(value, field) for field, value in fields)
    if opts.max_n < 1:
        raise SpaceError(f"max_n must be at least 1, got {opts.max_n}")
    if opts.samples < 0:
        raise SpaceError(f"samples must be at least 0, got {opts.samples}")
    if opts.jobs < 1:
        raise SpaceError(f"jobs must be at least 1, got {opts.jobs}")
    if names is None:
        names = PROPERTIES
    if isinstance(names, str):
        raise SpaceError(
            f"the property names must be a list of names, got the string {names!r};"
            " pass [name] or call run_property(name)"
        )
    names = list(_iterable(names, "the property names must be an iterable, got {!r}"))
    for name in names:
        try:
            known = name in PROPERTIES
        except TypeError:  # unhashable, so no registry key
            known = False
        if not known:
            raise UnknownPropertyError(name, PROPERTIES)
    samplers = {"union-random", "random-valid"}.intersection(names)
    if samplers and opts.sample_n < 1:
        raise SpaceError(f"sample_n must be at least 1, got {opts.sample_n}")
    if "union-random" in samplers and opts.sample_n > SUBSET_TABLE_LIMIT:
        raise SpaceError(
            f"sample_n must be at most {SUBSET_TABLE_LIMIT} for union-random,"
            f" got {opts.sample_n}"
        )
    distinct = list(dict.fromkeys(names))
    reports = _sweep([name for name in distinct if PROPERTIES[name].space], opts)
    for name in distinct:
        if name not in reports:
            t0 = time.perf_counter()
            checked, counter = PROPERTIES[name].run(opts)
            elapsed = time.perf_counter() - t0
            reports[name] = VerifyReport(name, checked, counter is None, counter, elapsed)
    return [reports[name] for name in names]


def _workers(jobs: int) -> int:
    """Worker processes for a sweep: ``jobs``, but at most one per CPU."""
    return min(jobs, os.cpu_count() or 1)


# Spaces per sweep task, by measurement of the six-property n <= 5 sweep on
# a 2-core host: at two jobs, 256-space slices were faster than 64, and 64
# than 16, as each slice costs a round trip to a worker; serially, 256 held
# about 1.2 MB more peak RSS than 64, since a slice keeps its spaces' cached
# tables alive, but the pooled sweep's peak RSS moved by 0.3 MB at most.
SLICE = 256


def _slices(top: int) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """The corpus of a sweep: every labeled topology on at most ``top``
    points, as ``(n, bases)`` tasks of at most ``SLICE`` bases each, in
    enumeration order.  No space is built here, as each slice task builds
    its own spaces through the validating constructor."""
    out = []
    for n in range(1, top + 1):
        bases = _bases(n, False)
        out += [(n, bases[start : start + SLICE]) for start in range(0, len(bases), SLICE)]
    return out


class _Summary(NamedTuple):
    """One check run across one slice: the spaces it checked, up to and with
    its first counterexample, that witness, its time, and the exception it
    raised, if any, on the space after the ``checked`` ones, with its
    traceback as text, which pickling would drop."""

    name: str
    checked: int
    witness: Optional[dict]
    seconds: float
    error: Optional[Exception]
    trace: str


def _slice_task(plan, task) -> list[_Summary]:
    """Run each ``(name, size limit)`` of ``plan`` that admits the slice
    ``task`` across it, check by check, in plan order.

    The slice's spaces are built once, through the validating constructor,
    and shared by the checks; a basis that fails validation fails the
    task.  A check stops at its first counterexample or exception; the
    exception is returned, not raised, so that ``_sweep`` raises it only
    when the check has not failed in an earlier slice.  A name that this
    process has not registered is such an exception, a ``SpaceError``.
    """
    n, bases = task
    labels = default_labels(n)
    spaces = [FinSpace(labels, basis) for basis in bases]
    out = []
    for name, limit in plan:
        if n > limit:
            continue
        checked, witness, error, trace = 0, None, None, ""
        t0 = time.perf_counter()
        try:
            if name not in PROPERTIES:  # registered where this worker cannot see it
                raise SpaceError(
                    f"property {name!r} is not registered in a worker that was not"
                    " forked; register it at module level, or run one job"
                )
            check = PROPERTIES[name].run
            for sp in spaces:
                witness = check(sp)
                checked += 1
                if witness is not None:
                    break
        except Exception as exc:  # ``_sweep`` raises it, in corpus order
            import traceback  # here, since no CLI command needs it otherwise

            error, trace = exc, traceback.format_exc()
        out.append(_Summary(name, checked, witness, time.perf_counter() - t0, error, trace))
    return out


def _sweep(names: list[str], opts: VerifyOptions) -> dict[str, VerifyReport]:
    """Reports for the space properties ``names``, from one pass over the corpus.

    The corpus is the list of ``_slices``.  ``_slice_task`` builds each
    slice's spaces once and runs every check that has not failed yet and
    whose size cap admits them across the slice, so the checks share each
    space's cached matrix, open family and subset table.  The slice
    summaries are merged in enumeration order: a property counts spaces up
    to its first counterexample, which is its first in enumeration order,
    and its ``seconds`` is its summed check time.  A check that raises
    fails the sweep with its exception, unless it had already failed; the
    first raised in enumeration order, then plan order, wins.  With more
    than one job, one pool runs the slices, every check on each, and the
    parent drops the summaries of checks that failed in an earlier slice.
    When the sweep stops early, the slices not started are dropped and the
    running ones finish; a worker that dies fails the sweep with
    ``BrokenProcessPool``.  Raises ``SizeTooLargeError`` before it
    enumerates anything when a property would sweep past
    ``ENUMERATION_LIMIT`` points.
    """
    if not names:
        return {}
    plan = []  # (name, size limit)
    for name in names:
        cap = PROPERTIES[name].cap
        plan.append((name, min(opts.max_n, cap) if cap else opts.max_n))
    live = dict(plan)  # the same, for the properties that have not failed
    top = max(live.values())
    if top > ENUMERATION_LIMIT:
        raise SizeTooLargeError(top, ENUMERATION_LIMIT)
    checked = dict.fromkeys(live, 0)
    seconds = dict.fromkeys(live, 0.0)
    found: dict[str, dict] = {}

    def merge(summaries):
        raised = None  # (offset in the slice, exception, traceback)
        for name, count, witness, elapsed, error, trace in summaries:
            if name in live:
                checked[name] += count
                seconds[name] += elapsed
                if witness is not None:
                    found[name] = witness
                    del live[name]
                elif error is not None and (raised is None or count < raised[0]):
                    raised = (count, error, trace)
        if raised:
            _, error, trace = raised
            if error.__traceback__ is None:  # sent back by a worker, without its frames
                from multiprocessing.pool import RemoteTraceback

                raise error from RemoteTraceback(trace)
            raise error

    slices = _slices(top)
    jobs = _workers(opts.jobs)
    pool = None
    if jobs <= 1:
        # in this process, each slice runs only the checks still live
        results = (_slice_task(list(live.items()), task) for task in slices)
    else:
        # imported here, since no other command needs it.  Any start method
        # finds the catalog, which a worker loads when it unpickles
        # ``_slice_task``, as that imports this module; the default one,
        # because checks registered at run time exist only in forked workers
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(jobs)
        # map keeps enumeration order, so each first hit is deterministic
        results = pool.map(partial(_slice_task, plan), slices)
    try:
        for summaries in results:
            merge(summaries)
            if not live:
                break
    finally:
        # drops the slices not started and waits for the running ones, so no
        # worker is signalled, not even one writing its result
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return {
        name: VerifyReport(name, checked[name], name not in found, found.get(name), seconds[name])
        for name, _ in plan
    }


def space_property(name: str, cap: Optional[int] = None):
    """Register a per-space check swept over the enumerated corpus.

    ``cap``, when given, is the largest space size it runs on, even when
    ``max_n`` is larger.  A cap that is not an int of at least 1 raises
    ``SpaceError`` and registers nothing.
    """
    if cap is not None:
        cap = _as_int(cap, "cap")
        if cap < 1:
            raise SpaceError(f"cap must be at least 1, got {cap}")
    return _register(name, True, cap)


def custom_property(name: str):
    """Register a runner(opts) -> (checked, counterexample | None)."""
    return _register(name, False)


def _register(name: str, space: bool, cap: Optional[int] = None):
    # the registry's names are sorted together in UnknownPropertyError
    if not isinstance(name, str) or not name:
        raise SpaceError(f"a property name must be a nonempty string, got {name!r}")

    def deco(run: Callable):
        # a name registered again keeps its place and gets the new record whole
        PROPERTIES[name] = Property(run, space, cap)
        return run

    return deco


from . import theorems  # noqa: E402

# The package registers the catalog unrun, like each of its modules, so the
# import above only binds it; this first read runs it, which registers every
# property.  It runs under the package's run lock, as every module does, and
# never under an import lock that a thread holding the run lock could wait on.
vars(theorems)
