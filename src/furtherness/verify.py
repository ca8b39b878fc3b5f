"""Exhaustive and sampled verification of the library's claims.

Every mathematical claim the library relies on is a named property in the
registry, ``PROPERTIES``.  A property runner sweeps a corpus (all labeled
topologies up to a size cap, or seeded random spaces) and reports the first
counterexample as a replayable space document plus witness data.  The
command line exposes the registry via ``verify``; the acceptance test
suite drives the same runners.

The module has three parts: the registry, with ``VerifyOptions`` and the
decorators that fill it; ``VerifyReport`` and the sweep runner; and the
theorem catalog.  Each ``@space_property`` of the catalog is a check on
one space, which ``_sweep`` runs over every enumerated topology up to the
property's size cap; each ``@custom_property`` is a runner with a corpus
of its own (map pairs, products, seeded random spaces, the enumerators).
Decorating registers the property, in the order of the catalog, which is
the registry's order; a property registered at run time comes after them.
The package runs this module only when one of its attributes is first
read, so a CLI command other than ``verify`` compiles no property.

Running the module only defines and registers functions.  It reads the
functions of other modules through their modules when called, not bound
here when it runs, so a wrapper installed on a module after this one ran,
as a profiler's, still sees every call; only constants, ``_bases``,
``FinSpace``, ``mask_indices``, ``_as_int``, ``_iterable`` and the error
classes are bound by name.

Runners are deterministic: corpora are enumerated in a fixed order, random
sampling is seeded, and parallel sweeps merge results in enumeration order.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import balls as B
from . import distance as D
from . import dot as DOT
from . import generate as G
from . import order as O
from . import oracle as ORC
from . import regions as R
from . import serialization as SER
from . import spaces as S
from .errors import SizeTooLargeError, SpaceError, UnknownPropertyError
from .generate import ENUMERATION_LIMIT, _bases
from .regions import SUBSET_TABLE_LIMIT
from .spaces import FinSpace, _as_int, _iterable, mask_indices


class VerifyOptions(NamedTuple):
    max_n: int = 4
    samples: int = 1000
    sample_n: int = 6
    seed: int = 1
    jobs: int = 1


class Property(NamedTuple):
    """One registered property.  A space property (``space`` true) is a
    check(space) -> witness | None, which ``_sweep`` runs over the
    corpus up to ``cap`` points (None: up to ``max_n``); a custom property
    is a runner(opts) -> (checked, counterexample | None) with a corpus of
    its own.
    """

    run: Callable
    space: bool
    cap: Optional[int] = None


# The registry, in its order: name -> ``Property``.  The catalog's
# properties come first, in their order below; a property registered at
# run time comes after them.
PROPERTIES: dict[str, Property] = {}


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
    labels = G.default_labels(n)
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
        # finds the catalog, since a worker runs this module when it
        # unpickles ``_slice_task``; the default one, because checks
        # registered at run time exist only in forked workers
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


# ===========================================================================
# The theorem catalog: one decorated check or runner per property, in the
# registry's order, which the benchmark pins


def _set(space: FinSpace, mask: int) -> list[str]:
    return list(space.members(mask))


def _fail(space: FinSpace, **witness) -> dict:
    return {"space": SER.space_to_document(space), **witness}


# ---------------------------------------------------------------------------
# space core


@space_property("family-closure")
def _family_closure(sp: FinSpace):
    """Open family contains empty and full and is closed under | and &."""
    fam = sp.open_family
    have = set(fam)
    if 0 not in have or sp.full not in have:
        return _fail(sp, missing="empty or full")
    for a in fam:
        for b in fam:
            if (a | b) not in have or (a & b) not in have:
                return _fail(sp, pair=[_set(sp, a), _set(sp, b)])
    return None


def _open_hulls(family: set[int], full: int) -> list[int]:
    """``hulls[s]`` is the intersection of the opens of ``family`` that
    contain ``s``, for every mask ``s`` up to ``full``.

    The smallest open superset of a set is the intersection of the opens
    containing it (Stong 1966), so a set that is not open has the same hull
    as every one-point extension inside that hull, and the hull is the
    intersection of the hulls of all its one-point extensions.  Supersets
    come first, from ``full`` down.
    """
    hulls = [0] * (full + 1)
    for s in range(full, -1, -1):
        if s in family:
            hulls[s] = s
            continue
        hull = full
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            hull &= hulls[s | low]
        hulls[s] = hull
    return hulls


@space_property("open-membership")
def _open_membership(sp: FinSpace):
    """is_open, family membership, and minimal-open fixpoint all agree, and
    the minimal open is the intersection of the opens containing the set."""
    fam = set(sp.open_family)
    hulls = _open_hulls(fam, sp.full)
    for s in range(sp.full + 1):
        in_fam = s in fam
        if sp.is_open(s) != in_fam:
            return _fail(sp, subset=_set(sp, s))
        if s:
            mo = sp.minimal_open(s)
            if (mo == s) != in_fam:
                return _fail(sp, subset=_set(sp, s))
            if mo != hulls[s] or mo not in fam:
                return _fail(sp, subset=_set(sp, s), minimal=_set(sp, mo))
    return None


@space_property("interior-closure-duality")
def _duality(sp: FinSpace):
    """Interior and closure are dual through complements, and the boundary
    is the closure less the interior."""
    for s in range(sp.full + 1):
        rest = sp.full & ~s
        closure = sp.closure(s)
        interior = sp.interior(s)
        if interior != sp.full & ~sp.closure(rest):
            return _fail(sp, subset=_set(sp, s))
        if closure != sp.full & ~sp.interior(rest):
            return _fail(sp, subset=_set(sp, s))
        boundary = sp.boundary(s)
        if boundary != closure & ~interior:
            return _fail(sp, subset=_set(sp, s), boundary=_set(sp, boundary))
    return None


@space_property("opposite-involution")
def _opposite_involution(sp: FinSpace):
    op = sp.opposite()
    if op.opposite() != sp:
        return _fail(sp)
    want = {sp.full & ~o for o in sp.open_family}
    if set(op.open_family) != want:
        return _fail(sp)
    return None


@space_property("reconstruction")
def _reconstruction(sp: FinSpace):
    rebuilt = S.from_open_sets(sp.labels, list(sp.open_family))
    if rebuilt != sp:
        return _fail(sp)
    return None


@space_property("t0-opposite")
def _t0_opposite(sp: FinSpace):
    if sp.is_t0 != sp.opposite().is_t0:
        return _fail(sp)
    return None


# ---------------------------------------------------------------------------
# distance and matrix


@space_property("zero-diagonal")
def _zero_diagonal(sp: FinSpace):
    for x in range(sp.n):
        if D.furtherness(sp, x, x) != 0:
            return _fail(sp, point=sp.labels[x])
    return None


@space_property("range-bound")
def _range_bound(sp: FinSpace):
    for v in sp.further_flat:
        if not 0 <= v <= sp.n - 1:
            return _fail(sp, value=v)
    return None


@space_property("triangle-inequality")
def _triangle(sp: FinSpace):
    n = sp.n
    flat = sp.further_flat
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if flat[x * n + y] > flat[x * n + z] + flat[z * n + y]:
                    return _fail(
                        sp, triple=[sp.labels[x], sp.labels[y], sp.labels[z]]
                    )
    return None


@space_property("zero-characterization")
def _zero_char(sp: FinSpace):
    """Zero distance, membership in the minimal open, and basis nesting agree."""
    n = sp.n
    flat = sp.further_flat
    for x in range(n):
        for y in range(n):
            zero = flat[x * n + y] == 0
            member = bool((sp.basis[x] >> y) & 1)
            nested = not (sp.basis[y] & ~sp.basis[x])
            if zero != member or zero != nested:
                return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
        col_zero = 0
        for y in range(n):
            if flat[y * n + x] == 0:
                col_zero |= 1 << y
        if col_zero != sp.closure(1 << x):
            return _fail(sp, point=sp.labels[x])
    return None


@space_property("t0-criterion")
def _t0_criterion(sp: FinSpace):
    n = sp.n
    flat = sp.further_flat
    glued = any(
        flat[x * n + y] == 0 and flat[y * n + x] == 0
        for x in range(n)
        for y in range(n)
        if x != y
    )
    rep = D.matrix_report(sp)
    if sp.is_t0 != (not glued):
        return _fail(sp)
    if rep.distinct_rows != sp.is_t0 or rep.distinct_cols != sp.is_t0:
        return _fail(sp)
    return None


@space_property("oracle-equivalence")
def _oracle_equiv(sp: FinSpace):
    for x in range(sp.n):
        for y in range(sp.n):
            fast = D.furtherness(sp, x, y)
            slow, witness = ORC.furtherness_oracle(sp, x, y)
            if fast != slow or witness.length != slow:
                return _fail(
                    sp, pair=[sp.labels[x], sp.labels[y]], fast=fast, slow=slow
                )
            witness.validate(sp, x)
    return None


@space_property("chain-witness")
def _chain_witness(sp: FinSpace):
    """Minimal chains end exactly at the union of the two minimal opens."""
    for x in range(sp.n):
        for y in range(sp.n):
            k = D.furtherness(sp, x, y)
            target = sp.basis[x] | sp.basis[y]
            direct = ORC.union_witness(sp, x, y)
            direct.validate(sp, x)
            if direct.opens[-1] != target or direct.length != k:
                return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
            for chain in ORC.witness_chains(sp, x, y):
                chain.validate(sp, x)
                if chain.opens[-1] != target:
                    return _fail(
                        sp,
                        pair=[sp.labels[x], sp.labels[y]],
                        chain=[_set(sp, o) for o in chain.opens],
                    )
                if any((o >> y) & 1 for o in chain.opens[:-1]):
                    return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
    return None


@space_property("cover-single-step")
def _cover_single_step(sp: FinSpace):
    """Lemma-based cover candidates equal true covers; T0 covers add one point."""
    fam = list(sp.open_family)
    for o in fam:
        fast = set(ORC.cover_successors(sp, o))
        slow = set()
        for v in fam:
            if v == o or (o & ~v):
                continue
            if not any(w != o and w != v and not (o & ~w) and not (w & ~v) for w in fam):
                slow.add(v)
        if fast != slow:
            return _fail(sp, open=_set(sp, o))
        if sp.is_t0:
            for v in fast:
                if (v & ~o).bit_count() != 1:
                    return _fail(sp, open=_set(sp, o), cover=_set(sp, v))
    return None


@space_property("row-dominance")
def _row_dominance(sp: FinSpace):
    m = D.furtherness_matrix(sp)
    for x in range(sp.n):
        for y in range(sp.n):
            if m.row_dominates(x, y) != (D.furtherness(sp, x, y) == 0):
                return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
    return None


@space_property("zero-count-bound")
def _zero_count_bound(sp: FinSpace):
    n = sp.n
    flat = sp.further_flat
    zeros = [sum(1 for y in range(n) if flat[x * n + y] == 0) for x in range(n)]
    for x in range(n):
        for y in range(n):
            if flat[y * n + x] > zeros[x]:
                return _fail(sp, pair=[sp.labels[y], sp.labels[x]])
    if max(flat) > max(zeros):
        return _fail(sp)
    return None


@space_property("extreme-points")
def _extreme_points(sp: FinSpace):
    rep = D.matrix_report(sp)
    maxima = sum(1 << x for x in range(sp.n) if sp.basis[x] == sp.full)
    minima = sum(1 << x for x in range(sp.n) if sp.closure(1 << x) == sp.full)
    if rep.maximum_points != maxima or rep.minimum_points != minima:
        return _fail(sp)
    return None


@space_property("matrix-report-flags")
def _report_flags(sp: FinSpace):
    rep = D.matrix_report(sp)
    singles = sum(1 << x for x in range(sp.n) if sp.basis[x] == 1 << x)
    if rep.open_singletons != singles:
        return _fail(sp)
    if rep.t0 != sp.is_t0:
        return _fail(sp)
    if rep.has_zero_row_or_col != bool(rep.maximum_points or rep.minimum_points):
        return _fail(sp)
    if rep.row_zeros != sp.basis:
        return _fail(sp)
    if rep.col_zeros != tuple(sp.closure(1 << x) for x in range(sp.n)):
        return _fail(sp)
    return None


# ---------------------------------------------------------------------------
# order structure


@space_property("preorder-laws")
def _preorder_laws(sp: FinSpace):
    order = O.specialization_preorder(sp)
    n = sp.n
    for x in range(n):
        if not order.leq(x, x):
            return _fail(sp, point=sp.labels[x])
    for x in range(n):
        for y in range(n):
            if order.leq(x, y):
                for z in range(n):
                    if order.leq(z, x) and not order.leq(z, y):
                        return _fail(sp, triple=[sp.labels[z], sp.labels[x], sp.labels[y]])
    if order.is_antisymmetric != sp.is_t0:
        return _fail(sp)
    if O.order_to_space(order) != sp:
        return _fail(sp)
    return None


@space_property("quotient-preserves")
def _quotient_preserves(sp: FinSpace):
    q = O.kolmogorov_quotient(sp)
    if not q.space.is_t0:
        return _fail(sp)
    n = sp.n
    m = q.space.n
    flat = sp.further_flat
    qflat = q.space.further_flat
    class_of = q.class_of
    for x in range(n):
        for y in range(n):
            v = flat[x * n + y]
            same = class_of[x] == class_of[y]
            both_zero = v == 0 and flat[y * n + x] == 0
            if same != both_zero:
                return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
            if qflat[class_of[x] * m + class_of[y]] != v:
                return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
    again = O.kolmogorov_quotient(q.space)
    if again.space.n != q.space.n or again.space.basis != q.space.basis:
        return _fail(sp)
    return None


@space_property("minimal-rigidity")
def _minimal_rigidity(sp: FinSpace):
    """On minimal spaces, pointwise-zero continuous self-maps are the identity."""
    if not O.is_minimal(sp):
        return None
    n = sp.n
    flat = sp.further_flat
    # the candidates send each x to a y with d(y, x) = 0, in lexicographic order
    zeros = [[y for y in range(n) if flat[y * n + x] == 0] for x in range(n)]
    for image in itertools.product(*zeros):
        f = O.SpaceMap(sp, sp, image)
        if not O.is_continuous(f):
            continue
        if image != tuple(range(n)):
            return _fail(sp, map=[sp.labels[i] for i in image])
    return None


@space_property("core-properties")
def _core_properties(sp: FinSpace):
    c = O.core(sp)
    if not O.is_minimal(c):
        return _fail(sp, core=SER.serialize_space(c))
    return None


def _space_pairs(max_n: int):
    corpus = [
        sp for n in range(1, max_n + 1) for sp in G.enumerate_topologies(n)
    ]
    return corpus


def _map_pairs(opts: VerifyOptions, fails):
    """(checked, counterexample | None) of ``fails(map)`` over every map
    between spaces of at most 3 points, up to the first map it fails on."""
    corpus = _space_pairs(min(opts.max_n, 3))
    checked = 0
    for dom in corpus:
        for cod in corpus:
            for image in itertools.product(range(cod.n), repeat=dom.n):
                checked += 1
                if fails(O.SpaceMap(dom, cod, image)):
                    return checked, {
                        "domain": SER.space_to_document(dom),
                        "codomain": SER.space_to_document(cod),
                        "map": list(image),
                    }
    return checked, None


@custom_property("continuity-agreement")
def _continuity_agreement(opts: VerifyOptions):
    return _map_pairs(opts, lambda f: O.is_continuous(f) != O.is_continuous_by_preimages(f))


@custom_property("preserving-implies-continuous")
def _preserving_continuous(opts: VerifyOptions):
    return _map_pairs(opts, lambda f: O.is_furtherness_preserving(f) and not O.is_continuous(f))


@custom_property("product-formula")
def _product_formula(opts: VerifyOptions):
    corpus = _space_pairs(min(opts.max_n, 3))
    checked = 0
    for left in corpus:
        for right in corpus:
            prod = O.product([left, right])
            checked += 1
            flat = iter(prod.further_flat)  # rows and columns in (ax, ay) order
            for ax in range(left.n):
                for ay in range(right.n):
                    for cx in range(left.n):
                        for cy in range(right.n):
                            got = O.product_furtherness(
                                left, right, (ax, ay), (cx, cy)
                            )
                            direct = next(flat)
                            if got != direct:
                                return checked, {
                                    "left": SER.space_to_document(left),
                                    "right": SER.space_to_document(right),
                                    "pair": [[ax, ay], [cx, cy]],
                                    "formula": got,
                                    "direct": direct,
                                }
    return checked, None


@custom_property("product-nfold")
def _product_nfold(opts: VerifyOptions):
    twos = list(G.enumerate_topologies(2))
    checked = 0
    for fx, fy, fz in itertools.product(twos, repeat=3):
        factors = [fx, fy, fz]
        prod = O.product(factors)
        checked += 1
        for ps in itertools.product(range(2), repeat=3):
            for qs in itertools.product(range(2), repeat=3):
                flat_p = (ps[0] * 2 + ps[1]) * 2 + ps[2]
                flat_q = (qs[0] * 2 + qs[1]) * 2 + qs[2]
                direct = D.furtherness(prod, flat_p, flat_q)
                formula = O.product_furtherness_nfold(factors, ps, qs)
                if direct != formula:
                    return checked, {
                        "factors": [SER.space_to_document(f) for f in factors],
                        "pair": [list(ps), list(qs)],
                    }
    return checked, None


# ---------------------------------------------------------------------------
# balls


@space_property("ball-radius-one")
def _ball_radius_one(sp: FinSpace):
    for x in range(sp.n):
        if B.ball(sp, x, 1) != sp.basis[x]:
            return _fail(sp, point=sp.labels[x])
        if B.ball(sp, x, 1, backward=True) != sp.closure(1 << x):
            return _fail(sp, point=sp.labels[x])
        if B.ball(sp, x, sp.n) != sp.full and max(sp.further_flat) < sp.n:
            return _fail(sp, point=sp.labels[x])
    return None


@space_property("forward-ball-topology")
def _forward_ball_topology(sp: FinSpace):
    if B.ball_topology(sp) != sp.open_family:
        return _fail(sp)
    return None


@space_property("backward-ball-topology")
def _backward_ball_topology(sp: FinSpace):
    if B.ball_topology(sp, backward=True) != sp.opposite().open_family:
        return _fail(sp)
    return None


@space_property("ball-basis")
def _ball_basis(sp: FinSpace):
    """Pairwise intersections of balls contain a ball around each member."""
    for backward in (False, True):
        per_point = [B._ball_levels(sp, x, backward) for x in range(sp.n)]
        family = {b for row in per_point for b in row}
        for b1 in family:
            for b2 in family:
                inter = b1 & b2
                for z in mask_indices(inter):
                    if not any(not (b3 & ~inter) for b3 in per_point[z]):
                        return _fail(sp, point=sp.labels[z], backward=backward)
    return None


@space_property("symmetrized-metric")
def _symmetrized_metric(sp: FinSpace):
    n = sp.n
    sym = [
        B.symmetrized_furtherness(sp, x, y) for x in range(n) for y in range(n)
    ]
    for x in range(n):
        if sym[x * n + x] != 0:
            return _fail(sp, point=sp.labels[x])
        for y in range(n):
            sxy = sym[x * n + y]
            if sxy != sym[y * n + x]:
                return _fail(sp, pair=[sp.labels[x], sp.labels[y]])
            for z in range(n):
                if sxy > sym[x * n + z] + sym[z * n + y]:
                    return _fail(
                        sp, triple=[sp.labels[x], sp.labels[y], sp.labels[z]]
                    )
    return None


@space_property("symmetrized-discrete-t0")
def _symmetrized_discrete(sp: FinSpace):
    if sp.is_t0 and len(B.symmetrized_topology(sp)) != 1 << sp.n:
        return _fail(sp)
    return None


@space_property("symmetrized-smallest-join", cap=3)
def _symmetrized_join(sp: FinSpace):
    sym = set(B.symmetrized_topology(sp))
    both = set(sp.open_family) | set(sp.opposite().open_family)
    if not both <= sym:
        return _fail(sp)
    for other in G.enumerate_topologies(sp.n):
        fam = set(other.open_family)
        if both <= fam and not sym <= fam:
            return _fail(sp, topology=[_set(sp, o) for o in sorted(fam)])
    return None


@space_property("symmetrized-disconnected")
def _symmetrized_disconnected(sp: FinSpace):
    """With more than one indistinguishability class, a proper clopen exists.

    The bare |X| > 1 version is false (a two-point indiscrete space has an
    indiscrete symmetrized topology), so the hypothesis is the corrected
    one, which agrees with |X| > 1 on spaces with distinguishable points.
    """
    if max(sp.class_ids) == 0:
        return None
    fam = set(B.symmetrized_topology(sp))
    if not any(0 < c < sp.full and c in fam and (sp.full & ~c) in fam for c in fam):
        return _fail(sp)
    return None


# ---------------------------------------------------------------------------
# regions


@space_property("point-set-closure")
def _point_set_closure(sp: FinSpace):
    table = R.subset_table(sp)
    for s, cl in enumerate(table.closure):
        for x, row in enumerate(table.p2s):
            if row[s] != row[cl]:
                return _fail(sp, point=sp.labels[x], subset=_set(sp, s))
    return None


def _set_to_set_rows(table: R.SubsetTable) -> list[list]:
    """``rows[a][b]`` is ``furtherness_to_set(space, a, b)`` for all masks.

    A set is its lowest point and the rest, so its row is the elementwise
    minimum of the rest's row and the point's ``p2s`` row; the empty set's
    row is all infinity.
    """
    p2s = table.p2s
    rows = [[math.inf] * len(p2s[0])]
    for a in range(1, len(p2s[0])):
        low = a & -a
        point = p2s[low.bit_length() - 1]
        rows.append([u if u < v else v for u, v in zip(rows[a ^ low], point)])
    return rows


@space_property("separation-obstruction")
def _separation_obstruction(sp: FinSpace):
    """Separation by opens, which also checks the set-to-set rows against
    ``furtherness_to_set``, the definition, at each set's complement; an
    entry that differs is a counterexample, named by ``table="set"``."""
    rows = _set_to_set_rows(R.subset_table(sp))
    opens = [0] + [sp.minimal_open(a) for a in range(1, sp.full + 1)]
    for a in range(1, sp.full + 1):
        row = rows[a]
        rest = sp.full & ~a
        if row[rest] != D.furtherness_to_set(sp, a, rest):
            return _fail(sp, subset=_set(sp, a), table="set")
        open_a = opens[a]
        for b in range(1, sp.full + 1):
            if row[b] == 0 and not (open_a & opens[b]):
                return _fail(sp, pair=[_set(sp, a), _set(sp, b)])
    return None


@space_property("radius-zero-interior")
def _radius_zero(sp: FinSpace):
    table = R.subset_table(sp)
    for s in range(1, sp.full + 1):
        interior = table.interior[s]
        if (table.radius[s] == 0) != (interior == 0):
            return _fail(sp, subset=_set(sp, s))
        if interior == 0 and table.center[s] != s:
            return _fail(sp, subset=_set(sp, s))
    return None


@space_property("center-in-interior")
def _center_in_interior(sp: FinSpace):
    table = R.subset_table(sp)
    for s in range(1, sp.full + 1):
        interior = table.interior[s]
        if interior:
            if table.center[s] & ~interior:
                return _fail(sp, subset=_set(sp, s))
            if not table.radius[s] > 0:
                return _fail(sp, subset=_set(sp, s))
    return None


@space_property("radius-clopen")
def _radius_clopen(sp: FinSpace):
    """The clopen theorem on ``region_report``, which also checks the table.

    The per-query report is the definition, and the other subset sweeps
    read ``subset_table`` in its place, so a table entry that differs from
    the report is a counterexample too, named by its field.
    """
    table = R.subset_table(sp)
    for s in range(sp.full + 1):
        rep = R.region_report(sp, s)
        clopen = sp.is_open(s) and sp.is_open(sp.full & ~s)
        if (rep.radius == math.inf) != clopen:
            return _fail(sp, subset=_set(sp, s))
        if s and not rep.center:
            return _fail(sp, subset=_set(sp, s))
        if rep.center & ~s:
            return _fail(sp, subset=_set(sp, s))
        # the interior lies inside s, which lies inside the closure
        direct = {
            "closure": rep.interior | rep.boundary,
            "interior": rep.interior,
            "boundary": rep.boundary,
            "center": rep.center,
            "radius": rep.radius,
        }
        for field, value in direct.items():
            if getattr(table, field)[s] != value:
                return _fail(sp, subset=_set(sp, s), table=field)
    return None


@space_property("radius-monotone")
def _radius_monotone(sp: FinSpace):
    table = R.subset_table(sp)
    radius = table.radius
    for s, r in enumerate(radius):
        if r > radius[table.interior[s]]:
            return _fail(sp, subset=_set(sp, s))
        if r > radius[table.closure[s]]:
            return _fail(sp, subset=_set(sp, s))
    return None


def _relative_boundaries(table: R.SubsetTable, carrier: int):
    """Each subset of ``carrier``, ascending, with its boundary in the
    subspace on ``carrier``: ``C ∩ cl(A) ∩ cl(C ∖ A)``, in ambient masks.
    """
    closure = table.closure
    small = 0
    while True:
        yield small, carrier & closure[small] & closure[carrier & ~small]
        small = (small - carrier) & carrier
        if not small:
            return


@space_property("subspace-radius-monotone")
def _subspace_radius(sp: FinSpace):
    """Passing to a subspace shrinks distances and boundaries, so the radius
    against the subspace boundary, measured in the ambient distance, can only
    grow.  The naive version with the subspace's own recomputed distance is
    false; a three-point counterexample is pinned in the test suite.

    The boundary half holds by construction: the subspace boundary is read
    from the ambient closures, ``C ∩ cl(A) ∩ cl(C ∖ A)``, which lies inside
    the ambient boundary of ``A``.  The sweep checks the subspace's labels
    against the carrier's members, the distance half, the subspace's own
    matrix against the ambient one, and the radius bound.
    That the ambient reading is the boundary in ``sp.subspace(C)`` is
    checked by the test suite alone.
    """
    table = R.subset_table(sp)
    radius = table.radius
    n = sp.n
    flat = sp.further_flat
    # rows[s] lists the p2s rows of the points of s
    rows = [[table.p2s[x] for x in mask_indices(s)] for s in range(sp.full + 1)]
    for carrier in range(1, sp.full + 1):
        sub = sp.subspace(carrier)
        if sub.labels != sp.members(carrier):
            return _fail(sp, carrier=_set(sp, carrier), labels=list(sub.labels))
        sub_flat = iter(sub.further_flat)
        kept = list(mask_indices(carrier))
        for u in kept:
            for v in kept:
                if next(sub_flat) > flat[u * n + v]:
                    return _fail(sp, pair=[sp.labels[u], sp.labels[v]],
                                 carrier=_set(sp, carrier))
        for small, bd_in_x in _relative_boundaries(table, carrier):
            if small == 0 or bd_in_x == 0:
                restricted: float = math.inf
            else:
                restricted = max([row[bd_in_x] for row in rows[small]])
            if radius[small] > restricted:
                return _fail(sp, subset=_set(sp, small), carrier=_set(sp, carrier))
    return None


def _qualifying_pairs(closure, interior):
    """Separated pairs ``a < b`` of nonempty sets, neither clopen, ascending,
    from the closure and the interior of every subset, indexed by mask.

    ``b`` misses the closure of ``a``, hence ``a`` too, so it runs over the
    subsets of the rest in ascending order.  A set is clopen when its
    interior and its closure are the set itself.
    """
    full = len(closure) - 1
    for a in range(1, full):
        if interior[a] == a == closure[a]:
            continue
        rest = full & ~closure[a]
        b = (-rest) & rest  # the least nonempty subset of the rest
        while b:
            if b > a and not (interior[b] == b == closure[b] or a & closure[b]):
                yield a, b
            b = (b - rest) & rest


def _reading(ana: R.UnionAnalysis):
    """What the union claims read off ``union_analysis``: the case, the
    predicted center (0 when there is none), the largest radius of the
    parts, and the union's center and radius."""
    top = max(rep.radius for rep in ana.reports)
    return ana.case, ana.predicted_center or 0, top, ana.direct.center, ana.direct.radius


def _pair_union(table: R.SubsetTable, a: int, b: int):
    """``_reading(union_analysis(sp, [a, b]))`` of a pair ``_qualifying_pairs``
    proved, which is what ``union_analysis`` checks first, read from the table.
    """
    radius = table.radius
    center = table.center
    boundary = table.boundary
    p2s = table.p2s
    ra = radius[a]
    rb = radius[b]
    top = ra if ra > rb else rb
    # a center of a top part drops out when it is closer to the other
    # part's boundary than its own radius; radii are finite here
    predicted = 0
    for part, r, other in ((a, ra, boundary[b]), (b, rb, boundary[a])):
        if r == top:
            rest = center[part]
            while rest:
                low = rest & -rest
                if not p2s[low.bit_length() - 1][other] < r:
                    predicted |= low
                rest ^= low
    tie = ra == rb
    if predicted:
        case = "tie-dominates" if tie else "max-dominates"
    else:
        case = "tie-collapses" if tie else "max-collapses"
    union = a | b
    return case, predicted, top, center[union], radius[union]


def _union_verdict(sp, parts, reading):
    """Check exactly the union claims for this arity.

    ``reading`` is a :func:`_reading` or a :func:`_pair_union`.  Pairs carry
    the full package: the max-radius bound, the prediction in dominate
    cases, strict decrease in collapse cases.  Larger families only claim
    the prediction when it is nonempty; their empty-prediction case makes
    no promise beyond the direct computation existing.
    """
    case, predicted, top, center, radius = reading
    pair = len(parts) == 2
    if pair and radius > top:
        return _fail(sp, parts=[_set(sp, p) for p in parts], bound="exceeded")
    if predicted:
        if center != predicted or radius != top:
            return _fail(
                sp,
                parts=[_set(sp, p) for p in parts],
                case=case,
                predicted=_set(sp, predicted),
                direct=_set(sp, center),
            )
    elif pair and not radius < top:
        return _fail(sp, parts=[_set(sp, p) for p in parts], case=case)
    return None


def _check_union(sp: FinSpace, parts: list[int]) -> Optional[dict]:
    """The union claims on ``union_analysis``, the definition."""
    return _union_verdict(sp, parts, _reading(R.union_analysis(sp, parts)))


@space_property("union-pairs")
def _union_pairs(sp: FinSpace):
    """The union claims on every proven pair, read from the table.

    The space's first pair also goes through ``union_analysis``, the
    definition, so every space checks the table reading against it; a
    reading that differs is a counterexample, named by ``table="union"``.
    """
    table = R.subset_table(sp)
    for k, (a, b) in enumerate(_qualifying_pairs(table.closure, table.interior)):
        reading = _pair_union(table, a, b)
        if not k and reading != _reading(R.union_analysis(sp, [a, b])):
            return _fail(sp, parts=[_set(sp, a), _set(sp, b)], table="union")
        w = _union_verdict(sp, [a, b], reading)
        if w is not None:
            return w
    return None


@custom_property("union-random")
def _union_random(opts: VerifyOptions):
    """Up to ten pairs per random space, through ``union_analysis`` itself.

    The pairs come from the closures and interiors of ``_closure_pass``,
    so a space with none builds no distances.
    """
    checked = 0
    for i in range(opts.samples):
        sp = G.random_space(opts.sample_n, opts.seed + i)
        taken = 0
        for a, b in _qualifying_pairs(*R._closure_pass(sp)):
            w = _check_union(sp, [a, b])
            checked += 1
            if w is not None:
                return checked, {**w, "seed": opts.seed + i}
            taken += 1
            if taken >= 10:
                break
    return checked, None


@custom_property("union-triples")
def _union_triples(opts: VerifyOptions):
    checked = 0
    labels = G.default_labels(5)
    # every 31st space on 5 points, in enumeration order; only these are built
    for basis in G._bases(5, False)[::31]:
        sp = FinSpace(labels, basis)
        pairs = set(_qualifying_pairs(*R._closure_pass(sp)))
        members = sorted({s for pair in pairs for s in pair})
        found = 0
        for trio in itertools.combinations(members, 3):
            a, b, c = trio
            if (a, b) in pairs and (a, c) in pairs and (b, c) in pairs:
                w = _check_union(sp, list(trio))
                checked += 1
                if w is not None:
                    return checked, w
                found += 1
                if found >= 3:
                    break
    return checked, None


@space_property("quasi-ball-identity")
def _quasi_ball(sp: FinSpace):
    """Quasi-radius balls, which also checks ``quasi_report`` and the subset
    table's p2s field against ``point_to_set``."""
    table = R.subset_table(sp)
    balls = [B._ball_levels(sp, x) for x in range(sp.n)]
    for s in range(1, sp.full):
        rest = sp.full & ~s
        lims = []
        for x in mask_indices(s):
            lim = D.point_to_set(sp, x, rest)
            if table.p2s[x][rest] != lim:
                return _fail(sp, subset=_set(sp, s), point=sp.labels[x], table="p2s")
            lims.append((x, lim))
        # the quasi radius is the largest distance to the rest, and the
        # quasi center the points that reach it
        q = R.quasi_report(sp, s)
        top = max(lim for _, lim in lims)
        center = sum(1 << x for x, lim in lims if lim == top)
        if (q.quasi_center, q.quasi_radius) != (center, top):
            return _fail(sp, subset=_set(sp, s), quasi_center=_set(sp, q.quasi_center))
        for x, lim in lims:
            for r, ball in enumerate(balls[x], 1):
                inside = not (ball & ~s)
                if inside != (r <= lim):
                    return _fail(sp, subset=_set(sp, s), point=sp.labels[x], radius=r)
        entries = R.largest_forward_balls(sp, s)
        centers = 0
        for e in entries:
            centers |= 1 << e.center
            if e.radius != q.quasi_radius:
                return _fail(sp, subset=_set(sp, s))
            if e.radius >= 1 and e.ball != balls[e.center][e.radius - 1]:
                return _fail(sp, subset=_set(sp, s))
            if e.ball & ~s:
                return _fail(sp, subset=_set(sp, s))
        if centers != q.quasi_center:
            return _fail(sp, subset=_set(sp, s))
    return None


# ---------------------------------------------------------------------------
# infrastructure


@custom_property("enumerator-counts")
def _enumerator_counts(opts: VerifyOptions):
    want_all = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
    want_t0 = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
    checked = 0
    for n in range(1, min(opts.max_n, 5) + 1):
        bases = [sp.basis for sp in G.enumerate_topologies(n)]
        t0_bases = [sp.basis for sp in G.enumerate_topologies(n, t0_only=True)]
        count = len(bases)
        checked += count
        if count != want_all[n] or len(set(bases)) != count:
            return checked, {"n": n, "count": count}
        if len(t0_bases) != want_t0[n]:
            return checked, {"n": n, "t0_count": len(t0_bases)}
        if n <= 4:
            if G.family_generated_bases(n) != frozenset(bases):
                return checked, {"n": n, "generator": "family"}
            if G.family_generated_bases(n, t0_only=True) != frozenset(t0_bases):
                return checked, {"n": n, "generator": "family-t0"}
    return checked, None


@space_property("roundtrip-identity", cap=3)
def _roundtrip(sp: FinSpace):
    if SER.parse_space(SER.serialize_space(sp)) != sp:
        return _fail(sp)
    return None


@space_property("dot-stable", cap=3)
def _dot_stable(sp: FinSpace):
    for mode in ("hasse", "lattice"):
        first = DOT.export_dot(sp, mode)
        if DOT.export_dot(sp, mode) != first:
            return _fail(sp, mode=mode)
        if not first.startswith("digraph"):
            return _fail(sp, mode=mode)
    return None


@custom_property("random-valid")
def _random_valid(opts: VerifyOptions):
    checked = 0
    for i in range(opts.samples):
        sp = G.random_space(opts.sample_n, opts.seed + i)
        again = G.random_space(opts.sample_n, opts.seed + i)
        checked += 1
        if sp != again:
            return checked, {"seed": opts.seed + i, "reason": "not deterministic"}
        # FinSpace construction already validates the basis invariants
        if sp.n != opts.sample_n:
            return checked, {"seed": opts.seed + i}
    return checked, None
