"""One in-process pass over a workload's work, run in a fresh interpreter.

    python3 perfbench/tracer.py < spec.json

The spec names the work (verifier properties and their options, or CLI
argument lists and the directory holding their documents) and the mode:
``plain`` runs it as is, ``traced`` first wraps every public function of
the package at every module binding (``distance.furtherness`` and also
``order.furtherness``, ``cli.region_report`` and the package root), so each
call into a layer is timed from outside the package.  Nothing inside the
package is changed on disk.

Per layer the tracer keeps, in memory, the number of calls, the total time
and the self time (the total minus the time of nested calls into any traced
layer), plus the same counts per (calling layer, called layer) edge.  Each
property or query is one top-level span.  Everything is written as one JSON
object on stdout when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import time

KERNELS = (
    "class_ids", "further_matrix", "closure_mask", "interior_mask", "minimal_open_mask",
    "point_to_set", "set_to_set", "center_radius", "transitive_closure", "enumerate_bases",
)

# (module, function or Class.attribute, layer); a layer name with a dot is
# a sublayer, and reports also sum sublayers into their parent layer.
TARGETS = [("_kernels", name, f"kernels.{name}") for name in KERNELS] + [
    ("spaces", "FinSpace.__init__", "spaces.construct"),
    ("spaces", "from_minimal_basis", "spaces.construct"),
    ("spaces", "from_open_sets", "spaces.construct"),
    ("spaces", "FinSpace.index", "spaces.coerce"),
    ("spaces", "FinSpace.mask", "spaces.coerce"),
    ("spaces", "FinSpace.members", "spaces.coerce"),
    ("spaces", "FinSpace.min_open", "spaces.topology"),
    ("spaces", "FinSpace.minimal_open", "spaces.topology"),
    ("spaces", "FinSpace.is_open", "spaces.topology"),
    ("spaces", "FinSpace.closure", "spaces.topology"),
    ("spaces", "FinSpace.interior", "spaces.topology"),
    ("spaces", "FinSpace.boundary", "spaces.topology"),
    ("spaces", "FinSpace.open_family", "spaces.topology"),
    ("spaces", "FinSpace.is_t0", "spaces.topology"),
    ("spaces", "FinSpace.subspace", "spaces.derive"),
    ("spaces", "FinSpace.opposite", "spaces.derive"),
    ("distance", "furtherness", "distance.point"),
    ("distance", "point_to_set", "distance.set"),
    ("distance", "furtherness_to_set", "distance.set"),
    ("distance", "furtherness_matrix", "distance.matrix"),
    ("distance", "matrix_report", "distance.matrix"),
    ("distance", "FurtherMatrix.report", "distance.matrix"),
    ("regions", "region_report", "regions.region_report"),
    ("regions", "quasi_report", "regions.quasi_report"),
    ("regions", "union_analysis", "regions.union_analysis"),
    ("regions", "are_separated", "regions.other"),
    ("regions", "largest_forward_balls", "regions.other"),
    ("dot", "export_dot", "dot"),
    ("serialization", "parse_space", "serialization.parse"),
    ("serialization", "document_to_space", "serialization.parse"),
    ("serialization", "serialize_space", "serialization.serialize"),
    ("serialization", "space_to_document", "serialization.serialize"),
    ("oracle", "cover_successors", "oracle"),
    ("oracle", "furtherness_oracle", "oracle"),
    ("oracle", "union_witness", "oracle"),
    ("oracle", "witness_chains", "oracle"),
    ("oracle", "ChainWitness.validate", "oracle"),
    ("verify", "run_property", "verify"),
    ("cli", "main", "cli"),
] + [
    ("balls", name, "balls")
    for name in (
        "ball", "symmetrized_furtherness", "symmetrized_ball", "generated_topology",
        "ball_topology", "symmetrized_topology",
    )
] + [
    ("order", name, "order")
    for name in (
        "specialization_preorder", "order_to_space", "kolmogorov_quotient", "space_map",
        "identity_map", "is_continuous", "is_continuous_by_preimages",
        "is_furtherness_preserving", "beat_points", "is_minimal", "core", "product",
        "product_furtherness", "product_furtherness_nfold", "Preorder.covers",
    )
] + [
    ("generate", name, "generate")
    for name in (
        "default_labels", "enumerate_topologies", "count_topologies",
        "family_generated_bases", "random_space",
    )
]


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.callers: dict[str, dict] = {}  # layer -> calling layer -> [calls, total_s]
        self._stack: list[list] = []  # [layer, time spent in nested traced calls]

    def wrap(self, layer, fn):
        if not inspect.isgeneratorfunction(fn):
            return self._timed(layer, fn)
        # each resumption of a generator is one call into the layer
        step = self._timed(layer, next)

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced_gen

    def _timed(self, layer, fn):
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
        callers = self.callers.setdefault(layer, {})
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    top = stack[-1]
                    top[1] += dur
                    caller = top[0]
                else:
                    caller = "-"
                edge = callers.get(caller)
                if edge is None:
                    edge = callers[caller] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur

        return traced

    def install(self):
        """Wrap every target at every binding of it in the package."""
        import furtherness.cli  # noqa: F401  (loads every module)

        modules = [
            m for name, m in sys.modules.items() if name == "furtherness" or name.startswith("furtherness.")
        ]
        for modname, path, layer in TARGETS:
            mod = sys.modules[f"furtherness.{modname}"]
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, functools.cached_property):
                    new = functools.cached_property(self.wrap(layer, raw.func))
                    new.__set_name__(cls, attr)
                else:
                    new = self.wrap(layer, raw)
                setattr(cls, attr, new)
                continue
            original = getattr(mod, attr)
            new = self.wrap(layer, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, new)


def verify_pass(spec):
    from furtherness import verify

    opts = verify.VerifyOptions(
        max_n=spec["max_n"], samples=spec["samples"], sample_n=spec["sample_n"],
        seed=spec["seed"], jobs=spec["jobs"],
    )
    spans, results = [], []
    for name in spec["props"]:
        start = time.perf_counter()
        report = verify.run_property(name, opts)
        spans.append([name, start, time.perf_counter()])
        results.append([report.prop, report.checked, report.passed])
    return spans, results


def cli_pass(spec):
    from furtherness import cli

    os.chdir(spec["dir"])
    spans, results = [], []
    for argv in spec["queries"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv)
                rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        spans.append([argv[0], start, time.perf_counter()])
        results.append([rc, out.getvalue(), err.getvalue()])
    return spans, results


def main():
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec["mode"] == "traced" else None
    from furtherness import oracle

    cover_cache = oracle.cover_successors  # the lru_cache itself, even when wrapped
    if tracer is not None:
        tracer.install()
    run = cli_pass if spec["kind"] == "cli" else verify_pass
    spans, results = run(spec)
    info = cover_cache.cache_info()
    out = {
        "work_s": sum(end - start for _, start, end in spans),
        "spans": spans,
        "results": results,
        "cover_cache": {"hits": info.hits, "misses": info.misses, "size": info.currsize},
    }
    if tracer is not None:
        out["layers"] = tracer.layers
        out["callers"] = tracer.callers
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
