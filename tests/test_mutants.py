"""Kernel and ``FinSpace`` mutants against the verifier registry.

Each mutant replaces one attribute of ``_kernels``, which every module
calls by attribute, or one method or cached property of ``FinSpace``,
which every space reads, so the patch reaches every caller.  The
registry runs at ``max_n=3`` in a fresh interpreter per mutant, since the
per-process caches (the enumerated bases, the point-to-set rows, the
cover LRU) would carry a mutant into later tests.  A mutant is killed
when some property fails or the sweep raises a ``SpaceError``; each kill
is pinned, so a property that stops catching its mutant, or a witness
that stops reading back, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import furtherness
from furtherness import document_to_space
from furtherness.verify import PROPERTIES

# runs the registry under the mutant ``mutant`` defined by the source in
# argv[2], which sees the kernel, method or property getter it replaces as
# ``orig``; a name ``FinSpace.<attr>`` replaces that method, or that cached
# property with a new one; prints the reports, or the name of the
# SpaceError that ended the sweep
CHILD = """
import json, sys
from functools import cached_property
from furtherness import _kernels as K
from furtherness.errors import SpaceError
from furtherness.spaces import FinSpace
from furtherness.verify import VerifyOptions, run_all
name, source = sys.argv[1:]
owner, _, attr = name.rpartition(".")
if owner == "FinSpace":
    orig = vars(FinSpace)[attr]
    cached = isinstance(orig, cached_property)
    scope = {"orig": orig.func if cached else orig}
    exec(source, scope)
    mutant = scope["mutant"]
    if cached:
        mutant = cached_property(mutant)
        mutant.__set_name__(FinSpace, attr)
    setattr(FinSpace, attr, mutant)
else:
    scope = {"orig": getattr(K, name)}
    exec(source, scope)
    setattr(K, name, scope["mutant"])
try:
    out = [r.to_json() for r in run_all(None, VerifyOptions(max_n=3))]
except SpaceError as exc:
    out = type(exc).__name__
print(json.dumps(out))
"""

# name -> (kernel or ``FinSpace.<method or cached property>`` replaced,
# source of ``mutant``, the failing properties in registry order, or the
# SpaceError subclass the sweep raises)
MUTANTS = {
    "matrix counts points, not classes": (
        "images",
        "def mutant(masks, ids):\n"
        "    return masks\n",
        # a subspace takes its basic sets from the images, which then keep
        # the point bits of the whole space, past the kept points (so does
        # the quotient, past the number of classes)
        "SpaceError",
    ),
    "images add id 0": (
        "images",
        "def mutant(masks, ids):\n"
        "    return tuple(m | 1 for m in orig(masks, ids))\n",
        # a subspace's first point joins every basic set, which then fails
        # to nest that point's own
        "BasisNotNestedError",
    ),
    "matrix transposed": (
        "further_matrix",
        "def mutant(cls_open):\n"
        "    n = len(cls_open)\n"
        "    flat = orig(cls_open)\n"
        "    return tuple(flat[y * n + x] for x in range(n) for y in range(n))\n",
        (
            "zero-characterization", "oracle-equivalence", "chain-witness",
            "zero-count-bound", "extreme-points", "matrix-report-flags", "product-formula",
            "product-nfold", "ball-radius-one", "forward-ball-topology",
            "backward-ball-topology", "point-set-closure", "radius-zero-interior",
            "center-in-interior",
        ),
    ),
    "point_to_set takes the max": (
        "point_to_set",
        "import math\n"
        "def mutant(n, flat, x, target):\n"
        "    if not target:\n"
        "        return math.inf\n"
        "    return max(flat[x * n + t] for t in range(n) if (target >> t) & 1)\n",
        # set_to_set reads point_to_set, so separation-obstruction's
        # comparison with furtherness_to_set sees it too
        (
            "separation-obstruction", "radius-clopen", "union-pairs", "union-random",
            "union-triples", "quasi-ball-identity",
        ),
    ),
    "center takes the nearest point": (
        "center_radius",
        "def mutant(n, flat, a, target):\n"
        "    if not a or not target:\n"
        "        return orig(n, flat, a, target)\n"
        "    near = {x: orig(n, flat, 1 << x, target)[1] for x in range(n) if a >> x & 1}\n"
        "    best = min(near.values())\n"
        "    return sum(1 << x for x, v in near.items() if v == best), best\n",
        ("radius-clopen", "union-random", "union-triples", "quasi-ball-identity"),
    ),
    "set_to_set takes the max": (
        "set_to_set",
        "import math\n"
        "def mutant(n, flat, a, b):\n"
        "    if not a or not b:\n"
        "        return math.inf\n"
        "    xs = [x for x in range(n) if a >> x & 1]\n"
        "    return max(flat[x * n + y] for x in xs for y in range(n) if b >> y & 1)\n",
        # the subset table's set rows take the min, so only the comparison
        # with furtherness_to_set sees it
        ("separation-obstruction",),
    ),
    "interior drops the last point": (
        "interior_mask",
        "def mutant(basis, a):\n"
        "    return orig(basis, a) & ~(1 << (len(basis) - 1))\n",
        ("interior-closure-duality", "radius-clopen", "union-pairs"),
    ),
    "closure loses bit 3": (
        "closure_mask",
        "def mutant(basis, a):\n"
        "    return orig(basis, a) & ~8\n",
        # union-random, on its 6-point samples, finds a part clopen
        "PreconditionViolatedError",
    ),
    "closure tests subset, not meet": (
        "closure_mask",
        "def mutant(basis, a):\n"
        "    out = 0\n"
        "    for y, m in enumerate(basis):\n"
        "        if not m & ~a:\n"
        "            out |= 1 << y\n"
        "    return out\n",
        # the opposite space's basis misses its own points
        "PointNotInOwnBasisError",
    ),
    "point_closures returns the basis": (
        "FinSpace.point_closures",
        "def mutant(self):\n"
        "    return self.basis\n",
        # the opposite space and the closure table are built from it
        (
            "opposite-involution", "minimal-rigidity", "backward-ball-topology",
            "symmetrized-smallest-join", "point-set-closure", "radius-zero-interior",
            "center-in-interior", "radius-clopen", "union-pairs",
        ),
    ),
    "class_ids merges every class": (
        "class_ids",
        "def mutant(basis):\n"
        "    return (0,) * len(basis)\n",
        # every space that is not T0 then has one class, so its matrix
        # is all zeros
        (
            "zero-characterization", "oracle-equivalence", "chain-witness", "extreme-points",
            "matrix-report-flags", "preserving-implies-continuous", "product-formula",
            "product-nfold", "ball-radius-one", "forward-ball-topology",
            "backward-ball-topology", "symmetrized-smallest-join", "separation-obstruction",
            "radius-zero-interior", "center-in-interior", "subspace-radius-monotone",
        ),
    ),
    "class_opens returns the basis": (
        "FinSpace.class_opens",
        "def mutant(self):\n"
        "    return self.basis\n",
        # the quotient of a space with twin points takes basic sets that
        # keep point bits past its classes, which its constructor refuses
        "SpaceError",
    ),
    "class_ids splits twins": (
        "FinSpace.class_ids",
        "def mutant(self):\n"
        "    return tuple(range(self.n))\n",
        # the quotient keeps twin points apart, so its specialization
        # order is no partial order and the Hasse diagram's covers refuse it
        "PreconditionViolatedError",
    ),
    "is_t0 is always true": (
        "FinSpace.is_t0",
        "def mutant(self):\n"
        "    return True\n",
        # a space with twin points is then its own quotient, and its
        # matrix counts points, not classes
        (
            "t0-criterion", "oracle-equivalence", "chain-witness", "cover-single-step",
            "matrix-report-flags", "quotient-preserves", "minimal-rigidity",
            "symmetrized-discrete-t0", "symmetrized-disconnected",
        ),
    ),
    "minimal_open returns the set itself": (
        "FinSpace.minimal_open",
        "def mutant(self, points):\n"
        "    return self.mask(points)\n",
        ("open-membership", "separation-obstruction"),
    ),
    "min_open returns the point's closure": (
        "FinSpace.min_open",
        "def mutant(self, point):\n"
        "    return self.point_closures[self.index(point)]\n",
        ("oracle-equivalence", "chain-witness"),
    ),
    "boundary returns the closure": (
        "FinSpace.boundary",
        "def mutant(self, points):\n"
        "    return self.closure(points)\n",
        ("interior-closure-duality",),
    ),
    "subspace reverses its labels": (
        "FinSpace.subspace",
        "def mutant(self, points):\n"
        "    sub = orig(self, points)\n"
        "    return type(sub)(sub.labels[::-1], sub.basis)\n",
        ("subspace-radius-monotone",),
    ),
    "members lists in reverse order": (
        "FinSpace.members",
        "def mutant(self, mask):\n"
        "    return orig(self, mask)[::-1]\n",
        ("subspace-radius-monotone",),
    ),
}


def _labels_named(witness):
    """The strings of a witness that name points: those in its lists, at
    any depth, and its ``point``."""
    out = [witness["point"]] if "point" in witness else []
    stack = [v for v in witness.values() if isinstance(v, list)]
    while stack:
        for item in stack.pop():
            if isinstance(item, list):
                stack.append(item)
            else:
                out.append(item)
    return out


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_registry_kills_kernel_mutant(mutant):
    name, source, killed = MUTANTS[mutant]
    src = str(Path(furtherness.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, name, source], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    out = json.loads(done.stdout)
    if isinstance(killed, str):
        assert out == killed
        return
    failing = [r for r in out if not r["passed"]]
    assert tuple(r["prop"] for r in failing) == killed
    for report in failing:
        if not PROPERTIES[report["prop"]].space:
            continue
        witness = dict(report["counterexample"])
        sp = document_to_space(witness.pop("space"))
        names = _labels_named(witness)
        assert set(names) <= set(sp.labels), (report["prop"], witness)
