"""Finite topological spaces and their asymmetric furtherness distance.

A finite space is carried by the minimal open set of each point; every
other topological notion (opens, closure, interior, the distance matrix,
balls, regions, quotients, products) derives from that basis.  The
``verify`` module holds every claim the library relies on and checks it
over exhaustively enumerated small spaces; the ``furtherness`` console
script exposes the same machinery on space documents.

Every library module is registered at ``import furtherness``: ``import
furtherness.regions`` and ``sys.modules`` see it at once, but its code is
compiled and run only when one of its attributes is first read, so a command
runs only the modules it uses, and the public names below are read from
their modules on demand (PEP 562).  That first read runs the module under one
lock, so another thread reading it meanwhile waits for the whole module.
One module is not registered: ``cli``, the entry point, which ``python -m``
must find unloaded.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# The kernels have one implementation, the pure-Python ``_kernels`` module;
# the name stays for tools that record which kernels ran.
kernel_backend = "pure"

_RUN = threading.RLock()  # held while a registered module's code runs
_running = set()  # names of the registered modules whose code is running


class _Unrun(types.ModuleType):
    """A registered module whose code has not run yet.

    The first attribute read runs the code while holding ``_RUN`` and then
    makes the module a plain one.  A read from another thread meanwhile
    waits for the whole run; the running thread's own reads, the import
    machinery's among them, see the module as it stands.
    """

    def __getattribute__(self, attr):
        get = types.ModuleType.__getattribute__
        with _RUN:
            name = get(self, "__name__")
            if type(self) is not types.ModuleType and name not in _running:
                _running.add(name)
                try:
                    get(self, "__spec__").loader.exec_module(self)
                finally:
                    _running.discard(name)
                self.__class__ = types.ModuleType
        return get(self, attr)


def _register(name):
    """Register the submodule ``name`` and bind it here; its code runs later.

    A module already registered is kept, so reloading the package leaves
    every class, and so every object made from one, as it was.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        module = importlib.util.module_from_spec(importlib.util.find_spec(fullname))
        module.__class__ = _Unrun
        sys.modules[fullname] = module
    globals()[name] = module


# module -> the public names read from it
_PUBLIC = {
    "balls": (
        "ball", "ball_topology", "generated_topology", "symmetrized_ball",
        "symmetrized_furtherness", "symmetrized_topology",
    ),
    "distance": (
        "FurtherMatrix", "MatrixReport", "furtherness", "furtherness_matrix",
        "furtherness_to_set", "matrix_report", "point_to_set",
    ),
    "dot": ("export_dot",),
    "errors": (
        "BasisNotNestedError", "DocumentSyntaxError", "DuplicateLabelError",
        "EmptyInputError", "EmptyOrFullSubsetError", "MissingEmptyOrFullError",
        "NotClosedUnderIntersectionError", "NotClosedUnderUnionError",
        "PointNotInOwnBasisError", "PreconditionViolatedError", "SchemaError",
        "SizeTooLargeError", "SpaceError", "UnknownLabelError", "UnknownPropertyError",
        "ZeroRadiusError",
    ),
    "generate": (
        "count_topologies", "default_labels", "enumerate_topologies",
        "family_generated_bases", "random_space",
    ),
    "oracle": (
        "ChainWitness", "cover_successors", "furtherness_oracle", "union_witness",
        "witness_chains",
    ),
    "order": (
        "Preorder", "QuotientResult", "SpaceMap", "beat_points", "core", "identity_map",
        "is_continuous", "is_continuous_by_preimages", "is_furtherness_preserving",
        "is_minimal", "kolmogorov_quotient", "order_to_space", "product",
        "product_furtherness", "product_furtherness_nfold", "space_map",
        "specialization_preorder",
    ),
    "regions": (
        "BallEntry", "QuasiReport", "RegionReport", "UnionAnalysis", "are_separated",
        "largest_forward_balls", "quasi_report", "region_report", "union_analysis",
    ),
    "serialization": (
        "document_to_space", "parse_space", "serialize_space", "space_to_document",
    ),
    "spaces": ("FinSpace", "OpenFamily", "from_minimal_basis", "from_open_sets", "mask_indices"),
    # reading any of these runs verify and its theorem catalog; no other
    # name runs them
    "verify": ("PROPERTIES", "VerifyOptions", "VerifyReport", "run_all", "run_property"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

for _name in ("_kernels", *_PUBLIC):
    _register(_name)
del _name

__all__ = sorted([*_HOME, "kernel_backend"])


def __getattr__(name):
    # PEP 562: a public name is read from its module, which loads the module
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
