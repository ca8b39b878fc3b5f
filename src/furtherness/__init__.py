"""Finite topological spaces and their asymmetric furtherness distance.

A finite space is carried by the minimal open set of each point; every
other topological notion (opens, closure, interior, the distance matrix,
balls, regions, quotients, products) derives from that basis.  The
``verify`` module re-derives the library's theorems over exhaustively
enumerated small spaces; the ``furtherness`` console script exposes the
same machinery on space documents.
"""

from .balls import (
    ball,
    ball_topology,
    generated_topology,
    symmetrized_ball,
    symmetrized_furtherness,
    symmetrized_topology,
)
from .distance import (
    FurtherMatrix,
    MatrixReport,
    furtherness,
    furtherness_matrix,
    furtherness_to_set,
    matrix_report,
    point_to_set,
)
from .dot import export_dot
from .errors import (
    BasisNotNestedError,
    DocumentSyntaxError,
    DuplicateLabelError,
    EmptyInputError,
    EmptyOrFullSubsetError,
    MissingEmptyOrFullError,
    NotClosedUnderIntersectionError,
    NotClosedUnderUnionError,
    PointNotInOwnBasisError,
    PreconditionViolatedError,
    SchemaError,
    SizeTooLargeError,
    SpaceError,
    UnknownLabelError,
    UnknownPropertyError,
    ZeroRadiusError,
)
from .generate import (
    count_topologies,
    default_labels,
    enumerate_topologies,
    family_generated_bases,
    random_space,
)
from .oracle import (
    ChainWitness,
    cover_successors,
    furtherness_oracle,
    union_witness,
    witness_chains,
)
from .order import (
    Preorder,
    QuotientResult,
    SpaceMap,
    beat_points,
    core,
    identity_map,
    is_continuous,
    is_continuous_by_preimages,
    is_furtherness_preserving,
    is_minimal,
    kolmogorov_quotient,
    order_to_space,
    product,
    product_furtherness,
    product_furtherness_nfold,
    space_map,
    specialization_preorder,
)
from .regions import (
    BallEntry,
    QuasiReport,
    RegionReport,
    UnionAnalysis,
    are_separated,
    largest_forward_balls,
    quasi_report,
    region_report,
    union_analysis,
)
from .serialization import (
    document_to_space,
    parse_space,
    serialize_space,
    space_to_document,
)
from .spaces import FinSpace, OpenFamily, from_minimal_basis, from_open_sets, mask_indices
from .verify import VerifyOptions, VerifyReport, run_all, run_property

__version__ = "0.1.0"

# The kernels have one implementation, the pure-Python ``_kernels`` module;
# the name stays for tools that record which kernels ran.
kernel_backend = "pure"


def __getattr__(name):
    # PEP 562: reading the registry loads the theorem catalog, which no
    # other name needs (see ``verify``)
    if name == "PROPERTIES":
        from .verify import PROPERTIES

        return PROPERTIES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BallEntry",
    "BasisNotNestedError",
    "ChainWitness",
    "DocumentSyntaxError",
    "DuplicateLabelError",
    "EmptyInputError",
    "EmptyOrFullSubsetError",
    "FinSpace",
    "FurtherMatrix",
    "MatrixReport",
    "MissingEmptyOrFullError",
    "NotClosedUnderIntersectionError",
    "NotClosedUnderUnionError",
    "OpenFamily",
    "PROPERTIES",
    "PointNotInOwnBasisError",
    "Preorder",
    "PreconditionViolatedError",
    "QuasiReport",
    "QuotientResult",
    "RegionReport",
    "SchemaError",
    "SizeTooLargeError",
    "SpaceError",
    "SpaceMap",
    "UnionAnalysis",
    "UnknownLabelError",
    "UnknownPropertyError",
    "VerifyOptions",
    "VerifyReport",
    "ZeroRadiusError",
    "are_separated",
    "ball",
    "ball_topology",
    "beat_points",
    "core",
    "count_topologies",
    "cover_successors",
    "default_labels",
    "document_to_space",
    "enumerate_topologies",
    "export_dot",
    "family_generated_bases",
    "from_minimal_basis",
    "from_open_sets",
    "furtherness",
    "furtherness_matrix",
    "furtherness_oracle",
    "furtherness_to_set",
    "generated_topology",
    "identity_map",
    "is_continuous",
    "is_continuous_by_preimages",
    "is_furtherness_preserving",
    "is_minimal",
    "kernel_backend",
    "kolmogorov_quotient",
    "largest_forward_balls",
    "mask_indices",
    "matrix_report",
    "order_to_space",
    "parse_space",
    "point_to_set",
    "product",
    "product_furtherness",
    "product_furtherness_nfold",
    "quasi_report",
    "random_space",
    "region_report",
    "run_all",
    "run_property",
    "serialize_space",
    "space_map",
    "space_to_document",
    "specialization_preorder",
    "symmetrized_ball",
    "symmetrized_furtherness",
    "symmetrized_topology",
    "union_analysis",
    "union_witness",
    "witness_chains",
]
