"""Exception hierarchy.

Every structural failure raises a subclass of ``SpaceError`` carrying enough
context to name a witness (the offending pair of sets, the point without its
own neighborhood, and so on), so callers and the CLI can report exactly what
broke instead of a bare "invalid input".
"""

from __future__ import annotations

import copyreg


class SpaceError(ValueError):
    """Base class for all structural errors raised by this package."""

    def __reduce__(self):
        # rebuilt from the message and the fields, not through ``__init__``,
        # whose parameters differ by subclass, so that an error pickled by a
        # verifier worker can be unpickled by its parent
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DuplicateLabelError(SpaceError):
    """A label given twice, or, with ``joined`` and ``separator``, the label
    that two tuples of member labels both join to."""

    def __init__(self, label: str, joined: tuple = (), separator: str = ""):
        self.label = label
        message = f"duplicate point label {label!r}"
        if joined:
            a, b = joined
            message += f": {a!r} and {b!r} both join to it with {separator!r}"
        super().__init__(message)


class MissingEmptyOrFullError(SpaceError):
    def __init__(self, missing: str):
        self.missing = missing
        super().__init__(f"open family must contain the {missing} set")


class NotClosedUnderUnionError(SpaceError):
    """The family misses the union of two of its members."""

    def __init__(self, witness: tuple[tuple[str, ...], tuple[str, ...]]):
        self.witness = witness
        a, b = witness
        super().__init__(
            "family is not closed under union: "
            f"{{{','.join(a)}}} | {{{','.join(b)}}} is missing"
        )


class NotClosedUnderIntersectionError(SpaceError):
    def __init__(self, witness: tuple[tuple[str, ...], tuple[str, ...]]):
        self.witness = witness
        a, b = witness
        super().__init__(
            "family is not closed under intersection: "
            f"{{{','.join(a)}}} & {{{','.join(b)}}} is missing"
        )


class PointNotInOwnBasisError(SpaceError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"point {label!r} is missing from its own basic open set")


class BasisNotNestedError(SpaceError):
    """basis[y] must be contained in basis[x] whenever y lies in basis[x]."""

    def __init__(self, outer: str, inner: str):
        self.outer = outer
        self.inner = inner
        super().__init__(
            f"basic open set of {inner!r} is not contained in the one of "
            f"{outer!r} although {inner!r} belongs to it"
        )


class UnknownLabelError(SpaceError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown point label {label!r}")


class UnknownPropertyError(SpaceError, KeyError):
    """A name that is not in the verifier's registry; a ``KeyError`` too,
    as a lookup in the registry would raise."""

    def __init__(self, name: str, known=()):
        self.name = name
        message = f"unknown property {name!r}"
        if known:
            message += f"; known: {', '.join(sorted(known))}"
        super().__init__(message)

    # KeyError would print the message quoted, as a key
    __str__ = SpaceError.__str__


class EmptyInputError(SpaceError):
    def __init__(self, what: str = "input set"):
        super().__init__(f"{what} must be nonempty")


class ZeroRadiusError(SpaceError):
    def __init__(self):
        super().__init__("ball radius must be a positive integer")


class EmptyOrFullSubsetError(SpaceError):
    def __init__(self, what: str = "subset"):
        super().__init__(f"{what} must be a proper nonempty subset")


class PreconditionViolatedError(SpaceError):
    """A theorem-backed operation was called outside its hypotheses."""


class SizeTooLargeError(SpaceError):
    """An operation whose cost grows exponentially got too large an input.

    ``n`` is the size of the input and ``limit`` the largest size accepted,
    both counted in ``unit``; with ``at_least`` set, ``n`` is only a lower
    bound, from a count that stopped early.
    """

    def __init__(
        self,
        n: int,
        limit: int,
        what: str = "enumeration",
        unit: str = "points",
        at_least: bool = False,
    ):
        self.n = n
        self.limit = limit
        got = f"at least {n}" if at_least else str(n)
        super().__init__(f"{what} supports at most {limit} {unit}, got {got}")


class SchemaError(SpaceError):
    """A space document is well-formed JSON but structurally wrong."""


class DocumentSyntaxError(SpaceError):
    """A space document is not even valid JSON."""
