"""Kernel backend selection.

The package ships two interchangeable kernel implementations: a compiled
Cython module (``_ckern``) and a pure-Python reference (``pure``).  By
default the compiled one is used when its build artifact imports, with a
silent fallback otherwise.  Set ``FURTHERNESS_KERNEL=pure`` or ``=c`` to
force a backend (forcing ``c`` without the build artifact raises).

The ten kernel functions are bound once, at import, so a call costs no
dispatch.  With the pure backend they are the ``pure`` functions
themselves.  The compiled kernels pack point sets into single machine
words, so they only handle spaces of at most 64 points; with the compiled
backend each bound function holds one branch that routes calls on larger
spaces to the pure version.
"""

from __future__ import annotations

import os

from . import pure

try:
    from . import _ckern  # type: ignore[attr-defined]
except ImportError:
    _ckern = None

_choice = os.environ.get("FURTHERNESS_KERNEL", "auto").strip().lower()
if _choice in ("", "auto"):
    _fast = _ckern if _ckern is not None else pure
elif _choice in ("c", "compiled", "ext"):
    if _ckern is None:
        raise ImportError(
            "FURTHERNESS_KERNEL requests the compiled kernels but "
            "furtherness._kernels._ckern is not built"
        )
    _fast = _ckern
elif _choice in ("pure", "python", "py"):
    _fast = pure
else:
    raise RuntimeError(f"unrecognized FURTHERNESS_KERNEL value: {_choice!r}")

backend: str = "pure" if _fast is pure else "c"

_WORD_BITS = 64


def _bind(name: str):
    """The kernel ``name`` of the live backend, bound once.

    Compiled kernels are wrapped in the single branch that sends calls on
    more than 64 points to the pure version.
    """
    slow = getattr(pure, name)
    if _fast is pure:
        return slow
    fast = getattr(_fast, name)

    def kernel(n, *args, **kwargs):
        if n > _WORD_BITS:
            return slow(n, *args, **kwargs)
        return fast(n, *args, **kwargs)

    kernel.__name__ = kernel.__qualname__ = name
    kernel.__doc__ = slow.__doc__
    return kernel


class_ids = _bind("class_ids")
further_matrix = _bind("further_matrix")
closure_mask = _bind("closure_mask")
interior_mask = _bind("interior_mask")
minimal_open_mask = _bind("minimal_open_mask")
point_to_set = _bind("point_to_set")
set_to_set = _bind("set_to_set")
center_radius = _bind("center_radius")
transitive_closure = _bind("transitive_closure")
enumerate_bases = _bind("enumerate_bases")
