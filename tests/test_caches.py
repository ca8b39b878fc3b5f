"""Every ``functools.lru_cache`` of the package, with the bound that keeps
it small.  A new cache fails here until its bound is stated."""

import importlib
import pkgutil

import furtherness
from furtherness import regions as R
from furtherness.spaces import OPEN_FAMILY_LIMIT

# qualified name -> maxsize; None only where the key is a number of points
# that the public caller refuses past its cap (tests/test_generate.py)
BOUNDS = {
    # at most one space's open family
    "furtherness.oracle.cover_successors": OPEN_FAMILY_LIMIT,
    # every distinct distance row of the spaces on at most five points
    "furtherness.regions._p2s_row": R._P2S_ROWS,
    # keyed by (n, t0_only), n at most ENUMERATION_LIMIT
    "furtherness.generate._bases": None,
    # keyed by n, at most _FAMILY_LIMIT
    "furtherness.generate._family_scan": None,
}


def _lru_caches():
    """(qualified name, cache) of each cache defined in a module of the
    package, at module level or in a class."""
    for info in pkgutil.iter_modules(furtherness.__path__, "furtherness."):
        module = importlib.import_module(info.name)
        scopes = [vars(module)] + [
            vars(c) for c in vars(module).values() if isinstance(c, type)
        ]
        for scope in scopes:
            for value in scope.values():
                # a cache imported from another module is listed under that one
                if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                    yield f"{info.name}.{value.__qualname__}", value


def test_every_lru_cache_states_its_bound():
    caches = dict(_lru_caches())
    assert sorted(caches) == sorted(BOUNDS)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] == BOUNDS[name], name

