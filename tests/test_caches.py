"""Every ``functools.lru_cache`` of the package, with the bound that keeps
it small, and every lazily filled field, with its owner.  A new cache or
lazily filled field fails here until it is listed."""

import importlib
import pkgutil
from functools import cached_property

import furtherness
from furtherness import regions as R
from furtherness.spaces import OPEN_FAMILY_LIMIT

# qualified name -> maxsize; None only where the key is a number of points
# that the public caller refuses past its cap (tests/test_generate.py)
BOUNDS = {
    # at most one space's open family
    "furtherness.oracle._cover_successors": OPEN_FAMILY_LIMIT,
    # every distinct distance row of the spaces on at most five points
    "furtherness.regions._p2s_row": R._P2S_ROWS,
    # keyed by n, at most ENUMERATION_LIMIT
    "furtherness.generate._bases": None,
    # keyed by n, at most _FAMILY_LIMIT
    "furtherness.generate._family_scan": None,
}


# owner -> its ``functools.cached_property`` fields; every other record is
# built whole
LAZY_FIELDS = {
    "furtherness.spaces.FinSpace": {
        "_label_index",
        "open_family",
        "is_t0",
        "further_flat",
        "class_ids",
        "class_opens",
        "point_closures",
    },
    "furtherness.spaces.OpenFamily": {"_lookup"},
}


def _modules():
    for info in pkgutil.iter_modules(furtherness.__path__, "furtherness."):
        yield info.name, importlib.import_module(info.name)


def _lru_caches():
    """(qualified name, cache) of each cache defined in a module of the
    package, at module level or in a class."""
    for name, module in _modules():
        scopes = [vars(module)] + [
            vars(c) for c in vars(module).values() if isinstance(c, type)
        ]
        for scope in scopes:
            for value in scope.values():
                # a cache imported from another module is listed under that one
                if hasattr(value, "cache_parameters") and value.__module__ == name:
                    yield f"{name}.{value.__qualname__}", value


def test_every_lru_cache_states_its_bound():
    caches = dict(_lru_caches())
    assert sorted(caches) == sorted(BOUNDS)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] == BOUNDS[name], name



def test_every_lazily_filled_field_is_listed():
    found = {}
    for name, module in _modules():
        for owner in vars(module).values():
            # a class imported from another module is listed under that one
            if isinstance(owner, type) and owner.__module__ == name:
                fields = {
                    attr
                    for attr, value in vars(owner).items()
                    if isinstance(value, cached_property)
                }
                if fields:
                    found[f"{name}.{owner.__qualname__}"] = fields
    assert found == LAZY_FIELDS


def test_every_field_a_space_keeps_is_listed():
    # a per-space slot written straight into __dict__, as the subset table
    # is, escapes the census of cached properties above
    allowed = {"labels", "basis", "n", "full", "_subset_table"}
    allowed |= LAZY_FIELDS["furtherness.spaces.FinSpace"]
    checks = [prop.run for prop in furtherness.PROPERTIES.values() if prop.space]
    seen = set()
    for n in range(1, 4):
        for sp in furtherness.enumerate_topologies(n):
            for check in checks:
                check(sp)
            assert set(vars(sp)) <= allowed, sorted(set(vars(sp)) - allowed)
            seen |= set(vars(sp))
    assert "_subset_table" in seen
