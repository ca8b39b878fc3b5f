import pytest

from furtherness import (
    FinSpace,
    SizeTooLargeError,
    SpaceError,
    enumerate_topologies,
    export_dot,
)
from furtherness.dot import LATTICE_OPEN_LIMIT
from furtherness.spaces import _open_sets
from oracles import brute_lattice_edges, family_from_basis

E1_HASSE = """digraph hasse {
  rankdir=BT;
  node [shape=box];
  "{1,2}";
  "{3}";
  "{1,2}" -> "{3}";
}
"""


def test_e1_hasse_exact(e1):
    assert export_dot(e1, "hasse") == E1_HASSE


def test_e2_lattice_nodes_and_edges(e2):
    text = export_dot(e2, "lattice")
    lines = text.splitlines()
    nodes = [ln for ln in lines if ln.strip().endswith('";') and "->" not in ln]
    assert len(nodes) == 7
    assert '  "{a}" -> "{a,b}";' in lines
    assert '  "{a}" -> "{a,d}";' in lines
    assert '  "{}" -> "{a}";' in lines
    assert '  "{a,b,d}" -> "{a,b,c,d}";' in lines
    # transitive edges never appear
    assert '"{a}" -> "{a,b,d}";' not in text


def test_one_point_hasse():
    sp = FinSpace(("x",), (1,))
    text = export_dot(sp, "hasse")
    assert '"{x}";' in text
    assert "->" not in text


def test_byte_stable(e1, e2):
    for sp in (e1, e2):
        for mode in ("hasse", "lattice"):
            assert export_dot(sp, mode) == export_dot(sp, mode)


def test_hasse_uses_quotient_classes(e1):
    text = export_dot(e1, "hasse")
    assert '"{1,2}"' in text  # glued points render as one node


def test_hasse_names_classes_by_member_labels():
    # a "|" inside a label stays in it; the quotient joins members with "|"
    head = "digraph hasse {\n  rankdir=BT;\n  node [shape=box];\n"
    assert export_dot(FinSpace(("x|y",), (1,)), "hasse") == head + '  "{x|y}";\n}\n'
    glued = FinSpace(("a|b", "c"), (0b11, 0b11))
    assert export_dot(glued, "hasse") == head + '  "{a|b,c}";\n}\n'


def test_lattice_singleton_space():
    sp = FinSpace(("x",), (1,))
    text = export_dot(sp, "lattice")
    assert '"{}"' in text and '"{x}"' in text
    assert '  "{}" -> "{x}";' in text


def _set_of(name):
    return frozenset(filter(None, name.strip('"{}').split(",")))


def test_lattice_edges_against_brute_force():
    for n in range(1, 5):
        for sp in enumerate_topologies(n):
            family = family_from_basis(sp.labels, [frozenset(sp.members(m)) for m in sp.basis])
            lines = export_dot(sp, "lattice").splitlines()
            edges = [
                tuple(_set_of(name) for name in ln.strip().rstrip(";").split(" -> "))
                for ln in lines
                if "->" in ln
            ]
            assert len(edges) == len(set(edges))
            assert set(edges) == brute_lattice_edges(family)
            assert len(lines) - len(edges) - 4 == len(family)


def test_unknown_mode_is_space_error(e1):
    with pytest.raises(SpaceError, match="unknown dot mode 'tree'"):
        export_dot(e1, "tree")


def test_lattice_open_limit_is_inclusive():
    # the discrete space on ten points has exactly the limit of opens
    assert LATTICE_OPEN_LIMIT == 1 << 10
    ten = FinSpace.discrete([str(i) for i in range(10)])
    assert export_dot(ten, "lattice").startswith("digraph lattice {")
    eleven = FinSpace.discrete([str(i) for i in range(11)])
    with pytest.raises(SizeTooLargeError, match="at most 1024 opens, got at least 1025"):
        export_dot(eleven, "lattice")
    # the Hasse diagram has no such cap
    assert export_dot(eleven, "hasse").startswith("digraph hasse {")


def test_lattice_refuses_before_building_the_family():
    # 2**30 opens: the refusal must come from a count that stops early
    sp = FinSpace.discrete([f"p{i}" for i in range(30)])
    with pytest.raises(SizeTooLargeError, match="got at least 1025"):
        export_dot(sp, "lattice")
    assert "open_family" not in sp.__dict__


def test_open_search_stops_early():
    basis = FinSpace.discrete([str(i) for i in range(12)]).basis
    assert _open_sets(basis) == set(range(1 << 12))
    assert len(_open_sets(basis, stop=1025)) == 1025
    # a stop above the family's size changes nothing
    assert _open_sets(basis, stop=5000) == _open_sets(basis)
