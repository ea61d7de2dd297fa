"""Quiver parsing, path enumeration, and the canonical representations."""

import pytest

import quivdet as qd
from quivdet.errors import (
    CycleDetectedError,
    DanglingEndpointError,
    DuplicateNameError,
    QuiverSyntaxError,
)

from conftest import A3_TEXT, d4_subspace_quiver, linear_quiver


def test_parse_a3(a3):
    assert a3.vertices == ("1", "2", "3")
    assert [a.name for a in a3.arrows] == ["a", "b"]
    assert a3.arrows[0].source == "2" and a3.arrows[0].target == "1"


def test_parse_empty():
    q = qd.parse_quiver("# nothing here\n")
    assert q.vertices == () and q.arrows == ()


def test_empty_quiver_pipeline():
    # the zero-object category: everything degenerates gracefully
    from quivdet.determiner import DeterminerEngine
    q = qd.parse_quiver("")
    reg = qd.knit(q)
    assert reg.entries == [] and reg.complete
    z = qd.zero_representation(q, qd.RATIONALS)
    rep = DeterminerEngine(reg).report(qd.zero_morphism(z, z), verify=True)
    assert rep.labels == () and rep.split_epimorphism
    assert qd.classify_underlying_graph(q) == ("dynkin", ())


def test_parse_loop_rejected():
    with pytest.raises(CycleDetectedError) as e:
        qd.parse_quiver("vertex 1\narrow a 1 1")
    assert e.value.line == 2


def test_parse_cycle_rejected():
    with pytest.raises(CycleDetectedError) as e:
        qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 2 1")
    assert e.value.line == 4


def test_parse_long_cycle_line_number():
    with pytest.raises(CycleDetectedError) as e:
        qd.parse_quiver(
            "vertex 1\nvertex 2\nvertex 3\n"
            "arrow a 1 2\narrow b 2 3\narrow c 3 1")
    assert e.value.line == 6


def test_direct_construction_rejects_cycles():
    from quivdet.quiver import ArrowDecl, Quiver
    with pytest.raises(CycleDetectedError):
        Quiver(("1", "2"), (ArrowDecl("a", "1", "2"), ArrowDecl("b", "2", "1")))


def test_direct_construction_checks_names_and_endpoints():
    # parse_quiver rejects such input before it builds a Quiver
    from quivdet.quiver import ArrowDecl, Quiver
    with pytest.raises(DuplicateNameError, match="duplicate vertex name '1'"):
        Quiver(("1", "2", "1"), ())
    with pytest.raises(DuplicateNameError, match="duplicate arrow name 'a'"):
        Quiver(("1", "2"), (ArrowDecl("a", "1", "2"), ArrowDecl("a", "2", "1")))
    with pytest.raises(DanglingEndpointError, match="starts at unknown vertex '9'"):
        Quiver(("1", "2"), (ArrowDecl("a", "9", "2"),))
    with pytest.raises(DanglingEndpointError, match="ends at unknown vertex '9'"):
        Quiver(("1", "2"), (ArrowDecl("a", "1", "9"),))


def test_parse_duplicate_vertex():
    with pytest.raises(DuplicateNameError) as e:
        qd.parse_quiver("vertex 1\nvertex 1")
    assert e.value.line == 2


def test_parse_dangling_endpoint():
    with pytest.raises(DanglingEndpointError) as e:
        qd.parse_quiver("vertex 1\narrow a 1 9")
    assert e.value.line == 2


def test_parse_syntax_error_with_line():
    with pytest.raises(QuiverSyntaxError) as e:
        qd.parse_quiver("vertex 1\nfrob 1 2")
    assert e.value.line == 2


# a malformed line for each parse error that the tests above do not raise,
# after one good line, so each error names line 2
PARSE_ERRORS = [
    ("vertex 1\nvertex 2 3", QuiverSyntaxError, "expected 'vertex <name>'"),
    ("vertex 1\narrow a 1", QuiverSyntaxError, "expected 'arrow <name> <source> <target>'"),
    ("vertex 1\nvertex 2\narrow a 1 2\narrow a 2 1", DuplicateNameError, "duplicate arrow name 'a'"),
    ("vertex 1\narrow a 9 1", DanglingEndpointError, "starts at unknown vertex '9'"),
]


@pytest.mark.parametrize("text, error, message", PARSE_ERRORS,
                         ids=["vertex-arity", "arrow-arity", "duplicate-arrow", "unknown-source"])
def test_parse_errors_name_their_line(text, error, message):
    with pytest.raises(error, match=message) as e:
        qd.parse_quiver(text)
    assert e.value.line == len(text.splitlines())


def test_paths_a3(a3):
    ps = qd.paths_between(a3, "3", "1")
    assert len(ps) == 1
    assert ps[0].arrows == (a3.arrow_index["b"], a3.arrow_index["a"])
    assert qd.paths_between(a3, "1", "3") == []
    triv = qd.paths_between(a3, "2", "2")
    assert len(triv) == 1 and len(triv[0]) == 0


def test_paths_unknown_vertex(a3):
    with pytest.raises(KeyError):
        qd.paths_between(a3, "9", "1")


def test_paths_deterministic_order():
    # two parallel routes 1 -> 3; enumeration is by length then arrow index
    q = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex 3\n"
        "arrow u 1 3\narrow v 1 2\narrow w 2 3")
    ps = qd.paths_between(q, "1", "3")
    assert [p.arrows for p in ps] == [
        (q.arrow_index["u"],),
        (q.arrow_index["v"], q.arrow_index["w"]),
    ]


def test_long_linear_quiver_paths_without_recursion():
    q = linear_quiver(1200, (1,) * 1199)
    assert qd.projective_at(q, "1").dims == (1,) * 1200
    ps = qd.paths_between(q, "1", "1200")
    assert len(ps) == 1 and len(ps[0]) == 1199


def test_no_module_level_containers():
    # memo tables belong to a quiver's workspace, never to a module
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(qd.__path__):
        module = importlib.import_module(f"quivdet.{info.name}")
        held = [name for name, value in vars(module).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))]
        assert held == [], f"quivdet.{info.name} holds {held}"


def test_workspace_lookup_hashes_representations_once(monkeypatch):
    # a representation hashes its fields once; a repeated workspace lookup
    # must not walk the action matrices and their entries again
    from fractions import Fraction

    from quivdet.linalg import Mat

    q = qd.parse_quiver(A3_TEXT)
    M, N = qd.projective_at(q, "2"), qd.injective_at(q, "2")
    first = q.workspace.hom(M, N)
    calls = []
    for cls in (Mat, Fraction):
        def counting(self, real=cls.__hash__, name=cls.__name__):
            calls.append(name)
            return real(self)
        monkeypatch.setattr(cls, "__hash__", counting)
    assert q.workspace.hom(M, N) is first
    assert calls == []


def test_canonical_dim_vectors(a3):
    assert [qd.projective_at(a3, x).dims for x in a3.vertices] == \
        [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert qd.injective_at(a3, "2").dims == (0, 1, 1)
    assert qd.injective_at(a3, "3").dims == (0, 0, 1)
    assert qd.injective_at(a3, "1").dims == (1, 1, 1)
    assert qd.simple_at(a3, "2").dims == (0, 1, 0)


def test_isolated_vertex_simple_is_projective_and_injective():
    q = qd.parse_quiver("vertex x")
    s = qd.simple_at(q, "x")
    assert qd.is_isomorphic(s, qd.projective_at(q, "x"))
    assert qd.is_isomorphic(s, qd.injective_at(q, "x"))


def test_i1_isomorphic_p3(a3):
    assert qd.is_isomorphic(qd.injective_at(a3, "1"), qd.projective_at(a3, "3"))


@pytest.mark.parametrize("maker", [
    lambda: qd.parse_quiver(A3_TEXT),
    lambda: linear_quiver(4, (1, 0, 1)),
    lambda: d4_subspace_quiver(),
])
def test_hom_between_projectives_counts_paths(maker):
    q = maker()
    for x in q.vertices:
        for y in q.vertices:
            expected = len(qd.paths_between(q, y, x))
            hs = qd.hom_basis(qd.projective_at(q, x), qd.projective_at(q, y))
            assert hs.dim == expected


def test_projective_top_and_injective_socle(a3):
    from quivdet.structure import socle_multiplicities, top_multiplicities
    for i, x in enumerate(a3.vertices):
        t = top_multiplicities(qd.projective_at(a3, x))
        assert t == tuple(1 if j == i else 0 for j in range(3))
        s = socle_multiplicities(qd.injective_at(a3, x))
        assert s == tuple(1 if j == i else 0 for j in range(3))


def test_topological_order_exists(a3):
    order = a3.topological_order
    pos = {v: k for k, v in enumerate(order)}
    for arr in a3.arrows:
        assert pos[a3.vertex_index[arr.source]] < pos[a3.vertex_index[arr.target]]
