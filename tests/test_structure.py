"""Socle, radical, top, covers, hulls, and the minimal injective copresentation."""

import pytest

import quivdet as qd
from quivdet.linalg import RATIONALS, Subspace, column_space
from quivdet.structure import (
    injective_block_sum,
    projective_block_sum,
    socle_multiplicities,
    top_multiplicities,
)

from conftest import A3_TEXT

F = RATIONALS


def test_socle_examples(a3, golden_f):
    S, incl = qd.socle(qd.projective_at(a3, "3"))
    assert S.dims == (1, 0, 0)
    assert incl.is_mono()
    S2 = qd.simple_at(a3, "2")
    assert qd.socle(S2)[0].dims == S2.dims
    C, _ = qd.cokernel(golden_f)
    assert socle_multiplicities(C) == (0, 0, 1)


def test_radical_and_top_examples(a3):
    P2 = qd.projective_at(a3, "2")
    R, _ = qd.radical(P2)
    assert qd.is_isomorphic(R, qd.projective_at(a3, "1"))
    for x in a3.vertices:
        i = a3.vertex_index[x]
        t = top_multiplicities(qd.projective_at(a3, x))
        assert t == tuple(1 if j == i else 0 for j in range(3))
    semis, _, _ = qd.direct_sum([qd.simple_at(a3, "1"), qd.simple_at(a3, "3")])
    assert qd.radical(semis)[0].is_zero()


def test_projective_cover_examples(a3):
    ps, cover = qd.projective_cover(qd.simple_at(a3, "3"))
    assert ps.block_vertices == ("3",)
    assert cover.is_epi()
    P2 = qd.projective_at(a3, "2")
    ps2, cover2 = qd.projective_cover(P2)
    assert ps2.block_vertices == ("2",) and cover2.is_iso()
    # top of the cover is the top of the module
    assert top_multiplicities(ps.rep) == top_multiplicities(qd.simple_at(a3, "3"))


def test_injective_hull_examples(a3):
    bs, hull = qd.injective_hull(qd.projective_at(a3, "1"))
    assert bs.block_vertices == ("1",)
    assert hull.is_mono()
    assert qd.is_isomorphic(bs.rep, qd.projective_at(a3, "3"))   # I_1 = P_3 here
    assert socle_multiplicities(bs.rep) == socle_multiplicities(qd.projective_at(a3, "1"))


def test_min_injective_copresentation_of_p1(a3):
    cop = qd.min_injective_copresentation(qd.projective_at(a3, "1"))
    assert cop.i0.block_vertices == ("1",)
    assert cop.i1.block_vertices == ("2",)
    assert cop.hull.is_mono()
    assert cop.differential.is_epi()


def test_socle_is_essential(a3_registry):
    # every vector generates a subrepresentation meeting the socle
    for entry in a3_registry.entries:
        M = entry.rep
        soc, soc_incl = qd.socle(M)
        soc_subs = [column_space(c) for c in soc_incl.comps]
        for i in range(M.quiver.n_vertices):
            for k in range(M.dims[i]):
                v = tuple(F.one if j == k else F.zero for j in range(M.dims[i]))
                # close v under the arrow actions
                spans = [Subspace.zero(F, d) for d in M.dims]
                spans[i] = Subspace.from_vectors(F, M.dims[i], [v])
                changed = True
                while changed:
                    changed = False
                    for ai, a in enumerate(M.quiver.arrows):
                        si = M.quiver.vertex_index[a.source]
                        ti = M.quiver.vertex_index[a.target]
                        img = [M.action[ai].apply(w) for w in spans[si].basis]
                        new = spans[ti].sum(Subspace.from_vectors(F, M.dims[ti], img))
                        if new.dim != spans[ti].dim:
                            spans[ti] = new
                            changed = True
                meets = any(
                    spans[j].intersect(soc_subs[j]).dim > 0
                    for j in range(M.quiver.n_vertices))
                assert meets


def test_cover_of_direct_sum(a3):
    M, _, _ = qd.direct_sum([qd.simple_at(a3, "2"), qd.simple_at(a3, "2")])
    ps, cover = qd.projective_cover(M)
    assert ps.block_vertices == ("2", "2")
    assert cover.is_epi()


def test_cover_where_reversing_paths_reorders_them():
    # 1 => 2 => 3: D I_1 over the opposite quiver lists the four paths
    # 1 -> 3 in another order than P_1, so the cover cannot be the
    # transposed hull; it is written from generators into P_1's own basis
    q = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\n"
                        "arrow a 1 2\narrow b 1 2\narrow c 2 3\narrow d 2 3")
    assert qd.dual_representation(qd.injective_at(q.opposite, "1")) != qd.projective_at(q, "1")
    for x in q.vertices:
        for M in (qd.simple_at(q, x), qd.injective_at(q, x),
                  qd.direct_sum([qd.simple_at(q, x), qd.injective_at(q, x)])[0]):
            ps, cover = qd.projective_cover(M)
            assert ps == projective_block_sum(q, F, ps.block_vertices)
            assert cover.is_epi() and qd.right_minimal_version(cover).already_minimal
            assert top_multiplicities(ps.rep) == top_multiplicities(M)


def test_covers_and_hulls_are_minimal(a3_registry):
    # covers are right minimal epimorphisms and hulls dualize to covers
    for entry in a3_registry.entries:
        _, cover = qd.projective_cover(entry.rep)
        assert qd.right_minimal_version(cover).already_minimal
        M2, _, _ = qd.direct_sum([entry.rep, entry.rep])
        _, cover2 = qd.projective_cover(M2)
        assert qd.right_minimal_version(cover2).already_minimal


@pytest.mark.parametrize("text, vertices", [
    (A3_TEXT, ("2", "1", "2", "3", "2")),
    (A3_TEXT, ()),
    ("vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c",
     ("c", "1", "c", "3", "1")),
    ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
     "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3",
     ("3", "1", "3", "6", "4", "3")),
    ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", ("1", "2", "1", "1")),
], ids=["a3", "a3-empty", "d4", "e6", "kronecker"])
def test_block_sum_offsets_match_direct_sum(text, vertices):
    # direct_sum is the reference: the same sum, and block j starts at vertex
    # zi where the j-th projection takes its identity rows from
    q = qd.parse_quiver(text)
    for builder, canonical in ((projective_block_sum, qd.projective_at),
                               (injective_block_sum, qd.injective_at)):
        bs = builder(q, F, vertices)
        total, _, projs = qd.direct_sum([canonical(q, x, F) for x in vertices], q=q, field=F)
        assert bs.rep == total and bs.block_vertices == vertices
        assert len(bs.offsets) == q.n_vertices
        for zi, cut in enumerate(bs.offsets):
            assert len(cut) == len(vertices) + 1 and list(cut) == sorted(cut)
            assert cut[0] == 0 and cut[-1] == total.dims[zi]
            eye = qd.Mat.identity(F, total.dims[zi]).entries
            for j, proj in enumerate(projs):
                assert proj.comps[zi].entries == eye[cut[j]:cut[j + 1]]
