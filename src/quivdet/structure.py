"""Socle, radical, top, projective covers, injective hulls, and the minimal
injective copresentation they induce.

On a finite acyclic quiver a copy of the simple S_x inside M is a vector of
M(x) killed by every arrow leaving x, so the socle is a vertexwise kernel
intersection; dually the radical is the vertexwise sum of incoming images.
Each is computed once as a family of canonical subspaces: reps.subrepresentation
turns it into soc(M) or rad(M), reps.quotient into top(M), and the injective
hull reads its block multiplicities from the socle directly.  The projective
cover is the dual of the injective hull of D M over the opposite quiver.
Hulls read the dual basis of the socle basis, which pins every matrix of the
copresentation for golden tests.  Their terms are BlockSums: a sum of
canonical P_x or I_x with its block layout, an offset table, built once per
kind, vertex tuple and field in the quiver's workspace.  Two writers build
every map between them: map_from_generators a map out of a projective sum
from its generator images, map_to_cogenerators a map into an injective sum
from each block's trivial-path row (Hom(N, I_x) = D N(x)).  The
copresentation differential reads the cokernel projection at the cokernel's
socle pivots, so it builds no hull of the cokernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import invariant
from .linalg import Mat, Subspace, from_columns, kernel_basis, column_space
from .quiver import _walk_paths, injective_at, projective_at
from .reps import (
    RepMorphism,
    Representation,
    block_diagonal_sum,
    dual_representation,
    quotient,
    quotient_representation,
    subrepresentation,
)


def _socle_subspaces(M: Representation) -> list[Subspace]:
    """soc(M)(x): the intersection of the kernels of all arrow maps leaving x
    (all of M(x) when none leaves x, the zero space when M(x) = 0)."""
    return [Subspace.zero(M.field, 0) if not d
            else reduce(Subspace.intersect, [kernel_basis(M.action[ai]) for ai in arrows])
            if arrows else Subspace.full(M.field, d)
            for d, arrows in zip(M.dims, M.quiver.arrows_from)]


def _radical_subspaces(M: Representation) -> list[Subspace]:
    """rad(M)(x): the sum of the images of all arrow maps into x."""
    return [reduce(Subspace.sum, [column_space(M.action[ai]) for ai in arrows],
                   Subspace.zero(M.field, d)) for d, arrows in zip(M.dims, M.quiver.arrows_into)]


def socle(M: Representation) -> tuple[Representation, RepMorphism]:
    """Largest semisimple subrepresentation, with its inclusion."""
    return subrepresentation(M, _socle_subspaces(M))


def socle_multiplicities(M: Representation) -> tuple[int, ...]:
    """Multiplicity of each simple S_x inside soc(M), indexed by vertex."""
    return tuple(s.dim for s in _socle_subspaces(M))


def radical(M: Representation) -> tuple[Representation, RepMorphism]:
    """rad(M), the subrepresentation of images of arrows, with its inclusion."""
    return subrepresentation(M, _radical_subspaces(M))


def top(M: Representation) -> tuple[Representation, RepMorphism]:
    """M / rad(M) in the canonical complement coordinates, with projection."""
    return quotient(M, _radical_subspaces(M))


def top_multiplicities(M: Representation) -> tuple[int, ...]:
    """Multiplicity of each simple S_x in top(M), indexed by vertex."""
    return tuple(s.ambient_dim - s.dim for s in _radical_subspaces(M))


@dataclass(frozen=True)
class BlockSum:
    """A direct sum of canonical indecomposables, one block per entry of
    block_vertices; block j occupies the coordinates offsets[zi][j] up to
    offsets[zi][j + 1] at vertex zi (each row ends with the total dimension)."""

    rep: Representation
    block_vertices: tuple[str, ...]
    offsets: tuple[tuple[int, ...], ...]


def _block_sum(q, field, vertices, kind, canonical) -> BlockSum:
    """Direct sum of canonical(q, x, field) over the given vertices, built
    once per kind ("P" or "I"), vertex tuple and field in q's workspace."""
    vertices = tuple(vertices)

    def build():
        rep, offsets = block_diagonal_sum([canonical(q, x, field) for x in vertices], q, field)
        return BlockSum(q.workspace.own(rep), vertices, offsets)

    return q.workspace.memo(q.workspace.block_sums, (kind, vertices, field), build)


def projective_block_sum(q, field, vertices) -> BlockSum:
    return _block_sum(q, field, vertices, "P", projective_at)


def injective_block_sum(q, field, vertices) -> BlockSum:
    return _block_sum(q, field, vertices, "I", injective_at)


def map_from_generators(ps: BlockSum, N: Representation, gens) -> RepMorphism:
    """The map out of the projective block sum ps into N that sends the
    trivial-path generator of block j to gens[j], a vector of N at its vertex.
    A path basis vector p goes to N(p) applied to it, and the path p' followed
    by the arrow a goes to N(a) N(p') applied to it."""
    q, field = N.quiver, N.field
    comps = [[] for _ in range(q.n_vertices)]  # columns per vertex
    for gv, x in zip(gens, ps.block_vertices):
        cols = _walk_paths(q.workspace.paths_from(q.vertex_index[x]), gv,
                           lambda done, arrows: N.action[arrows[-1]].apply(done[arrows[:-1]]))
        for yi, c in enumerate(cols):
            comps[yi].extend(c)
    return RepMorphism(ps.rep, N, tuple(from_columns(field, comps[i], N.dims[i])
                                        for i in range(q.n_vertices)))


def map_to_cogenerators(M: Representation, bs: BlockSum, funcs) -> RepMorphism:
    """The map from M into the injective block sum bs whose block j reads
    the functional funcs[j] on M at its vertex x as its trivial-path row.  At
    vertex y the row of the path p: y -> x is funcs[j] composed with M(p); for
    the arrow a followed by the path p' that is the row of p' times M(a)."""
    q, field = M.quiver, M.field
    comps = [[] for _ in range(q.n_vertices)]  # rows per vertex
    for fv, x in zip(funcs, bs.block_vertices):
        xi = q.vertex_index[x]
        rows = _walk_paths([q.workspace.paths_from(yi)[xi] for yi in range(q.n_vertices)], fv,
                           lambda done, arrows: M.action[arrows[0]].apply_row(done[arrows[1:]]))
        for yi, r in enumerate(rows):
            comps[yi].extend(r)
    return RepMorphism(M, bs.rep, tuple(Mat(field, len(rows), M.dims[yi], tuple(rows))
                                        for yi, rows in enumerate(comps)))


def _socle_cogenerators(M: Representation, row) -> tuple[BlockSum, list]:
    """I with the multiplicities of soc(M), and row(i, k) for each socle pivot k of M(i)."""
    socles = _socle_subspaces(M)
    vertices = [x for x, soc in zip(M.quiver.vertices, socles) for _ in range(soc.dim)]
    rows = [row(i, k) for i, soc in enumerate(socles) for k in soc.pivots]
    return injective_block_sum(M.quiver, M.field, vertices), rows


def projective_cover(M: Representation) -> tuple[BlockSum, RepMorphism]:
    """P = direct sum of P_x with the multiplicities of top(M), together with
    the cover epimorphism: the dual of the injective hull of D M over the
    opposite quiver, whose I_x dualizes to P_x.  Block j sends its generator
    to the hull's trivial-path row of block j, read as a vector of M.  The
    transposed hull is not written out: D I_x lists the paths of P_x
    reversed, which can reorder two paths of one length."""
    bs, hull = injective_hull(dual_representation(M))
    vi = M.quiver.vertex_index
    gens = [hull.comps[vi[x]].entries[bs.offsets[vi[x]][j]] for j, x in enumerate(bs.block_vertices)]
    ps = projective_block_sum(M.quiver, M.field, bs.block_vertices)
    cover = map_from_generators(ps, M, gens)
    invariant(cover.is_epi(), "projective cover failed to be surjective")
    return ps, cover


def injective_hull(M: Representation) -> tuple[BlockSum, RepMorphism]:
    """I = direct sum of I_x with the multiplicities of soc(M), together with
    the hull monomorphism, which reads the dual basis of the socle basis."""
    bs, units = _socle_cogenerators(M, lambda i, k: tuple(int(c == k) for c in range(M.dims[i])))
    hull = map_to_cogenerators(M, bs, units)
    invariant(hull.is_mono(), "injective hull failed to be injective")
    return bs, hull


@dataclass(frozen=True)
class InjCopresentation:
    """0 -> M -> I0 -> I1 -> 0 with explicit canonical blocks."""

    module: Representation
    i0: BlockSum
    i1: BlockSum
    differential: RepMorphism   # I0 -> I1
    hull: RepMorphism           # M -> I0
    rows: tuple                 # the differential's trivial-path row of each block of I1


def min_injective_copresentation(M: Representation) -> InjCopresentation:
    """Minimal injective copresentation.  The cokernel C of the hull is injective
    (hereditary), and the differential, the hull of C after the projection, reads
    the projection at the socle pivots of C; epi with dims I1 = dims C, it is exact."""
    i0, hull = injective_hull(M)
    images = [column_space(c) for c in hull.comps]
    C = quotient_representation(hull.codomain, images)
    proj = [s.complement_projection() for s in images]
    i1, rows = _socle_cogenerators(C, lambda i, k: proj[i].entries[k])
    invariant(i1.rep.dims == C.dims, "cokernel of a hull must be injective here")
    diff = map_to_cogenerators(i0.rep, i1, rows)
    invariant(diff.is_epi(), "copresentation differential is not surjective")
    return InjCopresentation(M, i0, i1, diff, hull, tuple(rows))
