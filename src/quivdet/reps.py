"""Representations of a quiver, their morphisms, and Hom-space computation.

A representation assigns a finite-dimensional space to each vertex and a
matrix to each arrow; a morphism is a family of vertex matrices making every
arrow square commute, checked exactly at construction time by
linalg.products_agree, which builds neither product.  Hom(M, N) is returned
with a canonical (RREF) ordered basis, so all downstream subspace
computations have stable coordinates.  hom_basis solves the commuting-square
system in one elimination, one unknown per entry of the vertex maps.  For a
presented M, generator_kernel solves the relation equations on the generator
images instead, one unknown per coordinate of N at each generator (Yoneda).
A map out of M is fixed by its generator images, so the solutions are
coordinates of Hom(M, N), which a HomSpace holds and writes out
(write_from_generators) only when read (see HomSpace); morphisms built from
caller input, from_coordinates included, keep their square check.
Composites with a fixed map are formed on the flat sparse basis rows, with
no matrix product; for a presented Z, _images_through sends the solutions
of Hom(Z, X) through f: X -> Y at the generator vertices.  Hom is additive
in each argument, so the Hom space of a direct sum that the workspace
records is never solved as a whole: a HomSpace of blocks places the
blocks' canonical rows and generator solutions at the sum's coordinates,
which keeps them canonical.  On Dynkin type dim Hom(M, N) =
max(0, <dim M, dim N>) between indecomposables (Ringel, LNM 1099), a
rule that Workspace.hom alone applies; it holds no zero space it gives.

Sub- and quotient representations by vertexwise subspaces each come from
one routine, subrepresentation and quotient_representation, which reads its
arrow actions off the residues of the columns of M(a) modulo the target
subspace; quotient adds the projection.  Kernels, images and cokernels (and
socles, radicals and tops in structure.py) are calls to them.  Direct sums
likewise come from block_diagonal_sum, which fixes the block layout;
direct_sum adds the injections and projections for callers that need them.
block_diagonal_sum records each sum of two or more nonzero summands in the
workspace.  dual_representation is the transpose over the opposite quiver
and records nothing.

The Workspace, the memo tables of one quiver object, lives here beside the
solvers it routes every Hom system to and the records they read; the quiver
module below it holds what needs only a quiver.  Its entries keyed by
request objects live for one request scope.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import InvariantError, SemanticError, invariant
from .linalg import (
    Field,
    Mat,
    Subspace,
    block_diag,
    from_columns,
    column_space,
    disjoint_span,
    int_rows,
    kernel_basis,
    kernel_of_rows,
    products_agree,
    same_field,
    span_of_rows,
)
from .quiver import (
    Path,
    Presentation,
    Quiver,
    _walk_paths,
    classify_underlying_graph,
    euler_form,
)


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    field: Field
    dims: tuple[int, ...]
    action: tuple[Mat, ...]

    def __post_init__(self):
        q = self.quiver
        if len(self.dims) != q.n_vertices or len(self.action) != len(q.arrows):
            raise SemanticError("dimension or action list does not match the quiver")
        for ai, (si, ti) in enumerate(q.arrow_ends):
            m = self.action[ai]
            same_field(self.field, m.field)
            if (m.rows, m.cols) != (self.dims[ti], self.dims[si]):
                raise SemanticError(
                    f"matrix for arrow {q.arrows[ai].name!r} has shape {m.rows}x{m.cols}, "
                    f"expected {self.dims[ti]}x{self.dims[si]}")

    @cached_property
    def _hash(self) -> int:
        return hash((self.quiver, self.field, self.dims, self.action))

    def __hash__(self):
        # representations key the workspace tables; the generated hash would
        # walk every action entry on each lookup
        return self._hash

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Rep{list(self.dims)}"


def zero_representation(q: Quiver, field: Field) -> Representation:
    dims = tuple(0 for _ in q.vertices)
    action = tuple(Mat.zero(field, 0, 0) for _ in q.arrows)
    return Representation(q, field, dims, action)


@dataclass(frozen=True)
class RepMorphism:
    domain: Representation
    codomain: Representation
    comps: tuple[Mat, ...]

    def __post_init__(self):
        M, N = self.domain, self.codomain
        if M.quiver is not N.quiver and M.quiver != N.quiver:
            raise SemanticError("morphism endpoints live over different quivers")
        if len(self.comps) != M.quiver.n_vertices:
            raise SemanticError("component list does not match the vertex count")
        field = same_field(M.field, N.field)
        for i, c in enumerate(self.comps):
            same_field(field, c.field)
            if (c.rows, c.cols) != (N.dims[i], M.dims[i]):
                raise SemanticError(
                    f"component at vertex {M.quiver.vertices[i]!r} has shape "
                    f"{c.rows}x{c.cols}, expected {N.dims[i]}x{M.dims[i]}")
        for ai, (si, ti) in enumerate(M.quiver.arrow_ends):
            # both sides are N(t) x M(s): an empty square commutes
            if N.dims[ti] and M.dims[si] and not products_agree(
                    N.action[ai], self.comps[si], self.comps[ti], M.action[ai]):
                raise SemanticError(f"square at arrow {M.quiver.arrows[ai].name!r} does not commute")

    @cached_property
    def _hash(self) -> int:
        return hash((self.domain, self.codomain, self.comps))

    def __hash__(self):
        # the request morphism keys workspace tables; see Representation
        return self._hash

    def __matmul__(self, other: "RepMorphism") -> "RepMorphism":
        """Composition self after other."""
        if other.codomain != self.domain:
            raise SemanticError("morphisms do not compose")
        return RepMorphism(other.domain, self.codomain,
                           tuple(a @ b for a, b in zip(self.comps, other.comps)))

    def __add__(self, other: "RepMorphism") -> "RepMorphism":
        if (other.domain, other.codomain) != (self.domain, self.codomain):
            raise SemanticError("morphism sum with mismatched endpoints")
        return RepMorphism(self.domain, self.codomain,
                           tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "RepMorphism") -> "RepMorphism":
        return self + other.scale(-1)

    def scale(self, c) -> "RepMorphism":
        return RepMorphism(self.domain, self.codomain, tuple(m.scale(c) for m in self.comps))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps)

    def is_mono(self) -> bool:
        # a component with no columns is injective, one with fewer rows not
        return all(not m.cols or (m.cols <= m.rows and m.rank() == m.cols) for m in self.comps)

    def is_epi(self) -> bool:
        return all(not m.rows or (m.rows <= m.cols and m.rank() == m.rows) for m in self.comps)

    def is_iso(self) -> bool:
        return self.domain.dims == self.codomain.dims and self.is_epi()

    def __repr__(self):
        return f"RepMorphism({self.domain!r} -> {self.codomain!r})"


def identity_morphism(M: Representation) -> RepMorphism:
    return RepMorphism(M, M, tuple(Mat.identity(M.field, d) for d in M.dims))


def zero_morphism(M: Representation, N: Representation) -> RepMorphism:
    return RepMorphism(M, N, tuple(Mat.zero(M.field, dn, dm) for dm, dn in zip(M.dims, N.dims)))


def _flat_offsets(M: Representation, N: Representation) -> list[int]:
    """Start of each vertex component in the row-major flattening of a map
    M -> N, followed by the flattened length."""
    return list(accumulate((dm * dn for dm, dn in zip(M.dims, N.dims)), initial=0))


def _square_rows(M: Representation, N: Representation, offsets) -> list[dict]:
    """The commuting-square equations N(a) f(s) - f(t) M(a) = 0 on flattened
    maps M -> N, at the flat offsets of maps M -> N, one per (row of N(t),
    column of M(s)) of each arrow a, as integer rows (see linalg.int_rows)
    read from the nonzero entries of N(a) and M(a)."""
    q = M.quiver
    rows = []
    for ai, (si, ti) in enumerate(q.arrow_ends):
        ds, dt = M.dims[si], M.dims[ti]
        # f(s)[k][c] sits at offsets[si] + k*ds + c, f(t)[r][k] at offsets[ti] + r*dt + k
        na_rows = [[(offsets[si] + k * ds, v) for k, v in enumerate(row) if v]
                   for row in N.action[ai].entries]
        ma_cols = [[(offsets[ti] + k, -v) for k, v in enumerate(col) if v]
                   for col in M.action[ai].columns()]
        for r, nr in enumerate(na_rows):
            for c, mc in enumerate(ma_cols):
                eq = [(j + c, v) for j, v in nr] + [(j + r * dt, v) for j, v in mc]
                if eq:
                    rows.append(eq)
    return int_rows(M.field, rows)


def _breaks_a_square(M: Representation, N: Representation, offsets, rows) -> bool:
    """Whether some flattened family of vertex maps f: M -> N, given by its
    nonzeros [(flat index, value), ...] at the flat offsets of maps M -> N,
    breaks a square
    N(a) f(s) = f(t) M(a).  Each family is scaled to integers (see
    int_rows), and both sides of every square are summed from its nonzeros
    and those of the arrow matrices, mod p over F_p."""
    q, p = M.quiver, M.field.characteristic
    for f in int_rows(M.field, rows):
        acc: dict = {}
        for i, r, c, v in _entries(offsets, M.dims, f.items()):
            # f(s)[r][c] meets column r of N(a), and f(t)[r][c] row c of M(a)
            for ai in q.arrows_from[i]:
                for r2, row in enumerate(N.action[ai].entries):
                    if row[r]:
                        acc[ai, r2, c] = acc.get((ai, r2, c), 0) + row[r] * v
            for ai in q.arrows_into[i]:
                for c2, w in enumerate(M.action[ai].entries[c]):
                    if w:
                        acc[ai, r, c2] = acc.get((ai, r, c2), 0) - v * w
        if any(v % p for v in acc.values()) if p else any(acc.values()):
            return True
    return False


class HomSpace:
    """Ordered canonical basis of Hom(M, N).

    Morphisms are flattened to coordinate vectors by concatenating the
    components row-major in vertex order; the basis rows are in RREF with
    respect to that flattening, so coordinates of a member are read off at the
    pivot positions.  A space solved off a presentation of M holds the
    generator solutions (generator_kernel), coordinates of Hom(M, N) that
    give its dimension.  A space between direct sums holds its nonzero
    blocks (Hom(M_a, N_b), mo, no), M_a and N_b starting at coordinates
    mo[i] of M(i) and no[i] of N(i) (Hom is additive in each argument):
    f(i)[r][c] of a block is f(i)[no[i] + r][mo[i] + c] of the map M -> N,
    which keeps the order of flat indices, with images disjoint across
    blocks, so the placed canonical rows of the blocks are the canonical
    basis (linalg.disjoint_span); a space of no blocks is zero.  Either
    writes its rows, canonical form, basis and flat_basis only when first
    read.  Every set of written rows is checked against the squares
    N(a) f(s) = f(t) M(a) from its nonzeros and those of the arrow matrices
    (InvariantError if some vector is outside Hom), so the basis morphisms
    need no check of their own.  Composites and coordinates work on
    flat_basis, the basis vectors as sparse rows.
    """

    def __init__(self, domain: Representation, codomain: Representation,
                 basis_vectors: Subspace | None = None, *, presentation: Presentation | None = None,
                 solutions: Subspace | None = None, blocks=()):
        self.domain, self.codomain = domain, codomain
        self._offsets = _flat_offsets(domain, codomain)
        self.presentation, self._blocks = presentation, blocks
        if basis_vectors is not None:
            if basis_vectors.ambient_dim != self._offsets[-1]:
                raise SemanticError("basis vectors do not have the flattened hom length")
            self._check(basis_vectors.sparse_basis)
            self._space = basis_vectors
        if solutions is not None or presentation is None:
            self.solutions = solutions  # else placed from the blocks when read
        given = solutions if solutions is not None else basis_vectors
        self.dim = given.dim if given is not None else sum(hs.dim for hs, _, _ in blocks)

    @cached_property
    def solutions(self) -> Subspace | None:
        """Out of a presented M into a direct sum, those of the blocks placed
        likewise, n_j of N_b at the coordinates of N_b in N; else None, as
        when a block was solved before M had its presentation."""
        if self.presentation is None or any(hs.solutions is None for hs, _, _ in self._blocks):
            return None
        gens = self.presentation.generators
        starts = list(accumulate((self.codomain.dims[x] for x in gens), initial=0))
        return disjoint_span(self.field, starts[-1], _placed_rows(
            (hs.solutions.sparse_basis, [starts[j] + no[x] + r for j, x in enumerate(gens)
                                         for r in range(hs.codomain.dims[x])])
            for hs, _, no in self._blocks))

    def _check(self, rows) -> None:
        invariant(not _breaks_a_square(self.domain, self.codomain, self._offsets, rows),
                  "hom basis vector outside the hom space: some square does not commute")

    def _written(self) -> list[dict]:
        """The generator solutions written as maps {flat index: value}
        (write_from_generators), checked against the squares."""
        rows = write_from_generators(self.domain, self.presentation, self.codomain,
                                     self.solutions.sparse_basis, self._offsets)
        self._check([r.items() for r in rows])
        return rows

    @cached_property
    def _checked(self) -> bool:
        """True once the solutions, written as maps, are checked against the
        squares: here, with the canonical form, or in each block of a sum."""
        if not (self._blocks or "_space" in vars(self)):
            self._written()
        return all(hs._checked for hs, _, _ in self._blocks)

    @cached_property
    def _space(self) -> Subspace:
        """The canonical form: the blocks' placed and checked against the
        squares, or that of the flat rows."""
        if self._blocks or self.solutions is None:
            offsets, dims = self._offsets, self.domain.dims
            space = disjoint_span(self.field, offsets[-1], _placed_rows(
                (hs._space.sparse_basis, [offsets[i] + (no[i] + r) * dm + mo[i] + c for i, dm in enumerate(dims)
                                          for r in range(hs.codomain.dims[i]) for c in range(hs.domain.dims[i])])
                for hs, mo, no in self._blocks))
            self._check(space.sparse_basis)
        else:
            space = span_of_rows(self.field, self._offsets[-1], (r.items() for r in self._written()))
        invariant(space.dim == self.dim, "the canonical form of a Hom space differs from its dimension")
        return space

    @cached_property
    def basis(self) -> tuple[RepMorphism, ...]:
        """The basis morphisms, built on first access without a check each:
        the squares were checked where the rows were written."""
        basis = []
        for v in self._space.basis:
            f = object.__new__(RepMorphism)
            # a frozen dataclass
            f.__dict__.update(domain=self.domain, codomain=self.codomain, comps=self._components(v))
            basis.append(f)
        return tuple(basis)

    @property
    def flat_basis(self) -> list:
        """The basis vectors as sparse rows [(flat index, value), ...]."""
        return self._space.sparse_basis

    @property
    def field(self) -> Field:
        return self.domain.field

    @staticmethod
    def flatten(f: RepMorphism) -> tuple:
        return tuple(x for m in f.comps for row in m.entries for x in row)

    def _components(self, vec: tuple) -> tuple[Mat, ...]:
        comps = []
        for i, (dm, dn) in enumerate(zip(self.domain.dims, self.codomain.dims)):
            off = self._offsets[i]
            rows = tuple(vec[off + r * dm:off + (r + 1) * dm] for r in range(dn))
            comps.append(Mat(self.field, dn, dm, rows))
        return tuple(comps)

    def coordinates(self, f: RepMorphism) -> tuple:
        if (f.domain, f.codomain) != (self.domain, self.codomain):
            raise SemanticError("morphism does not live in this hom space")
        return self.flat_coordinates(self.flatten(f))

    def flat_coordinates(self, vec) -> tuple:
        """Coordinates of a flattened family of vertex maps.  The space is
        the solution space of the commuting squares, so membership is the
        square check: a family outside it raises InvariantError."""
        vec = tuple(map(self.field.of, vec))
        # mapped lazily, so a wrong length raises like a non-member
        return self._flat_coordinate_rows(map(self._space.sparse, [vec]))[0]

    def _flat_coordinate_rows(self, vecs) -> list[tuple]:
        """flat_coordinates of each flattened family given by its nonzeros
        {flat index: field element}."""
        try:
            return self._space.coordinate_rows(vecs)
        except ValueError:
            raise InvariantError("vertex maps outside the hom space: "
                                 "some square does not commute") from None

    def from_coordinates(self, coords) -> RepMorphism:
        coords = tuple(self.field.of(c) for c in coords)
        if len(coords) != self.dim:
            raise SemanticError("coordinate length mismatch")
        vec = [0] * self._offsets[-1]
        for c, row in zip(coords, self.flat_basis):
            if c:
                for j, b in row:
                    vec[j] = vec[j] + c * b
        return RepMorphism(self.domain, self.codomain, self._components(tuple(map(self.field.of, vec))))

    def __repr__(self):
        return f"HomSpace(dim {self.dim}: {self.domain!r} -> {self.codomain!r})"


def _same_category(M: Representation, N: Representation) -> None:
    if M.quiver != N.quiver:
        raise SemanticError("representations live over different quivers")
    if M.field != N.field:
        raise SemanticError("representations live over different fields")


def hom_basis(M: Representation, N: Representation) -> HomSpace:
    """Canonical basis of Hom(M, N) as solutions of the commuting squares:
    the square equations are assembled once as sparse integer rows and
    solved by one elimination."""
    _same_category(M, N)
    offsets = _flat_offsets(M, N)
    return HomSpace(M, N, kernel_of_rows(M.field, offsets[-1], _square_rows(M, N, offsets)))


def _placed_rows(placed):
    """The sparse rows of each (rows, place), every column j moved to
    place[j]."""
    return [[(place[j], v) for j, v in nz] for rows, place in placed for nz in rows]


def _generator_maps(M: Representation, presentation: Presentation, N: Representation):
    """The columns of N(p) per generator, target vertex and path, and the
    start of each generator image n_j in the generator coordinates: the n_j
    in N at the generator vertices, concatenated."""
    maps = [M.quiver.workspace.path_maps_from(N, x) for x in presentation.generators]
    return maps, list(accumulate((N.dims[x] for x in presentation.generators), initial=0))


def generator_kernel(M: Representation, presentation: Presentation,
                     N: Representation) -> Subspace:
    """Hom(M, N) in generator coordinates, read off a projective
    presentation of M: Hom(-, N) is left exact and Hom(P_x, N) = N(x), so a
    map M -> N is given by its generator images n_j in N at the generator
    vertices, and the images of maps are those that every relation sends to
    0, sum_(j, p) c N(p) n_j = 0.  One elimination solves these equations;
    write_from_generators writes a solution as the map."""
    _same_category(M, N)
    field = M.field
    maps, starts = _generator_maps(M, presentation, N)
    equations = []
    for y, terms in presentation.relations:
        eqs: list[dict] = [{} for _ in range(N.dims[y])]
        for j, k, c in terms:
            for col, column in enumerate(maps[j][y][k], start=starts[j]):
                for r, w in enumerate(column):
                    if w:
                        eqs[r][col] = eqs[r].get(col, 0) + c * w
        equations.extend([(t, v) for t, v in eq.items() if v] for eq in eqs)
    return kernel_of_rows(field, starts[-1], int_rows(field, equations))


def write_from_generators(M: Representation, presentation: Presentation, N: Representation,
                          images, offsets) -> list[dict]:
    """The flattened map M -> N with the given generator images, for each
    sparse row [(generator coordinate, value), ...] of images (see
    generator_kernel), as its nonzeros {flat index: value} at the flat
    offsets of maps M -> N: the column of slot (j, p) at vertex y is
    N(p) n_j.  Over F_p the values are residues."""
    maps, starts = _generator_maps(M, presentation, N)
    p = M.field.characteristic
    out = []
    for u in images:
        split = [[] for _ in presentation.generators]  # the nonzeros of each n_j
        for t, v in u:
            j = bisect_right(starts, t) - 1
            split[j].append((t - starts[j], v))
        acc: dict = {}
        for y, slots in enumerate(presentation.slots):
            dy = M.dims[y]
            for c, (j, k) in enumerate(slots, start=offsets[y]):
                column = maps[j][y][k]
                for col, v in split[j]:
                    # f(y)[r][c] is entry r of N(p) n_j
                    for r, w in enumerate(column[col]):
                        if w:
                            t = c + r * dy
                            acc[t] = acc[t] + v * w if t in acc else v * w
        out.append({t: x % p for t, x in acc.items() if x % p} if p
                   else {t: x for t, x in acc.items() if x})
    return out


def _images_through(hs: HomSpace, f: RepMorphism) -> list[dict]:
    """The generator images {generator coordinate of Y: value} of f . g for
    each g: Z -> X given by its generator images, the solutions that
    hs = Hom(Z, X) holds: those of g sent through f at the generator
    vertices."""
    X, Y = f.domain, f.codomain
    gens = hs.presentation.generators
    sx = list(accumulate((X.dims[x] for x in gens), initial=0))
    sy = list(accumulate((Y.dims[x] for x in gens), initial=0))
    spread = defaultdict(list)  # generator coordinate of X -> [(that of Y, factor)]
    for j, x in enumerate(gens):
        for r, row in enumerate(f.comps[x].entries, start=sy[j]):
            for t, w in enumerate(row, start=sx[j]):
                if w:
                    spread[t].append((r, w))
    images = []
    for u in hs.solutions.sparse_basis:
        acc: dict = {}
        for t, v in u:
            for s, w in spread.get(t, ()):
                acc[s] = acc[s] + v * w if s in acc else v * w
        images.append(acc)
    return images


def postcompose_from_generators(hs_src: HomSpace, hs_dst: HomSpace, f: RepMorphism) -> list[tuple]:
    """Coordinates in hs_dst = Hom(Z, Y) of f . g for each g: Z -> X given
    by its generator images, the solutions that hs_src = Hom(Z, X) holds,
    with no Hom(Z, X) written out.  The composite is written from its
    generator images (_images_through), and flat_coordinates checks it."""
    images = [acc.items() for acc in _images_through(hs_src, f)]
    return hs_dst._flat_coordinate_rows(write_from_generators(
        hs_dst.domain, hs_src.presentation, f.codomain, images, hs_dst._offsets))


def _entries(offsets, dims, nz):
    """(vertex, row, column, value) of each nonzero of a flattened map
    M -> N given as (flat index, value) pairs, from the flat offsets of maps
    M -> N (see _flat_offsets) and dims = M.dims."""
    for j, v in nz:
        if v:
            i = bisect_right(offsets, j) - 1
            yield (i, *divmod(j - offsets[i], dims[i]), v)


def composite_columns(hs_src: HomSpace, hs_dst: HomSpace, fixed, fixed_offsets,
                      after: bool) -> list[tuple]:
    """Coordinates in hs_dst of fixed . g (after) or g . fixed for each basis
    element g of hs_src, the fixed map given as (flat index, value) pairs at
    the flat offsets fixed_offsets of its endpoints, such as a row of the
    flat_basis of a HomSpace and its _offsets.  Each composite is formed from
    the nonzeros of g's flat row and of the fixed map; flat_coordinates
    checks it."""
    so, do, dz = hs_src._offsets, hs_dst._offsets, hs_dst.domain.dims
    p = hs_dst.field.characteristic
    spread = defaultdict(list)  # flat index of g -> [(flat index of the composite, factor)]
    if after:
        # g[k][c] meets f[r][k] in (f . g)[r][c], at each vertex i
        for i, r, k, w in _entries(fixed_offsets, hs_src.codomain.dims, fixed):
            for c in range(dz[i]):
                spread[so[i] + k * dz[i] + c].append((do[i] + r * dz[i] + c, w))
    else:
        # g[r][k] meets h[k][c] in (g . h)[r][c], at each vertex i
        dv = hs_src.domain.dims
        for i, k, c, w in _entries(fixed_offsets, dz, fixed):
            for r in range(hs_dst.codomain.dims[i]):
                spread[so[i] + r * dv[i] + k].append((do[i] + r * dz[i] + c, w))

    def composites():
        # a generator: only one composite is alive at a time
        for row in hs_src.flat_basis:
            acc: dict = {}
            for j, v in row:
                for t, w in spread.get(j, ()):
                    acc[t] = acc[t] + v * w if t in acc else v * w
            yield {t: x % p for t, x in acc.items()} if p else acc
    return hs_dst._flat_coordinate_rows(composites())


def postcompose_matrix(hs_src: HomSpace, hs_dst: HomSpace, f: RepMorphism) -> Mat:
    """Matrix of Hom(Z, X) -> Hom(Z, Y), g |-> f . g, in canonical bases."""
    if (f.domain, f.codomain, hs_src.domain) != (hs_src.codomain, hs_dst.codomain, hs_dst.domain):
        raise SemanticError("morphism does not map between these hom spaces")
    cols = composite_columns(hs_src, hs_dst, enumerate(HomSpace.flatten(f)),
                             _flat_offsets(f.domain, f.codomain), after=True)
    return from_columns(hs_src.field, cols, hs_dst.dim)


def precompose_matrix(hs_src: HomSpace, hs_dst: HomSpace, h: RepMorphism) -> Mat:
    """Matrix of Hom(V, Y) -> Hom(Z, Y), psi |-> psi . h, in canonical bases."""
    if (h.domain, h.codomain, hs_src.codomain) != (hs_dst.domain, hs_src.domain, hs_dst.codomain):
        raise SemanticError("morphism does not map between these hom spaces")
    cols = composite_columns(hs_src, hs_dst, enumerate(HomSpace.flatten(h)),
                             _flat_offsets(h.domain, h.codomain), after=False)
    return from_columns(hs_src.field, cols, hs_dst.dim)


def subrepresentation(M: Representation, subs) -> tuple[Representation, RepMorphism]:
    """Subrepresentation spanned vertexwise by the given subspaces, with its
    inclusion; raises ValueError when the family is not closed under the
    arrow actions."""
    q, field = M.quiver, M.field
    dims = tuple(s.dim for s in subs)
    action = []
    for ai, (si, ti) in enumerate(q.arrow_ends):
        cols = [subs[ti].coordinates(M.action[ai].apply(v)) for v in subs[si].basis]
        action.append(from_columns(field, cols, dims[ti]))
    S = Representation(q, field, dims, tuple(action))
    return S, RepMorphism(S, M, tuple(s.basis_matrix_columns() for s in subs))


def quotient_representation(M: Representation, subs) -> Representation:
    """M modulo vertexwise subspaces closed under the arrow actions, in the
    canonical complement coordinates.  Column c of C(a) is the residue of
    column c of M(a) modulo the target subspace at its free (non-pivot)
    slots, for each free slot c of the source: projection @ M(a) @ section,
    without the two products."""
    q = M.quiver
    free = [sorted(set(range(s.ambient_dim)).difference(s.pivots)) for s in subs]
    action = []
    for ai, (si, ti) in enumerate(q.arrow_ends):
        if not free[ti] or not free[si]:
            action.append(Mat.zero(M.field, len(free[ti]), len(free[si])))
            continue
        cols = list(zip(*M.action[ai].entries))
        res = [r for _, r in subs[ti].residuals({i: v for i, v in enumerate(cols[c]) if v}
                                                for c in free[si])]
        action.append(Mat(M.field, len(free[ti]), len(free[si]),
                          tuple(tuple(r.get(j, 0) for r in res) for j in free[ti])))
    return Representation(q, M.field, tuple(map(len, free)), tuple(action))


def quotient(M: Representation, subs) -> tuple[Representation, RepMorphism]:
    """quotient_representation(M, subs) with the projection from M."""
    C = quotient_representation(M, subs)
    return C, RepMorphism(M, C, tuple(s.complement_projection() for s in subs))


def kernel(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Vertexwise kernel with induced arrow actions and its inclusion."""
    return subrepresentation(f.domain, [kernel_basis(c) for c in f.comps])


def image(f: RepMorphism) -> tuple[Representation, RepMorphism, RepMorphism]:
    """Image subrepresentation with inclusion into the codomain and the
    corestricted epimorphism from the domain."""
    subs = [column_space(c) for c in f.comps]
    I, incl = subrepresentation(f.codomain, subs)
    epi_comps = []
    for i, s in enumerate(subs):
        cols = [s.coordinates(f.comps[i].col(j)) for j in range(f.domain.dims[i])]
        epi_comps.append(from_columns(I.field, cols, I.dims[i]))
    return I, incl, RepMorphism(f.domain, I, tuple(epi_comps))


def cokernel(f: RepMorphism) -> tuple[Representation, RepMorphism]:
    """Vertexwise cokernel in the canonical complement basis, with the
    projection from the codomain."""
    return quotient(f.codomain, [column_space(c) for c in f.comps])


def block_diagonal_sum(reps, q: Quiver, field: Field):
    """Block-diagonal sum of representations of q over field, without the
    structure maps; returns (rep, offsets), where summand j occupies the
    coordinates offsets[zi][j] up to offsets[zi][j + 1] at vertex zi (the
    last entry of each row is the total dimension there).  A sum of two or
    more nonzero summands is recorded in q's workspace with its summands
    and where each starts, so its Hom spaces are read off the summands'
    blocks."""
    offsets = tuple(tuple(accumulate((r.dims[zi] for r in reps), initial=0))
                    for zi in range(q.n_vertices))
    action = tuple(block_diag(field, [r.action[ai] for r in reps]) for ai in range(len(q.arrows)))
    total = Representation(q, field, tuple(cut[-1] for cut in offsets), action)
    if sum(1 for r in reps if r.total_dim) > 1:
        q.workspace.summed(total, tuple(reps), tuple(zip(*offsets)))
    return total, offsets


def direct_sum(reps, q: Quiver | None = None, field: Field | None = None):
    """Block-diagonal direct sum; returns (rep, injections, projections).

    The projection onto a summand is a row slice of the identity at that
    summand's offset, and the injection is its transpose."""
    reps = list(reps)
    if reps:
        q, field = reps[0].quiver, reps[0].field
    elif q is None or field is None:
        raise SemanticError("empty direct sum needs an explicit quiver and field")
    if any(r.quiver != q or r.field != field for r in reps[1:]):
        raise SemanticError("direct sum over mismatched quivers or fields")
    total, offsets = block_diagonal_sum(reps, q, field)
    eyes = [Mat.identity(field, d).entries for d in total.dims]
    injections, projections = [], []
    for j, r in enumerate(reps):
        proj_comps = tuple(Mat(field, d, total.dims[i], eyes[i][offsets[i][j]:offsets[i][j + 1]])
                           for i, d in enumerate(r.dims))
        injections.append(RepMorphism(r, total, tuple(m.transpose() for m in proj_comps)))
        projections.append(RepMorphism(total, r, proj_comps))
    return total, injections, projections


def dual_representation(M: Representation) -> Representation:
    """Vector-space dual over the opposite quiver: the same dimensions, every
    arrow matrix transposed."""
    return Representation(M.quiver.opposite, M.field, M.dims, tuple(m.transpose() for m in M.action))


def dual_morphism(f: RepMorphism) -> RepMorphism:
    """Dual of f: X -> Y, i.e. D(Y) -> D(X) over the opposite quiver."""
    return RepMorphism(dual_representation(f.codomain), dual_representation(f.domain),
                       tuple(m.transpose() for m in f.comps))


class _Factoring:
    """F_Z, the maps Z -> Y through f: X -> Y, off hzx = Hom(Z, X) and
    hzy = Hom(Z, Y) from Workspace.hom, as Workspace.factorings holds it.
    For a presented Z, dim is the rank of hzx's generator solutions sent
    through f (_images_through) among hzy's, unless space was read first,
    and space writes the composites out (postcompose_from_generators); the
    two must agree.  Any other Z, or one whose spaces were solved before it
    had its presentation, takes the column space of postcompose_matrix."""

    def __init__(self, f: RepMorphism, hzx: HomSpace, hzy: HomSpace):
        self.f, self.hzx, self.hzy = f, hzx, hzy

    def _span(self, rows) -> Subspace:
        return span_of_rows(self.hzy.field, self.hzy.dim, ([(i, c) for i, c in enumerate(r) if c] for r in rows))

    @cached_property
    def dim(self) -> int:
        hzx, hzy = self.hzx, self.hzy
        if "space" in vars(self) or hzx.solutions is None or hzy.solutions is None:
            return self.space.dim
        # hzy's solutions are written out for the square check alone
        if not (hzy.dim and hzy._checked and hzx.dim):
            return 0
        try:
            return self._span(hzy.solutions.coordinate_rows(_images_through(hzx, self.f))).dim
        except ValueError:
            raise InvariantError("a composite with f is outside the hom space: "
                                 "its generator images break a relation") from None

    @cached_property
    def space(self) -> Subspace:
        if self.hzx.solutions is None:
            return column_space(postcompose_matrix(self.hzx, self.hzy, self.f))
        space = self._span(postcompose_from_generators(self.hzx, self.hzy, self.f) if self.hzx.dim else [])
        invariant("dim" not in vars(self) or space.dim == self.dim,
                  "the factoring subspace differs from the rank of the composites")
        return space


class _Scope(threading.local):
    journal = None  # the (table, key, value) an open request wrote, else None


class Workspace:
    """Memo tables for the computations over one quiver object.

    Each table maps a key to the result of a deterministic computation and
    is filled on a miss.  Keys are representations, which carry their field,
    or tuples that name the field, so one workspace serves every field.  The
    quiver holds its workspace (Quiver.workspace), so the tables are freed
    with the quiver.  Concurrent callers may repeat a computation, but an
    entry is stored only once it is complete, a knitted registry included.

    Every table is written by one rule, ``_store``.  An entry lives for the
    quiver's life when its key holds no morphism and every representation
    in it is ``owned`` (the registry entries that knit marks, P_x, I_x and
    the block sums), or when it was written outside any request.  Every
    other entry written inside a ``request`` scope lives for that request:
    kernels, images, split-off sums, duals and their Hom spaces, End
    algebras, decompositions, path maps, and the oracle's tables keyed by
    the request morphism go when the outermost scope closes.  ``sums``
    holds each sum weakly, so a sum the caller built outside a request
    takes its record along when it goes.

    ``hom`` produces every Hom space, and every Hom system is solved in
    ``_solve_hom``, by the solvers of this module.  On a Dynkin quiver every
    indecomposable is directed, so dim Hom(M, N) = max(0, <dim M, dim N>)
    (Ringel, LNM 1099): between two members of ``indecomposables``, a set
    looked up with no iso search, ``hom`` answers a form <= 0 with the zero
    space, unsolved and not held, and checks that a solved space has the
    form's dimension.  Hom is additive in each argument: ``sums`` records
    every direct sum of two or more nonzero summands where
    block_diagonal_sum builds it, with its summands and where each starts.
    Hom with a recorded sum on either side is put together from the nonzero
    blocks Hom(M_a, N_b), each asked of ``hom``, so no Hom space of a
    recorded sum is solved whole.

    ``presentations`` holds a projective presentation of each P_x and each
    TrD that translate.trd builds.  A map out of such an M is fixed by its
    generator images, whose space generator_kernel solves with the maps
    N(p) of ``path_maps``; ``hom`` holds Hom(M, N) as those solutions, the
    blocks' placed into a recorded sum N; a zero space that it does not
    hold still carries M's presentation, with no solutions.
    Spaces between owned objects live for the quiver's life, so no later
    request solves them again.  Every other domain (kernels, decomposition
    pieces, the duals a left request carries to the opposite quiver) takes
    the commuting squares of hom_basis.  ``factorings`` holds F_Z for
    f: X -> Y, one memo for its dimension, for a presented Z the rank of the
    solutions of Hom(Z, X) sent through f among those of Hom(Z, Y), and for
    the subspace, written out only when read.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.paths: dict = {}           # source index -> paths to each target
        self.canonical: dict = {}       # ("P" or "I", vertex, field) -> P_x or I_x
        self.block_sums: dict = {}      # ("P" or "I", vertex tuple, field) -> BlockSum
        self.homs: dict = {}            # (M, N) -> HomSpace
        self.ends: dict = {}            # M -> EndAlgebra
        self.decompositions: dict = {}  # M -> DecompositionResult
        self.registries: dict = {}      # (field, cap) -> IndecRegistry
        self.indecomposables: dict = {}  # M -> M, for M shown indecomposable
        self.presentations: dict = {}   # M -> Presentation
        self.path_maps: dict = {}       # (N, vertex index) -> N(p) per path out of it
        self.factorings: dict = {}      # (f, Z) -> _Factoring, F_Z for f: X -> Y
        self.constraints: dict = {}     # (f, V, S) -> the oracle's constraint rows
        # direct sum -> (summands, their starts per vertex), held no longer
        # than the sum itself
        self.sums = weakref.WeakKeyDictionary()
        self.owned: set = set()         # registry entries, P_x, I_x and block sums
        self._scope = _Scope()

    def own(self, M):
        """M, recorded as owned: a registry entry, a canonical P_x or I_x, or
        a block sum.  Entries keyed by owned representations alone live for
        the quiver's life."""
        self.owned.add(M)
        return M

    def _owns(self, key) -> bool:
        """Whether key holds no morphism and only owned representations."""
        for k in key if type(key) is tuple else (key,):
            if isinstance(k, RepMorphism) or isinstance(k, Representation) and k not in self.owned:
                return False
        return True

    @contextmanager
    def request(self):
        """One request's scope on this workspace, in this thread.  Scopes
        nest, and each thread has its own.  When the outermost one closes,
        every entry ``_store`` noted while it was open is dropped unless its
        key holds owned representations only.  Ownership is read at the
        close, so an object owned by then (a TrD that knit registers after
        writing its presentation, decomposition and End) keeps its
        entries."""
        scope = self._scope
        if scope.journal is not None:
            yield
            return
        scope.journal = journal = []
        try:
            yield
        finally:
            scope.journal = None
            for table, key, value in journal:
                # an entry rewritten since, outside a request, stays
                if not self._owns(key) and table.get(key) is value:
                    table.pop(key, None)

    @contextmanager
    def recording(self):
        """Collect, for another copy of this workspace, what this thread
        stores in the block: yields a list that then holds (table name, key,
        value) for each new entry that lives for the quiver's life, by
        ownership at the end of the block.  The entries are noted as a
        request notes them, but none is dropped; a forked knit worker
        (translate.knit) sends them to its parent, which ``adopt``s them."""
        scope = self._scope
        outer, scope.journal = scope.journal, []
        records = []
        try:
            yield records
        finally:
            journal, scope.journal = scope.journal, outer
            names = {id(table): name for name, table in vars(self).items()}
            records.extend((names[id(table)], key, value) for table, key, value in journal
                           if self._owns(key))

    def adopt(self, owned, records) -> None:
        """Own each of owned and store each (table name, key, value) of
        records, as ``recording`` collected them in another copy of this
        workspace, by the write rule.  A key this workspace already holds
        keeps its entry, inside a request or not."""
        self.owned.update(owned)
        for name, key, value in records:
            table = getattr(self, name)
            if key not in table:
                self._store(table, key, value)

    def _store(self, table, key, value):
        """table[key] = value, the write rule of every table; returns the
        entry the table holds.  Inside a request an entry already held is
        kept, and a new one is noted for the close of the scope, so no
        entry written outside a request or by another thread is dropped."""
        journal = self._scope.journal
        if journal is None:
            table[key] = value
            return value
        kept = table.setdefault(key, value)
        if kept is value:
            journal.append((table, key, value))
        return kept

    def memo(self, table: dict, key, build):
        """table[key], computed by build() on a miss.  The workspace itself
        marks a miss, since no table holds it."""
        value = table.get(key, self)
        if value is self:
            value = self._store(table, key, build())
        return value

    def paths_from(self, xi: int) -> tuple[tuple[Path, ...], ...]:
        """Paths from vertex index xi, indexed by target vertex index, each
        list ordered by length, then by arrow index sequence.  Built in
        topological order, so no path length exhausts the recursion limit."""
        return self.memo(self.paths, xi, lambda: self._paths_from(xi))

    def _paths_from(self, xi: int) -> tuple[tuple[Path, ...], ...]:
        q = self.quiver
        found: list[list[Path]] = [[] for _ in q.vertices]
        found[xi].append(Path(xi, xi, ()))
        for v in q.topological_order:
            for ai in q.arrows_into[v]:
                s = q.arrow_ends[ai][0]
                found[v].extend(Path(xi, v, p.arrows + (ai,)) for p in found[s])
            found[v].sort(key=lambda p: (len(p.arrows), p.arrows))
        return tuple(tuple(ps) for ps in found)

    @cached_property
    def dynkin(self) -> bool:
        return classify_underlying_graph(self.quiver)[0] == "dynkin"

    def indecomposable(self, M):
        """M, recorded as shown to be indecomposable."""
        self._store(self.indecomposables, M, M)
        return M

    def presented(self, M, presentation: Presentation):
        """M, recorded with a projective presentation."""
        self._store(self.presentations, M, presentation)
        return M

    def summed(self, M, summands: tuple, starts: tuple) -> None:
        """Record M as the direct sum of summands, summand b from coordinate
        starts[b][y] of M(y) on."""
        self._store(self.sums, M, (summands, starts))

    def _blocks(self, M):
        """M's summands and where each starts at each vertex: those of its
        record, or M alone."""
        return self.sums.get(M) or ((M,), ((0,) * len(M.dims),))

    def path_maps_from(self, N, xi: int) -> list[list[tuple]]:
        """N(p) as a tuple of columns for each path p out of vertex index xi,
        listed as paths_from(xi) lists the paths."""
        return self.memo(self.path_maps, (N, xi), lambda: self._path_maps_from(N, xi))

    def _path_maps_from(self, N, xi: int) -> list[list[tuple]]:
        # the column c of N(p a) is N(a) applied to the column c of N(p)
        return _walk_paths(self.paths_from(xi), Mat.identity(N.field, N.dims[xi]).entries,
                           lambda done, arrows: tuple(map(N.action[arrows[-1]].apply,
                                                          done[arrows[:-1]])))

    def hom(self, M, N):
        """Hom(M, N): the held space; else, when the Euler-form rule makes it
        zero, a space of no blocks, not held; else solved (``_solve_hom``),
        checked against the form and held."""
        hs = self.homs.get((M, N))
        if hs is None:
            form = self._directed_form(M, N)
            if form is not None and form <= 0:
                return HomSpace(M, N, presentation=self.presentations.get(M))
            hs = self._solve_hom(M, N)
            invariant(form is None or hs.dim == form,
                      "Hom between directed indecomposables differs from the Euler form")
            hs = self._store(self.homs, (M, N), hs)
        return hs

    def _directed_form(self, M, N) -> int | None:
        """<dim M, dim N> when M and N are members of ``indecomposables`` over
        one field on a Dynkin quiver, else None."""
        known = self.indecomposables
        if self.dynkin and M.field == N.field and M in known and N in known:
            return euler_form(self.quiver, M.dims, N.dims)
        return None

    def _solve_hom(self, M, N):
        """Hom(M, N) from the blocks when M or N is a recorded sum, else off
        M's presentation when it has one, else by hom_basis."""
        presentation = self.presentations.get(M)
        # a presented M is indecomposable, so no recorded sum
        if N in self.sums or presentation is None and M in self.sums:
            (ms, mo), (ns, no) = self._blocks(M), self._blocks(N)
            return HomSpace(M, N, presentation=presentation, blocks=[
                (hs, ma, nb) for A, ma in zip(ms, mo) if A.total_dim for B, nb in zip(ns, no)
                if B.total_dim for hs in [self.hom(A, B)] if hs.dim])
        if presentation is not None:
            return HomSpace(M, N, presentation=presentation, solutions=generator_kernel(M, presentation, N))
        return hom_basis(M, N)

    def factoring_subspace(self, f, Z) -> Subspace:
        """F_Z, the maps Z -> Y that factor through f: X -> Y, the image of
        g |-> f . g on Hom(Z, X), in the coordinates of Hom(Z, Y)."""
        return self._factoring(f, Z).space

    def factoring_rank(self, f, Z) -> int:
        """dim F_Z, from the same memo as factoring_subspace."""
        return self._factoring(f, Z).dim

    def _factoring(self, f, Z) -> _Factoring:
        fz = self.factorings.get((f, Z))
        if fz is None:
            fz = self._store(self.factorings, (f, Z), _Factoring(f, self.hom(Z, f.domain), self.hom(Z, f.codomain)))
        return fz
