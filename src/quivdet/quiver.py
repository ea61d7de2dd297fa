"""Finite acyclic quivers: parsing, paths, the Euler form, and the canonical
representations.

The quiver file format is line-oriented UTF-8 text:

    # comment
    vertex <name>
    arrow <name> <source> <target>

The order of ``vertex`` lines fixes vertex indices, which in turn fix every
basis and matrix of the canonical projective/injective/simple representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import (
    CycleDetectedError,
    DanglingEndpointError,
    DuplicateNameError,
    QuiverSyntaxError,
    invariant,
)
from .linalg import RATIONALS, Field, Mat, Subspace, column_space, span_of_rows


@dataclass(frozen=True)
class ArrowDecl:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic directed multigraph with named vertices and arrows."""

    vertices: tuple[str, ...]
    arrows: tuple[ArrowDecl, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise DuplicateNameError(f"duplicate vertex name {v!r}")
            seen.add(v)
        aseen = set()
        vset = set(self.vertices)
        for a in self.arrows:
            if a.name in aseen:
                raise DuplicateNameError(f"duplicate arrow name {a.name!r}")
            aseen.add(a.name)
            if a.source not in vset:
                raise DanglingEndpointError(f"arrow {a.name!r} starts at unknown vertex {a.source!r}")
            if a.target not in vset:
                raise DanglingEndpointError(f"arrow {a.name!r} ends at unknown vertex {a.target!r}")
        self.topological_order  # acyclicity check happens here

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_index(self) -> dict:
        return {a.name: i for i, a in enumerate(self.arrows)}

    @cached_property
    def arrow_ends(self) -> tuple[tuple[int, int], ...]:
        """(source index, target index) of each arrow, in arrow order."""
        return tuple((self.vertex_index[a.source], self.vertex_index[a.target]) for a in self.arrows)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def arrows_from(self) -> tuple[tuple[int, ...], ...]:
        """Arrow indices leaving each vertex, in arrow order."""
        return tuple(tuple(ai for ai, (s, _) in enumerate(self.arrow_ends) if s == v)
                     for v in range(self.n_vertices))

    @cached_property
    def arrows_into(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(ai for ai, (_, t) in enumerate(self.arrow_ends) if t == v)
                     for v in range(self.n_vertices))

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Vertex indices in a topological order; raises CycleDetectedError."""
        indeg = [0] * self.n_vertices
        for _, t in self.arrow_ends:
            indeg[t] += 1
        ready = [i for i in range(self.n_vertices) if indeg[i] == 0]
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for ai in self.arrows_from[v]:
                t = self.arrow_ends[ai][1]
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        if len(order) != self.n_vertices:
            raise CycleDetectedError("quiver contains an oriented cycle")
        return tuple(order)

    @cached_property
    def opposite(self) -> "Quiver":
        """The quiver with every arrow reversed, whose own opposite is self."""
        op = Quiver(self.vertices,
                    tuple(ArrowDecl(a.name, a.target, a.source) for a in self.arrows))
        op.__dict__["opposite"] = self
        return op

    @cached_property
    def workspace(self) -> "Workspace":
        """Memo tables of the computations over this quiver object."""
        return Workspace(self)

    def __repr__(self):
        arrows = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({list(self.vertices)}; {arrows})"


@dataclass(frozen=True)
class Path:
    """Directed path given by its arrow index sequence; empty = trivial path."""

    source: int
    target: int
    arrows: tuple[int, ...]

    def __len__(self):
        return len(self.arrows)


@dataclass(frozen=True)
class Presentation:
    """A projective presentation of a representation M, in path coordinates:
    M is the cokernel of a map into P = the sum of the P_x over the
    generators, vertex indices x.  Each relation is the image in P of one
    generator of the other term, as (vertex index y, ((generator j, path
    index k, coefficient), ...)), where k counts in the paths from
    generators[j] to y, listed as Workspace.paths_from lists them.  slots[y]
    gives the (generator j, path index k) of the basis vector of P(y) that
    each basis vector of M(y) is the image of."""

    generators: tuple[int, ...]
    relations: tuple
    slots: tuple


class Workspace:
    """Memo tables for the computations over one quiver object.

    Each table maps a key to the result of a deterministic computation and
    is filled on a miss.  Keys are representations, which carry their field,
    or tuples that name the field, so one workspace serves every field.  The
    quiver holds its workspace, so the tables are freed with the quiver.
    Concurrent callers may repeat a computation, but an entry is stored only
    once it is complete, a knitted registry included.

    ``hom`` is the only producer of Hom spaces, and every Hom system is
    solved in ``hom`` or ``_generator_kernel``.  Hom is additive in each
    argument: ``sums`` records every direct sum of two or more nonzero
    summands where reps.block_diagonal_sum builds it, with its summands and
    where each starts, and reps.dual_representation records the dual of a
    recorded sum over the opposite quiver as the sum of its summands' duals
    (``duals``), and the dual of a recorded indecomposable as
    indecomposable.  Hom with a recorded sum on either side is put together
    from the blocks Hom(M_a, N_b) (reps.hom_from_blocks), each asked of
    ``hom`` unless the Euler-form rule makes it zero, so no Hom space of a
    sum is solved whole and no zero block is stored.  On a Dynkin quiver every
    indecomposable is directed, so dim Hom(M, N) = max(0, <dim M, dim N>)
    (Ringel, LNM 1099): between two members of ``indecomposables``, a set
    looked up with no iso search, a form <= 0 gives the zero space unsolved
    and a solved space must have the form's dimension.

    ``presentations`` holds a projective presentation of each P_x and each
    TrD that translate.trd builds.  A map out of such an M is fixed by its
    generator images, whose space ``_generator_kernel`` alone reads and solves
    (reps.generator_kernel) with the maps N(p) of ``path_maps``: ``hom``
    writes it out as Hom(M, N), and ``factoring_subspace`` sends it through
    f: X -> Y for Hom(Z, X), never written out, solving it for a recorded
    sum X as for any other X.  It is held once per pair: in ``homs`` as the
    written Hom space, else in ``generator_kernels``, which ``hom`` clears of
    the pair it stores.  Every other domain (kernels, decomposition pieces,
    the duals a left request carries to the opposite quiver) takes the
    commuting squares of reps.hom_basis.
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
        self.indecomposables: set = set()  # representations shown indecomposable
        self.presentations: dict = {}   # M -> Presentation
        self.path_maps: dict = {}       # (N, vertex index) -> N(p) per path out of it
        self.sums: dict = {}            # direct sum -> (summands, their starts per vertex)
        self.duals: dict = {}           # summand or indecomposable -> its dual
        self.generator_kernels: dict = {}  # (Z, X) -> Hom(Z, X) in generator coordinates

    def memo(self, table: dict, key, build):
        """table[key], computed by build() on a miss.  The workspace itself
        marks a miss, since no table holds it."""
        value = table.get(key, self)
        if value is self:
            value = table[key] = build()
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
        from .translate import classify_underlying_graph
        return classify_underlying_graph(self.quiver)[0] == "dynkin"

    def indecomposable(self, M):
        """M, recorded as shown to be indecomposable."""
        self.indecomposables.add(M)
        return M

    def presented(self, M, presentation: Presentation):
        """M, recorded with a projective presentation."""
        self.presentations[M] = presentation
        return M

    def summed(self, M, summands: tuple, starts: tuple) -> None:
        """Record M as the direct sum of summands, summand b from coordinate
        starts[b][y] of M(y) on."""
        self.sums[M] = (summands, starts)

    def _blocks(self, M):
        """M's summands and where each starts at each vertex: those of its
        record, or M alone."""
        return self.sums.get(M) or ((M,), ((0,) * len(M.dims),))

    def path_maps_from(self, N, xi: int) -> list[list[tuple]]:
        """N(p) as a tuple of columns for each path p out of vertex index xi,
        listed as paths_from(xi) lists the paths."""
        return self.memo(self.path_maps, (N, xi), lambda: self._path_maps_from(N, xi))

    def _path_maps_from(self, N, xi: int) -> list[list[tuple]]:
        from .structure import _walk_paths

        # the column c of N(p a) is N(a) applied to the column c of N(p)
        return _walk_paths(self.paths_from(xi), Mat.identity(N.field, N.dims[xi]).entries,
                           lambda done, arrows: tuple(map(N.action[arrows[-1]].apply,
                                                          done[arrows[:-1]])))

    def hom(self, M, N):
        """Hom(M, N), by the Euler-form rule, or solved on a miss: from the
        blocks when M or N is a recorded sum, else off M's presentation when
        it has one, else by reps.hom_basis.  The stored space holds the
        pair's generator solutions, so any kept ones are dropped."""
        hs = self.homs.get((M, N))
        if hs is None:
            hs = self.homs[(M, N)] = self._solve_hom(M, N)
            self.generator_kernels.pop((M, N), None)
        return hs

    def _directed_form(self, M, N) -> int | None:
        """<dim M, dim N> when M and N are members of ``indecomposables`` over
        one field on a Dynkin quiver, where dim Hom(M, N) = max(0, form);
        else None."""
        known = self.indecomposables
        if self.dynkin and M.field == N.field and M in known and N in known:
            return euler_form(self.quiver, M.dims, N.dims)
        return None

    def _block(self, A, B):
        """Hom(A, B) between summands of recorded sums, or None when it is
        zero: the stored space, else None when A or B is zero or the
        Euler-form rule makes it zero, which is left unstored, else ``hom``."""
        hs = self.homs.get((A, B))
        if hs is None:
            form = self._directed_form(A, B)
            if not (A.total_dim and B.total_dim) or form is not None and form <= 0:
                return None
            hs = self.hom(A, B)
        return hs if hs.dim else None

    def _solve_hom(self, M, N):
        from .reps import HomSpace, hom_basis, hom_from_blocks, hom_from_presentation

        if M in self.sums or N in self.sums:
            (ms, mo), (ns, no) = self._blocks(M), self._blocks(N)
            return hom_from_blocks(M, N, [(hs, ma, nb) for A, ma in zip(ms, mo) for B, nb in zip(ns, no)
                                          for hs in [self._block(A, B)] if hs is not None])
        presentation = self.presentations.get(M)
        if presentation is not None:
            solutions = self._generator_kernel(M, presentation, N)
            if solutions is not None:
                return hom_from_presentation(M, presentation, N, solutions)
        else:
            form = self._directed_form(M, N)
            if form is None or form > 0:
                hs = hom_basis(M, N)
                invariant(form is None or hs.dim == form,
                          "Hom between directed indecomposables differs from the Euler form")
                return hs
        return HomSpace(M, N, Subspace.zero(M.field, sum(a * b for a, b in zip(M.dims, N.dims))))

    def factoring_subspace(self, f, Z) -> Subspace:
        """The maps Z -> Y that factor through f: X -> Y, the image of
        g |-> f . g on Hom(Z, X), in the coordinates of Hom(Z, Y): for a
        presented Z, each generator solution of Hom(Z, X) sent through f
        (reps.postcompose_from_generators), whose coordinates check the
        composites, else the column space of the postcomposition matrix.
        Solutions are kept once their composites have passed, unless
        ``homs`` stores Hom(Z, X), which holds them."""
        from .reps import postcompose_from_generators, postcompose_matrix

        X, Y = f.domain, f.codomain
        hzy = self.hom(Z, Y)
        presentation = self.presentations.get(Z)
        if presentation is None:
            return column_space(postcompose_matrix(self.hom(Z, X), hzy, f))
        solutions = self._generator_kernel(Z, presentation, X)
        cols = (postcompose_from_generators(hzy, presentation, f, solutions)
                if solutions and solutions.dim else [])
        if solutions is not None and (Z, X) not in self.homs:
            self.generator_kernels[(Z, X)] = solutions
        return span_of_rows(Z.field, hzy.dim, ([(i, c) for i, c in enumerate(col) if c]
                                               for col in cols))

    def _generator_kernel(self, Z, presentation: Presentation, X) -> Subspace | None:
        """Hom(Z, X) in generator coordinates: None when the Euler-form rule
        makes it zero, else read off the stored Hom space
        (reps.generator_images), kept, or solved by reps.generator_kernel."""
        form = self._directed_form(Z, X)
        if form is not None and form <= 0:
            return None
        from .reps import generator_images, generator_kernel

        hs = self.homs.get((Z, X))
        if hs is not None:
            return generator_images(hs, presentation)
        solutions = self.generator_kernels.get((Z, X))
        if solutions is None:
            solutions = generator_kernel(Z, presentation, X)
            invariant(form is None or solutions.dim == form,
                      "Hom between directed indecomposables differs from the Euler form")
        return solutions

    def registry(self, field: Field, cap: int):
        """The registry knitted over this quiver with the given cap."""
        from .translate import knit

        return self.memo(self.registries, (field, cap), lambda: knit(self.quiver, field, cap))


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver file format; every error carries a line number."""
    vertices: list[str] = []
    arrows: list[ArrowDecl] = []
    vseen: set[str] = set()
    aseen: set[str] = set()
    reach: dict[str, set[str]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise QuiverSyntaxError("expected 'vertex <name>'", line=lineno)
            if parts[1] in vseen:
                raise DuplicateNameError(f"duplicate vertex name {parts[1]!r}", line=lineno)
            vseen.add(parts[1])
            vertices.append(parts[1])
            reach[parts[1]] = set()
        elif parts[0] == "arrow":
            if len(parts) != 4:
                raise QuiverSyntaxError("expected 'arrow <name> <source> <target>'", line=lineno)
            name, src, tgt = parts[1], parts[2], parts[3]
            if name in aseen:
                raise DuplicateNameError(f"duplicate arrow name {name!r}", line=lineno)
            aseen.add(name)
            if src not in vseen:
                raise DanglingEndpointError(f"arrow {name!r} starts at unknown vertex {src!r}", line=lineno)
            if tgt not in vseen:
                raise DanglingEndpointError(f"arrow {name!r} ends at unknown vertex {tgt!r}", line=lineno)
            if src == tgt or src in reach[tgt]:
                raise CycleDetectedError(
                    f"arrow {name!r} closes an oriented cycle", line=lineno)
            # the new arrow makes tgt (and whatever it reached) reachable
            # from src and from everything that already reached src
            newly = {tgt} | reach[tgt]
            for v, r in reach.items():
                if v == src or src in r:
                    r.update(newly)
            arrows.append(ArrowDecl(name, src, tgt))
        else:
            raise QuiverSyntaxError(f"unknown directive {parts[0]!r}", line=lineno)
    return Quiver(tuple(vertices), tuple(arrows))


def euler_form(q: Quiver, a, b) -> int:
    """<a, b> = sum_x a_x b_x - sum over arrows x -> y of a_x b_y, on
    dimension vectors in vertex order."""
    return sum(map(mul, a, b)) - sum(a[s] * b[t] for s, t in q.arrow_ends)


def paths_between(q: Quiver, x: str, y: str) -> list[Path]:
    """All directed paths x -> y, ordered by length then lexicographically
    by arrow index sequence.  Includes the trivial path when x == y."""
    if x not in q.vertex_index:
        raise KeyError(f"unknown vertex {x!r}")
    if y not in q.vertex_index:
        raise KeyError(f"unknown vertex {y!r}")
    return list(q.workspace.paths_from(q.vertex_index[x])[q.vertex_index[y]])


def _path_representation(q: Quiver, field: Field, paths, act):
    """Representation whose basis at vertex v is the path list paths[v];
    arrow ai sends the basis path with arrow sequence p to the basis path
    with sequence act(p, ai) at its target, or to zero when that is None."""
    from .reps import Representation

    index = [{p.arrows: k for k, p in enumerate(ps)} for ps in paths]
    dims = tuple(len(ps) for ps in paths)
    action = []
    for ai, (si, ti) in enumerate(q.arrow_ends):
        m = [[field.zero] * dims[si] for _ in range(dims[ti])]
        for k, p in enumerate(paths[si]):
            image = act(p.arrows, ai)
            if image is not None:
                m[index[ti][image]][k] = field.one
        action.append(Mat(field, dims[ti], dims[si], tuple(tuple(r) for r in m)))
    return Representation(q, field, dims, tuple(action))


def projective_at(q: Quiver, x: str, field: Field = RATIONALS):
    """Indecomposable projective P_x: basis of P_x(y) is the path list x -> y,
    arrows act by appending to the path.  The workspace records it with its
    presentation, one generator and no relations."""
    ws = q.workspace

    def build():
        xi = q.vertex_index[x]
        paths = ws.paths_from(xi)
        presentation = Presentation((xi,), (), tuple(tuple((0, k) for k in range(len(ps)))
                                                     for ps in paths))
        P = _path_representation(q, field, paths, lambda p, ai: p + (ai,))
        return ws.indecomposable(ws.presented(P, presentation))

    return ws.memo(ws.canonical, ("P", x, field), build)


def injective_at(q: Quiver, x: str, field: Field = RATIONALS):
    """Indecomposable injective I_x: basis of I_x(y) is the path list y -> x,
    arrows act by stripping the first arrow (left truncation)."""
    ws = q.workspace
    xi = q.vertex_index[x]
    return ws.memo(ws.canonical, ("I", x, field), lambda: ws.indecomposable(_path_representation(
        q, field, [ws.paths_from(yi)[xi] for yi in range(q.n_vertices)],
        lambda p, ai: p[1:] if p and p[0] == ai else None)))


def simple_at(q: Quiver, x: str, field: Field = RATIONALS):
    """Simple S_x: one-dimensional at x, zero elsewhere."""
    from .reps import Representation

    xi = q.vertex_index[x]
    dims = tuple(1 if i == xi else 0 for i in range(q.n_vertices))
    return Representation(q, field, dims, tuple(Mat.zero(field, dims[ti], dims[si])
                                                for si, ti in q.arrow_ends))
