"""Nakayama transport, the translates DTr and TrD, knitting enumeration of
indecomposables, and Dynkin classification of the underlying graph.

Hom(P_x, P_y) has the paths y -> x as a canonical basis (read off the image of
the trivial-path generator), and Hom(I_x, I_y) has the same index set (read
off the coefficient of the trivial path at vertex y).  The Nakayama
equivalence is implemented as exactly this relabeling: a map between explicit
sums of projectives is transported verbatim, in path coordinates, to the
corresponding sum of injectives, and conversely.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate

from .decompose import decompose, indec_iso_witness, is_indecomposable
from .errors import (
    HasInjectiveSummandError,
    HasProjectiveSummandError,
    InputNotInPathBasisError,
    SemanticError,
    invariant,
)
from .linalg import Field, Mat, RATIONALS
from .quiver import Quiver, injective_at, paths_between, projective_at
from .reps import RepMorphism, Representation, cokernel, kernel
from .structure import (
    BlockSum,
    injective_block_sum,
    min_injective_copresentation,
    min_projective_resolution,
    projective_block_sum,
)


def _path_coefficients_proj(g: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Coefficients of a map between projective block sums in path bases.

    Block (i, j) is a map P_{x_j} -> P_{y_i}; its coefficients over the paths
    p: y_i -> x_j are read at vertex x_j from the image of the trivial-path
    generator of the domain block."""
    q = g.domain.quiver
    coeffs = {}
    for j, x in enumerate(dom.block_vertices):
        xi = q.vertex_index[x]
        gen = dom.injections[j].comps[xi].col(0)  # trivial path of P_x at x
        img = g.comps[xi].apply(gen)
        for i, y in enumerate(cod.block_vertices):
            sub = cod.projections[i].comps[xi].apply(img)
            paths = paths_between(q, y, x)
            if len(sub) != len(paths):
                raise InputNotInPathBasisError("projective block structure is malformed")
            for p, c in zip(paths, sub):
                if c:
                    coeffs[(i, j, p.arrows)] = c
    return coeffs


def _path_coefficients_inj(h: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Coefficients of a map between injective block sums in path bases.

    Block (i, j) is a map I_{x_j} -> I_{y_i}; the coefficient of the path
    p: y_i -> x_j is read at vertex y_i as the trivial-path coordinate of the
    image of the basis vector p."""
    q = h.domain.quiver
    coeffs = {}
    for i, y in enumerate(cod.block_vertices):
        yi = q.vertex_index[y]
        # I_{y}(y) is one-dimensional, spanned by the trivial path
        triv_row = cod.projections[i].comps[yi]
        for j, x in enumerate(dom.block_vertices):
            paths = paths_between(q, y, x)
            dom_inj = dom.injections[j].comps[yi]
            if dom_inj.cols != len(paths):
                raise InputNotInPathBasisError("injective block structure is malformed")
            for k, p in enumerate(paths):
                vec = h.comps[yi].apply(dom_inj.col(k))
                c = triv_row.apply(vec)[0]
                if c:
                    coeffs[(i, j, p.arrows)] = c
    return coeffs


def _map_from_coefficients(q: Quiver, field: Field, coeffs, dom: BlockSum, cod: BlockSum,
                           basis, act) -> RepMorphism:
    """Map between block sums with prescribed path coefficients.

    At vertex z the block of x has the path list basis(z, x) as its basis; a
    coefficient path p: y -> x sends the basis path r of an x-block to the
    basis path act(p, r) of a y-block, or to zero when that is None."""
    comps = []
    for zi, z in enumerate(q.vertices):
        m = [[field.zero] * dom.rep.dims[zi] for _ in range(cod.rep.dims[zi])]
        dom_off = _block_offsets(dom, z, basis)
        cod_off = _block_offsets(cod, z, basis)
        for (i, j, parrows), c in coeffs.items():
            cod_index = {pp.arrows: t for t, pp in enumerate(basis(z, cod.block_vertices[i]))}
            for t, r in enumerate(basis(z, dom.block_vertices[j])):
                target = act(parrows, r.arrows)
                if target is not None:
                    row = cod_off[i] + cod_index[target]
                    m[row][dom_off[j] + t] = m[row][dom_off[j] + t] + c
        comps.append(Mat(field, cod.rep.dims[zi], dom.rep.dims[zi],
                         tuple(tuple(r) for r in m)))
    return RepMorphism(dom.rep, cod.rep, tuple(comps))


def _proj_map_from_coefficients(q: Quiver, field: Field, coeffs,
                                dom: BlockSum, cod: BlockSum) -> RepMorphism:
    """The path p: y -> x acts on P_x by precomposition (p then the basis
    path x -> z)."""
    return _map_from_coefficients(q, field, coeffs, dom, cod,
                                  lambda z, x: paths_between(q, x, z), lambda p, r: p + r)


def _inj_map_from_coefficients(q: Quiver, field: Field, coeffs,
                               dom: BlockSum, cod: BlockSum) -> RepMorphism:
    """The path p: y -> x maps the basis path r: z -> x of I_x to the
    stripped path r': z -> y when r = r' followed by p, and to zero
    otherwise."""
    return _map_from_coefficients(
        q, field, coeffs, dom, cod, lambda z, x: paths_between(q, z, x),
        lambda p, r: r[:len(r) - len(p)] if r[len(r) - len(p):] == p else None)


def _block_offsets(bs: BlockSum, z: str, basis) -> list[int]:
    """Offset of each block of bs at vertex z, given the block bases."""
    return list(accumulate((len(basis(z, x)) for x in bs.block_vertices), initial=0))


def nakayama_on_projmap(g: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Transport a map between explicit projective sums along P_x -> I_x.

    Returns the transported morphism together with its domain and codomain
    injective block sums."""
    q, field = g.domain.quiver, g.domain.field
    coeffs = _path_coefficients_proj(g, dom, cod)
    idom = injective_block_sum(q, field, dom.block_vertices)
    icod = injective_block_sum(q, field, cod.block_vertices)
    # safety: transporting back must reproduce g exactly
    try:
        nu = _inj_map_from_coefficients(q, field, coeffs, idom, icod)
        back = _proj_map_from_coefficients(q, field,
                                           _path_coefficients_inj(nu, idom, icod), dom, cod)
    except SemanticError as e:
        raise InputNotInPathBasisError(f"blocks do not carry the map: {e}") from None
    if back != g:
        raise InputNotInPathBasisError("map could not be transported faithfully")
    return nu, idom, icod


def inverse_nakayama_on_injmap(h: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Transport a map between explicit injective sums along I_x -> P_x."""
    q, field = h.domain.quiver, h.domain.field
    coeffs = _path_coefficients_inj(h, dom, cod)
    pdom = projective_block_sum(q, field, dom.block_vertices)
    pcod = projective_block_sum(q, field, cod.block_vertices)
    try:
        g = _proj_map_from_coefficients(q, field, coeffs, pdom, pcod)
        back = _inj_map_from_coefficients(q, field,
                                          _path_coefficients_proj(g, pdom, pcod), dom, cod)
    except SemanticError as e:
        raise InputNotInPathBasisError(f"blocks do not carry the map: {e}") from None
    if back != h:
        raise InputNotInPathBasisError("map could not be transported faithfully")
    return g, pdom, pcod


def _iso_vertex(M: Representation, canonical) -> str | None:
    """First vertex x with the indecomposable M isomorphic to
    canonical(q, x, field), or None."""
    for x in M.quiver.vertices:
        if indec_iso_witness(M, canonical(M.quiver, x, M.field)) is not None:
            return x
    return None


def has_projective_summand(M: Representation) -> bool:
    return any(_iso_vertex(leaf, projective_at) is not None for leaf, _ in decompose(M).summands)


def has_injective_summand(M: Representation) -> bool:
    return any(_iso_vertex(leaf, injective_at) is not None for leaf, _ in decompose(M).summands)


def dtr(M: Representation) -> Representation:
    """The translate DTr M: kernel of the Nakayama transport of the minimal
    projective resolution differential."""
    if M.total_dim == 0:
        return M
    if has_projective_summand(M):
        raise HasProjectiveSummandError("DTr is undefined on projective summands")
    res = min_projective_resolution(M)
    nu, _, _ = nakayama_on_projmap(res.differential, res.p1, res.p0)
    return kernel(nu)[0]


def trd(M: Representation) -> Representation:
    """The translate TrD M: cokernel of the inverse Nakayama transport of the
    minimal injective copresentation differential."""
    if M.total_dim == 0:
        return M
    if has_injective_summand(M):
        raise HasInjectiveSummandError("TrD is undefined on injective summands")
    cop = min_injective_copresentation(M)
    g, _, _ = inverse_nakayama_on_injmap(cop.differential, cop.i0, cop.i1)
    return cokernel(g)[0]


# ---------------------------------------------------------------------------
# knitting


@dataclass
class RegistryEntry:
    label: str
    rep: Representation
    index: int
    projective_vertex: str | None = None
    injective_vertex: str | None = None
    simple_vertex: str | None = None
    tau_minus: int | None = None   # registry index of TrD, None for injectives

    @property
    def is_projective(self) -> bool:
        return self.projective_vertex is not None

    @property
    def is_injective(self) -> bool:
        return self.injective_vertex is not None


@dataclass
class IndecRegistry:
    """Iso-classes of indecomposables discovered by knitting from the
    projectives; complete means the tau-minus closure terminated."""

    quiver: Quiver
    field: Field
    entries: list[RegistryEntry] = dc_field(default_factory=list)
    complete: bool = False
    cap: int = 0

    def find_iso(self, M: Representation) -> int | None:
        for e in self.entries:
            if e.rep.dims == M.dims and indec_iso_witness(e.rep, M) is not None:
                return e.index
        return None

    def find_or_none(self, M: Representation) -> RegistryEntry | None:
        i = self.find_iso(M)
        return None if i is None else self.entries[i]

    def label_of(self, M: Representation) -> str:
        """Registry label of M, or a dimension-vector placeholder when M is
        not (yet) registered."""
        i = self.find_iso(M)
        if i is not None:
            return self.entries[i].label
        return "M" + str(list(M.dims)) + "#?"

    def by_label(self, label: str) -> RegistryEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise SemanticError(f"no registry entry labelled {label!r}")


def _make_label(entry: RegistryEntry) -> str:
    if entry.projective_vertex is not None:
        return f"P_{entry.projective_vertex}"
    if entry.injective_vertex is not None:
        return f"I_{entry.injective_vertex}"
    if entry.simple_vertex is not None:
        return f"S_{entry.simple_vertex}"
    return "M" + str(list(entry.rep.dims)) + f"#{entry.index}"


def knit(q: Quiver, field: Field = RATIONALS, cap: int = 5000) -> IndecRegistry:
    """Enumerate indecomposables by iterating TrD from the projectives.

    The registry closes (complete=True) exactly when every tau-minus orbit
    reaches an injective; on Dynkin quivers this recovers the positive-root
    count.  Hitting the cap returns the partial registry with complete=False.
    """
    if cap < q.n_vertices:
        raise SemanticError(f"cap {cap} is smaller than the vertex count {q.n_vertices}")
    reg = IndecRegistry(q, field, cap=cap)

    def register(M: Representation) -> RegistryEntry:
        idx = len(reg.entries)
        entry = RegistryEntry("", M, idx, projective_vertex=_iso_vertex(M, projective_at),
                              injective_vertex=_iso_vertex(M, injective_at))
        if sum(M.dims) == 1:
            entry.simple_vertex = q.vertices[M.dims.index(1)]
        entry.label = _make_label(entry)
        reg.entries.append(entry)
        return entry

    for x in q.vertices:
        register(projective_at(q, x, field))
    i = 0
    truncated = False
    while i < len(reg.entries):
        entry = reg.entries[i]
        if entry.is_injective:
            i += 1
            continue
        t = trd(entry.rep)
        invariant(is_indecomposable(t), "TrD of an indecomposable must be indecomposable")
        j = reg.find_iso(t)
        if j is None:
            if len(reg.entries) >= cap:
                truncated = True
                break
            j = register(t).index
        entry.tau_minus = j
        i += 1
    reg.complete = not truncated and i >= len(reg.entries)
    return reg


# ---------------------------------------------------------------------------
# Dynkin classification of the underlying graph


def classify_underlying_graph(q: Quiver) -> tuple[str, tuple[str, ...] | None]:
    """("dynkin", types per component) or ("non-dynkin", None).

    The check forgets orientation; multiple edges or any non-ADE tree shape
    disqualify the quiver."""
    n = q.n_vertices
    adj = [set() for _ in range(n)]
    edge_count = {}
    for a in q.arrows:
        s, t = q.vertex_index[a.source], q.vertex_index[a.target]
        key = (min(s, t), max(s, t))
        edge_count[key] = edge_count.get(key, 0) + 1
        adj[s].add(t)
        adj[t].add(s)
    if any(c > 1 for c in edge_count.values()):
        return ("non-dynkin", None)
    seen = [False] * n
    types = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        edges = sum(1 for (s, t) in edge_count if s in comp and t in comp)
        if edges != len(comp) - 1:
            return ("non-dynkin", None)   # not a tree
        t = _ade_type([len(adj[v]) for v in comp], comp, adj)
        if t is None:
            return ("non-dynkin", None)
        types.append(t)
    return ("dynkin", tuple(types))


def _ade_type(degrees, comp, adj):
    n = len(comp)
    if max(degrees, default=0) <= 2:
        return f"A{n}"
    if degrees.count(3) != 1 or max(degrees) > 3:
        return None
    center = comp[degrees.index(3)]
    arms = []
    for w in adj[center]:
        length = 1
        prev, cur = center, w
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None   # second branch vertex
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    return None
