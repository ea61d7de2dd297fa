"""Nakayama transport, the translates DTr and TrD, knitting enumeration of
indecomposables, Dynkin classification of the underlying graph, and the
Euler form.

Hom(P_x, P_y) has the paths y -> x as a canonical basis (read off the image of
the trivial-path generator), and Hom(I_x, I_y) has the same index set (read
off the coefficient of the trivial path at vertex y).  The Nakayama
equivalence is implemented as exactly this relabeling: a map between explicit
sums of projectives is transported verbatim, in path coordinates, to the
corresponding sum of injectives, and conversely.  Both directions are one
transport body driven by the two kind entries _PROJ and _INJ; coefficients are
read at the block offsets that each BlockSum carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

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
    generator of the domain block, the first coordinate of that block."""
    q = g.domain.quiver
    coeffs = {}
    for j, x in enumerate(dom.block_vertices):
        xi = q.vertex_index[x]
        img = g.comps[xi].col(dom.offsets[xi][j])
        cut = cod.offsets[xi]
        for i, y in enumerate(cod.block_vertices):
            paths = paths_between(q, y, x)
            if cut[i + 1] - cut[i] != len(paths):
                raise InputNotInPathBasisError("projective block structure is malformed")
            for p, c in zip(paths, img[cut[i]:cut[i + 1]]):
                if c:
                    coeffs[(i, j, p.arrows)] = c
    return coeffs


def _path_coefficients_inj(h: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Coefficients of a map between injective block sums in path bases.

    Block (i, j) is a map I_{x_j} -> I_{y_i}; the coefficient of the path
    p: y_i -> x_j is read at vertex y_i as the trivial-path coordinate (the
    first coordinate of the codomain block) of the image of the basis vector p."""
    q = h.domain.quiver
    coeffs = {}
    for i, y in enumerate(cod.block_vertices):
        yi = q.vertex_index[y]
        row = h.comps[yi].entries[cod.offsets[yi][i]]
        cut = dom.offsets[yi]
        for j, x in enumerate(dom.block_vertices):
            paths = paths_between(q, y, x)
            if cut[j + 1] - cut[j] != len(paths):
                raise InputNotInPathBasisError("injective block structure is malformed")
            for p, c in zip(paths, row[cut[j]:cut[j + 1]]):
                if c:
                    coeffs[(i, j, p.arrows)] = c
    return coeffs


def _map_from_coefficients(coeffs, dom: BlockSum, cod: BlockSum, basis, act) -> RepMorphism:
    """Map between block sums with prescribed path coefficients.

    At vertex z the block of x has the path list basis(q, z, x) as its basis;
    a coefficient path p: y -> x sends the basis path r of an x-block to the
    basis path act(p, r) of a y-block, or to zero when that is None."""
    q, field = dom.rep.quiver, dom.rep.field
    comps = []
    for zi, z in enumerate(q.vertices):
        m = [[field.zero] * dom.rep.dims[zi] for _ in range(cod.rep.dims[zi])]
        # the rows of m, one per basis path of a codomain block, by arrow sequence
        cod_index = [{pp.arrows: t for t, pp in enumerate(basis(q, z, y))} for y in cod.block_vertices]
        dom_paths = [basis(q, z, x) for x in dom.block_vertices]
        for (i, j, parrows), c in coeffs.items():
            for t, r in enumerate(dom_paths[j]):
                target = act(parrows, r.arrows)
                if target is not None:
                    row, col = cod.offsets[zi][i] + cod_index[i][target], dom.offsets[zi][j] + t
                    m[row][col] = m[row][col] + c
        comps.append(Mat.from_rows(field, m, dom.rep.dims[zi]))
    return RepMorphism(dom.rep, cod.rep, tuple(comps))


# The two kinds of the Nakayama equivalence, each a coefficient reader, a map
# writer and a block-sum builder.  P_x(z) has the paths x -> z as basis, and a
# coefficient path p: y -> x acts by precomposition (p, then the basis path);
# I_x(z) has the paths z -> x, and p sends the basis path r = r' followed by p
# to r': z -> y, and every other basis path to zero.
_PROJ = (_path_coefficients_proj,
         partial(_map_from_coefficients, basis=lambda q, z, x: paths_between(q, x, z),
                 act=lambda p, r: p + r),
         projective_block_sum)
_INJ = (_path_coefficients_inj,
        partial(_map_from_coefficients, basis=lambda q, z, x: paths_between(q, z, x),
                act=lambda p, r: r[:len(r) - len(p)] if r[len(r) - len(p):] == p else None),
        injective_block_sum)


def _transport(m: RepMorphism, dom: BlockSum, cod: BlockSum, src, dst):
    """Transport a map between explicit sums of kind src to the sums of kind
    dst on the same block vertices, keeping its path coefficients."""
    q, field = m.domain.quiver, m.domain.field
    read, write_back, _ = src
    read_back, write, block_sum = dst
    coeffs = read(m, dom, cod)
    tdom, tcod = (block_sum(q, field, bs.block_vertices) for bs in (dom, cod))
    # safety: transporting back must reproduce m exactly
    try:
        t = write(coeffs, tdom, tcod)
        back = write_back(read_back(t, tdom, tcod), dom, cod)
    except SemanticError as e:
        raise InputNotInPathBasisError(f"blocks do not carry the map: {e}") from None
    if back != m:
        raise InputNotInPathBasisError("map could not be transported faithfully")
    return t, tdom, tcod


def nakayama_on_projmap(g: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Transport a map between explicit projective sums along P_x -> I_x.

    Returns the transported morphism together with its domain and codomain
    injective block sums."""
    return _transport(g, dom, cod, _PROJ, _INJ)


def inverse_nakayama_on_injmap(h: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Transport a map between explicit injective sums along I_x -> P_x."""
    return _transport(h, dom, cod, _INJ, _PROJ)


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
        return _label(M, (), "?") if i is None else self.entries[i].label

    def by_label(self, label: str) -> RegistryEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise SemanticError(f"no registry entry labelled {label!r}")


def _canonical_vertices(M: Representation):
    """(x, y, z) with the indecomposable M isomorphic to P_x, I_y and S_z,
    each None when there is no such vertex."""
    simple = M.quiver.vertices[M.dims.index(1)] if sum(M.dims) == 1 else None
    return _iso_vertex(M, projective_at), _iso_vertex(M, injective_at), simple


def _label(M: Representation, vertices, tag) -> str:
    """P_x, I_x or S_x for the first canonical vertex given, else the
    dimension vector tagged with tag."""
    for kind, x in zip("PIS", vertices):
        if x is not None:
            return f"{kind}_{x}"
    return "M" + str(list(M.dims)) + f"#{tag}"


def canonical_label(M: Representation) -> str:
    """Label of an indecomposable without a registry: P_x, I_x or S_x by the
    rules knit uses, else the placeholder of IndecRegistry.label_of."""
    return _label(M, _canonical_vertices(M), "?")


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
        vertices = _canonical_vertices(M)
        entry = RegistryEntry(_label(M, vertices, idx), M, idx, *vertices)
        reg.entries.append(entry)
        return entry

    for x in q.vertices:
        register(projective_at(q, x, field))
    # the tau-minus orbits of the projectives never meet: from
    # tau^-k P_x = tau^-l P_y with k >= l, applying tau l times gives
    # tau^-(k-l) P_x = P_y, so k = l and x = y; each TrD is a new entry
    reg.complete = True
    for entry in reg.entries:  # grows while it is walked
        if entry.is_injective:
            continue
        if len(reg.entries) >= cap:
            reg.complete = False
            break
        t = trd(entry.rep)
        invariant(is_indecomposable(t), "TrD of an indecomposable must be indecomposable")
        entry.tau_minus = register(t).index
    kind, types = classify_underlying_graph(q)
    if reg.complete and kind == "dynkin":
        invariant(len(reg.entries) == positive_root_count(types),
                  "complete Dynkin registry does not have the positive-root count")
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


def positive_root_count(types) -> int:
    """Indecomposables of a Dynkin quiver (Gabriel): the positive roots of
    each component type, summed."""
    def roots(t: str) -> int:
        n = int(t[1:])
        if t[0] == "A":
            return n * (n + 1) // 2
        if t[0] == "D":
            return n * (n - 1)
        return {6: 36, 7: 63, 8: 120}[n]

    return sum(roots(t) for t in types)


def euler_form(q: Quiver, a, b) -> int:
    """<a, b> = sum_x a_x b_x - sum over arrows x -> y of a_x b_y, on
    dimension vectors in vertex order."""
    vi = q.vertex_index
    return (sum(x * y for x, y in zip(a, b))
            - sum(a[vi[arr.source]] * b[vi[arr.target]] for arr in q.arrows))


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
