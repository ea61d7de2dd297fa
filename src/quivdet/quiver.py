"""Finite acyclic quivers: parsing, paths, the Euler form, the Dynkin
classification of the underlying graph, and the canonical representations.

The quiver file format is line-oriented UTF-8 text:

    # comment
    vertex <name>
    arrow <name> <source> <target>

The order of ``vertex`` lines fixes vertex indices, which in turn fix every
basis and matrix of the canonical projective/injective/simple representations.
Everything here needs only a quiver; the memo tables of the computations over
one quiver object, Hom spaces included, are its reps.Workspace, and the
canonical representations are built through it.
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
)
from .linalg import RATIONALS, Field, Mat


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
    def workspace(self):
        """Memo tables of the computations over this quiver object, a
        reps.Workspace (reps builds on this module, so it is imported here)."""
        from .reps import Workspace

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
    generators[j] to y, listed as reps.Workspace.paths_from lists them.
    slots[y] gives the (generator j, path index k) of the basis vector of
    P(y) that each basis vector of M(y) is the image of."""

    generators: tuple[int, ...]
    relations: tuple
    slots: tuple


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


def _walk_paths(path_lists, start, extend) -> list[list]:
    """The value of every path in path_lists (one list per vertex), listed
    the same way, from one walk in order of length.  The trivial path has the
    value start, and extend(done, arrows) gives the value of a longer path
    from done, which maps the arrow sequence of every shorter path to its
    value."""
    done = {(): start}
    for p in sorted((p for paths in path_lists for p in paths), key=len):
        if p.arrows:
            done[p.arrows] = extend(done, p.arrows)
    return [[done[p.arrows] for p in paths] for paths in path_lists]


def classify_underlying_graph(q: Quiver) -> tuple[str, tuple[str, ...] | None]:
    """("dynkin", types per component) or ("non-dynkin", None).

    The check forgets orientation; multiple edges or any non-ADE tree shape
    disqualify the quiver."""
    n = q.n_vertices
    adj = [set() for _ in range(n)]
    edge_count = {}
    for s, t in q.arrow_ends:
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
        return ws.own(ws.indecomposable(ws.presented(P, presentation)))

    return ws.memo(ws.canonical, ("P", x, field), build)


def injective_at(q: Quiver, x: str, field: Field = RATIONALS):
    """Indecomposable injective I_x: basis of I_x(y) is the path list y -> x,
    arrows act by stripping the first arrow (left truncation)."""
    ws = q.workspace
    xi = q.vertex_index[x]
    return ws.memo(ws.canonical, ("I", x, field), lambda: ws.own(ws.indecomposable(
        _path_representation(q, field, [ws.paths_from(yi)[xi] for yi in range(q.n_vertices)],
                             lambda p, ai: p[1:] if p and p[0] == ai else None))))


def simple_at(q: Quiver, x: str, field: Field = RATIONALS):
    """Simple S_x: one-dimensional at x, zero elsewhere."""
    from .reps import Representation

    xi = q.vertex_index[x]
    dims = tuple(1 if i == xi else 0 for i in range(q.n_vertices))
    return Representation(q, field, dims, tuple(Mat.zero(field, dims[ti], dims[si])
                                                for si, ti in q.arrow_ends))
