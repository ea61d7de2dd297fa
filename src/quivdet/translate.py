"""Nakayama transport, the translates TrD and DTr, knitting enumeration of
indecomposables, positive-root counts, and the Cartan and inverse Coxeter
matrices.  The Euler form and the Dynkin classification of the underlying
graph need only a quiver: they are quiver.euler_form and
quiver.classify_underlying_graph, re-exported here.

Hom(P_x, P_y) has the paths y -> x as a canonical basis (read off the image of
the trivial-path generator), and Hom(I_x, I_y) has the same index set (read
off the coefficient of the trivial path at vertex y).  The inverse Nakayama
equivalence is exactly this relabeling: the trivial-path rows of a map
between explicit sums of injectives, cut at the offsets each BlockSum
carries and regrouped, are the generator images of the map between the sums
of projectives, which map_from_generators writes.  trd takes the rows from
the copresentation that wrote them; the one public transport,
inverse_nakayama_on_injmap, reads them off the given map and checks that
they write it back.  DTr is TrD over the opposite quiver conjugated by the
duality D (Auslander-Reiten-Smalo ch. IV.1), so dtr has no code of its own.

knit plans its registry on the integer skeleton first: the Cartan and
inverse Coxeter matrices fix the order of the entries, their dimension
vectors, where each tau-minus orbit of a projective ends and where the cap
cuts it.  The orbits never meet, so they are built side by side, in worker
processes that send their entries and workspace records back.
"""

from __future__ import annotations

import io
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from operator import mul
from typing import NamedTuple

from .decompose import indec_iso_witness, is_indecomposable
from .errors import (
    HasInjectiveSummandError,
    HasProjectiveSummandError,
    InputNotInPathBasisError,
    SemanticError,
    invariant,
)
from .linalg import Field, RATIONALS, column_space
from .quiver import (
    Presentation,
    Quiver,
    classify_underlying_graph,
    euler_form,
    injective_at,
    projective_at,
)
from .reps import RepMorphism, Representation, dual_representation, quotient_representation
from .structure import (
    BlockSum,
    map_from_generators,
    map_to_cogenerators,
    min_injective_copresentation,
    projective_block_sum,
)


def _regroup(vecs, cut: BlockSum, paste: BlockSum) -> list[tuple]:
    """Regroup the blocks of a map for the other side of the transport.

    Block (i, j) has the paths y_i -> x_j as its basis on both sides.  Each
    vecs[k] belongs to block k of paste and is cut, at the offsets of cut at
    its vertex, into one block per block of cut.  Entry l of the result joins
    block l of every vecs[k]; each must be as long as block k of paste is at
    the vertex of block l of cut, else the block structure is malformed."""
    vi = cut.rep.quiver.vertex_index
    cuts = [cut.offsets[vi[x]] for x in paste.block_vertices]
    out = []
    for l, y in enumerate(cut.block_vertices):
        blocks = [v[c[l]:c[l + 1]] for v, c in zip(vecs, cuts)]
        at = paste.offsets[vi[y]]
        if [len(b) for b in blocks] != [e - s for s, e in zip(at, at[1:])]:
            raise InputNotInPathBasisError("block structure is malformed")
        out.append(sum(blocks, ()))
    return out


def _inverse_nakayama(dom: BlockSum, cod: BlockSum, rows):
    """nu^-1 of the map with trivial-path rows rows, with its projective sums."""
    q, field = dom.rep.quiver, dom.rep.field
    tdom, tcod = (projective_block_sum(q, field, bs.block_vertices) for bs in (dom, cod))
    return map_from_generators(tdom, tcod.rep, _regroup(rows, dom, tcod)), tdom, tcod


def inverse_nakayama_on_injmap(h: RepMorphism, dom: BlockSum, cod: BlockSum):
    """Transport a map between explicit injective sums along I_x -> P_x;
    returns it with its domain and codomain projective block sums.  The
    trivial-path rows it reads must write h back, else
    InputNotInPathBasisError; so must an offset table that points past h."""
    vi = h.domain.quiver.vertex_index
    try:
        rows = [h.comps[vi[y]].entries[cod.offsets[vi[y]][i]] for i, y in enumerate(cod.block_vertices)]
        out = _inverse_nakayama(dom, cod, rows)
        if map_to_cogenerators(dom.rep, cod, rows) != h:
            raise InputNotInPathBasisError("map could not be transported faithfully")
        return out
    except (SemanticError, IndexError) as e:
        raise InputNotInPathBasisError(f"blocks do not carry the map: {e}") from None


def _iso_vertex(M: Representation, canonical, by_dims: dict) -> str | None:
    """The vertex x with the indecomposable M isomorphic to
    canonical(q, x, field), or None.  by_dims maps dim canonical(q, x) to x;
    these are pairwise distinct (_cartan_vertices), so the vertex with M's
    dimension vector is the only candidate, certified by one
    indec_iso_witness."""
    x = by_dims.get(M.dims)
    if x is None or indec_iso_witness(M, canonical(M.quiver, x, M.field)) is None:
        return None
    return x


def dtr(M: Representation) -> Representation:
    """The translate DTr M = D TrD D M, TrD taken over the opposite quiver in
    one request on its workspace, so the presentation trd records there goes
    when the call ends.  D M has an injective summand exactly when M has a
    projective one: HasProjectiveSummandError."""
    with M.quiver.opposite.workspace.request():
        try:
            return dual_representation(trd(dual_representation(M)))
        except HasInjectiveSummandError:
            raise HasProjectiveSummandError("DTr is undefined on projective summands") from None


def trd(M: Representation) -> Representation:
    """The translate TrD M: the cokernel of nu^-1(d): P_0 -> P_1, written from
    the trivial-path rows of the minimal injective copresentation differential
    d.  Its kernel Hom(DA, M) is zero on a hereditary path algebra exactly
    when M has no injective summand, which the cokernel's dimension
    dim P_1 - dim P_0 shows; otherwise HasInjectiveSummandError.  The
    workspace records nu^-1(d) as the projective presentation of TrD M, off
    which Workspace.hom reads every Hom space out of TrD M."""
    if M.total_dim == 0:
        return M
    cop = min_injective_copresentation(M)
    g, p0, p1 = _inverse_nakayama(cop.i0, cop.i1, cop.rows)
    images = [column_space(c) for c in g.comps]
    C = quotient_representation(p1.rep, images)
    if C.dims != tuple(a - b for a, b in zip(p1.rep.dims, p0.rep.dims)):
        raise HasInjectiveSummandError("TrD is undefined on injective summands")
    return M.quiver.workspace.presented(C, _cokernel_presentation(g, p0, p1, images))


def _cokernel_presentation(g: RepMorphism, dom: BlockSum, cod: BlockSum, images) -> Presentation:
    """The presentation of coker(g) for g: dom -> cod between projective
    block sums, with images[y] the image of g at vertex y: the generators
    are the blocks of cod, a relation is the image of the generator of a
    block of dom, and the slots are the coordinates of cod left free by
    the images, which reps.quotient_representation keeps."""
    vi = g.domain.quiver.vertex_index

    def slot(yi, k):
        # block j of cod holds the paths from its vertex to y at vertex y
        cut = cod.offsets[yi]
        j = bisect_right(cut, k) - 1
        return j, k - cut[j]

    relations = []
    for i, y in enumerate(dom.block_vertices):
        yi = vi[y]
        image = g.comps[yi].col(dom.offsets[yi][i])
        relations.append((yi, tuple((*slot(yi, k), c) for k, c in enumerate(image) if c)))
    slots = tuple(tuple(slot(yi, k) for k in sorted(set(range(s.ambient_dim)).difference(s.pivots)))
                  for yi, s in enumerate(images))
    return Presentation(tuple(vi[x] for x in cod.block_vertices), tuple(relations), slots)


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
    orbit: tuple[str, int] | None = None  # (x, k) when the entry is tau^-k P_x

    @property
    def is_projective(self) -> bool:
        return self.projective_vertex is not None

    @property
    def is_injective(self) -> bool:
        return self.injective_vertex is not None


@dataclass
class IndecRegistry:
    """Iso-classes of indecomposables discovered by knitting from the
    projectives; complete means the tau-minus closure terminated.  Knitted
    entries are preprojective, so their dimension vectors tell them apart:
    by_dims maps each to its entry index, and each carries its orbit
    coordinate."""

    quiver: Quiver
    field: Field
    entries: list[RegistryEntry] = dc_field(default_factory=list)
    complete: bool = False
    cap: int = 0
    by_dims: dict = dc_field(default_factory=dict)

    def find_iso(self, M: Representation) -> int | None:
        i = self.by_dims.get(M.dims)
        if i is None or indec_iso_witness(self.entries[i].rep, M) is None:
            return None
        return i

    def find_or_none(self, M: Representation) -> RegistryEntry | None:
        i = self.find_iso(M)
        return None if i is None else self.entries[i]

    def label_of(self, M: Representation) -> str:
        """Registry label of M, or a dimension-vector placeholder when M is
        not (yet) registered."""
        i = self.find_iso(M)
        return _label(M, (), "?") if i is None else self.entries[i].label

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per entry, the indices of its direct predecessors in the AR
        quiver, or None when they are not all registered.  Read once the
        registry is built.

        The preprojective component has the shape NQ^op: the predecessors
        of tau^-k P_x are tau^-k P_y for each arrow x -> y and
        tau^-(k-1) P_z for each arrow z -> x, where those exist.  One does
        not exist when its orbit ends at an injective before it; one past
        the cap, or an entry without an orbit coordinate, gives None."""
        at = {e.orbit: e.index for e in self.entries if e.orbit is not None}
        ended = {e.orbit[0]: e.orbit[1] for e in self.entries if e.orbit is not None and e.is_injective}
        q = self.quiver

        def preds(entry):
            if entry.orbit is None:
                return None
            x, k = entry.orbit
            xi = q.vertex_index[x]
            wanted = ([(t, k) for s, t in q.arrow_ends if s == xi]
                      + [(s, k - 1) for s, t in q.arrow_ends if t == xi and k])
            found = set()
            for yi, j in wanted:
                y = q.vertices[yi]
                if (y, j) in at:
                    found.add(at[(y, j)])
                elif y not in ended:
                    # past the cap; an orbit that ends at an injective
                    # registers every entry up to its end
                    return None
            return tuple(sorted(found))

        return tuple(map(preds, self.entries))

    def by_label(self, label: str) -> RegistryEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise SemanticError(f"no registry entry labelled {label!r}")


def _cartan_vertices(q: Quiver, c: list[list[int]]) -> tuple[dict, dict]:
    """({dim P_x: x}, {dim I_x: x}), read off the columns and rows of
    c = cartan_matrix(q).  On an acyclic quiver each map is one-to-one:
    dim P_x = dim P_y has P_y(x) != 0 and P_x(y) != 0, a path each way
    between x and y, so x = y; dually for I."""
    return ({col: x for x, col in zip(q.vertices, zip(*c))},
            {tuple(row): x for x, row in zip(q.vertices, c)})


def _canonical_vertices(M: Representation, cartan: tuple[dict, dict]):
    """(x, y, z) with the indecomposable M isomorphic to P_x, I_y and S_z,
    each None when there is no such vertex.  P_x and I_y are looked up by
    dimension vector in cartan, the maps of _cartan_vertices, and each is
    certified by one isomorphism witness."""
    by_p, by_i = cartan
    simple = M.quiver.vertices[M.dims.index(1)] if sum(M.dims) == 1 else None
    return _iso_vertex(M, projective_at, by_p), _iso_vertex(M, injective_at, by_i), simple


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
    q = M.quiver
    return _label(M, _canonical_vertices(M, _cartan_vertices(q, cartan_matrix(q))), "?")


def knit(q: Quiver, field: Field = RATIONALS, cap: int = 5000) -> IndecRegistry:
    """Enumerate indecomposables by iterating TrD from the projectives.

    The registry closes (complete=True) exactly when every tau-minus orbit
    reaches an injective; on Dynkin quivers this recovers the positive-root
    count.  Hitting the cap returns the partial registry with complete=False.

    _skeleton plans the registry in integer arithmetic: its order, each
    entry's dimension vector, where each orbit ends and where the cap cuts.
    The tau-minus orbits of the projectives never meet: from
    tau^-k P_x = tau^-l P_y with k >= l, applying tau l times gives
    tau^-(k-l) P_x = P_y, so k = l and x = y.  So each orbit is a chain of
    TrDs that needs nothing from the others, and the orbits are built in
    up to one process per CPU (_build_shares).  Every TrD must be
    indecomposable and have the dimension vector that coxeter_inverse
    gives, and every entry must be labelled I_x exactly where the skeleton
    ends its orbit, else InvariantError.
    """
    if cap < q.n_vertices:
        raise SemanticError(f"cap {cap} is smaller than the vertex count {q.n_vertices}")
    c = cartan_matrix(q)
    steps, complete = _skeleton(q, c, cap)
    built = _build_shares(q, field, steps, _cartan_vertices(q, c))
    reg = IndecRegistry(q, field, complete=complete, cap=cap)
    for i, step in enumerate(steps):
        M, vertices = built[i]
        invariant(M.dims == step.dims, "an entry does not have the dimension vector of the skeleton")
        invariant((vertices[1] is not None) == step.injective,
                  "an I_x label disagrees with the end of its orbit under the Coxeter transformation")
        reg.by_dims[M.dims] = i
        reg.entries.append(RegistryEntry(_label(M, vertices, i), M, i, *vertices,
                                         tau_minus=step.tau_minus, orbit=step.orbit))
    kind, types = classify_underlying_graph(q)
    if reg.complete and kind == "dynkin":
        invariant(len(reg.entries) == positive_root_count(types),
                  "complete Dynkin registry does not have the positive-root count")
    return reg


def _build(q: Quiver, field: Field, steps, orbits, cartan) -> dict:
    """The entries of the orbits of the vertices in orbits, in skeleton
    order: step index -> (representative, _canonical_vertices of it).  Each
    TrD is checked and owned as it is built."""
    ws = q.workspace
    built, last = {}, {}
    for i, step in enumerate(steps):
        x, k = step.orbit
        if x not in orbits:
            continue
        if k:
            t = trd(last[x])
            invariant(is_indecomposable(t), "TrD of an indecomposable must be indecomposable")
            invariant(t.dims == step.dims,
                      "TrD does not have the dimension vector of the Coxeter transformation")
            last[x] = ws.own(t)
        else:
            last[x] = projective_at(q, x, field)
        built[i] = last[x], _canonical_vertices(last[x], cartan)
    return built


# Predicted cost (_costs) below which knit runs in one process: a worker
# costs a fork, a pickle and a load, and two busy processes slow each
# other down.  Alternating knits in one and two processes on a shared
# 2-CPU Xeon: Kronecker cap 12 (cost 168), E6 (372), D8 (408) and A10
# (770) were no faster in two; A12 (1300), E8 (2200) and A15 (2480) were
# 8-23% faster while the second CPU was free, and no faster when it was
# not.
_FORK_COST = 1000


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _costs(steps) -> dict:
    """Each orbit's predicted build cost: an entry costs the vertex count
    plus its total dimension.  Split in two by it, E6, E8 and A15 each get
    halves within 1% of half the time of a build in one process."""
    cost: dict = {}
    for step in steps:
        x = step.orbit[0]
        cost[x] = cost.get(x, 0) + len(step.dims) + sum(step.dims)
    return cost


def _shares(cost: dict, n: int) -> list[set]:
    """The orbits split into n shares of about equal cost, heaviest share
    first (greedy, heaviest orbit first)."""
    shares, loads = [set() for _ in range(n)], [0] * n
    for x in sorted(cost, key=cost.get, reverse=True):
        j = loads.index(min(loads))
        shares[j].add(x)
        loads[j] += cost[x]
    return [s for _, s in sorted(zip(loads, shares), key=lambda p: -p[0])]


def _build_shares(q: Quiver, field: Field, steps, cartan) -> dict:
    """_build over every orbit, split over min(CPUs, orbits with a TrD)
    processes: the parent builds the heaviest share and os.fork starts one
    worker for each other share.  A worker sends back its entries and the
    workspace records that live for the quiver's life (Workspace.recording),
    pickled with the quiver, the field and the objects the parent owned
    before the fork as persistent ids; the parent adopts them, so requests
    find what a knit in one process leaves.  A worker's exception is raised
    again in the parent, and every worker is reaped before this returns.
    With one CPU, no os.fork or another thread alive (forking a threaded
    process is unsafe) the single share is built in-process, and so is a
    knit whose predicted cost is below _FORK_COST."""
    ws = q.workspace
    for x in q.vertices:  # shared with the workers, and looked up by labels
        projective_at(q, x, field)
        injective_at(q, x, field)
    cost = _costs(steps)
    busy = {step.orbit[0] for step in steps if step.tau_minus is not None}
    n = 1
    if sum(cost.values()) >= _FORK_COST and hasattr(os, "fork") \
            and threading.active_count() == 1:
        n = min(_cpus(), len(busy))
    if n < 2:
        return _build(q, field, steps, set(cost), cartan)
    import pickle  # only a knit that forks pays for these imports
    import signal

    own, *others = _shares(cost, n)
    shared = {id(o): o for o in (q, field, *ws.owned)}

    def work(orbits):
        with ws.recording() as records:
            built = _build(q, field, steps, orbits, cartan)
        return built, [o for o in ws.owned if id(o) not in shared], records

    workers = []
    try:
        for orbits in others:
            try:
                workers.append(_fork(partial(work, orbits), shared))
            except OSError:  # no process to be had: build the share here
                own |= orbits
        built = _build(q, field, steps, own, cartan)
        for pid, fd in workers:
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"knit worker {pid} ended without a result")
            unpickler = pickle.Unpickler(io.BytesIO(data))
            unpickler.persistent_load = shared.__getitem__
            ok, result = unpickler.load()
            if not ok:
                raise result
            share, owned, records = result
            ws.adopt(owned, records)
            built.update(share)
    finally:
        # a worker whose result was read has closed its pipe and is leaving;
        # any other is stopped
        for pid, fd in workers:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return built


def _fork(work, shared) -> tuple[int, int]:
    """Run work() in a forked worker: its pid and the read end of a pipe
    that carries (True, work()) or (False, the exception it raised),
    pickled with the objects of shared as persistent ids.  The worker
    writes nothing else and leaves by os._exit, so it flushes none of the
    parent's buffers."""
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    try:
        os.close(r)
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: id(obj) if id(obj) in shared else None
        try:
            result = True, work()
        except BaseException as e:  # the parent raises it again
            result = False, e
        pickler.dump(result)
        with open(w, "wb") as pipe:
            pipe.write(buf.getvalue())
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# the integer skeleton


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


def cartan_matrix(q: Quiver) -> list[list[int]]:
    """C[i][j] = the number of paths from vertex j to vertex i, so column j
    is dim P_j and row i is dim I_i; counted in topological order."""
    n = q.n_vertices
    c = [[int(i == j) for j in range(n)] for i in range(n)]
    for v in q.topological_order:
        for ai in q.arrows_into[v]:
            c[v] = [x + y for x, y in zip(c[v], c[q.arrow_ends[ai][0]])]
    return c


def coxeter_inverse(q: Quiver, c: list[list[int]] | None = None) -> list[list[int]]:
    """The inverse Coxeter matrix -C C^-T: dim TrD M = Phi^-1 dim M for every
    indecomposable non-injective M (Auslander-Reiten-Smalo ch. VIII).  C^-T
    is I - A, the Gram matrix of euler_form, with A[x][y] the arrows x -> y.
    c is C = cartan_matrix(q), computed here when not given."""
    c = cartan_matrix(q) if c is None else c
    phi = [[-x for x in row] for row in c]
    for s, t in q.arrow_ends:
        for row, out in zip(c, phi):
            out[t] += row[s]
    return phi


def _skeleton(q: Quiver, c: list[list[int]], cap: int) -> tuple[list["_Step"], bool]:
    """The registry knit builds, in integer arithmetic alone, and whether it
    is complete: the breadth-first order of the entries tau^-k P_x from the
    projectives, each with its dimension vector Phi^-1 dim tau^-(k-1) P_x,
    injective exactly when Phi^-1 dim has a negative coordinate (Phi^-1 dim
    I_x = -dim P_x, while Phi^-1 dim M = dim TrD M for every other
    indecomposable M), and the index of its TrD, None at an injective and
    once the cap is reached.  c is cartan_matrix(q).  Preprojective
    indecomposables are told apart by their dimension vectors, so no two
    entries may share one."""
    phi = coxeter_inverse(q, c)
    todo = [((x, 0), col) for x, col in zip(q.vertices, zip(*c))]
    steps, seen, complete = [], set(), True
    for orbit, dims in todo:  # grows while it is walked
        invariant(dims not in seen, "two registry entries share a dimension vector")
        seen.add(dims)
        after = tuple(sum(map(mul, row, dims)) for row in phi)
        injective, tau_minus = min(after) < 0, None
        if not injective and complete and len(todo) < cap:
            tau_minus = len(todo)
            todo.append(((orbit[0], orbit[1] + 1), after))
        elif not injective:
            complete = False
        steps.append(_Step(orbit, dims, injective, tau_minus))
    return steps, complete


class _Step(NamedTuple):
    orbit: tuple[str, int]          # (x, k) for tau^-k P_x
    dims: tuple[int, ...]
    injective: bool
    tau_minus: int | None
