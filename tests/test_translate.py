"""Nakayama transport, the translates, knitting, and graph classification."""

import hashlib
import importlib
import itertools
import os
import random
from pathlib import Path

import pytest

import quivdet as qd
from quivdet.errors import (
    HasInjectiveSummandError,
    HasProjectiveSummandError,
    InvariantError,
    SemanticError,
)
from quivdet.linalg import RATIONALS, Mat, column_space, field_from_name
from quivdet.reps import HomSpace, generator_kernel
from quivdet.structure import injective_block_sum, projective_block_sum

from conftest import _watch_solvers, d4_subspace_quiver

F = RATIONALS


def test_nakayama_identity_and_zero(a3):
    bs = injective_block_sum(a3, F, ("2",))
    ident = qd.identity_morphism(bs.rep)
    g, pdom, pcod = qd.inverse_nakayama_on_injmap(ident, bs, bs)
    assert g == qd.identity_morphism(pdom.rep)
    zero = qd.zero_morphism(bs.rep, bs.rep)
    gz, _, _ = qd.inverse_nakayama_on_injmap(zero, bs, bs)
    assert gz.is_zero()


def test_nakayama_sends_px_to_ix(a3):
    # read backwards: the inverse transport sends I_x to P_x
    for x in a3.vertices:
        bs = injective_block_sum(a3, F, (x,))
        _, pdom, _ = qd.inverse_nakayama_on_injmap(qd.identity_morphism(bs.rep), bs, bs)
        assert qd.is_isomorphic(pdom.rep, qd.projective_at(a3, x))


def test_nakayama_on_inclusion(a3):
    # the map I_1 -> I_2 that kills the vertex-1 component transports to
    # the inclusion P_1 -> P_2
    dom = injective_block_sum(a3, F, ("1",))
    cod = injective_block_sum(a3, F, ("2",))
    h = qd.hom_basis(dom.rep, cod.rep).basis[0]
    assert h.comps[a3.vertex_index["1"]].is_zero() and qd.kernel(h)[0].dims == (1, 0, 0)
    g, pdom, pcod = qd.inverse_nakayama_on_injmap(h, dom, cod)
    assert pdom.rep.dims == (1, 0, 0) and pcod.rep.dims == (1, 1, 0)
    assert g.is_mono() and not g.is_zero()
    assert qd.cokernel(g)[0].dims == (0, 1, 0)


def test_nakayama_rejects_malformed_blocks(a3):
    from quivdet.errors import InputNotInPathBasisError
    from quivdet.structure import BlockSum
    bs = injective_block_sum(a3, F, ("1",))
    ident = qd.identity_morphism(bs.rep)
    # claim the block is I_3: the path structure cannot carry the map, which
    # writing the map back inside the transport detects
    lying = BlockSum(bs.rep, ("3",), bs.offsets)
    with pytest.raises(InputNotInPathBasisError):
        qd.inverse_nakayama_on_injmap(ident, lying, lying)
    # a structural mismatch already fails where the blocks are read: the
    # block from the claimed I_3 to I_1 has one coordinate at vertex 3, but
    # P_3 -> P_1 has none, since no path runs 1 -> 3
    taller = injective_block_sum(a3, F, ("1", "1"))
    mism = BlockSum(taller.rep, ("1", "3"), taller.offsets)
    with pytest.raises(InputNotInPathBasisError, match="malformed"):
        qd.inverse_nakayama_on_injmap(qd.identity_morphism(taller.rep), mism, mism)
    # swapped labels point block 1 past the rows of I_2 + I_3 at vertex 2
    pair = injective_block_sum(a3, F, ("2", "3"))
    swapped = BlockSum(pair.rep, ("3", "2"), pair.offsets)
    with pytest.raises(InputNotInPathBasisError):
        qd.inverse_nakayama_on_injmap(qd.identity_morphism(pair.rep), swapped, swapped)


def test_inverse_nakayama_maps_hom_bases_and_composition(a3):
    # Kronecker: parallel arrows give several paths of one length; D4 and the
    # Kronecker sums repeat block vertices on both sides.  nu^-1 sends a
    # basis of Hom(I-sum, I-sum) to a basis of Hom(P-sum, P-sum), and
    # nu^-1(h e) = nu^-1(h) nu^-1(e) for e in End of the domain sum
    kronecker = qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")
    cases = [(a3, ("1",), ("2", "3")),
             (kronecker, ("2", "1", "2"), ("1", "2", "1")),
             (kronecker, ("1", "1"), ("1", "2")),
             (d4_subspace_quiver(), ("c", "1", "c"), ("1", "c", "2", "c"))]
    for q, dv, cv in cases:
        idom, icod = injective_block_sum(q, F, dv), injective_block_sum(q, F, cv)
        pdom, pcod = projective_block_sum(q, F, dv), projective_block_sum(q, F, cv)
        hs = qd.hom_basis(idom.rep, icod.rep)
        assert hs.dim > 0
        images = []
        for h in hs.basis:
            g, gdom, gcod = qd.inverse_nakayama_on_injmap(h, idom, icod)
            assert (gdom, gcod) == (pdom, pcod)
            images.append(qd.HomSpace.flatten(g))
        assert qd.hom_basis(pdom.rep, pcod.rep).dim == len(images)
        assert Mat.from_rows(F, images, len(images[0])).rank() == len(images)
        for e in qd.hom_basis(idom.rep, idom.rep).basis:
            nu_e = qd.inverse_nakayama_on_injmap(e, idom, idom)[0]
            for h in hs.basis:
                assert (qd.inverse_nakayama_on_injmap(h @ e, idom, icod)[0]
                        == qd.inverse_nakayama_on_injmap(h, idom, icod)[0] @ nu_e)


def test_dtr_examples(a3):
    assert qd.dtr(qd.simple_at(a3, "2")).dims == (1, 0, 0)
    assert qd.dtr(qd.simple_at(a3, "3")).dims == (0, 1, 0)
    with pytest.raises(HasProjectiveSummandError):
        qd.dtr(qd.projective_at(a3, "2"))


def test_trd_examples(a3):
    assert qd.trd(qd.projective_at(a3, "1")).dims == (0, 1, 0)
    with pytest.raises(HasInjectiveSummandError):
        qd.trd(qd.injective_at(a3, "2"))


def _unowned_keys(ws) -> set:
    """(table, key) for each workspace entry whose key is not owned."""
    return {(name, key) for name, table in vars(ws).items() if hasattr(table, "keys")
            for key in list(table.keys()) if not ws._owns(key)}


def test_translate_round_trips_on_corpus(corpus_engines):
    # tau(tau^- M) = M for every non-injective M and tau^-(tau M) = M for
    # every non-projective M; dtr runs trd over the opposite quiver in a
    # request there, so it leaves only owned objects in that workspace, and
    # a dtr inside an open request there returns the same representation
    registries = [(name, engine.registry) for name, engine in corpus_engines]
    registries += [(name, qd.knit(qd.parse_quiver(text), cap=cap)) for name, text, cap in (
        ("E6", E6_TEXT, 5000), ("D4", D4_TEXT, 5000), ("A5", A5_TEXT, 5000),
        ("kronecker-cap20", KRONECKER_TEXT, 20))]
    for name, reg in registries:
        ws = reg.quiver.opposite.workspace
        before = _unowned_keys(ws)
        for e in reg.entries:
            if not e.is_projective:
                t = qd.dtr(e.rep)
                assert qd.is_isomorphic(qd.trd(t), e.rep), (name, e.label)
                with ws.request():
                    assert qd.dtr(e.rep) == t, (name, e.label)
            if not e.is_injective:
                t = qd.trd(e.rep)
                assert qd.is_isomorphic(qd.dtr(t), e.rep), (name, e.label)
        assert _unowned_keys(ws) == before, name


def test_translates_preserve_indecomposability(a3_registry):
    for e in a3_registry.entries:
        if not e.is_injective:
            assert qd.is_indecomposable(qd.trd(e.rep))
        if not e.is_projective:
            assert qd.is_indecomposable(qd.dtr(e.rep))


KRONECKER_TEXT = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2"


def _check_summand_errors(reg, pairs):
    # TrD (DTr) of e + e' raises exactly when e or e' is injective
    # (projective); otherwise it is the sum of the two translates
    for e, e2 in pairs:
        M = qd.direct_sum([e.rep, e2.rep])[0]
        for translate, error, excluded in ((qd.trd, HasInjectiveSummandError, "is_injective"),
                                           (qd.dtr, HasProjectiveSummandError, "is_projective")):
            if getattr(e, excluded) or getattr(e2, excluded):
                with pytest.raises(error):
                    translate(M)
            else:
                dims = [translate(x.rep).dims for x in (e, e2)]
                assert translate(M).dims == tuple(map(sum, zip(*dims))), (e.label, e2.label)


@pytest.mark.parametrize("field", ["rat", "fp:10007"])
def test_summand_errors_on_every_a3_pair(a3, field):
    reg = qd.knit(a3, field_from_name(field))
    _check_summand_errors(reg, itertools.combinations_with_replacement(reg.entries, 2))


@pytest.mark.parametrize("q, cap", [(d4_subspace_quiver(), 5000),
                                    (qd.parse_quiver(KRONECKER_TEXT), 6)],
                         ids=["d4", "kronecker-cap6"])
def test_summand_errors_on_seeded_pairs(q, cap):
    reg = qd.knit(q, cap=cap)
    rng = random.Random(14)
    _check_summand_errors(reg, [tuple(rng.choices(reg.entries, k=2)) for _ in range(10)])


def test_translates_compute_no_decomposition(monkeypatch):
    # the summand checks read the transported map, not a Krull-Schmidt split;
    # a fresh quiver has nothing memoized
    def no_split(M):
        raise AssertionError("trd and dtr must not decompose")

    q = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow a 2 1\narrow b 3 2")
    S2, P1, I3 = qd.simple_at(q, "2"), qd.projective_at(q, "1"), qd.injective_at(q, "3")
    monkeypatch.setattr(importlib.import_module("quivdet.decompose"), "_split_once", no_split)
    M = qd.direct_sum([S2, P1])[0]
    assert qd.trd(M).dims == (0, 1, 1)
    with pytest.raises(HasProjectiveSummandError):
        qd.dtr(M)
    N = qd.direct_sum([S2, I3])[0]
    assert qd.dtr(N).dims == (1, 1, 0)
    with pytest.raises(HasInjectiveSummandError):
        qd.trd(N)


def test_knit_a3(a3_registry):
    assert len(a3_registry.entries) == 6
    assert a3_registry.complete
    labels = [e.label for e in a3_registry.entries]
    assert labels == ["P_1", "P_2", "P_3", "S_2", "I_2", "I_3"]
    tau = {e.label: (a3_registry.entries[e.tau_minus].label if e.tau_minus is not None else None)
           for e in a3_registry.entries}
    assert tau == {"P_1": "S_2", "P_2": "I_2", "P_3": None, "S_2": "I_3",
                   "I_2": None, "I_3": None}


def test_knit_single_vertex():
    q = qd.parse_quiver("vertex x")
    reg = qd.knit(q)
    assert len(reg.entries) == 1 and reg.complete
    e = reg.entries[0]
    assert e.is_projective and e.is_injective


def test_knit_counts_on_corpus(corpus_engines):
    expected = {2: 3, 3: 6, 4: 10}
    for name, engine in corpus_engines:
        reg = engine.registry
        if name.startswith("A"):
            n = int(name[1])
            assert len(reg.entries) == expected[n], name
        else:
            assert len(reg.entries) == 12, name
        assert reg.complete, name


def test_knit_kronecker_incomplete():
    q = qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")
    reg = qd.knit(q, cap=10)
    assert not reg.complete
    assert len(reg.entries) >= 10
    # preprojective dimension vectors for the double-arrow quiver
    dims = [e.rep.dims for e in reg.entries[:4]]
    assert dims == [(1, 2), (0, 1), (3, 4), (2, 3)]


def test_knit_cap_validation(a3):
    with pytest.raises(SemanticError):
        qd.knit(a3, cap=2)


def test_knit_cap_boundaries(a3):
    assert qd.knit(a3, cap=6).complete          # exactly enough
    partial = qd.knit(a3, cap=5)
    assert not partial.complete
    assert len(partial.entries) == 5


def test_classification():
    assert qd.classify_underlying_graph(qd.parse_quiver("vertex 1")) == ("dynkin", ("A1",))
    a3 = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow a 2 1\narrow b 3 2")
    assert qd.classify_underlying_graph(a3) == ("dynkin", ("A3",))
    assert qd.classify_underlying_graph(d4_subspace_quiver()) == ("dynkin", ("D4",))
    kron = qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")
    assert qd.classify_underlying_graph(kron) == ("non-dynkin", None)
    e6 = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
        "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
    assert qd.classify_underlying_graph(e6) == ("dynkin", ("E6",))
    # two components
    two = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow a 1 2")
    assert qd.classify_underlying_graph(two) == ("dynkin", ("A2", "A1"))
    # a cycle-free tree that is not ADE: star with four branches
    star4 = qd.parse_quiver(
        "vertex c\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 c\narrow b 2 c\narrow d 3 c\narrow e 4 c")
    assert qd.classify_underlying_graph(star4) == ("non-dynkin", None)


def _branched_path(arms):
    # one branch vertex with three arms of the given edge lengths
    lines = ["vertex c"]
    arrows = []
    for ai, length in enumerate(arms):
        prev = "c"
        for k in range(length):
            v = f"v{ai}_{k}"
            lines.append(f"vertex {v}")
            arrows.append(f"arrow a{ai}_{k} {prev} {v}")
            prev = v
    return qd.parse_quiver("\n".join(lines + arrows))


@pytest.mark.parametrize("arms,expected", [
    ((1, 1, 1), "D4"),
    ((1, 1, 3), "D6"),
    ((1, 2, 2), "E6"),
    ((1, 2, 3), "E7"),
    ((1, 2, 4), "E8"),
    ((1, 2, 5), None),
    ((2, 2, 2), None),
])
def test_classification_branched_shapes(arms, expected):
    kind, types = qd.classify_underlying_graph(_branched_path(arms))
    if expected is None:
        assert kind == "non-dynkin"
    else:
        assert (kind, types) == ("dynkin", (expected,))


def test_knit_counts_match_positive_roots_beyond_corpus():
    a5 = qd.parse_quiver("\n".join(
        [f"vertex {i}" for i in range(1, 6)]
        + [f"arrow e{i} {i + 1} {i}" for i in range(1, 5)]))
    assert len(qd.knit(a5).entries) == 15
    d5 = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex c\nvertex 3\nvertex 4\n"
        "arrow a 1 c\narrow b 2 c\narrow e c 3\narrow f 3 4")
    assert len(qd.knit(d5).entries) == 20
    e6 = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
        "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
    reg = qd.knit(e6)
    assert len(reg.entries) == 36 and reg.complete
    # the highest root appears as an indecomposable
    assert any(e.rep.dims == (1, 2, 3, 2, 1, 2) for e in reg.entries)


def test_verified_determiner_on_e6_highest_root():
    from quivdet.determiner import DeterminerEngine
    e6 = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
        "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
    reg = qd.knit(e6)
    eng = DeterminerEngine(reg)
    big = max(reg.entries, key=lambda e: e.rep.total_dim).rep
    target = qd.injective_at(e6, "3")
    hs = eng.hom(big, target)
    assert hs.dim >= 1
    rep = eng.report(hs.basis[0], verify=True)
    assert rep.oracle.certified


E6_TEXT = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
           "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")


def _registry_digest(reg):
    h = hashlib.sha256()
    for e in reg.entries:
        h.update(repr((e.label, e.rep.dims,
                       tuple(tuple(tuple(str(x) for x in row) for row in m.entries)
                             for m in e.rep.action))).encode())
    return h.hexdigest()


def _bench_input(name: str) -> str:
    # read only: the benchmark's quiver files, so its cold workloads'
    # representatives are pinned here too
    return (Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / name).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("text, field, cap, digest", [
    (E6_TEXT, "rat", 5000, "36742ffd15dd3b0396d6fb01a7870e2f51fad177cebbee2f092b2e31c62b099f"),
    (E6_TEXT, "fp:10007", 5000, "8a6c3b9637d35a01e13437922bd7c58266cf04a2a687296b98ebda06606e161f"),
    ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", "rat", 8,
     "34f67937aa7b884e9ab263f6d5cd703e562132573e96a86ef093a4bb6834518c"),
    (_bench_input("e8.quiver"), "rat", 5000,
     "3666c1b0f1a293109f176299dc8c27224f3cfc49e5f91eb87b0cde3ca78409ab"),
    (_bench_input("a15.quiver"), "rat", 5000,
     "33847fb097a7ada4a2b006e50ea96797e488d71b855076bcdc6326ee3f78d7e7"),
    ("vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c", "fp:7", 5000,
     "9817ca99ca32b36af3ce91cb3708dd230023610229856877cae4059a0bdf4637"),
], ids=["e6-rat", "e6-fp10007", "kronecker-cap8", "e8-rat", "a15-rat", "d4-fp7"])
def test_registry_representatives_are_pinned(text, field, cap, digest):
    # the canonical bases of every knitted representative are part of the
    # output contract: requests are drawn from hom bases between them
    reg = qd.knit(qd.parse_quiver(text), field_from_name(field), cap)
    assert _registry_digest(reg) == digest


def test_knit_builds_no_direct_sum_morphisms(monkeypatch):
    # block sums carry their layout as offsets, so knitting needs none of the
    # injections and projections that direct_sum builds
    import importlib

    def no_direct_sum(*args, **kwargs):
        raise AssertionError("knit must not call direct_sum")

    for name in ("reps", "structure", "decompose"):
        monkeypatch.setattr(importlib.import_module(f"quivdet.{name}"), "direct_sum",
                            no_direct_sum, raising=False)
    reg = qd.knit(qd.parse_quiver(E6_TEXT))
    assert len(reg.entries) == 36 and reg.complete


def test_knit_builds_one_hull_per_trd_and_transports_nothing_back(monkeypatch):
    # the copresentation differential is written from the rows of the
    # cokernel projection, and trd writes its transport with no write-back
    # and takes the cokernel with no projection onto it; the calls are
    # counted in this process, so the knit runs in it
    import quivdet.reps as reps
    import quivdet.structure as structure
    import quivdet.translate as translate

    monkeypatch.setattr(translate, "_cpus", lambda: 1)
    hulls = []
    real_hull = structure.injective_hull
    monkeypatch.setattr(structure, "injective_hull", lambda M: hulls.append(M) or real_hull(M))

    def no_transport(*args):
        raise AssertionError("knit must not transport a map back to check it")

    monkeypatch.setattr(translate, "inverse_nakayama_on_injmap", no_transport)
    ends = []
    real_post_init = reps.RepMorphism.__post_init__

    def recorded(self):
        ends.append((self.domain, self.codomain))
        real_post_init(self)

    monkeypatch.setattr(reps.RepMorphism, "__post_init__", recorded)
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    assert len(reg.entries) == 36 and len(hulls) == 30
    trds = {e.rep for e in reg.entries[q.n_vertices:]}
    sums = {bs.rep for (kind, _, _), bs in q.workspace.block_sums.items() if kind == "P"}
    assert not any(dom in sums and cod in trds for dom, cod in ends)


@pytest.mark.parametrize("text, cap, size, complete", [
    (E6_TEXT, 5000, 36, True), ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", 12, 12, False),
], ids=["e6", "kronecker-cap12"])
def test_knit_registers_each_trd_without_an_iso_search(text, cap, size, complete, monkeypatch):
    # the tau-minus orbits of the projectives never meet, so every TrD is a
    # new entry; at the cap no TrD is computed only to be dropped (counted
    # in this process, so the knit runs in it)
    import quivdet.translate as translate

    monkeypatch.setattr(translate, "_cpus", lambda: 1)
    calls = []
    real_trd = translate.trd

    def counted_trd(M):
        calls.append(M)
        return real_trd(M)

    def no_search(self, M):
        raise AssertionError("knit must not search the registry")

    monkeypatch.setattr(translate, "trd", counted_trd)
    monkeypatch.setattr(translate.IndecRegistry, "find_iso", no_search)
    reg = qd.knit(qd.parse_quiver(text), cap=cap)
    assert (len(reg.entries), reg.complete) == (size, complete)
    taus = [e.tau_minus for e in reg.entries if e.tau_minus is not None]
    assert len(calls) == len(taus) and taus == list(range(len(reg.entries) - len(taus), len(reg.entries)))


def test_registry_label_lookup(a3_registry):
    e = a3_registry.by_label("S_2")
    assert e.rep.dims == (0, 1, 0)
    with pytest.raises(SemanticError):
        a3_registry.by_label("nope")


def _scan_find_iso(reg, M):
    """The linear scan find_iso replaced: the first entry with M's dimension
    vector that is isomorphic to M."""
    from quivdet.decompose import indec_iso_witness

    return next((e.index for e in reg.entries
                 if e.rep.dims == M.dims and indec_iso_witness(e.rep, M) is not None), None)


def _iso_copy(M):
    """M in another basis: (v + 1) times a unitriangular matrix at vertex v."""
    q, field = M.quiver, M.field
    g = [Mat.from_rows(field, [[(v + 1) * int(c in (r, r + 1)) for c in range(d)]
                               for r in range(d)], d)
         for v, d in enumerate(M.dims)]
    action = []
    for ai, a in enumerate(q.arrows):
        s, t = q.vertex_index[a.source], q.vertex_index[a.target]
        action.append(g[t] @ M.action[ai] @ g[s].inverse() if M.dims[s] else M.action[ai])
    return qd.Representation(q, field, M.dims, tuple(action))


@pytest.mark.parametrize("text, field, cap", [
    ("vertex 1\nvertex 2\nvertex 3\narrow a 2 1\narrow b 3 2", "rat", 5000),
    (E6_TEXT, "rat", 5000), (E6_TEXT, "fp:10007", 5000), (E6_TEXT, "fp:7", 5000),
    ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", "rat", 10),
], ids=["a3", "e6-rat", "e6-fp10007", "e6-fp7", "kronecker-cap10"])
def test_find_iso_looks_up_the_dimension_vector(text, field, cap):
    # one index lookup and one iso test give the answers of the scan
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    assert len(reg.by_dims) == len(reg.entries)
    moved = 0
    for e in reg.entries:
        copy = _iso_copy(e.rep)
        moved += copy != e.rep
        assert reg.find_iso(e.rep) == _scan_find_iso(reg, e.rep) == e.index
        assert reg.find_iso(copy) == _scan_find_iso(reg, copy) == e.index
    assert moved >= len(reg.entries) // 2


def test_find_iso_rejects_a_decomposable_root(a3, a3_registry):
    # S_1 + S_2 has the dimension vector of P_2 but is decomposable
    S12 = qd.direct_sum([qd.simple_at(a3, "1"), qd.simple_at(a3, "2")])[0]
    assert S12.dims == a3_registry.by_label("P_2").rep.dims
    assert a3_registry.find_iso(S12) is None and _scan_find_iso(a3_registry, S12) is None


def test_knit_rejects_a_repeated_dimension_vector(monkeypatch):
    # a TrD equal to its argument passes the Coxeter check with the identity
    # matrix, but its dimension vector is taken
    import quivdet.translate as translate

    monkeypatch.setattr(translate, "trd", lambda M: M)
    monkeypatch.setattr(translate, "coxeter_inverse",
                        lambda q, c=None: [[int(i == j) for j in range(q.n_vertices)] for i in range(q.n_vertices)])
    with pytest.raises(InvariantError, match="dimension vector"):
        qd.knit(qd.parse_quiver(E6_TEXT))


def test_end_dimension_one_on_dynkin_registries(corpus_engines):
    from quivdet.decompose import end_algebra
    for name, engine in corpus_engines:
        for e in engine.registry.entries:
            alg = end_algebra(e.rep)
            assert alg.quotient_dim == 1, (name, e.label)


D4_TEXT = "vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c"
A5_TEXT = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\n"
           "arrow a 2 1\narrow b 2 3\narrow c 3 4\narrow d 5 4")


@pytest.mark.parametrize("field_name", ["rat", "fp:7"])
@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (D4_TEXT, 5000), (A5_TEXT, 5000), (KRONECKER_TEXT, 12),
], ids=["e6", "d4", "a5", "kronecker-cap12"])
def test_translates_match_the_hull_and_cover_of_the_syzygy(text, cap, field_name):
    # the reference construction: the copresentation differential is the
    # hull of the cokernel after the projection, and TrD the cokernel of its
    # checked Nakayama transport; dtr is D trd D, so the same holds over the
    # opposite quiver
    from quivdet.reps import quotient
    from quivdet.structure import injective_hull, min_injective_copresentation
    from quivdet.translate import _cokernel_presentation

    field = field_from_name(field_name)
    q = qd.parse_quiver(text)
    for quiver in (q, q.opposite):
        for e in qd.knit(quiver, field, cap=cap).entries:
            if e.is_injective:
                continue
            M = e.rep
            cop = min_injective_copresentation(M)
            C, proj = qd.cokernel(cop.hull)
            assert cop.differential == injective_hull(C)[1] @ proj
            g, p0, p1 = qd.inverse_nakayama_on_injmap(cop.differential, cop.i0, cop.i1)
            images = [column_space(c) for c in g.comps]
            t = qd.trd(M)
            assert t == quotient(p1.rep, images)[0]
            assert quiver.workspace.presentations[t] == _cokernel_presentation(g, p0, p1, images)
            assert qd.dtr(qd.dual_representation(M)) == qd.dual_representation(t)


def _form_mismatches(reg, solved, form):
    """Registry pairs (a, b) whose solved dim Hom(a, b) is not max(0, form(a, b))."""
    return [(a.label, b.label) for a in reg.entries for b in reg.entries
            if solved[a.index, b.index] != max(0, form(a.rep.dims, b.rep.dims))]


@pytest.mark.parametrize("text, field", [
    (E6_TEXT, "rat"), (E6_TEXT, "fp:10007"), (D4_TEXT, "rat"), (A5_TEXT, "rat"),
], ids=["e6-rat", "e6-fp10007", "d4", "a5"])
def test_euler_form_gives_hom_dimension_between_dynkin_indecomposables(text, field):
    # every indecomposable of a Dynkin quiver is directed, so Hom and Ext^1
    # between two of them are never both nonzero: each pair the form calls
    # zero solves to 0, every other pair to exactly the form
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field))
    solved = {(a.index, b.index): qd.hom_basis(a.rep, b.rep).dim
              for a in reg.entries for b in reg.entries}
    assert any(not d for d in solved.values()) and any(solved.values())
    assert _form_mismatches(reg, solved, lambda a, b: qd.euler_form(q, a, b)) == []
    # teeth: the form with its arguments swapped does not decide Hom(a, b)
    assert _form_mismatches(reg, solved, lambda a, b: qd.euler_form(q, b, a))


def _count_hom_routes(monkeypatch) -> dict:
    """Calls of each Hom solver, and HomSpace constructions from blocks,
    counted from now on."""
    import quivdet.reps

    calls = {"hom_basis": 0, "generator_kernel": 0, "blocks": 0}

    def counted(name):
        real = getattr(quivdet.reps, name)

        def solve(*args):
            calls[name] += 1
            return real(*args)
        return solve

    for name in ("hom_basis", "generator_kernel"):
        monkeypatch.setattr(quivdet.reps, name, counted(name))
    real_init = HomSpace.__init__

    def init(hs, *args, **kwargs):
        calls["blocks"] += "blocks" in kwargs
        real_init(hs, *args, **kwargs)

    monkeypatch.setattr(HomSpace, "__init__", init)
    return calls


@pytest.mark.parametrize("field", ["rat", "fp:7"])
@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (D4_TEXT, 5000), ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", 12),
], ids=["e6", "d4", "kronecker-cap12"])
def test_hom_off_a_presentation_is_the_hom_of_the_squares(text, cap, field, monkeypatch):
    # Hom(M, N) read off the presentation that knit recorded for M (Yoneda)
    # is the canonical subspace that the commuting squares give, for every
    # pair of entries and for entries against seeded random direct sums
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    ws = q.workspace
    rng = random.Random(11)
    sums = [qd.direct_sum([rng.choice(reg.entries).rep for _ in range(rng.randrange(2, 4))])[0]
            for _ in range(4)]
    codomains = [e.rep for e in reg.entries] + sums
    for e in reg.entries:
        for N in codomains:
            presentation = ws.presentations[e.rep]
            off = HomSpace(e.rep, N, presentation=presentation,
                           solutions=generator_kernel(e.rep, presentation, N))
            assert off._space == qd.hom_basis(e.rep, N)._space
    # the workspace takes that route for every domain with a presentation,
    # into each summand of a recorded sum, once per block it has not stored
    # and the Euler-form rule does not decide, and puts the sums together
    known = ws.indecomposables
    blocks = {(e.rep, S) for e in reg.entries for N in sums for S in ws.sums[N][0]}.difference(
        ws.homs)
    solved = [(M, S) for M, S in blocks if not (ws.dynkin and M in known and S in known
                                                and qd.euler_form(q, M.dims, S.dims) <= 0)]
    calls = _count_hom_routes(monkeypatch)
    for e in reg.entries:
        for N in sums:
            assert ws.hom(e.rep, N)._space == qd.hom_basis(e.rep, N)._space
    assert calls == {"hom_basis": 0, "generator_kernel": len(solved),
                     "blocks": len(reg.entries) * len(sums)}


@pytest.mark.parametrize("field", ["rat", "fp:7"])
@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (D4_TEXT, 5000), ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", 12),
], ids=["e6", "d4", "kronecker-cap12"])
def test_hom_of_recorded_sums_is_the_hom_of_the_squares(text, cap, field, monkeypatch):
    # Hom is additive: the workspace puts Hom with a recorded direct sum on
    # either side together from the blocks between summands, and gets the
    # canonical subspace that the commuting squares give, for a repeated
    # summand and a sum nested in another; no solver sees a recorded sum.
    # Over Q^op the duals are plain transposes, solved whole, with the same
    # canonical subspaces
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    ws, wop = q.workspace, q.opposite.workspace
    rng = random.Random(21)
    reps = [e.rep for e in reg.entries]
    a, b, c = rng.sample(reps, 3)
    pair = qd.direct_sum([a, b])[0]
    sums = [pair, qd.direct_sum([c, c])[0], qd.direct_sum([pair, c])[0]]
    assert ws.sums[sums[2]][0] == (pair, c)
    ones = rng.sample(reps, 4)
    duals = [qd.dual_representation(S) for S in sums]
    assert all(D.quiver is q.opposite for D in duals)
    ones_op = [qd.dual_representation(M) for M in ones]
    seen = _watch_solvers(monkeypatch)
    for w, sides, singles in ((ws, sums, ones), (wop, duals, ones_op)):
        pairs = ([(S, N) for S in sides for N in singles] + [(M, S) for M in singles for S in sides]
                 + [(S, T) for S in sides for T in sides])
        for M, N in pairs:
            assert w.hom(M, N)._space == qd.hom_basis(M, N)._space
    assert seen and not [s for s in seen if s[1] in s[1].quiver.workspace.sums
                         or s[2] in s[2].quiver.workspace.sums]


@pytest.mark.parametrize("field", ["rat", "fp:7"])
@pytest.mark.parametrize("text, cap", [
    ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", 16),
    ("vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\narrow c 1 3", 24),
    ("vertex c\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
     "arrow a 1 c\narrow b 2 c\narrow d 3 c\narrow e 4 c", 30),
], ids=["kronecker-cap16", "a2-tilde-cap24", "d4-tilde-cap30"])
def test_workspace_hom_meets_the_ar_formula_off_dynkin_type(text, cap, field, monkeypatch):
    # <dim M, dim N> = dim Hom(M, N) - dim Ext^1(M, N), and Ext^1(M, N) is
    # D Hom(N, tau M) on a hereditary algebra, with tau P = 0: a check of
    # every Hom space between knitted entries that the code does not use,
    # each one read off the domain's presentation
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    assert not reg.complete and len(reg.entries) == cap
    ws = q.workspace
    calls = _count_hom_routes(monkeypatch)
    tau = {e.tau_minus: e.rep for e in reg.entries if e.tau_minus is not None}
    mismatches = [(M.label, N.label) for M in reg.entries for N in reg.entries
                  if ws.hom(M.rep, N.rep).dim
                  - (ws.hom(N.rep, tau[M.index]).dim if M.index in tau else 0)
                  != qd.euler_form(q, M.rep.dims, N.rep.dims)]
    assert mismatches == []
    assert sum(not e.is_projective for e in reg.entries) == len(tau)
    assert calls["hom_basis"] == 0 and calls["generator_kernel"] > cap * cap // 2


def test_euler_form_values(a3):
    # arrows 2 -> 1 and 3 -> 2: <S_2, S_1> = -1, <S_1, S_2> = 0, <P_3, P_3> = 1
    assert qd.euler_form(a3, (0, 1, 0), (1, 0, 0)) == -1
    assert qd.euler_form(a3, (1, 0, 0), (0, 1, 0)) == 0
    assert qd.euler_form(a3, (1, 1, 1), (1, 1, 1)) == 1


def test_positive_root_counts():
    assert [qd.positive_root_count((t,)) for t in ("A1", "A5", "D4", "D5", "E6", "E7", "E8")] \
        == [1, 15, 12, 20, 36, 63, 120]
    assert qd.positive_root_count(("A2", "D4")) == 15


def test_knit_checks_the_positive_root_count(monkeypatch):
    import quivdet.translate

    two_a2 = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a 1 2\narrow b 4 3")
    assert len(qd.knit(two_a2).entries) == 6
    monkeypatch.setattr(quivdet.translate, "positive_root_count", lambda types: 37)
    with pytest.raises(InvariantError):
        qd.knit(qd.parse_quiver(E6_TEXT))
    # an incomplete registry is not held to the count
    assert not qd.knit(qd.parse_quiver(E6_TEXT), cap=10).complete


KRONECKER_TEXT = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2"


def _times(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


@pytest.mark.parametrize("text, cap, links", [
    (E6_TEXT, 5000, 30), (D4_TEXT, 5000, 8), (A5_TEXT, 5000, 10), (KRONECKER_TEXT, 24, 22),
], ids=["e6", "d4", "a5", "kronecker-cap24"])
def test_coxeter_transformation_gives_every_trd_dimension(text, cap, links):
    # dim tau^- M = -C C^-T dim M on every stored link; the swapped
    # -C^T C^-1 gives the wrong vector on each of them
    q = qd.parse_quiver(text)
    n = q.n_vertices
    cartan = qd.cartan_matrix(q)
    for x in q.vertices:
        xi = q.vertex_index[x]
        column = [row[xi] for row in cartan]
        assert tuple(column) == qd.projective_at(q, x).dims
        assert tuple(cartan[xi]) == qd.injective_at(q, x).dims
        # <dim P_x, e_y> = delta_xy: C^-T is the Gram matrix of the Euler form
        assert [qd.euler_form(q, column, [int(i == y) for i in range(n)]) for y in range(n)] \
            == [int(xi == y) for y in range(n)]
    phi = qd.coxeter_inverse(q)
    C = Mat.from_rows(F, cartan)
    swapped = (C.transpose() @ C.inverse()).scale(-1).entries
    reg = qd.knit(q, cap=cap)
    pairs = [(e.rep.dims, reg.entries[e.tau_minus].rep.dims)
             for e in reg.entries if e.tau_minus is not None]
    assert len(pairs) == links
    assert all(_times(phi, d) == list(t) for d, t in pairs)
    assert not any(_times(swapped, d) == list(t) for d, t in pairs)


def test_knit_checks_trd_against_the_coxeter_transformation(monkeypatch):
    import quivdet.translate

    q = qd.parse_quiver(E6_TEXT)
    C = Mat.from_rows(F, qd.cartan_matrix(q))
    swapped = [list(row) for row in (C.transpose() @ C.inverse()).scale(-1).entries]
    monkeypatch.setattr(quivdet.translate, "coxeter_inverse", lambda q, c=None: swapped)
    with pytest.raises(InvariantError, match="Coxeter"):
        qd.knit(q)


@pytest.mark.parametrize("text, cap, size, complete, digest", [
    (E6_TEXT, 5000, 36, True, "fa19db7263087cb2d963086db3f958551eb28fff0f93ad486c295a76752504ca"),
    (D4_TEXT, 5000, 12, True, "9e4e1a0e0877300162e66a31bec80dd95fd5007bd918205c319a296c30bb6452"),
    (A5_TEXT, 5000, 15, True, "4b09caca63ef879cf0fbbbbb0d55e494836ec26519e4fdcadd7097605b849284"),
    (_bench_input("e8.quiver"), 5000, 120, True,
     "4863dda61d6c44c074395812ddc766f2fd19cb06f25e462baec1813c8ec0356f"),
    (KRONECKER_TEXT, 24, 24, False, "2887cfdd077b40ce112d5ba9ba6048761c0ecec50b7693089eddcc8ac5810478"),
], ids=["e6", "d4", "a5", "e8", "kronecker-cap24"])
def test_skeleton_plans_the_knitted_registry(text, cap, size, complete, digest):
    # order, dimension vectors, tau-minus links, orbit coordinates, where
    # each orbit ends and where the cap cuts are integer arithmetic.  The
    # digests were taken from registries knitted one TrD at a time, with
    # the order, links and orbits read off the TrDs themselves; knit now
    # copies orbits and links from the skeleton but builds the dimension
    # vectors and I_x labels, so it is held to the same digests
    from quivdet.translate import _skeleton

    def rows_digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    q = qd.parse_quiver(text)
    steps, planned = _skeleton(q, qd.cartan_matrix(q), cap)
    assert (len(steps), planned) == (size, complete)
    assert rows_digest([(s.orbit, s.dims, s.tau_minus, s.injective) for s in steps]) == digest
    if text == D4_TEXT:  # the digested rows, written out once
        assert [(s.orbit, s.dims, s.tau_minus, s.injective) for s in steps][4:9] == [
            (("c", 1), (2, 1, 1, 1), 8, False), (("1", 1), (1, 0, 1, 1), 9, False),
            (("2", 1), (1, 1, 0, 1), 10, False), (("3", 1), (1, 1, 1, 0), 11, False),
            (("c", 2), (1, 1, 1, 1), None, True)]
    reg = qd.knit(q, cap=cap)
    assert (len(reg.entries), reg.complete) == (size, complete)
    assert rows_digest([(e.orbit, e.rep.dims, e.tau_minus, e.is_injective)
                        for e in reg.entries]) == digest


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _knit_in(processes, monkeypatch, text, field, cap, fork_cost=0):
    """knit with the CPU count set to processes and the predicted cost that
    forks set to fork_cost, and the forks it made."""
    import quivdet.translate as translate

    forks, real_fork = [], os.fork
    q = qd.parse_quiver(text)
    with monkeypatch.context() as m:
        m.setattr(translate, "_cpus", lambda: processes)
        m.setattr(translate, "_FORK_COST", fork_cost)
        m.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        reg = qd.knit(q, field_from_name(field), cap)
    _no_child_left()
    return q, reg, len(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("field", ["rat", "fp:10007"])
@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (_bench_input("a15.quiver"), 5000), (KRONECKER_TEXT, 12),
], ids=["e6", "a15", "kronecker-cap12"])
def test_knit_in_worker_processes_matches_one_process(text, cap, field, processes, monkeypatch, capfd):
    # a forked worker sends back its chains and every workspace record that
    # lives for the quiver's life, so the parent holds what one process
    # knits; workers write nothing and none is left running.  One process
    # per orbit with a TrD at most: the Kronecker quiver has two
    from quivdet.translate import _skeleton

    q1, one, forks1 = _knit_in(1, monkeypatch, text, field, cap)
    q2, two, forks2 = _knit_in(processes, monkeypatch, text, field, cap)
    steps, _ = _skeleton(q1, qd.cartan_matrix(q1), cap)
    busy = len({s.orbit[0] for s in steps if s.tau_minus is not None})
    assert (forks1, forks2) == (0, min(processes, busy) - 1)
    assert capfd.readouterr() == ("", "")
    assert (one.complete, len(one.entries)) == (two.complete, len(two.entries))
    for a, b in zip(one.entries, two.entries):
        assert (a.label, a.rep, a.tau_minus, a.orbit) == (b.label, b.rep, b.tau_minus, b.orbit)
        assert (a.projective_vertex, a.injective_vertex, a.simple_vertex) \
            == (b.projective_vertex, b.injective_vertex, b.simple_vertex)
        assert q1.workspace.presentations[a.rep] == q2.workspace.presentations[b.rep]
    assert one.by_dims == two.by_dims
    for name, table in vars(q1.workspace).items():
        if hasattr(table, "keys"):
            assert set(table.keys()) == set(getattr(q2.workspace, name).keys()), name
    assert q1.workspace.owned == q2.workspace.owned


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_knit_forks_only_where_the_skeleton_predicts_enough_work(monkeypatch):
    # the benchmark's Kronecker cap-12 and E6 knits stay in one process
    # with two CPUs; the E8 and A15 knits fork one worker
    import quivdet.translate as translate

    for text, cap, forks in [(KRONECKER_TEXT, 12, 0), (E6_TEXT, 5000, 0),
                             (_bench_input("e8.quiver"), 5000, 1),
                             (_bench_input("a15.quiver"), 5000, 1)]:
        assert _knit_in(2, monkeypatch, text, "rat", cap, translate._FORK_COST)[2] == forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("in_worker", [True, False], ids=["worker", "parent"])
def test_knit_raises_what_a_share_raised(in_worker, monkeypatch, capfd):
    # a worker's exception reaches the caller with its type and message; one
    # raised in the parent's share stops the worker; either way no child is
    # left and the workers write nothing
    import quivdet.translate as translate

    parent, real = os.getpid(), translate.is_indecomposable
    monkeypatch.setattr(translate, "_cpus", lambda: 2)
    monkeypatch.setattr(translate, "_FORK_COST", 0)
    monkeypatch.setattr(translate, "is_indecomposable",
                        lambda M: (os.getpid() == parent) == in_worker and real(M))
    with pytest.raises(InvariantError) as caught:
        qd.knit(qd.parse_quiver(E6_TEXT))
    assert type(caught.value) is InvariantError
    assert str(caught.value) == "TrD of an indecomposable must be indecomposable"
    _no_child_left()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("name, builds", [("a15.quiver", 30), ("e8.quiver", 180)])
def test_knit_builds_each_block_sum_once(name, builds, monkeypatch):
    # the cover, hull and transport writers ask for the same few block sums
    # again and again; the workspace builds each kind, tuple and field once
    # (counted in this process, so the knit runs in it)
    import quivdet.structure as structure
    import quivdet.translate as translate

    monkeypatch.setattr(translate, "_cpus", lambda: 1)
    calls = []
    real = structure.block_diagonal_sum

    def counted(reps, q, field):
        calls.append(tuple(r.dims for r in reps))
        return real(reps, q, field)

    monkeypatch.setattr(structure, "block_diagonal_sum", counted)
    q = qd.parse_quiver(_bench_input(name))
    reg = qd.knit(q)
    assert reg.complete and len(reg.entries) == 120
    assert len(calls) == builds == len(q.workspace.block_sums)


# 1 => 2 => 3; its third tau-minus round is out of reach of a test (cap 10
# knits entries of dimension vector (119, 408, 696) in minutes), so the
# label test stops after the second, at cap 9
KRONECKER2_TEXT = ("vertex 1\nvertex 2\nvertex 3\n"
                   "arrow a 1 2\narrow b 1 2\narrow c 2 3\narrow d 2 3")


def _scan_canonical_vertices(M):
    """The scan the Cartan lookup replaced: for P, I and S in turn, the first
    vertex x with M isomorphic to the canonical object at x, asked of
    indec_iso_witness at every vertex."""
    from quivdet.decompose import indec_iso_witness

    q = M.quiver
    return tuple(next((x for x in q.vertices
                       if indec_iso_witness(M, canonical(q, x, M.field)) is not None), None)
                 for canonical in (qd.projective_at, qd.injective_at, qd.simple_at))


def _scan_label(M):
    return next((f"{kind}_{x}" for kind, x in zip("PIS", _scan_canonical_vertices(M)) if x is not None),
                f"M{list(M.dims)}#?")


@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (D4_TEXT, 5000), (A5_TEXT, 5000), (_bench_input("a15.quiver"), 5000),
    (_bench_input("e8.quiver"), 5000), (KRONECKER_TEXT, 12), (KRONECKER2_TEXT, 9),
], ids=["e6", "d4", "a5", "a15", "e8", "kronecker-cap12", "kronecker2-cap9"])
def test_canonical_vertices_are_looked_up_by_cartan_dimension(text, cap):
    # column x of the Cartan matrix is dim P_x and row x is dim I_x, each
    # family pairwise distinct on an acyclic quiver, so one lookup and one
    # iso witness label an object as the scan over every vertex does
    from quivdet.translate import _canonical_vertices, _cartan_vertices, canonical_label

    q = qd.parse_quiver(text)
    c = qd.cartan_matrix(q)
    cols, rows = list(zip(*c)), [tuple(row) for row in c]
    assert cols == [qd.projective_at(q, x).dims for x in q.vertices]
    assert rows == [qd.injective_at(q, x).dims for x in q.vertices]
    assert len(set(cols)) == len(set(rows)) == q.n_vertices
    cartan = _cartan_vertices(q, c)
    reg = qd.knit(q, cap=cap)
    plain = None
    for e in reg.entries:
        scan = _scan_canonical_vertices(e.rep)
        assert _canonical_vertices(e.rep, cartan) == scan
        assert (e.projective_vertex, e.injective_vertex, e.simple_vertex) == scan
        if scan == (None, None, None):
            plain = e.rep
    assert plain is not None
    canonical = [f(q, x) for x in q.vertices for f in (qd.projective_at, qd.injective_at, qd.simple_at)]
    for M in canonical + [_iso_copy(M) for M in canonical] + [plain]:
        assert canonical_label(M) == _scan_label(M)
    assert canonical_label(plain) == f"M{list(plain.dims)}#?"


@pytest.mark.parametrize("n", [4, 6])
def test_knit_checks_each_trd_with_one_brick_certificate(n, monkeypatch):
    # knit's indecomposability check runs one _split_once per TrD and builds
    # no DecompositionResult; it does not trust the record of
    # indecomposables, which already holds every canonical I_y here, though
    # on linear A_n each non-projective I_y is a TrD equal to it by value;
    # the calls are counted in this process, so the knit runs in it
    import quivdet.translate as translate
    from conftest import linear_quiver

    monkeypatch.setattr(translate, "_cpus", lambda: 1)
    decompose = importlib.import_module("quivdet.decompose")  # qd.decompose is the function
    q = linear_quiver(n, (0,) * (n - 1))
    injectives = {qd.injective_at(q, y) for y in q.vertices}
    assert injectives <= set(q.workspace.indecomposables)
    split, real_split = [], decompose._split_once

    def no_result(*args, **kwargs):
        raise AssertionError("knit must not build a DecompositionResult")

    monkeypatch.setattr(decompose, "DecompositionResult", no_result)
    monkeypatch.setattr(decompose, "_split_once", lambda M: split.append(M) or real_split(M))
    reg = qd.knit(q)
    trds = [e.rep for e in reg.entries[n:]]
    assert reg.complete and len(reg.entries) == n * (n + 1) // 2
    assert split == trds and len(injectives & set(trds)) == n - 1
    monkeypatch.undo()
    for e in reg.entries:
        assert e.rep in q.workspace.indecomposables
        assert len(qd.decompose(e.rep).pieces) == 1


def test_is_indecomposable_records_only_what_it_certifies():
    # a split records nothing; a certificate records the module as
    # indecomposable and stores no decomposition
    from conftest import A3_TEXT

    q = qd.parse_quiver(A3_TEXT)
    ws = q.workspace
    S = qd.direct_sum([qd.projective_at(q, "1"), qd.projective_at(q, "2")])[0]
    known, decompositions = dict(ws.indecomposables), dict(ws.decompositions)
    assert not qd.is_indecomposable(S)
    assert ws.indecomposables == known and ws.decompositions == decompositions
    S2 = qd.simple_at(q, "2")
    assert S2 not in ws.indecomposables and qd.is_indecomposable(S2)
    assert S2 in ws.indecomposables and S2 not in ws.decompositions
