"""Factorization subspaces, the determiner formula, and the oracle."""

import hashlib
import json
import random
import sys
from functools import cached_property
from itertools import islice
from pathlib import Path

import pytest

import quivdet as qd
import quivdet.determiner
import quivdet.quiver
import quivdet.reps
import quivdet.translate
from quivdet.decompose import indec_iso_witness
from quivdet.determiner import DeterminerEngine, DeterminerMember
from quivdet.errors import InvariantError, SemanticError
from quivdet.linalg import RATIONALS, column_space, field_from_name, from_columns
from quivdet.reps import Workspace, hom_basis, postcompose_matrix
from quivdet.translate import RegistryEntry

from conftest import A3_TEXT

F = RATIONALS


def test_factors_through_basics(a3_engine, golden_f):
    h = a3_engine.factors_through(golden_f, golden_f)
    assert h is not None and (golden_f @ h) == golden_f
    zero = qd.zero_morphism(golden_f.domain, golden_f.codomain)
    hz = a3_engine.factors_through(zero, golden_f)
    assert hz is not None and hz.is_zero()


def test_factors_through_failure(a3, a3_engine, golden_f):
    # the identity of I_2 does not factor through f (f misses vertex 3)
    I2 = qd.injective_at(a3, "2")
    assert a3_engine.factors_through(qd.identity_morphism(I2), golden_f) is None


def test_factors_through_codomain_mismatch(a3, a3_engine, golden_f):
    with pytest.raises(SemanticError):
        a3_engine.factors_through(qd.identity_morphism(golden_f.domain), golden_f)


def test_factor_subspace(a3, a3_engine, golden_f):
    # through a right minimal mono with one-dimensional hom, the factoring
    # subspace of the domain itself is the full line
    X = golden_f.domain
    fx = a3_engine.workspace.factoring_subspace(golden_f, X)
    assert fx.dim == 1 == a3_engine.hom(X, golden_f.codomain).dim
    # a split epi lets everything factor
    total, injs, projs = qd.direct_sum([X, qd.simple_at(a3, "2")])
    for entry in a3_engine.registry.entries:
        sub = a3_engine.workspace.factoring_subspace(projs[0], entry.rep)
        assert sub.is_full()
    # through the zero map only zero factors
    zero = qd.zero_morphism(X, golden_f.codomain)
    for entry in a3_engine.registry.entries:
        assert a3_engine.workspace.factoring_subspace(zero, entry.rep).dim == 0


def test_almost_factor_subspaces_golden(a3, a3_engine, golden_f):
    S2 = a3_engine.registry.by_label("S_2").rep
    r = a3_engine.almost_factor_subspace(golden_f, S2)
    fz = a3_engine.workspace.factoring_subspace(golden_f, S2)
    assert fz.dim == 0 and r.dim == 1
    assert a3_engine.almost_factors(golden_f, S2)
    # objects with no maps to the codomain never almost factor
    I3 = a3_engine.registry.by_label("I_3").rep
    P1 = a3_engine.registry.by_label("P_1").rep
    assert a3_engine.hom(P1, golden_f.codomain).dim == 0
    assert not a3_engine.almost_factors(golden_f, P1)
    assert a3_engine.almost_factors(golden_f, I3) is False


def test_subspace_sandwich_invariant(a3_engine, golden_f):
    # factoring subspace inside almost-factoring subspace, for every object
    for entry in a3_engine.registry.entries:
        fz = a3_engine.workspace.factoring_subspace(golden_f, entry.rep)
        rz = a3_engine.almost_factor_subspace(golden_f, entry.rep)
        assert rz.contains(fz)


def test_almost_factorization_reverified_pointwise(a3, a3_engine, golden_f):
    # when the almost-factoring subspace exceeds the factoring one, pick an
    # element outside the factoring subspace and re-check the definition: it
    # must not factor, while every radical precomposite must factor
    reg = a3_engine.registry
    strict = 0
    for entry in reg.entries:
        Z = entry.rep
        fz = a3_engine.workspace.factoring_subspace(golden_f, Z)
        rz = a3_engine.almost_factor_subspace(golden_f, Z)
        if rz.dim == fz.dim:
            continue
        strict += 1
        hzy = a3_engine.hom(Z, golden_f.codomain)
        alpha = next(hzy.from_coordinates(v) for v in rz.basis
                     if not fz.contains_vector(v))
        assert a3_engine.factors_through(alpha, golden_f) is None
        for u_entry in reg.entries:
            for h in qd.rad_hom_basis(u_entry.rep, Z).basis:
                hm = qd.hom_basis(u_entry.rep, Z).from_coordinates(h)
                assert a3_engine.factors_through(alpha @ hm, golden_f) is not None
    assert strict >= 1   # S_2 at least


def test_golden_cokernel_functor_support(a3_engine, golden_f):
    # the objects V where some map V -> I_2 fails to factor through f form
    # the support region around the determiner members
    support = []
    for entry in a3_engine.registry.entries:
        hv = a3_engine.hom(entry.rep, golden_f.codomain)
        fv = a3_engine.workspace.factoring_subspace(golden_f, entry.rep)
        if hv.dim > fv.dim:
            support.append(entry.label)
    assert sorted(support) == ["I_2", "P_3", "S_2"]


def test_golden_determiner_report(a3_engine, golden_f):
    rep = a3_engine.report(golden_f, verify=True)
    assert rep.labels == ("S_2", "P_3")
    assert [m.provenance for m in rep.members] == \
        ["from-tau-minus(P_1)", "from-projective-cover(S_3)"]
    assert rep.intrinsic_kernel_labels == ("P_1",)
    assert rep.soc_coker == (("3", 1),)
    o = rep.oracle
    assert o.determination_ok and o.certified
    assert all(ok for _, ok in o.member_almost_factors)
    assert all(w is not None for _, w in o.removal_breaks)


def test_wrong_determiner_detected(a3_engine, golden_f):
    reg = a3_engine.registry
    only_p3 = [DeterminerMember("P_3", reg.by_label("P_3").rep, "override")]
    v = a3_engine.verify(golden_f, only_p3)
    assert not v.determination_ok
    assert v.determination_witness == "S_2"
    # an over-large candidate determines but fails minimality
    bloated = [
        DeterminerMember("S_2", reg.by_label("S_2").rep, "override"),
        DeterminerMember("P_3", reg.by_label("P_3").rep, "override"),
        DeterminerMember("I_2", reg.by_label("I_2").rep, "override"),
    ]
    v2 = a3_engine.verify(golden_f, bloated)
    assert v2.determination_ok
    removal = dict(v2.removal_breaks)
    assert removal["I_2"] is None      # removing I_2 breaks nothing
    assert removal["S_2"] is not None and removal["P_3"] is not None
    aft = dict(v2.member_almost_factors)
    assert aft["I_2"] is False         # semi-strongness fails for the extra


def test_split_epi_empty_determiner(a3, a3_engine):
    P2 = qd.projective_at(a3, "2")
    rep = a3_engine.report(qd.identity_morphism(P2), verify=True)
    assert rep.labels == () and rep.split_epimorphism
    assert rep.oracle.determination_ok and rep.oracle.certified


def test_zero_to_projective(a3, a3_engine):
    z = qd.zero_representation(a3, F)
    f = qd.zero_morphism(z, qd.projective_at(a3, "3"))
    rep = a3_engine.report(f, verify=True)
    assert rep.labels == ("P_1",)
    assert [m.provenance for m in rep.members] == ["from-projective-cover(S_1)"]
    assert rep.oracle.certified


def test_zero_domain_and_codomain(a3, a3_engine):
    z = qd.zero_representation(a3, F)
    f = qd.zero_morphism(z, z)
    rep = a3_engine.report(f, verify=True)
    assert rep.labels == () and rep.split_epimorphism
    assert rep.oracle.determination_ok


def test_padded_domain_same_determiner(a3, a3_engine, golden_f):
    # (f, 0) has the same determiner as f
    pad = qd.projective_at(a3, "3")
    total, injs, projs = qd.direct_sum([golden_f.domain, pad])
    f = golden_f @ projs[0]
    rep = a3_engine.report(f, verify=True)
    assert rep.labels == ("S_2", "P_3")
    assert rep.split_off_dims == pad.dims
    assert rep.oracle.certified


def test_left_determiner_golden(a3, golden_f):
    rep = qd.minimal_left_determiner(golden_f, verify=True)
    assert rep.side == "left"
    assert rep.labels == ("S_2", "P_3")
    assert all(m.provenance.startswith("dual:") for m in rep.members)
    assert rep.oracle.certified


def test_minimal_right_determiner_matches_golden_file(golden_f):
    rep = qd.minimal_right_determiner(golden_f, verify=True)
    text = json.dumps(rep.to_json_dict(), indent=2) + "\n"
    golden = Path(__file__).resolve().parent.parent / "data" / "golden_a3_report.json"
    assert text == golden.read_text(encoding="utf-8")


def test_left_determiner_knits_each_quiver_once(monkeypatch):
    q = qd.parse_quiver(A3_TEXT)
    f = qd.hom_basis(qd.projective_at(q, "2"), qd.injective_at(q, "2")).basis[0]
    registry = qd.knit(q)
    knitted = []
    real_knit = quivdet.translate.knit

    def counting_knit(quiver, *args, **kwargs):
        knitted.append(quiver)
        return real_knit(quiver, *args, **kwargs)

    monkeypatch.setattr(quivdet.translate, "knit", counting_knit)
    monkeypatch.setattr(quivdet.determiner, "knit", counting_knit, raising=False)
    first = qd.minimal_left_determiner(f, verify=True)
    assert knitted == [q.opposite, q]
    second = qd.minimal_left_determiner(f, registry=registry, verify=True)
    third = qd.minimal_left_determiner(f, verify=True)
    assert knitted == [q.opposite, q]
    assert first.to_json_dict() == second.to_json_dict() == third.to_json_dict()
    assert first.oracle.certified


def test_left_determiner_knits_at_the_cap_of_its_registry(monkeypatch):
    # a Kronecker knit at the default cap does not return, so a knit above
    # the registry's cap fails at once instead of hanging
    q = qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")
    registry = qd.knit(q, cap=6)
    f = qd.hom_basis(qd.projective_at(q, "2"), qd.projective_at(q, "1")).basis[0]
    caps = []
    real_knit = quivdet.translate.knit

    def capped_knit(quiver, field, cap):
        caps.append(cap)
        if cap > 6:
            raise AssertionError(f"knit at cap {cap}, above the registry's cap 6")
        return real_knit(quiver, field, cap)

    monkeypatch.setattr(quivdet.translate, "knit", capped_knit)
    monkeypatch.setattr(quivdet.determiner, "knit", capped_knit, raising=False)
    report = qd.minimal_left_determiner(f, registry=registry, verify=True)
    assert caps == [6]
    assert not report.registry_complete


def test_left_determiner_of_split_mono(a3):
    P1 = qd.projective_at(a3, "1")
    total, injs, projs = qd.direct_sum([P1, qd.simple_at(a3, "2")])
    rep = qd.minimal_left_determiner(injs[0], verify=True)
    assert rep.labels == ()
    assert rep.split_epimorphism  # split mono dualizes to a split epi


def test_left_determiner_of_identity(a3):
    rep = qd.minimal_left_determiner(qd.identity_morphism(qd.projective_at(a3, "2")))
    assert rep.labels == ()


def test_mono_determiner_all_projective(a3, a3_engine):
    # inclusion P_1 -> P_3 is mono: its determiner contains only projectives
    P1 = qd.projective_at(a3, "1")
    P3 = qd.projective_at(a3, "3")
    f = qd.hom_basis(P1, P3).basis[0]
    assert f.is_mono()
    rep = a3_engine.report(f, verify=True)
    assert rep.labels != ()
    for m in rep.members:
        entry = a3_engine.registry.find_or_none(m.rep)
        assert entry is not None and entry.is_projective
    assert rep.oracle.certified


def test_epi_determiner_all_nonprojective(a3, a3_engine):
    # projection P_2 -> S_2 is epi: only non-projectives appear
    P2 = qd.projective_at(a3, "2")
    S2 = qd.simple_at(a3, "2")
    f = qd.hom_basis(P2, S2).basis[0]
    assert f.is_epi()
    rep = a3_engine.report(f, verify=True)
    assert rep.labels != ()
    for m in rep.members:
        entry = a3_engine.registry.find_or_none(m.rep)
        assert entry is not None and not entry.is_projective
    assert rep.oracle.certified


def test_report_json_shape(a3_engine, golden_f):
    doc = a3_engine.report(golden_f, verify=True).to_json_dict()
    assert list(doc.keys()) == [
        "morphism", "field", "side", "right_minimal", "trivial",
        "intrinsic_kernel", "soc_coker", "determiner", "registry", "oracle"]
    assert doc["determiner"][0] == {
        "label": "S_2", "dim_vector": [0, 1, 0],
        "provenance": "from-tau-minus(P_1)"}
    assert doc["oracle"]["certified"] is True


def test_incomplete_registry_flagged():
    kron = qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")
    reg = qd.knit(kron, cap=6)
    assert not reg.complete
    eng = DeterminerEngine(reg)
    P2 = qd.projective_at(kron, "2")
    P1 = qd.projective_at(kron, "1")
    f = qd.hom_basis(P2, P1).basis[0]
    rep = eng.report(f, verify=True)
    assert not rep.oracle.complete
    assert not rep.oracle.certified
    doc = rep.to_json_dict()
    assert "note" in doc["registry"]


E6_TEXT = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
           "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
D4_TEXT = "vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c"
KRONECKER_TEXT = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2"


def _oracle_digest(q, field, cap):
    """Verdicts on the formula members, on the members minus the last one, and
    on the members plus the first registry object not among them, for three
    fixed hom-basis morphisms, with each member's almost-factoring subspace."""
    reg = qd.knit(q, field, cap)
    eng = DeterminerEngine(reg)
    pairs = [(a.rep, b.rep) for a in reg.entries for b in reg.entries
             if a is not b and eng.hom(a.rep, b.rep).dim]
    h = hashlib.sha256()
    for M, N in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
        rm, _, _, members = eng.formula_members(eng.hom(M, N).basis[0])
        f = rm.minimal
        reps = [m.rep for m in members]
        extra = next(e.rep for e in reg.entries
                     if all(indec_iso_witness(e.rep, Z) is None for Z in reps))
        for candidate in (reps, reps[:-1], reps + [extra]):
            verdict = eng.verify(f, candidate)
            h.update(json.dumps(verdict.to_json_dict(), sort_keys=True).encode())
            for Z in candidate:
                basis = eng.almost_factor_subspace(f, Z).basis
                h.update(repr(tuple(tuple(str(x) for x in row) for row in basis)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("text, field, cap, digest", [
    (E6_TEXT, "rat", 5000,
     "5a6be79061155a1a0988036b60c1775efddd19522e336a9ed5029d1776fa4ad4"),
    (E6_TEXT, "fp:10007", 5000,
     "5a6be79061155a1a0988036b60c1775efddd19522e336a9ed5029d1776fa4ad4"),
    (D4_TEXT, "rat", 5000,
     "70a4fc75cb38e6250ebd6bb35e1c3481782a3cf89fbdf14819284b044a2979eb"),
    (KRONECKER_TEXT, "rat", 8,
     "9482141add5bf6a302f85b2b731266c4223097f859487e91ded6369b5116d2c3"),
], ids=["e6-rat", "e6-fp10007", "d4", "kronecker-cap8"])
def test_oracle_verdicts_are_pinned(text, field, cap, digest):
    # failing verdicts (named witnesses, removals that break nothing) and the
    # almost-factoring subspaces are part of the output contract too
    assert _oracle_digest(qd.parse_quiver(text), field_from_name(field), cap) == digest


def test_engine_hom_matches_solved_hom_on_dynkin_registry():
    # the Euler-form zeros are the spaces hom_basis would have returned
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    eng = DeterminerEngine(reg)
    for a in reg.entries:
        for b in reg.entries:
            assert eng.hom(a.rep, b.rep).basis == qd.hom_basis(a.rep, b.rep).basis


def test_verify_solves_no_zero_hom_between_registered_objects(monkeypatch):
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    eng = DeterminerEngine(reg)
    big = max(reg.entries, key=lambda e: e.rep.total_dim).rep
    f = eng.hom(big, qd.injective_at(q, "3")).basis[0]
    rm, _, _, members = eng.formula_members(f)
    solved = []

    def recording(real):
        # both Hom solvers: the squares, and the generator equations of a
        # presentation of the domain; each takes the domain first and the
        # codomain last
        def solve(*args):
            space = real(*args)
            solved.append((args[0], args[-1], space.dim))
            return space
        return solve

    for name in ("hom_basis", "generator_kernel"):
        monkeypatch.setattr(quivdet.reps, name, recording(getattr(quivdet.reps, name)))
    assert eng.verify(rm.minimal, members).certified
    monkeypatch.undo()
    assert solved
    assert [(M, N) for M, N, d in solved if not d
            and reg.find_iso(M) is not None and reg.find_iso(N) is not None] == []


def _patch_euler_form(monkeypatch, form):
    """Replace euler_form in every quivdet namespace that binds it, so the
    patch holds wherever the Euler-form rule lives."""
    real = quivdet.quiver.euler_form
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivdet" and getattr(module, "euler_form", None) is real:
            monkeypatch.setattr(module, "euler_form", form)


def test_engine_hom_cross_checks_the_euler_form(monkeypatch):
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    eng = DeterminerEngine(reg)
    M, N = next((a.rep, b.rep) for a in reg.entries for b in reg.entries
                if (a.rep, b.rep) not in q.workspace.homs and hom_basis(a.rep, b.rep).dim == 1)
    _patch_euler_form(monkeypatch, lambda q, a, b: 2)
    with pytest.raises(InvariantError):
        eng.hom(M, N)


def test_engine_hom_ignores_the_euler_form_off_dynkin_type(monkeypatch):
    def no_form(*args):
        raise AssertionError("the Euler form decides Hom only on Dynkin type")

    e6 = qd.parse_quiver(E6_TEXT)
    e6_reg = qd.knit(e6)
    _patch_euler_form(monkeypatch, no_form)
    reg = qd.knit(qd.parse_quiver(KRONECKER_TEXT), cap=6)
    eng = DeterminerEngine(reg)
    for a in reg.entries:
        for b in reg.entries:
            assert eng.hom(a.rep, b.rep).dim == hom_basis(a.rep, b.rep).dim
    # the control: on Dynkin type the same patch is reached
    M, N = next((a.rep, b.rep) for a in e6_reg.entries for b in e6_reg.entries
                if (a.rep, b.rep) not in e6.workspace.homs)
    with pytest.raises(AssertionError, match="only on Dynkin type"):
        DeterminerEngine(e6_reg).hom(M, N)


def _counting_trd(monkeypatch):
    calls = []
    real_trd = quivdet.determiner.trd

    def counting_trd(M):
        calls.append(M.dims)
        return real_trd(M)

    monkeypatch.setattr(quivdet.determiner, "trd", counting_trd)
    return calls


def _sample_morphisms(reg):
    """The first basis map of Hom(a, b), entries a != b, at four spread
    positions of the list of nonzero spaces."""
    spaces = [hs for a in reg.entries for b in reg.entries if a is not b
              for hs in [hom_basis(a.rep, b.rep)] if hs.dim]
    return [spaces[k * (len(spaces) - 1) // 3].basis[0] for k in range(4)]


@pytest.mark.parametrize("text, field", [
    (A3_TEXT, "rat"), (E6_TEXT, "rat"), (E6_TEXT, "fp:10007"), (D4_TEXT, "rat"),
], ids=["a3", "e6-rat", "e6-fp10007", "d4"])
def test_members_are_registry_entries_without_trd(monkeypatch, text, field):
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field))
    assert reg.complete
    eng = DeterminerEngine(reg)
    fs = _sample_morphisms(reg)
    if text == A3_TEXT:
        fs.append(qd.hom_basis(qd.projective_at(q, "2", reg.field),
                               qd.injective_at(q, "2", reg.field)).basis[0])
    calls = _counting_trd(monkeypatch)
    provenances = set()
    for f in fs:
        _, _, _, members = eng.formula_members(f)
        for m in members:
            assert any(m.rep is e.rep and m.label == e.label for e in reg.entries)
            provenances.add(m.provenance.split("(")[0])
    assert calls == []
    assert provenances == {"from-tau-minus", "from-projective-cover"}


def _fallback_formula(monkeypatch, reg, f):
    """trd calls, kernel labels and members of the formula for f, whose
    cokernel has a zero socle."""
    calls = _counting_trd(monkeypatch)
    _, kernel_labels, soc_pairs, members = DeterminerEngine(reg).formula_members(f)
    assert soc_pairs == ()
    return calls, kernel_labels, [(m.label, m.provenance, m.dim_vector) for m in members]


@pytest.mark.parametrize("cap", [6, 12])
def test_regular_kernel_summand_falls_back_to_trd(monkeypatch, cap):
    # a regular summand of the Kronecker quiver is never knitted
    q = qd.parse_quiver(KRONECKER_TEXT)
    M = qd.Representation(q, F, (2, 2), (qd.Mat(F, 2, 2, ((1, 0), (0, 1))),
                                         qd.Mat(F, 2, 2, ((0, 1), (0, 0)))))
    N = qd.Representation(q, F, (1, 1), (qd.Mat(F, 1, 1, ((1,),)), qd.Mat(F, 1, 1, ((0,),))))
    f = qd.hom_basis(M, N).basis[0]
    calls, kernel_labels, members = _fallback_formula(monkeypatch, qd.knit(q, cap=cap), f)
    assert kernel_labels == ("M[1, 1]#?",)
    assert members == [("M[1, 1]#?", "from-tau-minus(M[1, 1]#?)", (1, 1))]
    assert calls == [(1, 1)]


def test_kernel_summand_at_the_cap_falls_back_to_trd(monkeypatch):
    reg = qd.knit(qd.parse_quiver(KRONECKER_TEXT), cap=6)
    assert [e.tau_minus for e in reg.entries] == [2, 3, 4, 5, None, None]
    g = qd.hom_basis(reg.entries[5].rep, reg.entries[4].rep).basis[0]
    _, f = qd.cokernel(g)
    calls, kernel_labels, members = _fallback_formula(monkeypatch, reg, f)
    assert kernel_labels == ("M[4, 5]#5",)
    assert members == [("M[6, 7]#?", "from-tau-minus(M[4, 5]#5)", (6, 7))]
    assert calls == [(4, 5)]


@pytest.mark.parametrize("text, field, cap", [
    (A3_TEXT, "rat", 5000), (E6_TEXT, "fp:10007", 5000), (D4_TEXT, "rat", 5000),
    (KRONECKER_TEXT, "rat", 6),
], ids=["a3", "e6-fp10007", "d4", "kronecker-cap6"])
def test_knit_registers_the_projectives_first_in_vertex_order(text, field, cap):
    # formula_members reads P_x as entries[vertex index of x]
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    for k, x in enumerate(q.vertices):
        assert reg.entries[k].rep is qd.projective_at(q, x, reg.field)
        assert reg.entries[k].index == k


def _seeded_morphisms(reg, rng, count):
    """count random combinations of hom bases between seeded entry pairs
    with a nonzero Hom space, drawn with rng."""
    ws = reg.quiver.workspace
    spaces = [hs for a in reg.entries for b in reg.entries
              for hs in [ws.hom(a.rep, b.rep)] if hs.dim]
    out = []
    for hs in rng.sample(spaces, count):
        coeffs = [rng.randrange(1, 7) for _ in range(hs.dim)]
        out.append(hs.from_coordinates(coeffs))
    return out


D5_TEXT = "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\narrow a 1 2\narrow b 3 2\narrow c 3 4\narrow d 5 3"
A5_TEXT = "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\narrow a 2 1\narrow b 2 3\narrow c 4 3\narrow d 4 5"


@pytest.mark.parametrize("text, field", [
    (A5_TEXT, "rat"), (D5_TEXT, "rat"), (E6_TEXT, "rat"), (A5_TEXT, "fp:7"), (D4_TEXT, "fp:7"),
    (E6_TEXT, "fp:7"),
], ids=["a5-rat", "d5-rat", "e6-rat", "a5-fp7", "d4-fp7", "e6-fp7"])
def test_oracle_rejects_a_mutated_member_list(text, field):
    # on a complete registry the formula's members are certified; one extra
    # entry is a member whose removal breaks nothing, and a member swapped
    # for a non-member leaves f undetermined at a named witness
    rng = random.Random(16)
    reg = qd.knit(qd.parse_quiver(text), field_from_name(field))
    assert reg.complete
    eng = DeterminerEngine(reg)
    for f in _seeded_morphisms(reg, rng, 6):
        rm, _, _, members = eng.formula_members(f)
        assert eng.verify(rm.minimal, members).certified
        labels = {m.label for m in members}
        outsider = rng.choice([e for e in reg.entries if e.label not in labels])
        extra = DeterminerMember(outsider.label, outsider.rep, "mutation")
        added = eng.verify(rm.minimal, members + (extra,))
        assert not added.certified and not added.passed()
        assert dict(added.removal_breaks)[outsider.label] is None
        if members:
            k = rng.randrange(len(members))
            swapped = eng.verify(rm.minimal, members[:k] + (extra,) + members[k + 1:])
            assert not swapped.certified and not swapped.passed()
            assert not swapped.determination_ok and swapped.determination_witness is not None


@pytest.mark.parametrize("field", ["fp:2", "fp:7"])
def test_maps_into_injectives_certify_over_small_primes(field):
    # every knitted E6 entry has End = k, whose radical is 0 over every
    # field, so the map from each entry to each I_y with a nonzero Hom (the
    # first basis vector) is certified with no trace form
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q, field_from_name(field))
    eng = DeterminerEngine(reg)
    maps = [hs.basis[0] for e in reg.entries for y in q.vertices
            for hs in [q.workspace.hom(e.rep, qd.injective_at(q, y, reg.field))] if hs.dim]
    assert len(maps) == 132
    assert all(eng.report(f, verify=True).oracle.certified for f in maps)


def test_every_hom_solve_goes_through_the_workspace(monkeypatch, capsys):
    # one Hom path: each of the two solvers, hom_basis (the commuting
    # squares) and generator_kernel (the generator equations of a presented
    # domain), is reached from one Workspace method only, _solve_hom, which
    # Workspace.hom alone calls, for hom and the factoring subspaces alike,
    # so the memo and the Euler-form rule see every solve,
    # from the CLI, the knit, the formula, the oracle and the left side's
    # opposite quiver alike, on Dynkin type and off it, where no Euler-form
    # rule applies
    from quivdet.cli import main

    callers = []

    def watch(solver, real):
        def watched(*args):
            # the caller's class from its self, since co_qualname needs 3.11
            frame = sys._getframe(1)
            owner = type(frame.f_locals.get("self")).__name__
            callers.append((solver, Path(frame.f_code.co_filename).name,
                            f"{owner}.{frame.f_code.co_name}"))
            return real(*args)
        return watched

    for solver in ("hom_basis", "generator_kernel"):
        real = getattr(quivdet.reps, solver)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "quivdet" and getattr(module, solver, None) is real:
                monkeypatch.setattr(module, solver, watch(solver, real))
    data = Path(__file__).resolve().parent.parent / "data"
    assert main(["det", str(data / "a3.quiver"), str(data / "a3.reps"), "f", "--verify"]) == 0
    capsys.readouterr()
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    fs = _seeded_morphisms(reg, random.Random(3), 2)
    assert DeterminerEngine(reg).report(fs[0], verify=True).oracle.certified
    assert qd.minimal_left_determiner(fs[1], registry=reg, verify=True).oracle.certified
    kreg = qd.knit(qd.parse_quiver(KRONECKER_TEXT), cap=12)
    f = _seeded_morphisms(kreg, random.Random(3), 1)[0]
    assert qd.minimal_left_determiner(f, registry=kreg, verify=True).oracle.passed()
    assert len(callers) > 100
    assert set(callers) == {("hom_basis", "reps.py", "Workspace._solve_hom"),
                            ("generator_kernel", "reps.py", "Workspace._solve_hom")}


def test_knit_and_requests_read_paths_off_the_workspace(monkeypatch):
    # covers, hulls and every other writer read Workspace.paths_from
    # directly, so no path list is copied by quiver.paths_between, which
    # stays public API only
    def no_copy(*args):
        raise AssertionError("paths_between copies a path list")

    real = quivdet.quiver.paths_between
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivdet" and getattr(module, "paths_between", None) is real:
            monkeypatch.setattr(module, "paths_between", no_copy)
    reg = qd.knit(qd.parse_quiver(E6_TEXT))
    f = _seeded_morphisms(reg, random.Random(4), 1)[0]
    assert DeterminerEngine(reg).report(f, verify=True).oracle.certified


@pytest.mark.parametrize("field", ["rat", "fp:7"])
@pytest.mark.parametrize("text, cap", [(E6_TEXT, 5000), (D4_TEXT, 5000), (KRONECKER_TEXT, 12)],
                         ids=["e6", "d4", "kronecker-cap12"])
def test_factoring_subspace_off_generator_images_is_the_image_of_postcomposition(
        text, cap, field, monkeypatch):
    # F_Z read off Z's generator images is the column space of the
    # postcomposition matrix, for every registry Z (and a Z with no
    # presentation) against seeded morphisms between entries and into direct
    # sums, which have no presentation; no Hom(Z, X) is written out (the
    # space the factoring reads keeps its generator solutions alone), and no
    # (Z, X) with Euler form <= 0 between known indecomposables is solved
    # or held
    from quivdet.linalg import column_space
    from quivdet.reps import postcompose_matrix

    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    ws = q.workspace
    rng = random.Random(5)
    reps = [e.rep for e in reg.entries]
    sums = [qd.direct_sum(rng.sample(reps, 2))[0] for _ in range(2)]
    morphisms = []
    # X != Y, so a stored Hom(Z, Y) is never a Hom(Z, X)
    for X, Y in [(rng.choice([X for X in reps if X != Y]), Y) for Y in rng.sample(reps, 4) + sums]:
        hs = hom_basis(X, Y)
        coeffs = [rng.randrange(1, 7) for _ in range(hs.dim)]
        morphisms.append(hs.from_coordinates(coeffs) if hs.dim else qd.zero_morphism(X, Y))
    solved = []
    real = quivdet.reps.generator_kernel

    def recording(M, presentation, N):
        solved.append((M, N))
        return real(M, presentation, N)

    monkeypatch.setattr(quivdet.reps, "generator_kernel", recording)
    zero_forms = nonzero = 0
    for f in morphisms:
        X, Y = f.domain, f.codomain
        for Z in reps + sums[:1]:
            had_zx = (Z, X) in ws.homs
            fz = ws.factoring_subspace(f, Z)
            assert had_zx or Z not in ws.presentations or "_space" not in vars(ws.factorings[f, Z].hzx)
            assert fz == column_space(postcompose_matrix(hom_basis(Z, X), ws.hom(Z, Y), f))
            nonzero += fz.dim > 0
            known = ws.indecomposables
            if ws.dynkin and Z in known and X in known and qd.euler_form(q, Z.dims, X.dims) <= 0:
                zero_forms += 1
                assert (Z, X) not in solved and (Z, X) not in ws.homs
    monkeypatch.undo()
    assert solved and nonzero
    assert (zero_forms > 0) == ws.dynkin


@pytest.mark.parametrize("field", ["rat", "fp:7"])
def test_factoring_subspace_checks_the_written_composites(field, monkeypatch):
    # f: X -> Y mono, so f . g is outside Hom(Z, Y) exactly when g is outside
    # Hom(Z, X): a generator kernel that returns a vector off the solutions
    # writes a composite that the coordinates in the stored Hom(Z, Y)
    # reject
    from quivdet.linalg import Subspace, column_space
    from quivdet.reps import generator_kernel, postcompose_matrix

    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q, field_from_name(field))
    ws = q.workspace
    reps = [e.rep for e in reg.entries]
    f, Z, k = next((f, Z, k) for X in reps for Y in reps if X != Y
                   for f in ws.hom(X, Y).basis if f.is_mono() for Z in reps
                   if (Z, X) not in ws.homs
                   for k in [generator_kernel(Z, ws.presentations[Z], X)] if 0 < k.dim < k.ambient_dim)
    X, Y = f.domain, f.codomain
    ws.hom(Z, Y)
    fld, n = k.field, k.ambient_dim
    units = [tuple(fld.one if i == j else fld.zero for i in range(n)) for j in range(n)]
    outside = next(u for u in units if not k.contains_vector(u))
    v = tuple(a + b for a, b in zip(k.basis[-1], outside))
    solved = []

    def off_the_solutions(M, presentation, N):
        solved.append((M, N))
        return Subspace(fld, n, k.basis[:-1] + (v,), k.pivots)

    monkeypatch.setattr(quivdet.reps, "generator_kernel", off_the_solutions)
    with ws.request(), pytest.raises(InvariantError, match="vertex maps outside the hom space"):
        ws.factoring_subspace(f, Z)
    monkeypatch.undo()
    assert solved == [(Z, X)]
    del ws.homs[Z, X]  # held past the request, with the patched solutions
    fz = ws.factoring_subspace(f, Z)
    assert fz.dim == k.dim
    assert fz == column_space(postcompose_matrix(qd.hom_basis(Z, X), ws.hom(Z, Y), f))


@pytest.mark.parametrize("field", ["rat", "fp:7"])
@pytest.mark.parametrize("text, cap", [(E6_TEXT, 5000), (D4_TEXT, 5000), (KRONECKER_TEXT, 12)],
                         ids=["e6", "d4", "kronecker-cap12"])
def test_factoring_subspace_of_a_sum_domain_is_the_image_of_postcomposition(text, cap, field):
    # for a recorded direct sum X (a repeated summand and a nested sum
    # included), the generator solutions of Hom(Z, X) are solved for the
    # whole sum, and F_Z is still the column space of the postcomposition
    # matrix
    from quivdet.linalg import column_space
    from quivdet.reps import postcompose_matrix

    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    ws = q.workspace
    rng = random.Random(8)
    reps = [e.rep for e in reg.entries]
    a, b = rng.sample(reps, 2)
    pair = qd.direct_sum([a, b])[0]
    domains = [pair, qd.direct_sum([b, b])[0], qd.direct_sum([a, pair])[0]]
    checked = 0
    for X in domains:
        Y = rng.choice([Y for Y in reps + domains if Y != X and ws.hom(X, Y).dim])
        hs = ws.hom(X, Y)
        f = hs.from_coordinates([rng.randrange(1, 7) for _ in range(hs.dim)])
        for Z in reps:
            fz = ws.factoring_subspace(f, Z)
            assert fz == column_space(postcompose_matrix(hom_basis(Z, X), ws.hom(Z, Y), f))
            checked += fz.dim > 0
    assert checked


def _e6_stream(count: int):
    """A short seeded E6 stream: morphisms between direct sums of one to
    three entries, every third one asked of the left side; returns the
    quiver, the registry and the (side, morphism) requests."""
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    ws = q.workspace
    rng = random.Random(12)
    reps = [e.rep for e in reg.entries]
    requests = []
    while len(requests) < count:
        i = len(requests)
        X = qd.direct_sum(rng.sample(reps, 1 + i % 3))[0]
        Y = qd.direct_sum(rng.sample(reps, 1 + (i + 1) % 3))[0]
        hs = ws.hom(X, Y)
        if hs.dim:
            f = hs.from_coordinates([rng.randrange(-2, 3) or 1 for _ in range(hs.dim)])
            requests.append(("left" if i % 3 == 2 else "right", f))
    return q, reg, requests


def _certify(reg, requests) -> None:
    engine = DeterminerEngine(reg)
    for side, f in requests:
        report = (qd.minimal_left_determiner(f, registry=reg, verify=True) if side == "left"
                  else engine.report(f, verify=True))
        assert report.oracle.certified


def test_stream_gives_hom_no_sum_and_solves_generator_kernels_in_one_place(monkeypatch):
    # Hom is additive: over a stream of requests between direct sums, on
    # both quivers, no solver receives a recorded sum on either side, and
    # every generator kernel is solved by _solve_hom, for hom alone;
    # the generator solutions of a presented Z into a sum are its blocks'
    # placed at the sum's coordinates, which are the solutions of the sum
    q, reg, requests = _e6_stream(9)
    calls = []

    def summed(M):
        # asked when the solver runs: a request's own sums leave the
        # workspace with the request
        return M in M.quiver.workspace.sums

    def watch(name):
        real = getattr(quivdet.reps, name)

        def watched(M, *args):
            N = args[-1]
            calls.append((name, sys._getframe(1).f_code.co_name, summed(M), summed(N)))
            return real(M, *args)
        return watched

    for name in ("hom_basis", "generator_kernel"):
        monkeypatch.setattr(quivdet.reps, name, watch(name))
    _certify(reg, requests)
    monkeypatch.undo()
    assert sum(f.domain in q.workspace.sums and f.codomain in q.workspace.sums
               for _, f in requests) >= 2
    assert calls and not [c for c in calls if c[2] or c[3]]
    assert {caller for name, caller, _, _ in calls if name == "generator_kernel"} \
        == {"_solve_hom"}
    ws = q.workspace
    placed = [(Z, f.codomain) for _, f in requests if f.codomain in ws.sums
              for Z in (e.rep for e in reg.entries)]
    assert placed
    for Z, Y in placed:
        held = ws.hom(Z, Y)
        assert held.solutions == quivdet.reps.generator_kernel(Z, ws.presentations[Z], Y)


def test_first_left_request_keeps_the_opposite_registry_in_the_workspace(monkeypatch):
    # the first left request on a fresh quiver knits the opposite quiver
    # inside its request scope, and knit writes each TrD's presentation,
    # decomposition, End and Hom(t, t) before it registers t: those entries
    # are kept, since ownership is read when the scope closes, and a second
    # left request solves again no Hom between entries that the first solved.
    # The second morphism is a scalar multiple of the first: a new request
    # morphism on the same objects, so the two requests ask Hom of the same
    # entry pairs
    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q)
    f1, = _seeded_morphisms(reg, random.Random(21), 1)
    f2 = f1.scale(3)
    asked, solved = [], []
    real_hom, real_solve = Workspace.hom, Workspace._solve_hom

    def hom(ws, M, N):
        asked.append((M, N))
        return real_hom(ws, M, N)

    def solve(ws, M, N):
        solved.append((M, N))
        return real_solve(ws, M, N)

    monkeypatch.setattr(Workspace, "hom", hom)
    monkeypatch.setattr(Workspace, "_solve_hom", solve)
    assert qd.minimal_left_determiner(f1, registry=reg, verify=True).oracle.certified
    wop = q.opposite.workspace
    entries = {e.rep for e in wop.registries[(reg.field, reg.cap)].entries}
    assert len(entries) == 36 and entries <= wop.owned
    assert [M for M in entries if M not in wop.presentations or M not in wop.indecomposables] == []
    first = {(M, N) for M, N in solved if M in entries and N in entries}
    asked.clear()
    solved.clear()
    assert qd.minimal_left_determiner(f2, registry=reg, verify=True).oracle.certified
    assert first & set(asked)
    assert [pair for pair in solved if pair in first] == []


E8_TEXT = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\nvertex 7\nvertex 8\n"
           "arrow a 2 1\narrow b 3 1\narrow c 4 3\narrow d 5 1\narrow e 6 5\narrow g 7 6\n"
           "arrow h 8 7")
KRONECKER3_TEXT = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\narrow c 1 2"
A2_TILDE_TEXT = "vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\narrow c 1 3"


@pytest.mark.parametrize("field", ["rat", "fp:3"])
@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (E8_TEXT, 5000), (D4_TEXT, 5000), (KRONECKER_TEXT, 24),
    (KRONECKER3_TEXT, 6), (A2_TILDE_TEXT, 18),
], ids=["e6", "e8", "d4", "kronecker-cap24", "kronecker3-cap6", "a2tilde-cap18"])
def test_knitted_entries_are_bricks(text, cap, field):
    # knit registers only preprojectives, whose endomorphism ring is the
    # field: the almost-factoring subspace rests on this to read rad(U, Z)
    # as Hom(U, Z) off Z's own entry and as 0 on it
    q = qd.parse_quiver(text)
    reg = qd.knit(q, field_from_name(field), cap)
    assert [e.label for e in reg.entries if q.workspace.hom(e.rep, e.rep).dim != 1] == []


def test_almost_factoring_rejects_a_registry_entry_that_is_no_brick():
    # the Kronecker module with arrows I and a nilpotent Jordan block has
    # End = k[x]/x^2; entered by hand as a registry entry, its radical is
    # not 0, so the oracle must refuse to skip its own entry
    q = qd.parse_quiver(KRONECKER_TEXT)
    M = qd.Representation(q, F, (2, 2), (qd.Mat.identity(F, 2),
                                         qd.Mat.from_rows(F, [[0, 1], [0, 0]])))
    reg = qd.IndecRegistry(q, F, [RegistryEntry("M", M, 0)], by_dims={M.dims: 0})
    with pytest.raises(InvariantError, match="brick"):
        DeterminerEngine(reg).almost_factor_subspace(qd.identity_morphism(M), M)


def test_almost_factoring_needs_an_indecomposable(a3_engine, golden_f):
    reg = a3_engine.registry
    Z, _, _ = qd.direct_sum([reg.by_label("S_2").rep, reg.by_label("P_3").rep])
    with pytest.raises(qd.NotIndecomposableError):
        a3_engine.almost_factor_subspace(golden_f, Z)
    with pytest.raises(qd.NotIndecomposableError):
        a3_engine.verify(golden_f, [Z])


def _radical_map_subspace(reg, f, Z):
    """The almost-factoring subspace by its definition, the reference the
    oracle is checked against: the g in Hom(Z, Y) with g . h factoring
    through f for every registry entry U and every h in rad_hom_basis(U, Z)."""
    ws = f.domain.quiver.workspace
    hzy = ws.hom(Z, f.codomain)
    rows = []
    for entry in reg.entries:
        U = entry.rep
        huy, huz = ws.hom(U, f.codomain), ws.hom(U, Z)
        if not huy.dim or not huz.dim:
            continue
        factoring = column_space(postcompose_matrix(ws.hom(U, f.domain), huy, f))
        off = factoring.complement_projection()
        for coords in qd.rad_hom_basis(U, Z).basis:
            h = huz.from_coordinates(coords)
            cols = [huy.coordinates(g @ h) for g in hzy.basis]
            rows.extend((off @ from_columns(reg.field, cols, huy.dim)).entries)
    if not rows:
        return qd.Subspace.full(reg.field, hzy.dim)
    return qd.kernel_basis(qd.Mat(reg.field, len(rows), hzy.dim, tuple(rows)))


@pytest.mark.parametrize("field", ["rat", "fp:10007"])
@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (D4_TEXT, 5000), (KRONECKER_TEXT, 12), (A2_TILDE_TEXT, 14),
], ids=["e6", "d4", "kronecker-cap12", "a2tilde-cap14"])
def test_almost_factoring_equals_the_radical_map_definition(text, cap, field):
    # every registry object, and on a truncated registry two objects TrD
    # lands on past its cap, against the loop over rad(U, Z) for every entry U
    reg = qd.knit(qd.parse_quiver(text), field_from_name(field), cap)
    eng = DeterminerEngine(reg)
    objects = [e.rep for e in reg.entries]
    if not reg.complete:
        ends = [e.rep for e in reg.entries if e.tau_minus is None and not e.is_injective]
        objects += [qd.trd(M) for M in ends[-2:]]
        assert all(reg.find_iso(Z) is None for Z in objects[-2:])
    strict = 0
    for f in _seeded_morphisms(reg, random.Random(27), 3):
        for Z in objects:
            R = eng.almost_factor_subspace(f, Z)
            ref = _radical_map_subspace(reg, f, Z)
            assert R.dim == ref.dim and R.contains(ref), (f, Z)
            strict += R.dim > eng.workspace.factoring_subspace(f, Z).dim
    # some Z almost factors, so the skipped own entry matters
    assert strict


def _spy_sources(eng):
    """The source lists of every determined_subspace call on eng, in order."""
    sourced = []
    real = eng.determined_subspace

    def spy(f, sources, V):
        sourced.append(list(sources))
        return real(f, sourced[-1], V)

    eng.determined_subspace = spy
    return sourced


@pytest.mark.parametrize("text, field, cap", [
    (E6_TEXT, "rat", 5000), (A5_TEXT, "rat", 5000), (D4_TEXT, "fp:7", 5000),
    (KRONECKER_TEXT, "rat", 16), (A2_TILDE_TEXT, "rat", 18),
], ids=["e6", "a5", "d4-fp7", "kronecker-cap16", "a2tilde-cap18"])
def test_almost_factoring_sources_are_the_ar_predecessors(text, field, cap):
    # every radical map into Z = tau^-k P_x factors through its sink map,
    # whose domain holds Z's AR predecessors: tau^-k P_y for each arrow
    # x -> y and tau^-(k-1) P_z for each arrow z -> x.  Sourced by them
    # alone, the almost-factoring subspace equals the one every other entry
    # determines, and dropping either rule changes it on every quiver
    reg = qd.knit(qd.parse_quiver(text), field_from_name(field), cap)
    assert None not in reg.predecessors
    eng = DeterminerEngine(reg)
    sourced = _spy_sources(eng)
    dropped = {"same layer": 0, "layer below": 0}
    for f in _seeded_morphisms(reg, random.Random(30), 3):
        for e in reg.entries:
            R = eng.almost_factor_subspace(f, e.rep)
            preds = [reg.entries[i] for i in reg.predecessors[e.index]]
            assert sourced[-1] == [p.rep for p in preds]
            full = eng.determined_subspace(f, [u.rep for u in reg.entries if u is not e], e.rep)
            assert R == full, (f, e.label)
            k = e.orbit[1]
            for rule, layer in (("same layer", k), ("layer below", k - 1)):
                kept = [p.rep for p in preds if p.orbit[1] != layer]
                dropped[rule] += eng.determined_subspace(f, kept, e.rep) != full
    assert all(dropped.values()), dropped


def test_almost_factoring_falls_back_to_every_entry_past_the_cap():
    # the Kronecker knit at cap 15 stops after tau^-7 P_1, whose predecessor
    # tau^-7 P_2 lies past the cap: that entry, like an object off the
    # registry, takes every other entry as a source
    reg = qd.knit(qd.parse_quiver(KRONECKER_TEXT), F, 15)
    last = reg.entries[-1]
    assert last.orbit == ("1", 7) and reg.predecessors[-1] is None
    assert None not in reg.predecessors[:-1]
    eng = DeterminerEngine(reg)
    sourced = _spy_sources(eng)
    beyond = qd.trd(last.rep)
    assert reg.find_iso(beyond) is None
    # maps into the last entry, from P_1 and from tau^-6 P_1
    for f in (qd.zero_morphism(reg.entries[0].rep, last.rep),
              eng.hom(reg.entries[-3].rep, last.rep).basis[0]):
        R = eng.almost_factor_subspace(f, last.rep)
        assert sourced[-1] == [e.rep for e in reg.entries[:-1]]
        # its registered predecessors alone (none) would constrain nothing
        assert R.dim < eng.hom(last.rep, last.rep).dim
        eng.almost_factor_subspace(f, beyond)
        assert sourced[-1] == [e.rep for e in reg.entries]


def test_oracle_calls_outside_a_request_leave_no_request_entries():
    # each public oracle call opens a request scope of its own: called
    # outside any request, it leaves no factoring subspace, no constraint
    # rows and no Hom space of an object the workspace does not own, though
    # inside a request it writes them
    q, reg, requests = _e6_stream(1)
    f = requests[0][1]
    ws = q.workspace
    eng = DeterminerEngine(reg)
    entries = [e.rep for e in reg.entries]
    start = set(ws.homs)

    def left():
        return (len(ws.factorings), len(ws.constraints),
                [k for k in set(ws.homs) - start if not (k[0] in ws.owned and k[1] in ws.owned)])

    calls = {
        "almost_factors": lambda: [eng.almost_factors(f, Z) for Z in entries],
        "almost_factor_subspace": lambda: [eng.almost_factor_subspace(f, Z) for Z in entries],
        "determined_subspace": lambda: [eng.determined_subspace(f, entries, V) for V in entries],
        "factors_through": lambda: [eng.factors_through(qd.zero_morphism(Z, f.codomain), f)
                                    for Z in entries] + [eng.factors_through(f, f)],
    }
    assert left() == (0, 0, [])
    for name, call in calls.items():
        with ws.request():
            call()
            assert left()[2], name
        assert left() == (0, 0, []), name
        call()
        assert left() == (0, 0, []), name
    assert sum(eng.almost_factors(f, Z) for Z in entries)


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _bench_morphism(q, name):
    """The morphism f of perfbench/inputs/<name>.reps over q, the one the
    <name> workload of the benchmark certifies."""
    from quivdet.formats import load_session

    return load_session(q, F, (BENCH_INPUTS / f"{name}.reps").read_text(encoding="utf-8")).morphism("f")


def _gap_morphisms(text, cap, side, seeded, bench):
    """A registry and the morphisms the gap decisions are checked on: when
    seeded, two seeded maps between entries and one into a direct sum,
    drawn by hom_basis so that the workspace holds no Hom space of the
    draw; the benchmark's morphism when bench names one; on the left side
    the duals over the opposite quiver, with its registry."""
    reg = qd.knit(qd.parse_quiver(text), F, cap)
    rng = random.Random(33)
    reps = [e.rep for e in reg.entries]
    fs = [] if bench is None else [_bench_morphism(reg.quiver, bench)]
    if seeded:
        total = qd.direct_sum(rng.sample(reps, 2))[0]
        for pairs, count in ([rng.sample(reps, 2) for _ in range(40)], 2), ([(X, total) for X in reps], 1):
            spaces = (hs for X, Y in pairs for hs in [hom_basis(X, Y)] if hs.dim)
            fs.extend(hs.from_coordinates([rng.randrange(1, 7) for _ in range(hs.dim)])
                      for hs in islice(spaces, count))
    if side == "left":
        return qd.knit(reg.quiver.opposite, F, cap), [qd.dual_morphism(f) for f in fs]
    return reg, fs


def _written_gap(eng, f, members, V) -> bool:
    """Whether V has a gap, by the route that writes Hom(V, Y), F_V and the
    determined subspace out."""
    if not eng.hom(V, f.codomain).dim:
        return False
    return eng.determined_subspace(f, members, V).dim != eng.workspace.factoring_subspace(f, V).dim


@pytest.mark.parametrize("text, cap, side, seeded, bench", [
    (E6_TEXT, 5000, "right", True, None), (E6_TEXT, 5000, "left", True, None),
    (D4_TEXT, 5000, "right", True, None), (D4_TEXT, 5000, "left", True, None),
    (A5_TEXT, 5000, "right", True, None), (A5_TEXT, 5000, "left", True, None),
    (E8_TEXT, 5000, "right", False, "e8"), (KRONECKER_TEXT, 12, "right", True, "kronecker"),
], ids=["e6", "e6-left", "d4", "d4-left", "a5", "a5-left", "e8-bench", "kronecker-cap12"])
def test_gap_decisions_match_the_written_route(text, cap, side, seeded, bench):
    # for the formula's members and each list with one member removed, the
    # gap of every registry object, read off generator images where no
    # member constrains it, is the one the written-out route finds, and
    # _first_gap names the first; every decision is made before any
    # reference writes a Hom space or a factoring subspace out, and a
    # decision by rank leaves its factoring subspace unwritten
    reg, fs = _gap_morphisms(text, cap, side, seeded, bench)
    eng = DeterminerEngine(reg)
    ws = eng.workspace
    cases, read_off = [], 0
    for g in fs:
        with ws.request():
            rm, _, _, members = eng.formula_members(g)
        f, reps = rm.minimal, [m.rep for m in members]
        for lst in [reps] + [reps[:i] + reps[i + 1:] for i in range(len(reps))]:
            with ws.request():
                gaps = [(e.label, gap) for e, gap in eng._gaps(f, lst)]
                first = eng._first_gap(f, lst)
                read_off += sum(1 for (h, _), fz in ws.factorings.items()
                                if h is f and "space" not in vars(fz))
            cases.append((f, lst, gaps, first))
    assert read_off
    for f, lst, gaps, first in cases:
        with ws.request():
            ref = [(e.label, _written_gap(eng, f, lst, e.rep)) for e in reg.entries]
        assert gaps == ref
        assert first == next((label for label, gap in ref if gap), None)


def _unconstrained_pair(ws, reps, fits):
    """f: X -> Y between registry objects and a registry object V with
    Hom(V, Y) not stored, for which fits(f, V) holds."""
    return next((f, V) for X in reps for Y in reps if X != Y for f in ws.hom(X, Y).basis
                for V in reps if (V, Y) not in ws.homs and fits(f, V))


def _off_the_solutions(k):
    """k with its last basis vector moved off k by a unit vector."""
    fld, n = k.field, k.ambient_dim
    units = [tuple(fld.one if i == j else fld.zero for i in range(n)) for j in range(n)]
    outside = next(u for u in units if not k.contains_vector(u))
    v = tuple(a + b for a, b in zip(k.basis[-1], outside))
    return qd.Subspace(fld, n, k.basis[:-1] + (v,), k.pivots)


def _patch_kernel(monkeypatch, into, k):
    """generator_kernel answering k for maps into `into`, truly otherwise."""
    real = quivdet.reps.generator_kernel

    def patched(M, presentation, N):
        return k if N == into else real(M, presentation, N)

    monkeypatch.setattr(quivdet.reps, "generator_kernel", patched)


@pytest.mark.parametrize("field", ["rat", "fp:7"])
def test_factoring_rank_checks_the_solutions_against_the_squares(field, monkeypatch):
    # a generator solution of the held Hom(V, Y) that is not a map is
    # written out by the rank and trips the commuting-square check, with no
    # canonical form built
    from quivdet.reps import generator_kernel

    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q, field_from_name(field))
    ws = q.workspace
    reps = [e.rep for e in reg.entries]

    def fits(f, V):
        k = generator_kernel(V, ws.presentations[V], f.codomain)
        return 0 < k.dim < k.ambient_dim

    f, V = _unconstrained_pair(ws, reps, fits)
    Y = f.codomain
    k = generator_kernel(V, ws.presentations[V], Y)
    _patch_kernel(monkeypatch, Y, _off_the_solutions(k))
    with ws.request(), pytest.raises(InvariantError, match="some square does not commute"):
        ws.factoring_rank(f, V)
    monkeypatch.undo()
    assert "_space" not in vars(ws.homs[V, Y])
    del ws.homs[V, Y]  # it holds the patched solutions
    with ws.request():
        fv = column_space(postcompose_matrix(hom_basis(V, f.domain), hom_basis(V, Y), f))
        assert (ws.hom(V, Y).dim, ws.factoring_rank(f, V)) == (k.dim, fv.dim)


@pytest.mark.parametrize("field", ["rat", "fp:7"])
def test_factoring_rank_checks_that_each_composite_is_a_map(field, monkeypatch):
    # f mono, so f . g solves no relation exactly when g does not: a generator
    # solution of Hom(V, X) off the solutions sends an image through f that
    # lies outside the solutions of Hom(V, Y)
    from quivdet.reps import generator_kernel

    q = qd.parse_quiver(E6_TEXT)
    reg = qd.knit(q, field_from_name(field))
    ws = q.workspace
    reps = [e.rep for e in reg.entries]

    def fits(f, V):
        k = generator_kernel(V, ws.presentations[V], f.domain)
        return f.is_mono() and 0 < k.dim < k.ambient_dim

    f, V = _unconstrained_pair(ws, reps, fits)
    X, Y = f.domain, f.codomain
    k = generator_kernel(V, ws.presentations[V], X)
    _patch_kernel(monkeypatch, X, _off_the_solutions(k))
    with ws.request(), pytest.raises(InvariantError, match="composite with f is outside"):
        ws.factoring_rank(f, V)
    monkeypatch.undo()
    assert "_space" not in vars(ws.homs[V, X])
    del ws.homs[V, X]  # it holds the patched solutions
    with ws.request():
        assert (ws.hom(V, Y).dim, ws.factoring_rank(f, V)) == (hom_basis(V, Y).dim, k.dim)


def test_e8_certify_writes_no_hom_into_y_for_an_unconstrained_object(monkeypatch):
    # on the dynkin-e8 benchmark morphism, Hom(V, Y) is put in canonical
    # form and composites with f are formed only for the V that some member
    # constrains; the others, most of the scanned objects, are decided by
    # one rank each
    reg, (g,) = _gap_morphisms(E8_TEXT, 5000, "right", False, "e8")
    eng = DeterminerEngine(reg)
    ws = eng.workspace
    Y = g.codomain
    built, calls = [], {"postcompose_from_generators": 0}
    canonical = quivdet.reps.HomSpace.__dict__["_space"]

    def counted_canonical(hs):
        if hs.codomain == Y:
            built.append(hs.domain)
        return canonical.func(hs)

    counted = cached_property(counted_canonical)
    counted.__set_name__(quivdet.reps.HomSpace, "_space")
    monkeypatch.setattr(quivdet.reps.HomSpace, "_space", counted)
    real = quivdet.reps.postcompose_from_generators

    def composites(*args):
        calls["postcompose_from_generators"] += 1
        return real(*args)

    monkeypatch.setattr(quivdet.reps, "postcompose_from_generators", composites)
    report = eng.report(g, verify=True)
    monkeypatch.undo()
    assert report.oracle.certified
    with ws.request():
        rm, _, _, members = eng.formula_members(g)
        f = rm.minimal
        active = [m.rep for m in members if eng.hom(m.rep, Y).dim
                  and not ws.factoring_subspace(f, m.rep).is_full()]
        scanned = [e.rep for e in reg.entries if eng.hom(e.rep, Y).dim]
        constrained = [V for V in scanned if any(eng.hom(S, V).dim for S in active)]
    assert len(scanned) > 50 and constrained
    # the formula's right minimal version reads Hom(X, Y) of g itself in
    # canonical form; every other canonical form into Y is of a constrained V
    others = [V for V in built if V != g.domain]
    assert set(others) <= set(constrained)
    assert max(len(others), calls["postcompose_from_generators"]) <= len(constrained)
