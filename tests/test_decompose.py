"""Krull-Schmidt decomposition, isomorphism tests, right minimal versions."""

import ast
import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quivdet as qd
from quivdet.decompose import (
    _power_coordinates,
    end_algebra,
    indec_iso_witness,
    minimal_polynomial,
    _pmul,
    _primary_parts,
    _sqrt_mod,
)
from quivdet.errors import FieldTooSmallError, NotIndecomposableError
from quivdet.linalg import FieldMismatchError, Mat, PrimeField, RATIONALS, block_diag

F = RATIONALS


def test_decompose_known_sum(a3):
    M, _, _ = qd.direct_sum([qd.projective_at(a3, "2"), qd.simple_at(a3, "3")])
    d = qd.decompose(M)
    dims = sorted(leaf.dims for leaf, _ in d.summands)
    assert dims == [(0, 0, 1), (1, 1, 0)]
    assert all(mult == 1 for _, mult in d.summands)


def test_decompose_zero_and_indecomposable(a3):
    assert qd.decompose(qd.zero_representation(a3, F)).summands == ()
    P3 = qd.projective_at(a3, "3")
    d = qd.decompose(P3)
    assert d.is_indecomposable()
    assert d.idempotents == (qd.identity_morphism(P3),)


def test_decompose_multiplicity(a3):
    P1 = qd.projective_at(a3, "1")
    M, _, _ = qd.direct_sum([P1, P1, P1])
    d = qd.decompose(M)
    assert len(d.summands) == 1 and d.summands[0][1] == 3
    # witnesses are orthogonal idempotents summing to the identity
    es = d.idempotents
    total = None
    for i, e in enumerate(es):
        assert (e @ e) == e
        for j, f in enumerate(es):
            if i != j:
                assert (e @ f).is_zero()
        total = e if total is None else total + e
    assert total == qd.identity_morphism(M)


def test_decompose_twisted_sum(a3):
    # glue P_1 + P_3 through a change of basis so the copies are not aligned
    # with coordinates
    P1 = qd.projective_at(a3, "1")
    P3 = qd.projective_at(a3, "3")
    M, _, _ = qd.direct_sum([P1, P3])
    U = (Mat.from_rows(F, [[1, 1], [0, 1]]), Mat.from_rows(F, [[1]]), Mat.from_rows(F, [[1]]))
    # arrow a: 2 -> 1 conjugates by (U_2, U_1); arrow b: 3 -> 2 by (U_3, U_2)
    twisted = qd.Representation(
        a3, F, M.dims,
        (U[0] @ M.action[0] @ U[1].inverse(), U[1] @ M.action[1] @ U[2].inverse()))
    d = qd.decompose(twisted)
    assert sorted(leaf.dims for leaf, _ in d.summands) == [(1, 0, 0), (1, 1, 1)]


def test_is_isomorphic_basics(a3):
    P3 = qd.projective_at(a3, "3")
    I1 = qd.injective_at(a3, "1")
    w = qd.iso_witness(P3, I1)
    assert w is not None and w.is_iso()
    assert not qd.is_isomorphic(qd.projective_at(a3, "2"), qd.injective_at(a3, "2"))
    assert qd.is_isomorphic(P3, P3)


def test_iso_witness_of_zero_reps_and_of_unequal_piece_counts(a3):
    # zero representations built apart are equal, so the witness is the
    # identity, a zero map; two that differ, here in their field, reach the
    # zero-map branch, which refuses the mix; and P_2 and S_1 + S_2 share a
    # dimension vector but not their number of indecomposable pieces
    Z = qd.zero_representation(a3, RATIONALS)
    w = qd.iso_witness(Z, qd.zero_representation(a3, RATIONALS))
    assert w is not None and w.is_iso() and w.is_zero()
    with pytest.raises(FieldMismatchError):
        qd.iso_witness(Z, qd.zero_representation(a3, PrimeField(7)))
    P2 = qd.projective_at(a3, "2")
    S = qd.direct_sum([qd.simple_at(a3, "1"), qd.simple_at(a3, "2")])[0]
    assert S.dims == P2.dims
    assert qd.iso_witness(P2, S) is None and qd.iso_witness(S, P2) is None


def test_is_isomorphic_equivalence_on_registry(a3_registry):
    reps = [e.rep for e in a3_registry.entries]
    for a in reps:
        assert qd.is_isomorphic(a, a)
        for b in reps:
            assert qd.is_isomorphic(a, b) == qd.is_isomorphic(b, a)
            assert qd.is_isomorphic(a, b) == (a is b)


def test_is_isomorphic_respects_base_change(a3):
    P2 = qd.projective_at(a3, "2")
    tw = qd.Representation(a3, F, P2.dims,
                           (Mat.from_rows(F, [[7]]), Mat.zero(F, 1, 0)))
    assert qd.is_isomorphic(P2, tw)


def test_minimal_polynomial_of_idempotent(a3):
    P1 = qd.projective_at(a3, "1")
    M, injs, projs = qd.direct_sum([P1, P1])
    e = injs[0] @ projs[0]
    mu = minimal_polynomial(e)
    # x^2 - x
    assert mu == [F.zero, -F.one, F.one] or mu == [F.of(0), F.of(-1), F.of(1)]
    parts = _primary_parts(F, mu)
    assert len(parts) == 2
    # degree four: the companion matrix of x^4 - 2, conjugated by a GL
    # matrix, has 1, phi, phi^2, phi^3 independent and phi^4 = 2
    g = Mat.from_rows(F, [[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 0], [0, 0, 2, 1]])
    quartic = _companion_rep(_kronecker(), F, [-2, 0, 0, 0])
    T = g @ quartic.action[1] @ g.inverse()
    M = qd.Representation(quartic.quiver, F, (4, 4), (Mat.identity(F, 4), T))
    phi = qd.RepMorphism(M, M, (T, T))
    mu = minimal_polynomial(phi)
    assert mu == [F.of(-2), F.zero, F.zero, F.zero, F.one]
    assert phi @ phi @ phi @ phi == qd.identity_morphism(M).scale(2)


@pytest.mark.parametrize("text, cap", [
    ("vertex 1\nvertex 2\nvertex 3\narrow a 2 1\narrow b 3 2", 5000),
    ("vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c", 5000),
    ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", 8),
], ids=["a3", "d4", "kronecker-cap8"])
@pytest.mark.parametrize("field", [F, PrimeField(10007)], ids=["rat", "fp10007"])
def test_minimal_polynomial_on_the_vertex_matrices(text, cap, field):
    # checked on the vertex matrices alone, with no End(M) coordinates: mu is
    # monic, kills phi vertex by vertex (Horner), and no lower degree does,
    # since 1, phi, ..., phi^(deg - 1) are independent
    rng = random.Random(17)
    reg = qd.knit(qd.parse_quiver(text), field, cap)
    for _ in range(8):
        M = qd.direct_sum([rng.choice(reg.entries).rep for _ in range(rng.randrange(1, 4))])[0]
        hs = qd.hom_basis(M, M)
        phi = hs.from_coordinates([rng.randrange(-2, 3) for _ in range(hs.dim)])
        mu = minimal_polynomial(phi)
        assert mu[-1] == field.one
        for T in phi.comps:
            acc = Mat.zero(field, T.rows, T.cols)
            for c in reversed(mu):
                acc = acc @ T + Mat.identity(field, T.rows).scale(c)
            assert acc.is_zero()
        power, flat = [Mat.identity(field, d) for d in M.dims], []
        for _ in range(len(mu) - 1):
            flat.append([x for m in power for row in m.entries for x in row])
            power = [m @ T for m, T in zip(power, phi.comps)]
        assert Mat.from_rows(field, flat, sum(d * d for d in M.dims)).rank() == len(mu) - 1


def test_powers_stop_at_the_first_dependent_one(monkeypatch):
    # three Kronecker preprojectives with End(M) of dimension 18 and a cubic
    # minimal polynomial: phi, phi^2 and phi^3 are the only compositions,
    # where the degree bound dim End(M) would form 18 of them
    q = _kronecker()
    reg = qd.knit(q, F, 8)
    M = qd.direct_sum([reg.entries[reg.by_dims[d]].rep for d in [(7, 8), (3, 4), (1, 2)]])[0]
    hs = q.workspace.hom(M, M)
    assert hs.dim == 18
    rng = random.Random(17)
    phi = hs.from_coordinates([rng.randrange(-2, 3) for _ in range(hs.dim)])
    compositions = []
    real = qd.RepMorphism.__matmul__

    def counting(f, g):
        compositions.append(1)
        return real(f, g)

    monkeypatch.setattr(qd.RepMorphism, "__matmul__", counting)
    mu, coords = _power_coordinates(phi)
    monkeypatch.undo()
    assert len(mu) == 4 and len(compositions) == 3
    powers = [qd.identity_morphism(M)]
    for _ in range(3):
        powers.append(powers[-1] @ phi)
    assert coords == [hs.coordinates(f) for f in powers]


def test_right_minimal_version_already_minimal(golden_f):
    rm = qd.right_minimal_version(golden_f)
    assert rm.already_minimal
    assert rm.minimal == golden_f


def test_right_minimal_version_splits_padding(a3, golden_f):
    X2 = qd.projective_at(a3, "1")
    dom, injs, projs = qd.direct_sum([golden_f.domain, X2])
    f = golden_f @ projs[0]   # (f, 0) on the padded domain
    rm = qd.right_minimal_version(f)
    assert rm.minimal.domain.dims == golden_f.domain.dims
    assert rm.split_off.dims == X2.dims
    assert qd.intrinsic_kernel(f).dims == (1, 0, 0)
    # idempotence: the minimal version of the minimal version splits nothing
    rm2 = qd.right_minimal_version(rm.minimal)
    assert rm2.already_minimal


def _unrecorded_sum(reps):
    """The block-diagonal sum of reps with its projections, built by hand, so
    that the workspace holds no sum record of it and its right minimal
    version takes the loop."""
    q, field = reps[0].quiver, reps[0].field
    X = qd.Representation(q, field, tuple(map(sum, zip(*(r.dims for r in reps)))),
                          tuple(block_diag(field, [r.action[a] for r in reps])
                                for a in range(len(q.arrows))))
    assert X not in q.workspace.sums
    projections = []
    for j, r in enumerate(reps):
        starts = [sum(s.dims[i] for s in reps[:j]) for i in range(len(X.dims))]
        projections.append(qd.RepMorphism(X, r, tuple(
            Mat(field, d, X.dims[i], tuple(tuple(int(c == starts[i] + k) for c in range(X.dims[i]))
                                           for k in range(d)))
            for i, d in enumerate(r.dims))))
    return X, projections


def test_right_minimal_version_nilpotent_branch(a3, a3_registry, monkeypatch):
    # the kernel of the first projection P_1 + P_1 -> P_1 is first reached by
    # a nilpotent endomorphism outside the radical; the sum carries no record,
    # since a recorded sum of bricks takes the block route
    module = importlib.import_module("quivdet.decompose")  # qd.decompose is the function
    powers = []
    real_power = module._nilpotency_power

    def recording_power(phi):
        power = real_power(phi)
        powers.append(power.is_zero())
        return power

    monkeypatch.setattr(module, "_nilpotency_power", recording_power)
    P1 = qd.projective_at(a3, "1")
    _, projs = _unrecorded_sum([P1, P1])
    f = projs[0]
    rm = qd.right_minimal_version(f)
    assert True in powers
    assert rm.minimal.is_iso() and rm.minimal.domain.dims == (1, 0, 0)
    assert rm.split_off.dims == (1, 0, 0)
    rep = qd.minimal_right_determiner(f, registry=a3_registry, verify=True)
    assert rep.labels == ()
    assert rep.oracle.certified


def test_right_minimal_version_of_zero_map(a3):
    X = qd.projective_at(a3, "3")
    Y = qd.injective_at(a3, "3")
    f = qd.zero_morphism(X, Y)
    rm = qd.right_minimal_version(f)
    assert rm.minimal.domain.is_zero()
    assert rm.split_off.dims == X.dims
    assert qd.intrinsic_kernel(f).is_zero()


def test_intrinsic_kernel_of_split_epi(a3):
    M = qd.projective_at(a3, "2")
    total, injs, projs = qd.direct_sum([M, qd.simple_at(a3, "2")])
    assert qd.intrinsic_kernel(projs[0]).is_zero()


def test_rad_hom_basis(a3):
    P1 = qd.projective_at(a3, "1")
    P2 = qd.projective_at(a3, "2")
    S3 = qd.simple_at(a3, "3")
    full = qd.rad_hom_basis(P1, P2)
    assert full.dim == 1 and full.is_full()
    assert qd.rad_hom_basis(P1, S3).dim == 0
    # End(Z) one-dimensional: radical of End vanishes
    assert qd.rad_hom_basis(P2, P2).dim == 0
    with pytest.raises(NotIndecomposableError):
        qd.rad_hom_basis(qd.direct_sum([P1, P1])[0], P2)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp7"])
def test_rad_hom_basis_transports_along_an_isomorphism(field):
    # U and Z are isomorphic but unequal regular Kronecker representations, so
    # rad(U, Z) is rad End(Z) carried back along an isomorphism U -> Z
    kq = qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")
    nil = Mat.from_rows(field, [[0, 1], [0, 0]])
    U = qd.Representation(kq, field, (2, 2), (Mat.identity(field, 2), nil))
    Z = qd.Representation(kq, field, (2, 2), (Mat.from_rows(field, [[1, 1], [0, 1]]), nil))
    assert U != Z and qd.is_isomorphic(U, Z)
    hom = qd.hom_basis(U, Z)
    rad = qd.rad_hom_basis(U, Z)
    assert (hom.dim, rad.dim, rad.ambient_dim) == (2, 1, 2)
    assert all(not hom.from_coordinates(v).is_iso() for v in rad.basis)
    assert any(b.is_iso() for b in hom.basis)


def test_end_quotient_dimension_on_dynkin(a3_registry):
    for e in a3_registry.entries:
        alg = end_algebra(e.rep)
        assert alg.dim == 1 and alg.quotient_dim == 1


def test_prime_field_decompose():
    f101 = PrimeField(101)
    q = qd.parse_quiver("vertex 1\nvertex 2\narrow a 2 1")
    P2 = qd.projective_at(q, "2", f101)
    M, _, _ = qd.direct_sum([P2, P2])
    d = qd.decompose(M)
    assert len(d.summands) == 1 and d.summands[0][1] == 2


def test_prime_field_too_small():
    # the trace-form radical needs p > total dimension once dim End > 1;
    # isomorphism tests never use the trace form, so two presentations of
    # P_4 over F_3 are found isomorphic.  The loop meets that limit on an
    # unrecorded sum; the recorded sum of the same bricks takes the block
    # route, which needs no radical and answers as over the rationals
    q = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 2 1\narrow b 3 2\narrow c 4 3")
    answers = []
    for field in (PrimeField(3), F):
        P4 = qd.projective_at(q, "4", field)  # total dimension 4 >= 3
        twisted = qd.Representation(
            q, field, P4.dims,
            (Mat.from_rows(field, [[2]]), Mat.from_rows(field, [[1]]), Mat.from_rows(field, [[1]])))
        assert qd.is_isomorphic(P4, twisted)
        to_i1 = q.workspace.hom(P4, qd.injective_at(q, "1", field)).basis[0]
        if field == PrimeField(3):
            # P_4 + twisted P_4 has total dimension 8 and a four-dimensional End
            X, projs = _unrecorded_sum([P4, twisted])
            assert end_algebra(X).dim == 4
            with pytest.raises(FieldTooSmallError) as e:
                qd.right_minimal_version(to_i1 @ projs[0])
            assert "rat" in str(e.value)
        X, _, projs = qd.direct_sum([P4, twisted])
        assert X in q.workspace.sums
        rm = qd.right_minimal_version(to_i1 @ projs[0])
        answers.append((rm.minimal.domain.dims, rm.split_off.dims))
    assert answers[0] == answers[1] == ((1, 1, 1, 1), (1, 1, 1, 1))


def _kronecker():
    return qd.parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2")


def _companion_rep(q, field, coeffs):
    """(I, companion matrix of the monic polynomial with low coefficients
    coeffs) on the double-arrow quiver; End is k[x]/(that polynomial)."""
    n = len(coeffs)
    rows = [[1 if r == c + 1 else 0 for c in range(n - 1)] + [-coeffs[r]] for r in range(n)]
    return qd.Representation(q, field, (n, n), (Mat.identity(field, n), Mat.from_rows(field, rows)))


def test_indecomposable_with_field_endomorphisms():
    # the regular representation (I, rotation) of the double-arrow quiver has
    # endomorphism algebra isomorphic to a quadratic field, so no candidate
    # splits it; the field-degree certificate must still prove
    # indecomposability
    q = _kronecker()
    rot = Mat.from_rows(F, [[0, -1], [1, 0]])
    M = qd.Representation(q, F, (2, 2), (Mat.identity(F, 2), rot))
    alg = end_algebra(M)
    assert alg.dim == 2 and alg.quotient_dim == 2
    d = qd.decompose(M)
    assert d.is_indecomposable()
    # End = Q(2^(1/4)): the certificate needs a candidate of degree 4
    quartic = _companion_rep(q, F, [-2, 0, 0, 0])
    alg = end_algebra(quartic)
    assert alg.dim == 4 and alg.quotient_dim == 4
    assert qd.decompose(quartic).is_indecomposable()
    # End = Q[x]/((x^2+1)^2): local with a nonzero radical, certified by
    # the degree of the squarefree part x^2+1
    jordan = _companion_rep(q, F, [1, 0, 2, 0])
    alg = end_algebra(jordan)
    assert alg.dim == 4 and alg.radical.dim == 2 and alg.quotient_dim == 2
    assert qd.decompose(jordan).is_indecomposable()


def test_field_degree_certificate_is_sound(monkeypatch):
    # with the identity as the only candidate, nothing splits R and the
    # candidate degree 1 falls short of dim End/rad = 2: the splitter must
    # give up rather than call R indecomposable
    module = importlib.import_module("quivdet.decompose")  # qd.decompose is the function
    monkeypatch.setattr(module, "_candidate_endos",
                        lambda E: iter([qd.identity_morphism(E.M)]))
    for field, error in ((F, qd.DecompositionInconclusiveError),
                         (PrimeField(7), FieldTooSmallError)):
        q = _kronecker()
        rot = Mat.from_rows(field, [[0, -1], [1, 0]])
        R = qd.Representation(q, field, (2, 2), (Mat.identity(field, 2), rot))
        assert end_algebra(R).quotient_dim == 2
        with pytest.raises(error):
            qd.decompose(R)
        with pytest.raises(error):
            qd.is_indecomposable(R)
        assert R not in q.workspace.decompositions


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("field", ["rat", "fp:10007", "fp:3"])
def test_the_splitting_scan_stops_at_the_first_certificate(field, n, monkeypatch):
    # (I, J_n(0)) has the local End = k[x]/(x^n): its first candidate is
    # primary of squarefree degree 1 = dim End/rad, so no later candidate is
    # tried (27 and 46 minimal polynomials for n = 2 and 4 before the scan
    # stopped there); over F_3 there is no radical to certify against, and
    # the scan still ends in FieldTooSmallError
    module = importlib.import_module("quivdet.decompose")  # qd.decompose is the function
    calls = []

    def counted(phi):
        calls.append(phi)
        return _power_coordinates(phi)

    monkeypatch.setattr(module, "_power_coordinates", counted)
    k = qd.field_from_name(field)
    M = _companion_rep(_kronecker(), k, [0] * n)
    if field == "fp:3":
        with pytest.raises(FieldTooSmallError):
            qd.decompose(M)
    else:
        assert qd.decompose(M).is_indecomposable()
        assert end_algebra(M).quotient_dim == 1 and len(calls) <= 2


def test_isotypic_pair_of_field_endomorphism_reps():
    q = _kronecker()
    rot = Mat.from_rows(F, [[0, -1], [1, 0]])
    R = qd.Representation(q, F, (2, 2), (Mat.identity(F, 2), rot))
    M, _, _ = qd.direct_sum([R, R])
    d = qd.decompose(M)
    assert len(d.summands) == 1 and d.summands[0][1] == 2


def test_distinct_field_endomorphism_reps_split():
    q = _kronecker()
    rot = Mat.from_rows(F, [[0, -1], [1, 0]])
    other = Mat.from_rows(F, [[1, -1], [1, 1]])
    R1 = qd.Representation(q, F, (2, 2), (Mat.identity(F, 2), rot))
    R2 = qd.Representation(q, F, (2, 2), (Mat.identity(F, 2), other))
    assert not qd.is_isomorphic(R1, R2)
    M, _, _ = qd.direct_sum([R1, R2])
    d = qd.decompose(M)
    assert len(d.summands) == 2
    assert all(mult == 1 for _, mult in d.summands)
    # R1 + R1 + R2 under a change of basis at both vertices
    M, _, _ = qd.direct_sum([R1, R1, R2])
    U1 = Mat.from_rows(F, [[1 if c in (r, r + 1) else 0 for c in range(6)] for r in range(6)])
    U2 = Mat.from_rows(F, [[1 if c in (r, r - 2) else 0 for c in range(6)] for r in range(6)])
    twisted = qd.Representation(q, F, M.dims,
                                tuple(U2 @ arrow @ U1.inverse() for arrow in M.action))
    d = qd.decompose(twisted)
    assert sorted(mult for _, mult in d.summands) == [1, 2]
    assert all(leaf.dims == (2, 2) for leaf, _ in d.summands)


def _conjugate(M, rng):
    """M under a random change of basis at every vertex."""
    field, gs = M.field, []
    for d in M.dims:
        g = Mat.identity(field, 0)
        while g.rank() < d:
            g = Mat.from_rows(field, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        gs.append(g)
    return qd.Representation(M.quiver, field, M.dims, tuple(
        gs[t] @ m @ gs[s].inverse() for m, (s, t) in zip(M.action, M.quiver.arrow_ends)))


def _radical_rule_witness(A, B):
    """The iso witness by the trace-form radical: the first basis map b of
    Hom(A, B) with some c . b outside rad End(A), c a basis map of Hom(B, A)."""
    if A.dims != B.dims:
        return None
    if A == B:
        return qd.identity_morphism(A)
    ws, EA = A.quiver.workspace, end_algebra(A)
    for b in ws.hom(A, B).basis:
        if any(not EA.radical.contains_vector(EA.hom.coordinates(c @ b)) for c in ws.hom(B, A).basis):
            return b
    return None


E6_TEXT = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
           "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
D4_TEXT = "vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c"


@pytest.mark.parametrize("text, cap", [
    (E6_TEXT, 5000), (D4_TEXT, 5000), ("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2", 12),
], ids=["e6", "d4", "kronecker-cap12"])
def test_iso_witness_is_the_radical_rule_witness(text, cap):
    # for indecomposables A and B isomorphic by w, the maps A -> B that are
    # not invertible form the proper subspace w . rad End(A), so a map b is
    # invertible exactly when some c . b lies outside rad End(A): the first
    # invertible basis map is the one the radical rule picks.  Each entry
    # meets a conjugated copy of itself and of every entry of its dimension
    # vector; on the Kronecker quiver also the non-bricks (I, J_n(0))
    q = qd.parse_quiver(text)
    rng = random.Random(26)
    reps = [e.rep for e in qd.knit(q, F, cap).entries]
    if q.n_vertices == 2:
        reps += [_companion_rep(q, F, [0] * n) for n in (2, 3)]
    copies = [_conjugate(M, rng) for M in reps]
    found = 0
    for A in reps:
        for B in copies:
            if A.dims == B.dims:
                w, ref = indec_iso_witness(A, B), _radical_rule_witness(A, B)
                assert (w is None) == (ref is None)
                if w is not None:
                    found += 1
                    assert w.comps == ref.comps and w.is_iso()
    assert found == len(reps)


def test_iso_witness_needs_no_trace_form():
    # End (I, J_2(0)) = k[x]/(x^2) is two-dimensional, so its trace-form
    # radical needs p > 4; the iso witness over F_3 needs no radical
    f3 = PrimeField(3)
    A = _companion_rep(_kronecker(), f3, [0, 0])
    B = _conjugate(A, random.Random(3))
    assert B != A
    with pytest.raises(FieldTooSmallError):
        end_algebra(A).radical
    w = indec_iso_witness(A, B)
    assert w is not None and (w.domain, w.codomain) == (A, B) and w.is_iso()


A5_TEXT = "vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\narrow a 2 1\narrow b 2 3\narrow c 4 3\narrow d 4 5"
KRONECKER_TEXT = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2"


def _agreement_domains(q, field, reps, rng):
    """Summand lists of one to three registry entries, repeated entries and
    a conjugated copy of an entry among them; on the Kronecker quiver also
    R_0 + R_1, two non-isomorphic regular bricks of dimension vector (1, 1),
    and R_0 + R_1 + R_0."""
    out = [[rng.choice(reps) for _ in range(1 + i % 3)] for i in range(18)]
    for E in rng.sample(reps, 4):
        out += [[E, E], [E, _conjugate(E, rng), rng.choice(reps)], [rng.choice(reps), E, E]]
    if q.n_vertices == 2:
        R0, R1 = (qd.Representation(q, field, (1, 1), (Mat.identity(field, 1), Mat.from_rows(field, [[c]])))
                  for c in (0, 1))
        out += [[R0, R1], [R0, R1, R0], [R1, R0, rng.choice(reps)]]
    return out


@pytest.mark.parametrize("text, field, cap", [
    (E6_TEXT, "rat", 5000), (E6_TEXT, "fp:10007", 5000), (D4_TEXT, "rat", 5000),
    (A5_TEXT, "rat", 5000), (KRONECKER_TEXT, "rat", 8),
], ids=["e6", "e6-fp10007", "d4", "a5", "kronecker-cap8"])
def test_block_route_agrees_with_the_loop(text, field, cap, monkeypatch):
    # a recorded sum of bricks reads its right minimal version off the tops
    # of Hom(E, X); on seeded morphisms out of such sums it agrees with the
    # trace-form loop in the minimal domain, the split-off part and the report
    # JSON, and its f1 passes the loop's own exit certificate.  Some maps send
    # two copies of one entry through proportional maps, so that only a
    # combination of the copies splits off
    module = importlib.import_module("quivdet.decompose")  # qd.decompose is the function
    determiner = importlib.import_module("quivdet.determiner")
    taken = []
    real_route = module._right_minimal_of_bricks

    def recording_route(f, summands, starts):
        rm = real_route(f, summands, starts)
        taken.append(not rm.already_minimal)
        return rm

    monkeypatch.setattr(module, "_right_minimal_of_bricks", recording_route)
    q, k = qd.parse_quiver(text), qd.field_from_name(field)
    reg = qd.knit(q, k, cap)
    engine = determiner.DeterminerEngine(reg)
    rng = random.Random(34)
    reps = [e.rep for e in reg.entries]
    targets = reps + [qd.injective_at(q, x, k) for x in q.vertices]
    for i, summands in enumerate(_agreement_domains(q, k, reps, rng)):
        X, _, projs = qd.direct_sum(summands)
        Y = qd.direct_sum(rng.sample(targets, 1 + rng.randrange(2)))[0]
        hs = q.workspace.hom(X, Y)
        f = hs.from_coordinates([rng.randrange(-2, 3) for _ in range(hs.dim)])
        if len(summands) > 1 and summands[0] == summands[1]:
            g = q.workspace.hom(summands[0], Y)
            if g.dim:
                f = g.basis[0] @ (projs[0] + projs[1].scale(k.of(2)))
        elif i % 6 == 5:
            f = qd.identity_morphism(X)
        before = len(taken)
        block = qd.right_minimal_version(f)
        assert len(taken) == before + (X in q.workspace.sums)
        loop = module._right_minimal_by_powers(f)
        assert block.minimal.domain.dims == loop.minimal.domain.dims
        assert block.split_off.dims == loop.split_off.dims
        assert module._escaping_solution(block.minimal) is None
        with monkeypatch.context() as m:
            m.setattr(determiner, "right_minimal_version", module._right_minimal_by_powers)
            want = engine.report(f, verify=True).to_json_dict()
        assert engine.report(f, verify=True).to_json_dict() == want
    assert True in taken and False in taken


def test_primary_parts_via_factorization():
    from quivdet.decompose import _pmul
    # (x^2 - 2)(x^2 - 3): no rational roots, so the split needs factorization
    a = [F.of(-2), F.zero, F.one]
    b = [F.of(-3), F.zero, F.one]
    parts = _primary_parts(F, _pmul(F, a, b))
    assert sorted(len(p) for p in parts) == [3, 3]
    # irreducible stays whole
    assert _primary_parts(F, [F.of(-2), F.zero, F.one]) == [[F.of(-2), F.zero, F.one]]
    # and the prime-field fallback factors without a root scan
    big = PrimeField(10007)
    mu = [big.of(-1), big.zero, big.one]   # x^2 - 1 = (x-1)(x+1)
    pparts = _primary_parts(big, mu)
    assert len(pparts) == 2


def _sympy_parts(field, poly):
    """The primary parts of a monic poly over F_p straight from
    sympy.Poly(..).factor_list(), in its order, as coefficient lists."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(c * x ** k for k, c in enumerate(poly))
    parts = []
    for fac, mult in sympy.Poly(expr, x, modulus=field.p).factor_list()[1]:
        base = [field.of(int(c)) for c in reversed(fac.all_coeffs())]
        part = [field.one]
        for _ in range(mult):
            part = _pmul(field, part, base)
        parts.append(part)
    return parts


# 65537 - 1 = 2^16 gives the longest Tonelli-Shanks loop; 4099 and 10007 are
# 3 mod 4, where it takes no step; 12289 - 1 = 3 * 2^12
@pytest.mark.parametrize("p", [4099, 10007, 12289, 65537])
def test_quadratic_split_matches_sympy(p):
    field = PrimeField(p)
    rng = random.Random(p)
    kinds = {"zero": 0, "square": 0, "non-square": 0}
    for _ in range(60):
        r, s = rng.randrange(p), rng.randrange(p)
        for c, b in ((r * r, -2 * r), (r * s, -r - s), (rng.randrange(p), rng.randrange(p))):
            poly = [field.of(c), field.of(b), field.one]
            disc = (b * b - 4 * c) % p
            kind = "zero" if not disc else "square" if pow(disc, (p - 1) // 2, p) == 1 else "non-square"
            kinds[kind] += 1
            parts = _primary_parts(field, poly)
            assert parts == _sympy_parts(field, poly), (poly, kind)
            assert len(parts) == (2 if kind == "square" else 1)
    assert min(kinds.values()) > 0


def test_quadratic_split_square_roots():
    for p in (4099, 10007, 65537):
        rng = random.Random(p)
        for a in [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]:
            root = _sqrt_mod(a, p)
            if pow(a, (p - 1) // 2, p) == 1:
                assert root * root % p == a
            else:
                assert root is None


def test_quartic_over_large_prime_still_factors_with_sympy():
    # (x - 1)(x - 2)(x^2 + 1); x^2 + 1 is irreducible, as 10007 is 3 mod 4
    field = PrimeField(10007)
    poly = _pmul(field, _pmul(field, [field.of(-1), field.one], [field.of(-2), field.one]),
                 [field.one, field.zero, field.one])
    parts = _primary_parts(field, poly)
    assert parts == _sympy_parts(field, poly) and len(parts) == 3


def test_quadratic_split_leaves_sympy_unimported():
    # a repeated factor, two linear factors and an irreducible quadratic
    code = ("import sys\n"
            "from quivdet.decompose import _primary_parts\n"
            "from quivdet.linalg import PrimeField\n"
            "f = PrimeField(10007)\n"
            "for c, b in ((4, 4), (-1, 0), (1, 0)):\n"
            "    print(len(_primary_parts(f, [f.of(c), f.of(b), f.one])))\n"
            "print('sympy' in sys.modules)\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # 10007 is 3 mod 4, so -1 is not a square and x^2 + 1 stays whole
    assert proc.stdout.split() == ["1", "2", "1", "False"]


def test_decompose_random_rep_against_known_pieces():
    rng = random.Random(4242)
    q = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow a 2 1\narrow b 3 2")
    reg = qd.knit(q)
    for _ in range(10):
        picks = [reg.entries[rng.randrange(len(reg.entries))].rep
                 for _ in range(rng.randrange(1, 4))]
        M, _, _ = qd.direct_sum(picks)
        d = qd.decompose(M)
        got = sorted(leaf.dims for leaf, mult in d.summands for _ in range(mult))
        want = sorted(p.dims for p in picks)
        assert got == want


def test_decompose_module_has_no_asserts():
    # invariants are explicit InvariantError checks, which python -O keeps;
    # the guard covers every module of the package, not only decompose
    for info in pkgutil.iter_modules(qd.__path__):
        module = importlib.import_module(f"quivdet.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"quivdet.{info.name} asserts at lines {asserts}"


def _calls(tree):
    """(name of the innermost enclosing function, call) for every call."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((where, child))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(tree, "<module>")
    return out


def test_package_has_no_division_and_one_reciprocal():
    # over Q a value is an int when integral, and int / int would silently
    # give a float, so the package has no / at all: a reciprocal is field.inv.
    # A rational is made only by RationalField.of and .parse and by
    # linalg.ratio (which RationalField.inv uses), and a modular inverse is
    # taken only in the F_p code of linalg
    makers = {("linalg", "Fraction"): {"of", "parse", "ratio"},
              ("linalg", "pow"): {"of", "inv", "_pivot_rows"}}
    for info in pkgutil.iter_modules(qd.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"quivdet.{info.name}")))
        divisions = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
        assert not divisions, f"quivdet.{info.name} divides at lines {divisions}"
        for where, call in _calls(tree):
            name = getattr(call.func, "id", None)
            if name == "Fraction" or (name == "pow" and len(call.args) == 3
                                      and ast.unparse(call.args[1]) == "-1"):
                assert where in makers.get((info.name, name), ()), \
                    f"{name}(...) in quivdet.{info.name}.{where}, line {call.lineno}"


def test_package_has_one_f_p_scalar_format():
    # an F_p value is a plain int residue, as inside the elimination: no
    # wrapper class is defined or named, and no .val is read
    for info in pkgutil.iter_modules(qd.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"quivdet.{info.name}")))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and node.name == "FpElement"
                 or isinstance(node, ast.Name) and node.id == "FpElement"
                 or isinstance(node, ast.Attribute) and node.attr in ("FpElement", "val")]
        assert not found, f"quivdet.{info.name} has a second F_p format at lines {found}"
