"""Representations, morphisms, hom spaces, kernels and cokernels."""

import gc
import random
import threading
from weakref import WeakKeyDictionary

import pytest

import quivdet as qd
from quivdet import linalg
from quivdet.errors import InvariantError, SemanticError
from quivdet.linalg import (
    Mat,
    PrimeField,
    RATIONALS,
    Subspace,
    column_space,
    from_columns,
    kernel_of_rows,
)
from quivdet.reps import (
    HomSpace,
    block_diagonal_sum,
    generator_kernel,
    image,
    postcompose_matrix,
    precompose_matrix,
    quotient,
    subrepresentation,
)
from quivdet.structure import radical, top

from conftest import A3_TEXT

F = RATIONALS


def test_representation_shape_validation(a3):
    with pytest.raises(SemanticError):
        qd.Representation(a3, F, (1, 1), (Mat.zero(F, 1, 1), Mat.zero(F, 1, 1)))
    with pytest.raises(SemanticError):
        qd.Representation(a3, F, (1, 1, 0),
                          (Mat.zero(F, 2, 1), Mat.zero(F, 0, 1)))


def test_morphism_commuting_square_checked(a3):
    P2 = qd.projective_at(a3, "2")
    S2 = qd.simple_at(a3, "2")
    # P_2 -> S_2 projection commutes; the "wrong direction" map does not
    qd.RepMorphism(P2, S2, (Mat.zero(F, 0, 1), Mat.from_rows(F, [[1]]), Mat.zero(F, 0, 0)))
    with pytest.raises(SemanticError):
        qd.RepMorphism(S2, P2, (Mat.zero(F, 1, 0), Mat.from_rows(F, [[1]]), Mat.zero(F, 0, 0)))


def test_hom_dimensions_on_a3(a3):
    P = {x: qd.projective_at(a3, x) for x in a3.vertices}
    I = {x: qd.injective_at(a3, x) for x in a3.vertices}
    assert qd.hom_basis(P["2"], I["2"]).dim == 1
    assert qd.hom_basis(P["1"], P["3"]).dim == 1
    assert qd.hom_basis(P["3"], P["1"]).dim == 0
    for x in a3.vertices:
        hs = qd.hom_basis(P[x], P[x])
        assert hs.dim == 1  # End of each projective is one-dimensional here


def test_hom_contains_identity(a3):
    for x in a3.vertices:
        M = qd.projective_at(a3, x)
        hs = qd.hom_basis(M, M)
        coords = hs.coordinates(qd.identity_morphism(M))
        assert hs.from_coordinates(coords) == qd.identity_morphism(M)


def test_kernel_cokernel_golden(a3, golden_f):
    K, incl = qd.kernel(golden_f)
    assert K.dims == (1, 0, 0)
    assert (golden_f @ incl).is_zero()
    C, proj = qd.cokernel(golden_f)
    assert C.dims == (0, 0, 1)
    assert (proj @ golden_f).is_zero()


def test_kernel_of_identity_and_cokernel_of_zero(a3):
    M = qd.projective_at(a3, "3")
    K, _ = qd.kernel(qd.identity_morphism(M))
    assert K.is_zero()
    z = qd.zero_representation(a3, F)
    C, proj = qd.cokernel(qd.zero_morphism(z, M))
    assert C.dims == M.dims and proj.is_iso()


def test_exactness_dimension_additivity(a3, golden_f):
    K, _ = qd.kernel(golden_f)
    I, _, epi = image(golden_f)
    C, _ = qd.cokernel(golden_f)
    for i in range(3):
        assert K.dims[i] + I.dims[i] == golden_f.domain.dims[i]
        assert I.dims[i] + C.dims[i] == golden_f.codomain.dims[i]
    assert epi.is_epi()


def test_quotient_by_image_is_cokernel(golden_f):
    ims = [column_space(c) for c in golden_f.comps]
    assert quotient(golden_f.codomain, ims) == qd.cokernel(golden_f)


def test_quotient_by_radical_has_zero_arrow_maps(golden_f):
    # P_2 + I_2: the arrow 3 -> 2 is nonzero on I_2, but lands in the radical
    M, _, _ = qd.direct_sum([golden_f.domain, golden_f.codomain])
    rad = [column_space(c) for c in radical(M)[1].comps]
    T, proj = quotient(M, rad)
    assert T.dims == (0, 1, 1)
    assert not M.action[1].is_zero()
    assert all(m.is_zero() for m in T.action)
    assert (T, proj) == top(M)


def test_subrepresentation_requires_closed_family(a3):
    P2 = qd.projective_at(a3, "2")   # dims (1, 1, 0), arrow 2 -> 1 is nonzero
    closed = [Subspace.full(F, 1), Subspace.full(F, 1), Subspace.zero(F, 0)]
    S, incl = subrepresentation(P2, closed)
    assert S == P2 and incl == qd.identity_morphism(P2)
    with pytest.raises(ValueError):
        subrepresentation(P2, [Subspace.zero(F, 1), Subspace.full(F, 1), Subspace.zero(F, 0)])


def test_direct_sum_and_projections(a3):
    P1 = qd.projective_at(a3, "1")
    S3 = qd.simple_at(a3, "3")
    total, injs, projs = qd.direct_sum([P1, P1, S3])
    assert total.dims == (2, 0, 1)
    for inj, proj, piece in zip(injs, projs, [P1, P1, S3]):
        assert (proj @ inj) == qd.identity_morphism(piece)
    assert qd.direct_sum([], q=a3, field=F)[0].is_zero()


def test_a_sum_of_one_nonzero_summand_is_that_summand(a3, a3_registry):
    # block_diagonal_sum hands back a lone nonzero summand itself and
    # records no sum; direct_sum still gives the identity maps on it; and a
    # right minimal version that keeps one brick of a recorded sum has that
    # registry entry itself as its domain
    ws = a3.workspace
    P = qd.projective_at(a3, "1")
    Z0 = qd.zero_representation(a3, F)
    records = len(ws.sums)
    total, offsets = block_diagonal_sum([P, Z0], a3, F)
    assert total is P and len(ws.sums) == records
    assert offsets == tuple((0, d, d) for d in P.dims)
    total, (inj, _), (proj, _) = qd.direct_sum([P, Z0])
    assert total is P and inj == proj == qd.identity_morphism(P)
    entries = {e.label: e.rep for e in a3_registry.entries}
    E, Y = entries["P_2"], entries["I_2"]
    g = ws.hom(E, Y).basis[0]
    X, _, (p_E, _) = qd.direct_sum([E, entries["P_1"]])
    assert X in ws.sums
    rm = qd.right_minimal_version(g @ p_E)
    assert rm.minimal.domain is E and rm.split_off.dims == entries["P_1"].dims


def test_composition_matrices_are_linear(a3, golden_f):
    Z = qd.simple_at(a3, "2")
    hzx = qd.hom_basis(Z, golden_f.domain)
    hzy = qd.hom_basis(Z, golden_f.codomain)
    C = postcompose_matrix(hzx, hzy, golden_f)
    assert (C.rows, C.cols) == (hzy.dim, hzx.dim)
    for g in hzx.basis:
        assert hzy.coordinates(golden_f @ g) == C.apply(hzx.coordinates(g))
    h = hzy.basis[0] if hzy.dim else None
    if h is not None:
        hvy = qd.hom_basis(golden_f.codomain, golden_f.codomain)
        pre = precompose_matrix(hvy, hzy, h)
        for psi in hvy.basis:
            assert hzy.coordinates(psi @ h) == pre.apply(hvy.coordinates(psi))


def test_dual_round_trip(a3, golden_f):
    d = qd.dual_morphism(golden_f)
    dd = qd.dual_morphism(d)
    assert dd.domain.dims == golden_f.domain.dims
    assert dd.comps == golden_f.comps
    # duality swaps projectives and injectives
    DP = qd.dual_representation(qd.projective_at(a3, "2"))
    Iop = qd.injective_at(a3.opposite, "2")
    assert qd.is_isomorphic(DP, Iop)


def test_opposite_is_an_involution(a3, golden_f):
    # D twice lands on the quiver object itself, so on its workspace too
    assert a3.opposite.opposite is a3
    M = qd.projective_at(a3, "2")
    DDM = qd.dual_representation(qd.dual_representation(M))
    assert DDM.quiver is a3 and DDM == M
    left = qd.minimal_left_determiner(golden_f)
    assert left.members and all(m.rep.quiver is a3 for m in left.members)


def test_dual_representation_writes_nothing():
    # D is a transpose over the opposite quiver: it records nothing in the
    # workspace of either quiver, for a recorded sum as for a registry entry
    q = qd.parse_quiver(E6_TEXT)
    reps = [e.rep for e in qd.knit(q, RATIONALS, 5000).entries]
    pair = qd.direct_sum(reps[3:5])[0]
    assert pair in q.workspace.sums and reps[7] in q.workspace.indecomposables
    workspaces = (q.workspace, q.opposite.workspace)

    def keys():
        return [(name, set(t)) for w in workspaces for name, t in vars(w).items()
                if isinstance(t, (dict, set, WeakKeyDictionary))]
    before = keys()
    for M in (pair, reps[7]):
        D = qd.dual_representation(M)
        assert D.quiver is q.opposite and D.dims == M.dims
    assert keys() == before


def test_a_sum_record_lives_no_longer_than_the_sum():
    # the workspace holds a direct sum's record weakly: a sum the caller
    # built outside any request takes its record along when it goes, while
    # the record of a sum still in use stays
    q = qd.parse_quiver(E6_TEXT)
    reps = [e.rep for e in qd.knit(q, RATIONALS, 5000).entries]
    ws = q.workspace
    kept = qd.direct_sum(reps[3:5])[0]
    gone = qd.direct_sum(reps[5:8])[0]
    assert kept in ws.sums and gone in ws.sums
    records = len(ws.sums)
    del gone
    gc.collect()
    assert len(ws.sums) == records - 1 and kept in ws.sums
    assert ws.hom(kept, reps[3]).dim == ws.hom(reps[3], reps[3]).dim + ws.hom(reps[4], reps[3]).dim


def test_request_scopes_nest_and_belong_to_their_thread():
    # an entry keyed by a representation that no registry owns lives as long
    # as the request that wrote it: closing the inner of two nested scopes
    # drops nothing and closing the outer one drops it, while an entry
    # between registry entries, one written by another thread outside any
    # request, and one written before the request are kept; the entries are
    # a pair with Euler form > 0, since the workspace holds no zero pair
    q = qd.parse_quiver(E6_TEXT)
    reps = [e.rep for e in qd.knit(q, RATIONALS, 5000).entries]
    ws = q.workspace
    M = qd.direct_sum(reps[3:5])[0]
    a, b = next((a, b) for a in reps for b in reps if a != b and (a, b) not in ws.homs
                and qd.euler_form(q, a.dims, b.dims) > 0)
    with ws.request():
        with ws.request():
            ws.hom(M, a)
            assert qd.direct_sum(reps[3:5])[0] == M
            S = qd.direct_sum(reps[5:7])[0]
        assert (M, a) in ws.homs and S in ws.sums
        other = threading.Thread(target=ws.hom, args=(M, b))
        other.start()
        other.join(timeout=60)
        assert not other.is_alive()
        ws.hom(a, b)
    assert (M, a) not in ws.homs and (M, b) in ws.homs and (a, b) in ws.homs
    assert M in ws.sums and S not in ws.sums
    assert M not in ws.owned and a in ws.owned


def test_random_morphism_exactness():
    rng = random.Random(99)
    q = qd.parse_quiver(
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 2 1\narrow b 3 2\narrow c 4 3")
    reg = qd.knit(q)
    for _ in range(25):
        a = reg.entries[rng.randrange(len(reg.entries))].rep
        b = reg.entries[rng.randrange(len(reg.entries))].rep
        hs = qd.hom_basis(a, b)
        if hs.dim == 0:
            continue
        coeffs = [rng.randrange(-2, 3) for _ in range(hs.dim)]
        f = hs.from_coordinates(coeffs)
        K, _ = qd.kernel(f)
        I, _, _ = image(f)
        C, _ = qd.cokernel(f)
        for i in range(q.n_vertices):
            assert K.dims[i] + I.dims[i] == a.dims[i]
            assert I.dims[i] + C.dims[i] == b.dims[i]


def _old_composite_matrix(hs_src, hs_dst, compose):
    """The composite matrices as first defined: build each composite morphism,
    with its full commuting-square check, and read its coordinates."""
    return from_columns(hs_src.field, [hs_dst.coordinates(compose(g)) for g in hs_src.basis],
                        hs_dst.dim)


E6_TEXT = ("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
           "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")


D4_TEXT = "vertex c\nvertex 1\nvertex 2\nvertex 3\narrow a 1 c\narrow b 2 c\narrow d 3 c"
KRONECKER_TEXT = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2"


@pytest.mark.parametrize("text, field, cap", [
    (E6_TEXT, RATIONALS, 5000), (E6_TEXT, PrimeField(10007), 5000),
    (D4_TEXT, RATIONALS, 5000), (KRONECKER_TEXT, RATIONALS, 8),
], ids=["e6", "e6-fp10007", "d4", "kronecker-cap8"])
def test_hom_dim_reads_hom_and_builds_no_zero_space(text, field, cap, monkeypatch):
    # for every ordered pair of registry entries, and of recorded two-entry
    # sums and entries both ways, hom_dim gives the dimension of hom; a pair
    # the Euler form makes zero builds no HomSpace at all, and any other
    # builds only spaces that the workspace then holds (off Dynkin type no
    # pair is such a zero)
    q = qd.parse_quiver(text)
    ws = q.workspace
    reps = [e.rep for e in qd.knit(q, field, cap).entries]
    sums = [qd.direct_sum([a, b])[0] for a, b in zip(reps, reps[1:] + reps[:1])]
    assert all(S in ws.sums for S in sums)
    built = []
    init = HomSpace.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HomSpace, "__init__", counted)
    zeros = 0
    pairs = ([(M, N) for M in reps for N in reps]
             + [(S, E) for S in sums for E in reps] + [(E, S) for S in sums for E in reps])
    for M, N in pairs:
        built.clear()
        dim = ws.hom_dim(M, N)
        if (ws.dynkin and M in ws.indecomposables and N in ws.indecomposables
                and qd.euler_form(q, M.dims, N.dims) <= 0):
            zeros += 1
            assert built == [] and dim == 0
        assert all(ws.homs.get((hs.domain, hs.codomain)) is hs for hs in built)
        assert dim == ws.hom(M, N).dim
    assert (zeros > 0) == ws.dynkin


@pytest.mark.parametrize("text, step, field", [
    (A3_TEXT, 1, RATIONALS), (E6_TEXT, 5, RATIONALS),
    (A3_TEXT, 1, PrimeField(10007)), (E6_TEXT, 5, PrimeField(10007)),
], ids=["a3", "e6", "a3-fp10007", "e6-fp10007"])
def test_composite_matrices_match_morphism_composites(text, step, field):
    # every registry triple (Z, V, Y), with every step-th object as Y
    q = qd.parse_quiver(text)
    hom = q.workspace.hom
    reps = [e.rep for e in qd.knit(q, field).entries]
    checked = 0
    for Y in reps[::step]:
        for V in reps:
            hvy = hom(V, Y)
            for Z in reps:
                hzy = hom(Z, Y)
                hzv = hom(Z, V)
                for h in hzv.basis:
                    assert precompose_matrix(hvy, hzy, h) == \
                        _old_composite_matrix(hvy, hzy, lambda g: g @ h)
                for f in hvy.basis:
                    assert postcompose_matrix(hzv, hzy, f) == \
                        _old_composite_matrix(hzv, hzy, lambda g: f @ g)
                    checked += hzv.dim
    assert checked


def test_composite_matrices_reject_mismatched_endpoints(a3, golden_f):
    Z = qd.simple_at(a3, "2")
    X, Y = golden_f.domain, golden_f.codomain
    hzx, hzy, hyy = qd.hom_basis(Z, X), qd.hom_basis(Z, Y), qd.hom_basis(Y, Y)
    with pytest.raises(SemanticError):
        postcompose_matrix(hzy, hzx, golden_f)
    with pytest.raises(SemanticError):
        postcompose_matrix(hzx, qd.hom_basis(X, Y), golden_f)
    with pytest.raises(SemanticError):
        precompose_matrix(hyy, hzy, golden_f)
    with pytest.raises(SemanticError):
        precompose_matrix(hyy, qd.hom_basis(Z, X), hzy.basis[0])


def test_flat_vector_outside_hom_space_rejected(a3):
    # Hom(P_2, P_3) is spanned by the inclusion, (1, 1) in the flat
    # coordinates at vertices 1 and 2; (1, 0) breaks the square of arrow a
    P2, P3 = qd.projective_at(a3, "2"), qd.projective_at(a3, "3")
    hs = qd.hom_basis(P2, P3)
    inside = hs.flatten(hs.basis[0])
    assert inside == (F.one, F.one) and hs.flat_coordinates(inside) == (F.one,)
    with pytest.raises(InvariantError):
        hs.flat_coordinates((F.one, F.zero))


def _e6_pair(field):
    # the largest E6 indecomposable into itself plus I_3: a Hom system with
    # several basis vectors
    q = qd.parse_quiver(E6_TEXT)
    M = max((e.rep for e in qd.knit(q, field).entries), key=lambda rep: rep.total_dim)
    return M, qd.direct_sum([M, qd.injective_at(q, "3", field)])[0]


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["rat", "fp10007"])
def test_hom_basis_is_checked_against_the_squares(field, monkeypatch):
    M, N = _e6_pair(field)
    hs = qd.hom_basis(M, N)
    space = hs._space
    n = space.ambient_dim
    assert HomSpace(M, N, space).basis == hs.basis
    unit = [tuple(field.one if i == j else field.zero for i in range(n)) for j in range(n)]
    outside = next(j for j in range(n) if not space.contains_vector(unit[j]))
    # a public HomSpace whose subspace holds a vector outside Hom
    with pytest.raises(InvariantError):
        HomSpace(M, N, Subspace.from_vectors(field, n, list(space.basis) + [unit[outside]]))

    # a kernel that returns a perturbed vector
    def perturbed(fld, ncols, rows):
        k = kernel_of_rows(fld, ncols, rows)
        v = tuple(a + b for a, b in zip(k.basis[-1], unit[outside]))
        return Subspace(fld, ncols, k.basis[:-1] + (v,), k.pivots)

    monkeypatch.setattr("quivdet.reps.kernel_of_rows", perturbed)
    with pytest.raises(InvariantError):
        qd.hom_basis(M, N)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["rat", "fp10007"])
def test_hom_off_a_presentation_is_checked_against_the_squares(field, monkeypatch):
    # the knitted M has a presentation; a solution of its small system that
    # is perturbed off the kernel writes vertex maps that break a square,
    # found when the held solutions are first written out
    M, N = _e6_pair(field)
    presentation = M.quiver.workspace.presentations[M]

    def off_presentation():
        return HomSpace(M, N, presentation=presentation, solutions=generator_kernel(M, presentation, N))

    assert off_presentation()._space == qd.hom_basis(M, N)._space

    def perturbed(fld, ncols, rows):
        k = kernel_of_rows(fld, ncols, rows)
        units = [tuple(fld.one if i == j else fld.zero for i in range(ncols)) for j in range(ncols)]
        outside = next(u for u in units if not k.contains_vector(u))
        v = tuple(a + b for a, b in zip(k.basis[-1], outside))
        return Subspace(fld, ncols, k.basis[:-1] + (v,), k.pivots)

    monkeypatch.setattr("quivdet.reps.kernel_of_rows", perturbed)
    held = off_presentation()
    with pytest.raises(InvariantError, match="square"):
        held.flat_basis


def test_hom_basis_runs_one_elimination_and_no_matrix_product(monkeypatch):
    M, N = _e6_pair(RATIONALS)
    calls = {"eliminations": 0, "products": 0}
    real_pivot_rows, real_matmul = linalg._pivot_rows, Mat.__matmul__

    def pivot_rows(*args):
        calls["eliminations"] += 1
        return real_pivot_rows(*args)

    def matmul(a, b):
        calls["products"] += 1
        return real_matmul(a, b)

    monkeypatch.setattr(linalg, "_pivot_rows", pivot_rows)
    monkeypatch.setattr(Mat, "__matmul__", matmul)
    hs = qd.hom_basis(M, N)
    monkeypatch.undo()
    assert hs.dim == 1 + M.dims[2]
    assert calls == {"eliminations": 1, "products": 0}


def _composite_case(field):
    # Hom(M, N) of _e6_pair, pre- and postcomposed with the identities
    M, N = _e6_pair(field)
    return qd.hom_basis(M, N), qd.identity_morphism(M), qd.identity_morphism(N)


def test_composite_matrices_make_no_matrix_product(monkeypatch):
    hs, one_m, one_n = _composite_case(RATIONALS)
    calls = {"products": 0}
    real_matmul = Mat.__matmul__

    def matmul(a, b):
        calls["products"] += 1
        return real_matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", matmul)
    pre = precompose_matrix(hs, hs, one_m)
    post = postcompose_matrix(hs, hs, one_n)
    monkeypatch.undo()
    eye = Mat.identity(RATIONALS, hs.dim)
    assert pre == eye and post == eye
    assert calls == {"products": 0}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["rat", "fp10007"])
def test_composite_outside_the_target_space_is_rejected(field):
    # a target space that lacks one basis vector of Hom(M, N) still passes
    # the square check, but the composites with the identities reach the
    # dropped vector, and the membership residual reports it
    hs, one_m, one_n = _composite_case(field)
    space = hs._space
    smaller = HomSpace(hs.domain, hs.codomain,
                       Subspace(field, space.ambient_dim, space.basis[:-1], space.pivots[:-1]))
    with pytest.raises(InvariantError):
        precompose_matrix(hs, smaller, one_m)
    with pytest.raises(InvariantError):
        postcompose_matrix(hs, smaller, one_n)


def test_hom_basis_morphisms_are_built_on_first_access(monkeypatch):
    M, N = _e6_pair(RATIONALS)
    built = {"components": 0}
    real_components = HomSpace._components

    def components(self, vec):
        built["components"] += 1
        return real_components(self, vec)

    monkeypatch.setattr(HomSpace, "_components", components)
    hs = qd.hom_basis(M, N)
    # dimension, coordinates and composites read the flat rows only
    assert hs.dim == 1 + M.dims[2]
    assert hs.flat_coordinates(hs.flatten(qd.zero_morphism(M, N))) == (RATIONALS.zero,) * hs.dim
    precompose_matrix(hs, hs, qd.identity_morphism(M))
    assert built["components"] == 0 and "basis" not in vars(hs)
    basis = hs.basis
    assert built["components"] == hs.dim and len(basis) == hs.dim
    assert hs.basis is basis and built["components"] == hs.dim
    monkeypatch.undo()
    # the square check still runs when a public HomSpace is made
    n = hs._space.ambient_dim
    unit = [tuple(RATIONALS.one if i == j else RATIONALS.zero for i in range(n)) for j in range(n)]
    outside = next(u for u in unit if not hs._space.contains_vector(u))
    with pytest.raises(InvariantError):
        HomSpace(M, N, Subspace.from_vectors(RATIONALS, n, list(hs._space.basis) + [outside]))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp:7"])
def test_square_that_does_not_commute_is_rejected(a3, field):
    P2, S2 = qd.projective_at(a3, "2", field), qd.simple_at(a3, "2", field)
    one = Mat.from_rows(field, [[1]])
    qd.RepMorphism(P2, S2, (Mat.zero(field, 0, 1), one, Mat.zero(field, 0, 0)))
    with pytest.raises(SemanticError, match="square at arrow 'a' does not commute"):
        qd.RepMorphism(S2, P2, (Mat.zero(field, 1, 0), one, Mat.zero(field, 0, 0)))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp:7"])
def test_morphism_squares_are_checked_without_a_matrix_product(field, monkeypatch):
    M, N = _e6_pair(field)
    hs = qd.hom_basis(M, N)

    def no_product(a, b):
        raise AssertionError("the square check must build no matrix product")

    monkeypatch.setattr(Mat, "__matmul__", no_product)
    f = hs.from_coordinates(range(1, hs.dim + 1))
    assert hs.coordinates(f) == tuple(map(field.of, range(1, hs.dim + 1)))
    qd.identity_morphism(N)
    bent = list(f.comps)
    bent[2] = bent[2].scale(2)
    with pytest.raises(SemanticError, match="does not commute"):
        qd.RepMorphism(M, N, tuple(bent))


def _complement_section(s: Subspace) -> Mat:
    """Section of s.complement_projection(): the standard vectors at the
    non-pivot slots, as columns."""
    nonpivots = [j for j in range(s.ambient_dim) if j not in set(s.pivots)]
    return Mat(s.field, s.ambient_dim, len(nonpivots),
               tuple(tuple(int(i == j) for j in nonpivots) for i in range(s.ambient_dim)))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp:7"])
def test_quotient_actions_equal_the_projection_products(field):
    # C(a) read off residues must be projection @ M(a) @ section, on the
    # cokernels of seeded maps into sums of two indecomposables
    q = qd.parse_quiver(E6_TEXT)
    entries = qd.knit(q, field).entries
    rng = random.Random(9300 + field.characteristic)
    checked = 0
    while checked < 12:
        a, b, c = rng.sample(entries, 3)
        Y = qd.direct_sum([b.rep, c.rep])[0]
        hs = qd.hom_basis(a.rep, Y)
        if not hs.dim:
            continue
        f = hs.from_coordinates([rng.randrange(-2, 3) for _ in range(hs.dim)])
        subs = [column_space(m) for m in f.comps]
        C, proj = quotient(Y, subs)
        for ai, arrow in enumerate(q.arrows):
            si, ti = q.vertex_index[arrow.source], q.vertex_index[arrow.target]
            assert C.action[ai] == (subs[ti].complement_projection() @ Y.action[ai]
                                    @ _complement_section(subs[si]))
        assert proj.comps == tuple(s.complement_projection() for s in subs)
        checked += 1
