"""Exact linear algebra kernels: echelon forms, kernels, solving, subspaces."""

import random
from fractions import Fraction

import pytest

import quivdet as qd
from quivdet import reps
from quivdet.linalg import (
    AmbientMismatchError,
    FieldMismatchError,
    Mat,
    PrimeField,
    RATIONALS,
    Subspace,
    column_space,
    field_from_name,
    kernel_basis,
    kernel_of_rows,
    preimage,
    products_agree,
    row_space,
    rref,
    solve,
    solve_matrix,
)

F = RATIONALS


def mat(rows):
    return Mat.from_rows(F, rows, ncols=len(rows[0]) if rows else 0)


def test_rref_identity():
    m = Mat.identity(F, 2)
    red, pivots, rank = rref(m)
    assert red == m and pivots == (0, 1) and rank == 2


def test_rref_zero():
    m = Mat.zero(F, 3, 2)
    red, pivots, rank = rref(m)
    assert red == m and pivots == () and rank == 0


def test_rref_rank_one():
    red, pivots, rank = rref(mat([[1, 2], [2, 4]]))
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == (0,) and rank == 1


def test_kernel_identity_and_zero():
    assert kernel_basis(Mat.identity(F, 3)).dim == 0
    full = kernel_basis(Mat.zero(F, 4, 4))
    assert full.dim == 4 and full.is_full()


def test_kernel_rank_one():
    k = kernel_basis(mat([[1, 2], [2, 4]]))
    assert k.dim == 1
    v = k.basis[0]
    assert Fraction(1) * v[0] + 2 * v[1] == 0


def test_solve_identity_and_unsolvable():
    assert solve(Mat.identity(F, 2), (3, 5)) == (Fraction(3), Fraction(5))
    assert solve(Mat.zero(F, 2, 2), (1, 0)) is None
    with pytest.raises(ValueError):
        solve(Mat.identity(F, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        solve_matrix(Mat.identity(F, 2), Mat.identity(F, 3))


def test_solve_free_variables_zeroed():
    x = solve(mat([[1, 2], [2, 4]]), (1, 2))
    assert x == (Fraction(1), Fraction(0))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp7"])
def test_apply_row_is_the_transpose_applied(field):
    rng = random.Random(5)
    for rows, cols in ((3, 4), (1, 5), (4, 1), (0, 3), (3, 0)):
        m = Mat.from_rows(field, [[rng.randrange(-3, 9) for _ in range(cols)] for _ in range(rows)], cols)
        v = tuple(field.of(rng.randrange(-3, 9)) for _ in range(rows))
        assert m.apply_row(v) == m.transpose().apply(v)
    with pytest.raises(ValueError):
        m.apply_row((1,))


def test_subspace_intersections():
    a = Subspace.from_vectors(F, 2, [(1, 0)])
    b = Subspace.from_vectors(F, 2, [(0, 1)])
    assert a.intersect(a) == a
    assert a.intersect(Subspace.full(F, 2)) == a
    assert a.intersect(b).dim == 0


def test_subspace_contains():
    plane = Subspace.from_vectors(F, 2, [(1, 0), (0, 1)])
    line = Subspace.from_vectors(F, 2, [(1, 1)])
    assert plane.contains(line)
    assert not line.contains(plane)
    assert not Subspace.zero(F, 2).contains(plane)


def test_subspace_ambient_mismatch():
    a = Subspace.from_vectors(F, 2, [(1, 0)])
    b = Subspace.from_vectors(F, 3, [(1, 0, 0)])
    with pytest.raises(AmbientMismatchError):
        a.intersect(b)
    with pytest.raises(AmbientMismatchError):
        a.contains(b)


def test_canonical_bases_are_identical():
    a = Subspace.from_vectors(F, 3, [(1, 2, 3), (0, 1, 1)])
    b = Subspace.from_vectors(F, 3, [(2, 5, 7), (3, 7, 10)])
    assert a == b


def test_preimage_of_subspace():
    m = mat([[1, 0], [0, 0]])
    target = Subspace.from_vectors(F, 2, [(1, 0)])
    pre = preimage(m, target)
    assert pre.is_full()
    narrow = preimage(mat([[1, 0], [0, 1]]), target)
    assert narrow == Subspace.from_vectors(F, 2, [(1, 0)])


def test_zero_dimensional_shapes():
    z = Mat.zero(F, 0, 3)
    assert z.transpose().rows == 3 and z.transpose().cols == 0
    red, pivots, rank = rref(z)
    assert rank == 0
    k = kernel_basis(z)
    assert k.is_full() and k.ambient_dim == 3
    assert solve(Mat.zero(F, 3, 0), (0, 0, 0)) == ()
    assert solve(Mat.zero(F, 3, 0), (1, 0, 0)) is None


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp:7"])
def test_column_space_of_an_empty_matrix_is_the_spanned_zero_space(field):
    # column_space answers a matrix with no rows or no columns directly, and
    # the socle gives Subspace.zero at a 0-dimensional vertex; each value,
    # and its hash, is what the general route gives
    from quivdet.linalg import _nonzeros, span_of_rows

    def same(a, b):
        return a == b and hash(a) == hash(b)

    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        m = Mat.zero(field, rows, cols)
        assert same(column_space(m), span_of_rows(field, rows, _nonzeros(zip(*m.entries))))
        assert column_space(m).ambient_dim == rows and column_space(m).dim == 0
    assert same(Subspace.zero(field, 0), Subspace.full(field, 0))


def test_prime_field_arithmetic():
    # an F_7 value is its residue, a plain int in [0, 7)
    f7 = PrimeField(7)
    a, b = f7.of(3), f7.of(5)
    assert (a, b, f7.of(-1), f7.of(Fraction(1, 2)), f7.of(Fraction(-3, 1))) == (3, 5, 6, 4, 4)
    assert all(type(v) is int for v in (a, f7.of(-1), f7.of(Fraction(1, 2)), f7.inv(b)))
    assert f7.of(a + b) == 1
    assert f7.of(a * f7.inv(b)) == f7.of(3 * 3)  # 5^-1 = 3 mod 7
    assert f7.of(a - a) == f7.zero and not f7.of(a - a)
    m = Mat.from_rows(f7, [[1, 2], [3, 4]])
    assert m.rank() == 2
    assert kernel_basis(Mat.from_rows(f7, [[1, 2], [2, 4]])).dim == 1
    # matrices hold residues, whatever ints they are given or produce
    assert Mat.from_rows(f7, [[-1, 7, 15]]).entries == ((6, 0, 1),)
    assert Mat.from_rows(f7, [[3, 4]]).scale(-2).entries == ((1, 6),)
    assert (Mat.from_rows(f7, [[3]]) + Mat.from_rows(f7, [[5]])).entries == ((1,),)
    assert (Mat.from_rows(f7, [[3]]) @ Mat.from_rows(f7, [[5]])).entries == ((1,),)
    assert (Mat.from_rows(f7, [[3]]) - Mat.from_rows(f7, [[5]])).entries == ((5,),)
    assert Mat.from_rows(f7, [[3, 4]]).apply((3, 5)) == (1,)


def test_field_mixing_rejected():
    f7 = PrimeField(7)
    with pytest.raises(FieldMismatchError):
        Mat.identity(f7, 2) + Mat.identity(PrimeField(11), 2)
    with pytest.raises(FieldMismatchError):
        Mat.identity(RATIONALS, 2) @ Mat.identity(f7, 2)


@pytest.mark.parametrize("left, right", [(PrimeField(5), PrimeField(7)), (RATIONALS, PrimeField(7))],
                         ids=["fp5-fp7", "rat-fp7"])
def test_objects_over_different_fields_do_not_meet(left, right):
    # an int entry cannot tell F_5 from F_7 or from Q, so the fields are
    # compared where matrices, subspaces, representations and morphisms meet
    a, b = Mat.identity(left, 2), Mat.from_rows(right, [[1, 2], [3, 4]])
    for op in (Mat.__matmul__, Mat.__add__, Mat.__sub__, Mat.hstack):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(FieldMismatchError):
                op(x, y)
    s, t = Subspace.from_vectors(left, 2, [(1, 0)]), Subspace.from_vectors(right, 2, [(1, 0)])
    for op in (Subspace.contains, Subspace.sum, Subspace.intersect):
        for x, y in ((s, t), (t, s), (Subspace.full(left, 2), t), (s, Subspace.full(right, 2))):
            with pytest.raises(FieldMismatchError):
                op(x, y)
    with pytest.raises(FieldMismatchError):
        s.contains(Subspace.zero(right, 2))
    q = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow a 1 2")
    with pytest.raises(FieldMismatchError):
        qd.Representation(q, left, (1, 1, 0), (Mat.identity(right, 1),))
    M = qd.Representation(q, left, (1, 1, 1), (Mat.identity(left, 1),))
    N = qd.Representation(q, right, (1, 1, 1), (Mat.identity(right, 1),))
    one_l, one_r = Mat.identity(left, 1), Mat.identity(right, 1)
    for comps in ((one_l, one_l, one_r), (one_r, one_r, one_r), (one_l, one_r, one_l)):
        with pytest.raises(FieldMismatchError):
            qd.RepMorphism(M, M, comps)
    with pytest.raises(FieldMismatchError):
        qd.RepMorphism(M, N, (one_l, one_l, one_l))


def test_field_parsing():
    assert field_from_name("rat") is RATIONALS
    assert field_from_name("fp:7") == PrimeField(7)
    with pytest.raises(ValueError):
        field_from_name("fp:6")
    with pytest.raises(ValueError):
        field_from_name("float")
    assert RATIONALS.parse("-1/2") == Fraction(-1, 2)
    assert PrimeField(7).parse("-1/2") == PrimeField(7).of(3)


def test_random_rank_nullity_and_solve():
    rng = random.Random(20240817)
    for _ in range(150):
        r = rng.randrange(0, 7)
        c = rng.randrange(0, 7)
        m = Mat.from_rows(F, [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)], ncols=c)
        red, pivots, rank = rref(m)
        assert rank + kernel_basis(m).dim == c
        assert rref(red)[0] == red
        # a consistent right-hand side solves back exactly
        x0 = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(c))
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None and m.apply(x) == b


def test_solve_matrix_inverse():
    m = mat([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m @ inv == Mat.identity(F, 2)
    sol = solve_matrix(mat([[1, 0], [0, 0]]), Mat.identity(F, 2))
    assert sol is None


def test_column_space_and_coordinates():
    m = mat([[1, 2], [2, 4], [0, 0]])
    cs = column_space(m)
    assert cs.dim == 1
    coords = cs.coordinates((2, 4, 0))
    assert len(coords) == 1
    with pytest.raises(ValueError):
        cs.coordinates((1, 0, 0))


# -- the sparse integer kernel against the dense Gauss-Jordan it replaced ------

def _reduce(field, v):
    """v mod p over F_p, v itself over Q."""
    return v % field.characteristic if field.characteristic else v


def _dense_rref(m):
    """Dense field-element Gauss-Jordan: leftmost pivot column, first nonzero
    row, pivots normalized to 1 with field.inv, elimination above and below,
    each value reduced mod p over F_p."""
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        inv = m.field.inv(rows[r][c])
        rows[r] = [_reduce(m.field, v * inv) for v in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [_reduce(m.field, a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return _canonical(m.field, rows, m.cols), tuple(pivots), len(pivots)


def _naive_matmul(a, b):
    z = a.field.zero
    return _canonical(a.field, [
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), z) for j in range(b.cols)]
        for i in range(a.rows)], b.cols)


def _product_types(a, b):
    """Over Q, the exact type of each entry of a @ b: arithmetic keeps ints
    in ints and nothing normalises its result, so an entry is a Fraction
    exactly when some nonzero term a[i][k] * b[k][j] has a Fraction factor."""
    return [[Fraction if any(type(x) is Fraction or type(y) is Fraction
                             for x, y in zip(row, col) if x and y) else int
             for col in b.columns()] for row in a.entries]


def _canonical(field, rows, ncols):
    """The matrix with these rows, every entry through field.of: over Q an
    int when integral, else a Fraction."""
    return Mat(field, len(rows), ncols, tuple(tuple(field.of(v) for v in row) for row in rows))


def _typed(m):
    """Entries with their exact type, so equal values of different types do
    not compare equal."""
    return [[(type(v), v) for v in row] for row in m.entries]


FIELDS = [RATIONALS, PrimeField(2), PrimeField(7), PrimeField(10007)]
FIELD_IDS = ["rat", "fp2", "fp7", "fp10007"]


def _random_entry(field, rng):
    if field is RATIONALS:
        kind = rng.randrange(4)
        if kind == 0:
            return field.of(rng.randrange(-3, 4))
        if kind == 1:
            return field.of(Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)))
        if kind == 2:
            return field.of(Fraction(rng.randrange(-10 ** 15, 10 ** 15), rng.randrange(1, 10 ** 6)))
        return field.of(Fraction(-rng.randrange(1, 10 ** 30), rng.randrange(1, 7)))
    return field.of(rng.randrange(field.p))


def _random_sparse(field, rng, rows, cols, density):
    z = field.zero
    entries = [[_random_entry(field, rng) if rng.random() < density else z for _ in range(cols)]
               for _ in range(rows)]
    # rank-deficient inputs: duplicate rows and combinations of earlier rows
    for i in range(1, rows):
        roll = rng.random()
        if roll < 0.15:
            entries[i] = list(entries[rng.randrange(i)])
        elif roll < 0.3:
            a, b = entries[rng.randrange(i)], entries[rng.randrange(i)]
            c = _random_entry(field, rng)
            entries[i] = [field.of(x + c * y) for x, y in zip(a, b)]
    return Mat(field, rows, cols, tuple(tuple(r) for r in entries))


def _assert_same_rref(m):
    red, pivots, rank = rref(m)
    ref_red, ref_pivots, ref_rank = _dense_rref(m)
    assert (pivots, rank) == (ref_pivots, ref_rank)
    assert _typed(red) == _typed(ref_red)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_matches_dense_gauss_jordan(field):
    rng = random.Random(6000 + field.characteristic)
    for _ in range(120):
        r, c = rng.randrange(1, 9), rng.randrange(1, 11)
        _assert_same_rref(_random_sparse(field, rng, r, c, rng.choice((0.1, 0.3, 0.6))))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rref_edge_shapes_match_dense_gauss_jordan(field):
    rng = random.Random(7)
    cases = [Mat.zero(field, 0, 4), Mat.zero(field, 4, 0), Mat.zero(field, 0, 0),
             Mat.zero(field, 3, 5), Mat.identity(field, 4)]
    red = rref(_random_sparse(field, rng, 5, 7, 0.5))[0]
    cases.append(red)                                     # already reduced
    row = tuple(field.of(v) for v in (0, 3, 0, 1, 2))
    cases.append(Mat(field, 4, 5, (row,) * 4))            # duplicate rows
    low = _random_sparse(field, rng, 2, 6, 0.7)
    cases.append(_naive_matmul(_random_sparse(field, rng, 6, 2, 0.7), low))  # rank <= 2
    for m in cases:
        _assert_same_rref(m)
    assert rref(cases[5])[0] == cases[5]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_matmul_matches_naive_triple_loop(field):
    rng = random.Random(11 + field.characteristic)
    shapes = [(3, 0, 4), (0, 3, 2), (2, 3, 0), (0, 0, 0)]
    shapes += [(rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(60)]
    for r, k, c in shapes:
        a = _random_sparse(field, rng, r, k, rng.choice((0.2, 0.5, 0.9)))
        b = _random_sparse(field, rng, k, c, rng.choice((0.2, 0.5, 0.9)))
        prod = a @ b
        ref = _naive_matmul(a, b)
        assert (prod.rows, prod.cols) == (r, c)
        if field is RATIONALS:
            ref_typed = [[(t, v) for t, v in zip(types, row)]
                         for types, row in zip(_product_types(a, b), ref.entries)]
        else:
            ref_typed = _typed(ref)
        assert _typed(prod) == ref_typed


@pytest.mark.parametrize("field, stray", [
    (PrimeField(7), Fraction(1, 2)),
], ids=["fraction-in-fp7"])
def test_kernel_rejects_entries_from_another_field(field, stray):
    one, z = field.one, field.zero
    m = Mat(field, 2, 3, ((one, z, stray), (z, one, one)))
    with pytest.raises(FieldMismatchError):
        rref(m)
    with pytest.raises(FieldMismatchError):
        kernel_basis(m)
    with pytest.raises(FieldMismatchError):
        solve(m, (one, one))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["rat", "fp10007"])
def test_rref_does_no_field_element_arithmetic(field, monkeypatch):
    e6 = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
                         "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
    systems = []
    real_kernel_of_rows = reps.kernel_of_rows

    def spy(fld, ncols, rows):
        systems.append((ncols, rows))
        return real_kernel_of_rows(fld, ncols, rows)

    monkeypatch.setattr(reps, "kernel_of_rows", spy)
    M = max((e.rep for e in qd.knit(e6, field).entries), key=lambda rep: rep.total_dim)
    N = qd.direct_sum([M, qd.injective_at(e6, "3", field)])[0]
    systems.clear()
    hom_dim = qd.hom_basis(M, N).dim
    ((ncols, rows),) = systems
    system = Mat.from_rows(field, [[r.get(j, 0) for j in range(ncols)] for r in rows], ncols)
    expected = rref(system), kernel_of_rows(field, ncols, rows)

    def boom(*_args):
        raise AssertionError("field-element arithmetic inside the elimination")

    # over F_p a field element is an int, whose operators cannot be patched;
    # over both fields the elimination must run on its integer rows alone
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        monkeypatch.setattr(Fraction, op, boom)
    got = rref(system), kernel_of_rows(field, ncols, rows)
    monkeypatch.undo()
    assert got == expected
    (red, pivots, rank), kernel = got
    assert system.cols - rank == hom_dim == kernel.dim == 1 + M.dims[2]  # End(M) plus Hom(M, I_3) = D M_3


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_one_pass_kernel_matches_two_pass_reference(field):
    # the reference puts the complement-projection rows of the row space in
    # RREF with a second elimination
    rng = random.Random(900 + field.characteristic)
    shapes = [(0, 0), (0, 5), (4, 0)] + [(rng.randrange(0, 9), rng.randrange(0, 12)) for _ in range(520)]
    for r, c in shapes:
        m = _random_sparse(field, rng, r, c, rng.choice((0.1, 0.3, 0.6)))
        got = kernel_basis(m)
        ref = row_space(row_space(m).complement_projection())
        assert (got.ambient_dim, got.pivots) == (ref.ambient_dim, ref.pivots)
        assert _typed(Mat(field, got.dim, c, got.basis)) == _typed(Mat(field, ref.dim, c, ref.basis))


def test_rational_coercion_keeps_fractions_and_rejects_fp():
    # over Q a value is an int when integral and a Fraction otherwise
    x = Fraction(3, 7)
    assert RATIONALS.of(x) is x
    assert RATIONALS.of(2) == 2 and type(RATIONALS.of(2)) is int
    assert RATIONALS.of(Fraction(4, 2)) == 2 and type(RATIONALS.of(Fraction(4, 2))) is int
    assert RATIONALS.of(Fraction(-6, 3)) == -2 and type(RATIONALS.of(Fraction(-6, 3))) is int
    assert RATIONALS.parse("4/2") == 2 and type(RATIONALS.parse("4/2")) is int
    assert type(RATIONALS.zero) is int and type(RATIONALS.one) is int
    # an F_5 residue is an int, so the rationals reject it where F_5 objects meet them
    with pytest.raises(FieldMismatchError):
        Mat.identity(RATIONALS, 1) + Mat.identity(PrimeField(5), 1)


def test_field_inverse_is_exact():
    assert RATIONALS.inv(2) == Fraction(1, 2) and type(RATIONALS.inv(2)) is Fraction
    assert RATIONALS.inv(Fraction(1, 2)) == 2 and type(RATIONALS.inv(Fraction(1, 2))) is int
    assert RATIONALS.inv(Fraction(-3, 4)) == Fraction(-4, 3)
    assert RATIONALS.inv(-1) == -1 and type(RATIONALS.inv(-1)) is int
    f7 = PrimeField(7)
    assert f7.inv(3) * 3 % 7 == 1 and f7.inv(f7.of(3)) == f7.of(5) == 5
    assert f7.inv(-1) == 6 and type(f7.inv(Fraction(1, 2))) is int
    for field in (RATIONALS, f7):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
    with pytest.raises(ZeroDivisionError):
        f7.inv(14)


def test_knitted_e6_registry_over_q_has_int_entries():
    e6 = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
                         "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
    entries = [v for e in qd.knit(e6).entries for m in e.rep.action for row in m.entries for v in row]
    assert entries and all(type(v) is int for v in entries)


def test_knitted_e6_registry_over_fp_has_residue_entries():
    # every stored F_p value is an int in [0, p): actions, hom bases, kernels
    p = 10007
    field = PrimeField(p)
    e6 = qd.parse_quiver("vertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\n"
                         "arrow a 1 2\narrow b 2 3\narrow c 4 3\narrow d 5 4\narrow e 6 3")
    registry = [e.rep for e in qd.knit(e6, field).entries]
    big = max(registry, key=lambda rep: rep.total_dim)
    mats = [m for M in registry for m in M.action]
    mats += [c for N in registry for b in qd.hom_basis(big, N).basis for c in b.comps]
    mats += [c for N in registry for b in qd.hom_basis(N, big).basis for c in b.comps]
    values = [v for m in mats for row in m.entries for v in row]
    values += [v for m in mats for vec in kernel_basis(m).basis for v in vec]
    assert all(type(v) is int and 0 <= v < p for v in values)
    assert p - 1 in values   # a -1 is stored as its residue


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_intersect_is_canonical_and_meets_the_dimension_formula(field):
    rng = random.Random(17 + field.characteristic)
    for _ in range(100):
        n = rng.randrange(1, 8)
        a, b = (Subspace.from_vectors(field, n, _random_sparse(
            field, rng, rng.randrange(0, n + 1), n, rng.choice((0.3, 0.7))).entries)
            for _ in range(2))
        meet = a.intersect(b)
        assert meet.dim == a.dim + b.dim - a.sum(b).dim
        assert a.contains(meet) and b.contains(meet)
        assert meet == Subspace.from_vectors(field, n, meet.basis)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=["rat", "fp:7"])
def test_field_constants_are_stored_once(field):
    assert field.zero is field.zero and field.one is field.one
    assert field.zero == 0 and field.one == 1


def _small_ints(rng, rows, cols, density):
    return Mat(RATIONALS, rows, cols, tuple(
        tuple(rng.randrange(-3, 4) if rng.random() < density else 0 for _ in range(cols))
        for _ in range(rows)))


@pytest.mark.parametrize("field, ints", [(RATIONALS, True), (RATIONALS, False), (PrimeField(7), False)],
                         ids=["rat-int", "rat-fraction", "fp:7"])
def test_products_agree_matches_comparing_the_products(field, ints):
    rng = random.Random(9100 + field.characteristic + ints)

    def rand(r, c):
        if ints:
            return _small_ints(rng, r, c, rng.choice((0.2, 0.5, 0.9)))
        return _random_sparse(field, rng, r, c, rng.choice((0.2, 0.5, 0.9)))

    # (rows, inner of a @ b, cols, inner of c @ d)
    shapes = [(0, 3, 2, 4), (3, 2, 0, 4), (2, 0, 3, 0), (0, 0, 0, 0), (2, 3, 4, 0), (3, 0, 2, 2)]
    shapes += [(rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5))
               for _ in range(60)]
    seen = set()
    for r, k, n, k2 in shapes:
        a, b, c, d = rand(r, k), rand(k, n), rand(r, k2), rand(k2, n)
        ab, eye = a @ b, Mat.identity(field, n)
        cases = [(a, b, c, d), (a, b, ab, eye), (Mat.identity(field, r), ab, a, b)]
        if r and n:
            bumped = [list(row) for row in ab.entries]
            bumped[0][0] = field.of(bumped[0][0] + 1)
            cases.append((a, b, Mat(field, r, n, tuple(map(tuple, bumped))), eye))
        for w, x, y, z in cases:
            want = w @ x == y @ z
            assert products_agree(w, x, y, z) == want
            seen.add(want)
    assert seen == {True, False}
    with pytest.raises(ValueError):
        products_agree(rand(2, 3), rand(2, 2), rand(2, 1), rand(1, 2))
    with pytest.raises(FieldMismatchError):
        other = PrimeField(5) if field is RATIONALS else RATIONALS
        products_agree(Mat.zero(field, 1, 1), Mat.zero(field, 1, 1),
                       Mat.zero(other, 1, 1), Mat.zero(other, 1, 1))


def test_mat_rejects_ragged_rows():
    for rows, cols, entries in [(2, 2, ((1, 2), (3,))), (2, 2, ((1, 2, 3), (3, 4, 5))),
                                (1, 2, ((1, 2), (3, 4))), (0, 2, ((1, 2),)), (2, 0, ((), (1,)))]:
        with pytest.raises(ValueError):
            Mat(F, rows, cols, entries)
    assert (Mat(F, 0, 3, ()).rows, Mat(F, 2, 0, ((), ())).cols) == (0, 0)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rank_is_the_pivot_count_of_rref(field):
    rng = random.Random(9200 + field.characteristic)
    for _ in range(120):
        m = _random_sparse(field, rng, rng.randrange(0, 8), rng.randrange(0, 9),
                           rng.choice((0.1, 0.3, 0.6, 0.9)))
        assert m.rank() == rref(m)[2]
