"""Exact linear algebra over the rationals or a prime field.

Everything downstream (hom spaces, kernels, the verification oracle) reduces
to row reduction of large, very sparse systems: a Hom system has one
equation per commuting-square entry and a handful of nonzeros in each.
Matrices are immutable and dense, with exact entries.  One elimination loop,
_pivot_rows, serves every caller: it works on sparse integer rows
{column: int} (int_rows reads them from sparse rows of field elements, a
dense matrix being one source) with plain int arithmetic, touching only
nonzero entries.  span_of_rows takes the leftmost nonzero of each row as
its pivot and writes the unique reduced row echelon form back as field
elements (rref, row_space and column_space read it); kernel_of_rows takes
the rightmost, which leaves the null space basis already in RREF, so a
kernel costs one elimination, and a rank is a pivot count.  The matrix
product likewise multiplies only nonzero entries, and products_agree
compares two products without forming either.  Subspaces are stored in
canonical RREF form so that equal subspaces compare equal; disjoint_span
puts canonical bases placed at disjoint columns together with no
elimination, after checking that the placed rows are in that form.

Scalars: over Q a field element is a plain int when it is integral and a
Fraction otherwise; RationalField.of and .parse give that form, as do the
readbacks of rref and kernel_of_rows (through ratio) and RationalField.inv.
Arithmetic keeps int with int and is not normalised afterwards, so a
product such as 2 * Fraction(1, 2) may stay a Fraction(1); the numeric tower
compares and hashes it equal to 1, so canonical subspaces and every printed
string are the same either way.  Over F_p an element is its residue, a
plain int in [0, p); arithmetic on residues is int arithmetic, reduced mod p
where a value is stored or tested for zero: Mat operations, Mat.from_rows,
from_columns, Mat.apply and residuals give residues.  An int does not know
its field, so fields are compared where objects that carry one meet
(same_field): matrix products, sums and hstack, subspace containment, sums
and meets, and in reps.py the action of a representation and the components
of a morphism.  No code divides with /, which on two ints would give a
float: a reciprocal is field.inv.

Matrices act on the left of column vectors.  Zero-dimensional shapes
(0 x n, n x 0, 0 x 0) are legal everywhere: kernels and cokernels vanish
constantly in this domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import mod


class FieldMismatchError(TypeError):
    """Raised when values from two different ground fields are mixed."""


class AmbientMismatchError(ValueError):
    """Raised when subspaces of different ambient dimension are combined."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def ratio(n: int, d: int):
    """The rational n/d in canonical form: the int n // d when d divides n,
    else a Fraction in lowest terms (ZeroDivisionError when d is 0)."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


@dataclass(frozen=True)
class RationalField:
    """Arbitrary-precision rationals; the default ground field.

    An element is an int when it is integral and a Fraction otherwise.
    """

    name: str = "rat"
    characteristic: int = 0
    zero = 0
    one = 1

    def of(self, x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def parse(self, token: str):
        return self.of(Fraction(token))

    def inv(self, x):
        """The reciprocal of x, as an int when it is integral."""
        x = self.of(x)
        return ratio(x.denominator, x.numerator)


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p; p must be prime.  An element is its residue,
    an int in [0, p)."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    def of(self, x) -> int:
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            x = x.numerator * pow(x.denominator, -1, self.p)
        return x % self.p

    def parse(self, token: str) -> int:
        return self.of(Fraction(token))

    def inv(self, x) -> int:
        """The reciprocal of x."""
        x = self.of(x)
        if not x:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(x, -1, self.p)


RATIONALS = RationalField()

Field = RationalField | PrimeField


def same_field(a: Field, b: Field) -> Field:
    """a, when b is the same field; raises FieldMismatchError otherwise.  An
    F_p value is a bare int, so fields are compared where objects meet."""
    if a is not b and a != b:
        raise FieldMismatchError(f"mixing {a.name} with {b.name}")
    return a


def field_from_name(name: str) -> Field:
    """Parse a field spec: "rat" or "fp:<p>"."""
    if name == "rat":
        return RATIONALS
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field {name!r} (expected 'rat' or 'fp:<p>')")


@dataclass(frozen=True, slots=True)
class Mat:
    """Immutable dense matrix; entries is a row-major tuple of row tuples.
    Over F_p the entries are residues in [0, p): from_rows and from_columns
    reduce what they are given, and every operation returns residues."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows or not set(map(len, self.entries)) <= {self.cols}:
            raise ValueError("entry grid does not match shape")

    @classmethod
    def from_rows(cls, field: Field, rows, ncols: int | None = None) -> "Mat":
        rows = [tuple(field.of(v) for v in row) for row in rows]
        if ncols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            ncols = len(rows[0])
        return cls(field, len(rows), ncols, tuple(rows))

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "Mat") -> "Mat":
        field = same_field(self.field, other.field)
        p = field.characteristic
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # each nonzero a = self[i][k] meets only the nonzero entries of row k of other
        other_nz = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc: dict = {}
            for k, a in enumerate(row):
                if a:
                    for j, b in other_nz[k]:
                        acc[j] = acc[j] + a * b if j in acc else a * b
            out_row = [0] * other.cols
            for j, v in acc.items():
                out_row[j] = v % p if p else v
            out.append(tuple(out_row))
        return Mat(field, self.rows, other.cols, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        field = same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Mat(
            field,
            self.rows,
            self.cols,
            _residues(field, (tuple(a + b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, other.entries))),
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-1)

    def scale(self, c) -> "Mat":
        return Mat(self.field, self.rows, self.cols,
                   _residues(self.field, (tuple(c * v for v in r) for r in self.entries)))

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows, tuple(zip(*self.entries)) if self.rows else tuple(() for _ in range(self.cols)))

    def apply(self, vec: tuple) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = tuple(sum(a * b for a, b in zip(row, vec) if a and b) for row in self.entries)
        p = self.field.characteristic
        return tuple(v % p for v in out) if p else out

    def apply_row(self, vec: tuple) -> tuple:
        """Row vector times matrix, with no transpose built."""
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        pairs = [(v, row) for v, row in zip(vec, self.entries) if v]
        out = tuple(sum(v * row[j] for v, row in pairs if row[j]) for j in range(self.cols))
        p = self.field.characteristic
        return tuple(v % p for v in out) if p else out

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(any(v for v in row) for row in self.entries)

    def rank(self) -> int:
        """The number of pivots of one elimination; no RREF matrix is built."""
        return len(_pivot_rows(int_rows(self.field, _nonzeros(self.entries)),
                               self.field.characteristic, min))

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        sol = solve_matrix(self, Mat.identity(self.field, self.rows))
        if sol is None or (self @ sol != Mat.identity(self.field, self.rows)):
            raise ValueError("matrix is not invertible")
        return sol

    def hstack(self, other: "Mat") -> "Mat":
        field = same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Mat(field, self.rows, self.cols + other.cols,
                   tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"Mat[{body}]"


def _residues(field: Field, rows) -> tuple:
    """The rows (tuples) as a tuple, each value taken mod p over F_p."""
    p = field.characteristic
    return tuple([tuple(map(mod, r, repeat(p))) for r in rows]) if p else tuple(rows)


def products_agree(a: Mat, b: Mat, c: Mat, d: Mat) -> bool:
    """Whether a @ b == c @ d, without building either product: row i of
    a @ b - c @ d is summed from the nonzeros of row i of a and c and the
    rows of b and d they select, and the first row with a nonzero residue
    (mod p over F_p) answers."""
    field = same_field(same_field(a.field, b.field), same_field(c.field, d.field))
    if a.cols != b.rows or c.cols != d.rows or (a.rows, b.cols) != (c.rows, d.cols):
        raise ValueError("shape mismatch in a product comparison")
    p = field.characteristic
    for ra, rc in zip(a.entries, c.entries):
        acc = [0] * b.cols
        for row, rhs, sign in ((ra, b.entries, 1), (rc, d.entries, -1)):
            for k, x in enumerate(row):
                if x:
                    x *= sign
                    for j, y in enumerate(rhs[k]):
                        if y:
                            acc[j] += x * y
        if any(v % p for v in acc) if p else any(acc):
            return False
    return True


def from_columns(field: Field, cols, nrows: int) -> Mat:
    """Build a matrix whose columns are the given vectors."""
    cols = list(cols)
    return Mat(field, nrows, len(cols),
               tuple(tuple(field.of(c[i]) for c in cols) for i in range(nrows)))


def block_diag(field: Field, blocks) -> Mat:
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            out[r0 + i][c0:c0 + b.cols] = row
        r0 += b.rows
        c0 += b.cols
    return Mat(field, rows, cols, tuple(tuple(r) for r in out))


def _nonzeros(entries):
    """The rows of a dense row grid as sparse rows [(column, value), ...]."""
    return ([(j, v) for j, v in enumerate(row) if v] for row in entries)


def int_rows(field: Field, rows) -> list[dict]:
    """Sparse rows [(column, value), ...] of nonzero field elements, with
    distinct columns, as sparse {column: int} rows spanning the same space.

    Over Q each row is scaled by the lcm of its denominators; over F_p every
    value is an int, taken mod p.  Every value must belong to field.
    """
    p = field.characteristic
    out = []
    for nz in rows:
        if not nz:
            continue
        if p:
            d = {}
            for j, v in nz:
                if not isinstance(v, int):
                    raise FieldMismatchError(f"{v!r} ({type(v).__name__}) in a matrix over F_{p}")
                w = v % p
                if w:
                    d[j] = w
        else:
            den, exact = 1, True
            for _, v in nz:
                if type(v) is not int:
                    if not isinstance(v, (Fraction, int)):
                        raise FieldMismatchError(f"{v!r} ({type(v).__name__}) in a matrix over the rationals")
                    den, exact = lcm(den, v.denominator), False
            d = dict(nz) if exact else {j: v.numerator * (den // v.denominator) for j, v in nz}
        if d:
            out.append(d)
    return out


def _eliminate(r: dict, pr: dict, c: int, p: int) -> None:
    """Clear column c of the integer row r with the pivot row pr, in place.

    Over F_p, pr[c] is 1 and r -= r[c] * pr mod p.  Over Q, r becomes
    a*r - b*pr with b/a = r[c]/pr[c] in lowest terms, then is divided by its
    content when a is not 1.
    """
    b = r[c]
    if p:
        for j, v in pr.items():
            w = (r.get(j, 0) - b * v) % p
            if w:
                r[j] = w
            else:
                del r[j]
        return
    a = pr[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in pr.items():
        w = r.get(j, 0) - b * v
        if w:
            r[j] = w
        else:
            del r[j]
    if a != 1 and r:
        g = gcd(*r.values())
        if g != 1:
            for j in r:
                r[j] //= g


def _pivot_rows(rows: list[dict], p: int, pick) -> dict[int, dict]:
    """Mutually reduced pivot rows {pivot column: row} spanning the integer
    rows, which are consumed.  Each row is reduced against the pivot rows
    found so far, pick (min or max) chooses its pivot among its nonzero
    columns, and that column is cleared from the other pivot rows, so no
    step visits a zero entry.  Over Q a step is the fraction-free
    a*row - b*pivot_row followed by division by the content gcd; over F_p
    pivots are scaled to 1 and arithmetic is mod p.  Every pivot row is zero
    at every other pivot column."""
    piv: dict[int, dict] = {}
    for r in rows:
        for c in [c for c in r if c in piv]:
            _eliminate(r, piv[c], c, p)
        if not r:
            continue
        c = pick(r)
        if p and r[c] != 1:
            inv = pow(r[c], -1, p)
            for j in r:
                r[j] = r[j] * inv % p
        for other in piv.values():
            if c in other:
                _eliminate(other, r, c, p)
        piv[c] = r
    return piv


def rref(m: Mat) -> tuple[Mat, tuple[int, ...], int]:
    """Reduced row echelon form, pivot column indices, and rank.

    The nonzero rows are those of the canonical span of the rows (see
    span_of_rows), in pivot column order, and zero rows come last.
    """
    s = row_space(m)
    zero_row = tuple([0] * m.cols)
    out = s.basis + tuple(zero_row for _ in range(m.rows - s.dim))
    return Mat(m.field, m.rows, m.cols, out), s.pivots, s.dim


def span_of_rows(field: Field, ncols: int, rows) -> "Subspace":
    """The span of sparse rows [(column, value), ...] of field elements, in
    canonical form.  The rows become sparse integer rows (see int_rows) and
    _pivot_rows reduces them with the leftmost nonzero of each row as its
    pivot.  The RREF is unique, so the order in which rows are taken is free
    and the result is the canonical one: pivot rows in column order holding
    ratio(v, pivot) (over F_p the pivot is 1 and v a residue), 0 elsewhere.
    """
    piv = _pivot_rows(int_rows(field, rows), field.characteristic, min)
    pivots = tuple(sorted(piv))
    basis = []
    for c in pivots:
        row = [0] * ncols
        r = piv[c]
        d = r[c]
        for j, v in r.items():
            row[j] = ratio(v, d)
        basis.append(tuple(row))
    return Subspace(field, ncols, tuple(basis), pivots)


def disjoint_span(field: Field, ncols: int, rows) -> "Subspace":
    """The span of canonical basis rows of subspaces placed at disjoint
    columns, each by a map that keeps the order of its columns, as sparse
    rows [(column, value), ...] in column order: a placed row still leads
    with 1 at its pivot, and every other row is 0 there, so the rows sorted
    by pivot are the canonical basis, with no elimination.  Raises
    ValueError when the rows are not in that form."""
    rows = sorted(rows, key=lambda nz: nz[0][0])
    pivots = tuple(nz[0][0] for nz in rows)
    taken = set(pivots)
    if len(taken) != len(rows) or any(
            nz[0][1] != 1 or any(j in taken for j, _ in nz[1:]) for nz in rows):
        raise ValueError("placed rows are not in reduced row echelon form")
    basis = []
    for nz in rows:
        row = [0] * ncols
        for j, v in nz:
            row[j] = v
        basis.append(tuple(row))
    space = Subspace(field, ncols, tuple(basis), pivots)
    space.__dict__["sparse_basis"] = rows  # the cached property, already known
    return space


@dataclass(frozen=True)
class Subspace:
    """Subspace of field^ambient_dim, basis stored as RREF rows (no zero rows).

    The canonical storage makes equality of subspaces plain structural
    equality: two bases spanning the same space produce identical values.
    """

    field: Field
    ambient_dim: int
    basis: tuple
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = [tuple(field.of(v) for v in vec) for vec in vectors]
        for vec in vectors:
            if len(vec) != ambient_dim:
                raise AmbientMismatchError("vector length differs from ambient dimension")
        return row_space(Mat(field, len(vectors), ambient_dim, tuple(vectors)))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        eye = Mat.identity(field, ambient_dim)
        return cls(field, ambient_dim, eye.entries, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @cached_property
    def sparse_basis(self) -> list:
        """The basis rows as sparse rows [(column, value), ...], read once."""
        return list(_nonzeros(self.basis))

    def sparse(self, vec) -> dict:
        """The nonzeros {column: value} of a vector of the ambient space."""
        if len(vec) != self.ambient_dim:
            raise AmbientMismatchError("vector length differs from ambient dimension")
        return {j: v for j, v in enumerate(vec) if v}

    def residuals(self, vectors):
        """(coordinates, residual) of each sparse vector {column: value}:
        the coordinates in the RREF basis are its entries at the pivots, and
        it is reduced in place, over nonzeros only, to the residual modulo
        the space, which vanishes exactly when the vector lies in the space
        and equals complement_projection's image at the non-pivot slots.
        Over F_p the residual is taken mod p."""
        p = self.field.characteristic
        for vec in vectors:
            coords = tuple(vec.get(q, 0) for q in self.pivots)
            for c, nz in zip(coords, self.sparse_basis):
                if c:
                    for j, b in nz:
                        vec[j] = vec.get(j, 0) - c * b
            if p:
                for j, v in vec.items():
                    vec[j] = v % p
            yield coords, vec

    def contains_vector(self, vec) -> bool:
        return not any(next(self.residuals([self.sparse(vec)]))[1].values())

    def contains(self, other: "Subspace") -> bool:
        same_field(self.field, other.field)
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        return all(self.contains_vector(v) for v in other.basis)

    def coordinates(self, vec) -> tuple:
        """Coefficients of vec in the RREF basis; raises if vec is outside."""
        return self.coordinate_rows([self.sparse(tuple(self.field.of(v) for v in vec))])[0]

    def coordinate_rows(self, vectors) -> list[tuple]:
        """coordinates of each sparse vector of field elements, taken from
        any iterable (see residuals); raises if one is outside."""
        out = []
        for coords, res in self.residuals(vectors):
            if any(res.values()):
                raise ValueError("vector not in subspace")
            out.append(coords)
        return out

    def sum(self, other: "Subspace") -> "Subspace":
        same_field(self.field, other.field)
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        return Subspace.from_vectors(self.field, self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The meet of two subspaces: the coefficient vectors x with
        x . basis in other form the preimage of other under the basis, and
        mapping them back through the basis gives the meet.  Both bases are
        in RREF, so the mapped rows are too, with the pivots of self that
        the pivots of x select."""
        same_field(self.field, other.field)
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        if self.is_full():
            return other
        if other.is_full():
            return self
        B = Mat(self.field, self.dim, self.ambient_dim, self.basis)
        coeffs = preimage(B.transpose(), other)
        back = Mat(self.field, coeffs.dim, self.dim, coeffs.basis) @ B
        return Subspace(self.field, self.ambient_dim, back.entries,
                        tuple(self.pivots[i] for i in coeffs.pivots))

    def complement_projection(self) -> Mat:
        """Projection onto canonical complement coordinates (non-pivot slots).

        Rows are indexed by non-pivot coordinates j; applied to v it returns
        the non-pivot coordinates of v reduced modulo the subspace.  Its
        kernel is exactly this subspace.
        """
        pivset = set(self.pivots)
        rows = []
        for j in range(self.ambient_dim):
            if j in pivset:
                continue
            row = [0] * self.ambient_dim
            row[j] = 1
            for b, p in zip(self.basis, self.pivots):
                if b[j]:
                    row[p] = -b[j]
            rows.append(tuple(row))
        return Mat(self.field, len(rows), self.ambient_dim, _residues(self.field, rows))

    def basis_matrix_columns(self) -> Mat:
        """Basis vectors as the columns of a matrix (ambient_dim x dim)."""
        return from_columns(self.field, self.basis, self.ambient_dim)


def row_space(m: Mat) -> Subspace:
    """The span of the rows of m, in canonical form."""
    return span_of_rows(m.field, m.cols, _nonzeros(m.entries))


def kernel_basis(m: Mat) -> Subspace:
    """Canonical basis of the null space {x : m x = 0}, from one elimination.

    The elimination takes the rightmost nonzero of each row as its pivot, so
    a pivot row r_c is nonzero only at c and at free columns left of c.  The
    vector of free column j, 1 at j and -r_c[j]/r_c[c] at each pivot c,
    therefore leads at j and is zero at every other free column: the vectors
    in order of j are already the unique RREF basis of the null space, and no
    second elimination is needed to put them in canonical form.
    """
    return kernel_of_rows(m.field, m.cols, int_rows(m.field, _nonzeros(m.entries)))


def kernel_of_rows(field: Field, ncols: int, rows: list[dict]) -> Subspace:
    """kernel_basis of the integer rows {column: int} (see int_rows) of a
    matrix with ncols columns; rows are left as they are."""
    p = field.characteristic
    piv = _pivot_rows([dict(r) for r in rows], p, max)
    vecs = {j: [0] * ncols for j in range(ncols) if j not in piv}
    for j, vec in vecs.items():
        vec[j] = 1
    for c, r in piv.items():
        d = r[c]
        for j, v in r.items():
            if j != c:
                vecs[j][c] = -v % p if p else ratio(-v, d)
    return Subspace(field, ncols, tuple(tuple(vec) for vec in vecs.values()), tuple(vecs))


def column_space(m: Mat) -> Subspace:
    """The span of the columns of m, read straight into canonical form; the
    zero space, directly, when m has no rows or no columns."""
    if not (m.rows and m.cols):
        return Subspace.zero(m.field, m.rows)
    return span_of_rows(m.field, m.rows, _nonzeros(zip(*m.entries)))


def solve(m: Mat, b) -> tuple | None:
    """A particular solution of m x = b, or None; free variables are zeroed.
    It is solve_matrix with a one-column right-hand side."""
    b = tuple(m.field.of(v) for v in b)
    x = solve_matrix(m, Mat(m.field, len(b), 1, tuple((v,) for v in b)))
    return None if x is None else x.col(0)


def solve_matrix(a: Mat, b: Mat) -> Mat | None:
    """X with a @ X = b, or None if some column is unsolvable."""
    red, pivots, rank = rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        return None
    # free variables are zero; the pivot variable of row i reads its tail
    rows = [(0,) * b.cols] * a.cols
    for i, p in enumerate(pivots):
        rows[p] = red.entries[i][a.cols:]
    return Mat(a.field, a.cols, b.cols, tuple(rows))


def preimage(a: Mat, s: Subspace) -> Subspace:
    """{x : a x in s}, as a subspace of the domain of a."""
    if s.ambient_dim != a.rows:
        raise AmbientMismatchError("subspace ambient differs from codomain of map")
    proj = s.complement_projection()
    return kernel_basis(proj @ a)
