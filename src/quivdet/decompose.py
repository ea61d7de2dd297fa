"""Krull-Schmidt machinery for quiver representations.

Decomposition works inside the endomorphism algebra E = End(M) and has one
way to split, Fitting's (Auslander-Reiten-Smalo I.2): an endomorphism s of M
whose image meets its kernel in 0 gives M = im(s) + ker(s).  A candidate
endomorphism phi whose minimal polynomial mu has two or more coprime primary
parts gives s = p(phi) for the first part p: with mu = p r and p, r coprime,
im(s) = ker r(phi) is a complement of ker(s).  mu and s are computed in E's
own coordinates: one rref of the coordinate columns of 1, phi, phi^2, ...
gives mu (E acts faithfully on M, so it is that of phi on the total space),
and s is the combination p of those columns.  When no candidate splits,
every candidate has minimal polynomial p^k with p irreducible, and a
field-degree certificate decides indecomposability: if deg p equals
dim E/rad(E) for some candidate, then k[phi] modulo the radical is a field
filling all of E/rad(E), so E is local.  Otherwise
DecompositionInconclusiveError (FieldTooSmallError over F_p) reports that
neither a split nor a certificate was found.

The radical of a one-dimensional E = k is 0 over every field.  When dim E > 1
the radical is the kernel of the trace form tr(a b), which is valid over the
rationals and over F_p with p larger than the total dimension; smaller primes
raise FieldTooSmallError.

A right minimal version takes one of two routes.  A domain X that the
workspace records as a direct sum of bricks (End = k), as a sum of registry
entries is, needs no End(X).  By Krull-Schmidt (Auslander-Reiten-Smalo I.2
and II) the part X2 that f kills is a sum of copies of X's summands, and
its number of copies of an iso-class E is the rank of the maps E -> X that
f kills, read at their tops: their coordinates in the one-dimensional
blocks Hom(E, E_b) of the copies b, since every map between non-isomorphic
indecomposables is radical.  This route works in every characteristic, and
its certificate asks the same rank of f1, which must be 0 for every class.
Every other domain, one with no sum record or with a summand that is not a
brick, takes the Fitting loop, which needs no trace form either: it splits
off the image of a stable power with the same split as decomposition.

Minimal polynomials are split by a root search in the ground field first:
rational roots over Q, a full scan over F_p with p <= 4096.  Over F_p with
p > 4096 a quadratic is split by its discriminant instead, with
Tonelli-Shanks square roots.  What is left goes to sympy's univariate
factorization: over Q only polynomials without a rational root, over F_p
with p > 4096 only minimal polynomials of degree three or more.

Internal consistency checks raise InvariantError through errors.invariant
rather than asserting, so they also run under python -O.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import lcm

from .errors import (
    DecompositionInconclusiveError,
    FieldTooSmallError,
    NotIndecomposableError,
    invariant,
)
from .linalg import (
    Mat,
    PrimeField,
    Subspace,
    column_space,
    from_columns,
    kernel_basis,
    ratio,
    rref,
)
from .reps import (
    RepMorphism,
    Representation,
    _same_category,
    block_diagonal_sum,
    identity_morphism,
    kernel,
    postcompose_matrix,
    subrepresentation,
)


# ---------------------------------------------------------------------------
# dense univariate polynomials over the ground field (coeffs low to high)


def _pnormalize(field, a):
    """a as a list without leading zeros, its coefficients taken mod p over F_p."""
    p = field.characteristic
    a = [c % p for c in a] if p else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _pdeg(p):
    return len(p) - 1


def _pmul(field, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return _pnormalize(field, out)


def _pdivmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = field.inv(b[-1])
    while len(a) >= len(b) and a:
        a = _pnormalize(field, a)
        if len(a) < len(b):
            break
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, x in enumerate(b):
            a[d + i] = a[d + i] - c * x
        a = a[:-1]
    return _pnormalize(field, q), _pnormalize(field, a)


def _pmonic(field, a):
    a = _pnormalize(field, a)
    if not a:
        return a
    inv = field.inv(a[-1])
    return _pnormalize(field, [x * inv for x in a])


def _pgcd(field, a, b):
    a, b = _pnormalize(field, a), _pnormalize(field, b)
    while b:
        _, r = _pdivmod(field, a, b)
        a, b = b, r
    return _pmonic(field, a)


def _peval_scalar(field, p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return field.of(acc)


def _pderiv(field, p):
    return _pnormalize(field, [k * c for k, c in enumerate(p)][1:])


def _power_coordinates(phi: RepMorphism):
    """The monic minimal polynomial mu of phi with the End(M) coordinates of
    1, phi, ..., phi^k, where k = deg mu.

    End(M) acts faithfully on M, so a polynomial kills phi in End(M) exactly
    when it kills phi on the total space.  The powers are formed until one
    depends on the earlier ones, at most dim End(M) of them; then one rref
    of the coordinate columns has pivots 0..k-1 and column k holds the c_i
    of phi^k = sum c_i phi^i; mu is x^k - sum c_i x^i."""
    M = phi.domain
    field = M.field
    hom = M.quiver.workspace.hom(M, M)
    power = identity_morphism(M)
    coords = [hom.coordinates(power)]
    while Mat(field, len(coords), hom.dim, tuple(coords)).rank() == len(coords):
        power = power @ phi
        coords.append(hom.coordinates(power))
    red, _, k = rref(from_columns(field, coords, hom.dim))
    mu = _pnormalize(field, [-red.entries[i][k] for i in range(k)] + [1])
    invariant(not any(_poly_coordinates(field, mu, coords)),
              "minimal polynomial does not annihilate the endomorphism")
    return mu, coords


def _poly_coordinates(field, p, coords) -> tuple:
    """The coordinates of p(phi), given those of the powers of phi."""
    return tuple(field.of(sum(c * v[r] for c, v in zip(p, coords) if c))
                 for r in range(len(coords[0])))


def minimal_polynomial(phi: RepMorphism):
    """Monic minimal polynomial of the endomorphism phi."""
    return _power_coordinates(phi)[0]


# ---------------------------------------------------------------------------
# coprime primary splitting of minimal polynomials


def _integer_roots(field, p):
    """Roots of p lying in the ground field, found without factorization.

    Over the rationals: rational-root extraction on the scaled-monic integer
    form.  Over small prime fields: full scan.  Returns [] when nothing was
    found (which is not a proof that no roots exist over extensions)."""
    roots = []
    if isinstance(field, PrimeField):
        if field.p > 4096:
            return []
        for a in range(field.p):
            x = field.of(a)
            if not _peval_scalar(field, p, x):
                roots.append(x)
        return roots
    # rationals: monic p with rational coefficients; substitute x = y/d with d
    # the lcm of denominators, making a monic integer polynomial in y.
    d = lcm(*(c.denominator for c in p))
    # integer coefficients of y^n + sum a_k d^(n-k) y^k
    n = _pdeg(p)
    ints = []
    for k, c in enumerate(p):
        ints.append(int(c * d ** (n - k)))
    # strip powers of y
    shift = 0
    while shift < len(ints) - 1 and ints[shift] == 0:
        shift += 1
    if shift:
        roots.append(0)
    const = ints[shift]
    for cand in _divisors(abs(const)):
        for s in (cand, -cand):
            x = ratio(s, d)
            if not _peval_scalar(field, p, x):
                if x not in roots:
                    roots.append(x)
    return roots


def _divisors(n, cap=200000):
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n and d <= cap:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _sympy_primary_parts(field, p):
    """Pairwise-coprime primary factors of p via sympy factorization."""
    import sympy

    x = sympy.Symbol("x")
    if isinstance(field, PrimeField):
        expr = sum(c * x ** k for k, c in enumerate(p))
        _, factors = sympy.Poly(expr, x, modulus=field.p).factor_list()
    else:
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k for k, c in enumerate(p))
        _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    parts = []
    for fac, mult in factors:
        coeffs = fac.all_coeffs()[::-1]
        if isinstance(field, PrimeField):
            base = [field.of(int(c)) for c in coeffs]
        else:
            base = [ratio(int(sympy.numer(c)), int(sympy.denom(c))) for c in coeffs]
        base = _pmonic(field, base)
        if _pdeg(base) == 0:
            continue
        acc = [1]
        for _ in range(mult):
            acc = _pmul(field, acc, base)
        parts.append(acc)
    return parts


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, None when a is 0 or not a
    square: Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.1), with the least non-residue from the scan 2, 3, 4, ..."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while not q % 2:
        q, e = q // 2, e + 1
    n = next(n for n in count(2) if pow(n, (p - 1) // 2, p) == p - 1)
    y, x, b = pow(n, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        m = next(m for m in count(1) if pow(b, 1 << m, p) == 1)
        t = pow(y, 1 << (e - m - 1), p)
        y, e, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _quadratic_parts(field, p):
    """Primary parts of a monic quadratic x^2 + b x + c over F_p, p odd: a
    nonzero square discriminant gives the two linear factors in sympy's order
    (ascending constant term in [0, p)); zero or a non-square gives p."""
    c, b = p[0], p[1]
    s = _sqrt_mod((b * b - 4 * c) % field.p, field.p)
    if s is None:
        return [p]
    half = field.inv(2)
    return sorted(([field.of((b - s) * half), 1], [field.of((b + s) * half), 1]))


def _primary_parts(field, p):
    """Split p into >= 1 pairwise-coprime primary parts; cheap paths first."""
    p = _pmonic(field, p)
    if _pdeg(p) <= 1:
        return [p]
    if isinstance(field, PrimeField) and field.p > 4096 and _pdeg(p) == 2:
        return _quadratic_parts(field, p)
    roots = _integer_roots(field, p)
    if roots:
        parts = []
        rest = p
        for r in roots:
            lin = [field.of(-r), 1]
            power = [1]
            while True:
                q, rem = _pdivmod(field, rest, lin)
                if rem:
                    break
                rest = q
                power = _pmul(field, power, lin)
            parts.append(power)
        if _pdeg(rest) > 0:
            parts.append(rest)
        return parts
    # no roots in the ground field: only needed when an irrational split exists
    return _sympy_primary_parts(field, p)


# ---------------------------------------------------------------------------
# endomorphism algebra with its trace-form radical


class EndAlgebra:
    """End(M) with its trace-form radical."""

    def __init__(self, M: Representation):
        self.M = M
        self.hom = M.quiver.workspace.hom(M, M)
        self.n = M.total_dim

    @property
    def dim(self) -> int:
        return self.hom.dim

    def trace_pair(self, a: RepMorphism, b: RepMorphism):
        """tr(a b) on the total space: the trace form whose kernel is rad."""
        acc = 0
        for ma, mb in zip(a.comps, b.comps):
            for r in range(ma.rows):
                row = ma.entries[r]
                for c in range(ma.cols):
                    if row[c] and mb.entries[c][r]:
                        acc = acc + row[c] * mb.entries[c][r]
        return self.M.field.of(acc)

    @cached_property
    def radical(self) -> Subspace:
        """rad End(M) in hom coordinates, via the trace bilinear form when
        End(M) has dimension > 1; End(M) = k has radical 0 over any field."""
        field = self.M.field
        if self.dim == 1:
            return Subspace.zero(field, 1)
        if isinstance(field, PrimeField) and field.p <= self.n:
            raise FieldTooSmallError(
                f"trace-form radical needs p > total dimension {self.n}; "
                f"rerun with --field rat or a larger prime")
        k = self.dim
        rows = []
        for i in range(k):
            rows.append(tuple(self.trace_pair(self.hom.basis[i], self.hom.basis[j])
                              for j in range(k)))
        return kernel_basis(Mat(field, k, k, tuple(rows)))

    @property
    def quotient_dim(self) -> int:
        """Dimension of the semisimple quotient End(M)/rad(End M)."""
        return self.dim - self.radical.dim


def end_algebra(M: Representation) -> EndAlgebra:
    ws = M.quiver.workspace
    return ws.memo(ws.ends, M, lambda: EndAlgebra(M))


# ---------------------------------------------------------------------------
# splitting


def _fitting_split(s: RepMorphism):
    """(im s, its inclusion) and (ker s, its inclusion) for an endomorphism s
    of M with M = im(s) + ker(s), each in the canonical basis of column_space
    and kernel_basis.  Rank-nullity makes the dimensions add up for any s, so
    the check is that the two meet in 0: [incl_im | incl_ker] has full rank
    at every vertex."""
    I, inclI = subrepresentation(s.domain, [column_space(c) for c in s.comps])
    K, inclK = kernel(s)
    invariant(all(a.hstack(b).rank() == a.rows for a, b in zip(inclI.comps, inclK.comps)),
              "the image and the kernel of a splitting endomorphism meet")
    return (I, inclI), (K, inclK)


def _candidate_endos(E: EndAlgebra):
    basis = E.hom.basis
    k = len(basis)
    for b in basis:
        yield b
    for i in range(min(k, 12)):
        for j in range(i + 1, min(k, 12)):
            yield basis[i] + basis[j]
    for i in range(min(k, 8)):
        for j in range(min(k, 8)):
            if i != j:
                yield basis[i] @ basis[j]
    state = 1
    for _ in range(24):
        coeffs = []
        for _ in range(k):
            state = (state * 1103515245 + 12345) % (1 << 31)
            coeffs.append(state % 5)
        if any(coeffs):
            yield E.hom.from_coordinates(coeffs)


def _split_once(M: Representation) -> RepMorphism | None:
    """An endomorphism s = p(phi) that splits M = im(s) + ker(s) into two
    nonzero pieces, p the first primary part of the minimal polynomial of a
    candidate phi, or None when M is certified indecomposable.  The parts
    are nonconstant, pairwise coprime and of product mu, so s is neither 0
    nor invertible.

    Field-degree certificate: a candidate phi that does not split has
    minimal polynomial p^k with p irreducible.  Its class modulo the radical
    has minimal polynomial p^j with j >= 1, so k[phi] modulo the radical has
    dimension j deg p <= dim End/rad.  If deg p = dim End/rad, then j = 1 and
    k[phi] fills End/rad, which is therefore a field: End(M) is local.  The
    degree of p is that of mu / gcd(mu, mu'), because the characteristic is
    0 or, once the radical exists, larger than deg mu.  A local End(M) has no
    idempotent to find, so the scan stops at the first certificate (none over
    F_p with p <= dim M, where the radical is undefined)."""
    E = end_algebra(M)
    if E.dim == 1:
        return None
    field = M.field
    certifies = not (isinstance(field, PrimeField) and field.p <= E.n)
    degree = 0
    for phi in _candidate_endos(E):
        mu, coords = _power_coordinates(phi)
        parts = _primary_parts(field, mu)
        if len(parts) > 1:
            return E.hom.from_coordinates(_poly_coordinates(field, parts[0], coords))
        squarefree, _ = _pdivmod(field, mu, _pgcd(field, mu, _pderiv(field, mu)))
        degree = max(degree, _pdeg(squarefree))
        if certifies and degree == E.quotient_dim:
            return None
    if isinstance(field, PrimeField):
        raise FieldTooSmallError(
            "no candidate splits the module or certifies it indecomposable (over "
            f"F_p that needs p > total dimension {E.n}); rerun with --field rat")
    raise DecompositionInconclusiveError(
        "no candidate endomorphism splits the module or certifies it "
        f"indecomposable: End/rad has dimension {E.quotient_dim}, the largest "
        f"candidate field degree is {degree}")


@dataclass(frozen=True)
class DecompositionResult:
    """Complete decomposition into indecomposables.

    pieces lists one (summand, inclusion, projection) triple per copy in a
    deterministic order; summands groups them into iso-classes with
    multiplicities; idempotent witnesses are inclusion . projection and are
    mutually orthogonal with sum the identity."""

    pieces: tuple
    summands: tuple

    @property
    def idempotents(self):
        return tuple(incl @ proj for _, incl, proj in self.pieces)

    def is_indecomposable(self) -> bool:
        return len(self.pieces) == 1


def _split_or_record(M: Representation) -> RepMorphism | None:
    """_split_once(M), the splitting endomorphism; when that certifies M
    indecomposable, M is recorded in the workspace's indecomposables."""
    s = _split_once(M)
    if s is None:
        M.quiver.workspace.indecomposable(M)
    return s


def _pieces_of(M: Representation):
    """The (leaf, inclusion, projection) triples of M: those of im(s), then
    those of ker(s), for the splitting endomorphism s of _split_or_record.
    The projections onto the two pieces are the row blocks of the inverse of
    [incl_im | incl_ker] at each vertex."""
    if M.total_dim == 0:
        return []
    ws = M.quiver.workspace
    known = ws.decompositions.get(M)
    if known is not None:
        return list(known.pieces)
    s = _split_or_record(M)
    if s is None:
        one = identity_morphism(M)
        ws.memo(ws.decompositions, M, lambda: DecompositionResult(((M, one, one),), ((M, 1),)))
        return [(M, one, one)]
    (I, iI), (K, iK) = _fitting_split(s)
    invariant(I.total_dim > 0 < K.total_dim, "the splitting endomorphism splits off nothing")
    inverses = [a.hstack(b).inverse() for a, b in zip(iI.comps, iK.comps)]
    out = []
    for sub, isub, starts in ((I, iI, (0,) * len(M.dims)), (K, iK, I.dims)):
        psub = RepMorphism(M, sub, tuple(Mat(M.field, d, inv.cols, inv.entries[r:r + d])
                                         for d, r, inv in zip(sub.dims, starts, inverses)))
        for leaf, i2, p2 in _pieces_of(sub):
            out.append((leaf, isub @ i2, p2 @ psub))
    return out


def decompose(M: Representation) -> DecompositionResult:
    ws = M.quiver.workspace
    return ws.memo(ws.decompositions, M, lambda: _grouped(tuple(_pieces_of(M))))


def _grouped(pieces) -> DecompositionResult:
    """The pieces grouped into iso-classes, in order of first appearance."""
    groups: list[list] = []
    for leaf, _, _ in pieces:
        for g in groups:
            if indec_iso_witness(g[0], leaf) is not None:
                g.append(leaf)
                break
        else:
            groups.append([leaf])
    return DecompositionResult(pieces, tuple((g[0], len(g)) for g in groups))


def is_indecomposable(M: Representation) -> bool:
    """Whether M is indecomposable: read off its stored decomposition, else
    from one _split_or_record certificate, which records M in the
    workspace's indecomposables.  No DecompositionResult is built; decompose
    builds one on demand.  The indecomposables record is not read, so an M
    equal by value to a recorded one (a TrD equal to a canonical I_y) still
    gets its End(M) certificate."""
    if M.total_dim == 0:
        return False
    known = M.quiver.workspace.decompositions.get(M)
    if known is not None:
        return known.is_indecomposable()
    return _split_or_record(M) is None


# ---------------------------------------------------------------------------
# isomorphism testing


def indec_iso_witness(A: Representation, B: Representation) -> RepMorphism | None:
    """Iso A -> B for indecomposables: the first basis map of Hom(A, B) that
    is invertible.  When A and B are isomorphic the maps that are not form
    the proper subspace w . rad End(A) for any iso w, so some basis map is
    invertible."""
    if A.dims != B.dims:
        return None
    if A == B:
        return identity_morphism(A)
    return next((b for b in A.quiver.workspace.hom(A, B).basis if b.is_iso()), None)


def iso_witness(M: Representation, N: Representation) -> RepMorphism | None:
    """An isomorphism M -> N, or None.  Decomposes both sides and matches
    indecomposable pieces.  M and N must share their quiver and field."""
    _same_category(M, N)
    if M.dims != N.dims:
        return None
    if M == N:
        return identity_morphism(M)
    dm, dn = decompose(M), decompose(N)
    if len(dm.pieces) != len(dn.pieces):
        return None
    used = [False] * len(dn.pieces)
    total = None
    for leafM, _, projM in dm.pieces:
        found = False
        for j, (leafN, inclN, _) in enumerate(dn.pieces):
            if used[j]:
                continue
            g = indec_iso_witness(leafM, leafN)
            if g is not None:
                used[j] = True
                term = inclN @ g @ projM
                total = term if total is None else total + term
                found = True
                break
        if not found:
            return None
    invariant(total is not None and total.is_iso(),
               "matched summand isomorphisms do not assemble to an isomorphism")
    return total


def is_isomorphic(M: Representation, N: Representation) -> bool:
    return iso_witness(M, N) is not None


# ---------------------------------------------------------------------------
# right minimal versions and the intrinsic kernel


@dataclass(frozen=True)
class RightMinimalResult:
    minimal: RepMorphism        # f1 : X1 -> Y
    split_off: Representation   # X2 with X = X1 + X2 and f zero on X2

    @property
    def already_minimal(self) -> bool:
        return self.split_off.total_dim == 0


def _nilpotency_power(phi: RepMorphism) -> RepMorphism:
    """phi^(2^k) with 2^k at least the total dimension (the stable power)."""
    n = max(1, phi.domain.total_dim)
    acc = phi
    steps = 0
    while (1 << steps) < n:
        steps += 1
    for _ in range(steps):
        acc = acc @ acc
    return acc


def _non_nilpotent_power(f: RepMorphism) -> RepMorphism | None:
    """The stable power of the first basis solution h of f h = 0 that is not
    nilpotent, or None when every basis solution is nilpotent.

    The solutions form a right ideal H0 of A = End(X), and f is right
    minimal exactly when H0 lies in rad A.  A right ideal H of a
    finite-dimensional algebra A lies in rad A if and only if every element
    of one basis of H is nilpotent: modulo rad A, a nonzero right ideal
    e M_n(D) of a simple factor is not spanned by nilpotents, since the
    reduced trace vanishes on every nilpotent but not on e a for some a (the
    reduced trace form of a central simple algebra is nondegenerate).  So
    None certifies f right minimal, in every characteristic."""
    ws = f.domain.quiver.workspace
    hom = ws.hom(f.domain, f.domain)
    H0 = kernel_basis(postcompose_matrix(hom, ws.hom(f.domain, f.codomain), f))
    powers = (_nilpotency_power(hom.from_coordinates(v)) for v in H0.basis)
    return next((power for power in powers if not power.is_zero()), None)


def _right_minimal_by_powers(f: RepMorphism) -> RightMinimalResult:
    """Split off the image of the stable power of a non-nilpotent solution h
    of f h = 0 (Fitting) until every basis solution is nilpotent."""
    X = f.domain
    cur_f = f
    split_parts: list[Representation] = []
    while cur_f.domain.total_dim > 0:
        power = _non_nilpotent_power(cur_f)
        if power is None:
            break
        (I, inclI), (K, inclK) = _fitting_split(power)
        invariant(I.total_dim > 0 and (cur_f @ inclI).is_zero(),
                  "stable power does not split off a nonzero summand killed by f")
        split_parts.append(I)
        cur_f = cur_f @ inclK
    X2, _ = block_diagonal_sum(split_parts, X.quiver, X.field)
    return RightMinimalResult(cur_f, X2)


def _top_coordinates(hs, starts, copies) -> list[int]:
    """For each copy b of E among the summands of X, the coordinate of
    hs = Hom(E, X) that reads the one-dimensional block Hom(E, E_b).  A
    canonical basis row of Hom between sums lies in one block (see HomSpace),
    the one that holds its pivot; starts[b][y] is where E_b starts in X(y)."""
    E, offsets = hs.domain, hs._offsets
    cuts = list(zip(*starts))
    rows = defaultdict(list)
    for k, row in enumerate(hs.flat_basis):
        i = bisect_right(offsets, row[0][0]) - 1
        rows[bisect_right(cuts[i], (row[0][0] - offsets[i]) // E.dims[i]) - 1].append(k)
    invariant(all(len(rows[b]) == 1 for b in copies),
              "Hom between isomorphic bricks is not one-dimensional")
    return [rows[b][0] for b in copies]


def _split_copies(f: RepMorphism, summands, starts) -> list[int]:
    """The summands of X = f.domain, by index, that split off f: the pivot
    copies of each iso-class.  X is the sum of the bricks summands, summand b
    from coordinate starts[b][y] of X(y) on.  For a class E the maps E -> X
    that f kills form K_E, and a map is radical exactly when its coordinates
    in the blocks Hom(E, E_b) of the copies b are 0 (maps between
    non-isomorphic indecomposables are radical), so the rank of K_E's rows
    at those coordinates is the number of copies of E that split off."""
    X, Y = f.domain, f.codomain
    ws = X.quiver.workspace
    classes: list[list[int]] = []
    for b, E in enumerate(summands):
        if E.total_dim:
            c = next((c for c in classes if indec_iso_witness(summands[c[0]], E) is not None), None)
            if c is None:
                classes.append([b])
            else:
                c.append(b)
    split = []
    for copies in classes:
        hs = ws.hom(summands[copies[0]], X)
        K = kernel_basis(postcompose_matrix(hs, ws.hom(hs.domain, Y), f))
        if K.dim:
            tops = _top_coordinates(hs, starts, copies)
            T = Mat(X.field, K.dim, len(copies), tuple(tuple(v[k] for k in tops) for v in K.basis))
            split.extend(copies[j] for j in rref(T)[1])
    return sorted(split)


def _right_minimal_of_bricks(f: RepMorphism, summands, starts) -> RightMinimalResult:
    """The right minimal version of f on a recorded sum X of bricks: X1 is
    the sum of the copies that do not split off (_split_copies), with its
    coordinate inclusion, and X2 that of the pivot copies.  Choose maps in
    K_E whose top coordinates are 1 at one pivot copy and 0 at the others;
    with the other copies they give a map onto X that is invertible modulo
    the radical, hence invertible, so X = X1 + (a sum f kills).  The
    certificate asks the same question of f1, which must split nothing."""
    X = f.domain
    split = _split_copies(f, summands, starts)
    X2, _ = block_diagonal_sum([summands[b] for b in split], X.quiver, X.field)
    if not split:
        return RightMinimalResult(f, X2)
    kept = [b for b, E in enumerate(summands) if E.total_dim and b not in split]
    X1, cuts = block_diagonal_sum([summands[b] for b in kept], X.quiver, X.field)
    comps = []
    for i, d in enumerate(X.dims):
        rows = [[0] * X1.dims[i] for _ in range(d)]
        for t, b in enumerate(kept):
            for r in range(summands[b].dims[i]):
                rows[starts[b][i] + r][cuts[i][t] + r] = 1
        comps.append(Mat(X.field, d, X1.dims[i], tuple(map(tuple, rows))))
    incl = RepMorphism(X1, X, tuple(comps))
    f1 = f @ incl
    invariant(not _split_copies(f1, [summands[b] for b in kept], tuple(zip(*cuts))),
              "a copy splits off the right minimal version")
    return RightMinimalResult(f1, X2)


def right_minimal_version(f: RepMorphism) -> RightMinimalResult:
    """Split X = X1 + X2 with f = (f1, 0) and f1 right minimal.

    When Workspace.sums records X as a sum whose nonzero summands are
    bricks, the block route (_right_minimal_of_bricks) reads the copies that
    split off from the tops of Hom(E, X) for each iso-class E (Krull-Schmidt,
    module docstring), with no End(X) and no trace form, in every
    characteristic; rerunning its rank test on f1, which must split nothing,
    certifies it.  Every other domain (no sum record, or a summand with
    dim End > 1) takes the loop (_right_minimal_by_powers), which exits once
    every basis solution h of f1 h = 0 is nilpotent (_non_nilpotent_power),
    in every characteristic."""
    X = f.domain
    ws = X.quiver.workspace
    record = ws.sums.get(X)
    if record is not None and all(ws.hom_dim(E, E) == 1 for E in record[0] if E.total_dim):
        return _right_minimal_of_bricks(f, *record)
    return _right_minimal_by_powers(f)


def intrinsic_kernel(f: RepMorphism) -> Representation:
    """Kernel of the right minimal version of f."""
    return kernel(right_minimal_version(f).minimal)[0]


# ---------------------------------------------------------------------------
# radical hom spaces


def rad_hom_basis(U: Representation, Z: Representation) -> Subspace:
    """rad(U, Z) as a subspace of Hom(U, Z) in canonical hom coordinates.

    For non-isomorphic indecomposables this is all of Hom(U, Z); for U = Z it
    is the radical of the local endomorphism algebra, transported along an
    isomorphism when U and Z are merely isomorphic.  The oracle needs no
    such radical, since its registry objects are bricks; the tests check its
    almost-factoring subspaces against this definition."""
    if not is_indecomposable(U):
        raise NotIndecomposableError("first argument is not indecomposable")
    if not is_indecomposable(Z):
        raise NotIndecomposableError("second argument is not indecomposable")
    h = U.quiver.workspace.hom(U, Z)
    w = indec_iso_witness(U, Z)
    if w is None:
        return Subspace.full(U.field, h.dim)
    EZ = end_algebra(Z)
    vecs = []
    for coords in EZ.radical.basis:
        r = EZ.hom.from_coordinates(coords)
        vecs.append(h.coordinates(r @ w))
    return Subspace.from_vectors(U.field, h.dim, vecs)
