"""Krull-Schmidt machinery for quiver representations.

Decomposition into indecomposables works entirely inside the endomorphism
algebra: a candidate endomorphism whose minimal polynomial splits into coprime
parts yields an exact idempotent (Bezout combination), and the idempotent
splits the module.  When no candidate splits, the structure of
End(M)/rad(End M) decides the matter: a one-dimensional quotient certifies
indecomposability, a decomposable center is split through its primitive
element, and isotypic matrix blocks are split through vector-stabilizer left
ideals.  The radical is computed with the trace form, which is valid over the
rationals and over F_p with p larger than the total dimension; smaller primes
raise FieldTooSmallError.

Minimal polynomial factorization uses an integer-root fast path and falls back
to sympy's univariate factorization only for splits along irrational
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DecompositionInconclusiveError,
    FieldTooSmallError,
    NotIndecomposableError,
)
from .linalg import (
    Mat,
    PrimeField,
    Subspace,
    from_columns,
    kernel_basis,
    solve,
)
from .reps import (
    RepMorphism,
    Representation,
    direct_sum,
    hom_basis,
    identity_morphism,
    image,
    kernel,
    postcompose_matrix,
    zero_representation,
)

# ---------------------------------------------------------------------------
# dense univariate polynomials over the ground field (coeffs low to high)


def _pnormalize(p):
    while p and not p[-1]:
        p = p[:-1]
    return list(p)


def _pdeg(p):
    return len(p) - 1


def _pmul(field, a, b):
    if not a or not b:
        return []
    z = field.zero
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return _pnormalize(out)


def _psub(field, a, b):
    n = max(len(a), len(b))
    z = field.zero
    out = [z] * n
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] - x
    return _pnormalize(out)


def _pdivmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv = field.one / b[-1]
    while len(a) >= len(b) and a:
        a = _pnormalize(a)
        if len(a) < len(b):
            break
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, x in enumerate(b):
            a[d + i] = a[d + i] - c * x
        a = a[:-1]
    return _pnormalize(q), _pnormalize(a)


def _pmonic(field, a):
    a = _pnormalize(a)
    if not a:
        return a
    inv = field.one / a[-1]
    return [x * inv for x in a]


def _pgcd(field, a, b):
    a, b = _pnormalize(a), _pnormalize(b)
    while b:
        _, r = _pdivmod(field, a, b)
        a, b = b, r
    return _pmonic(field, a)


def _pgcdex(field, a, b):
    """(g, u, v) with u a + v b = g, g monic gcd."""
    r0, r1 = _pnormalize(a), _pnormalize(b)
    u0, u1 = [field.one], []
    v0, v1 = [], [field.one]
    while r1:
        q, r = _pdivmod(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(field, u0, _pmul(field, q, u1))
        v0, v1 = v1, _psub(field, v0, _pmul(field, q, v1))
    if not r0:
        return [], u0, v0
    lead = r0[-1]
    inv = field.one / lead
    return ([x * inv for x in r0], [x * inv for x in u0], [x * inv for x in v0])


def _peval_scalar(field, p, x):
    acc = field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _peval_endo(p, phi: RepMorphism) -> RepMorphism:
    """p(phi) as an endomorphism (Horner)."""
    M = phi.domain
    acc = None
    for c in reversed(p):
        if acc is None:
            acc = identity_morphism(M).scale(c)
        else:
            acc = (acc @ phi) + identity_morphism(M).scale(c)
    if acc is None:
        acc = identity_morphism(M).scale(M.field.zero)
    return acc


def _pderiv(field, p):
    return _pnormalize([field.of(k) * c for k, c in enumerate(p)][1:])


def _vector_minpoly(field, T: Mat, v: tuple):
    """Minimal polynomial of T relative to the start vector v."""
    space = Subspace.zero(field, T.rows)
    vecs = []
    cur = v
    while not space.contains_vector(cur):
        vecs.append(cur)
        space = Subspace.from_vectors(field, T.rows, vecs)
        cur = T.apply(cur)
    # cur = sum c_k T^k v; solve for the combination
    A = from_columns(field, vecs, T.rows)
    coeffs = solve(A, cur)
    mu = [-c for c in coeffs] + [field.one]
    return _pnormalize(mu)


def minimal_polynomial(phi: RepMorphism):
    """Monic minimal polynomial of phi acting on the total space."""
    field = phi.domain.field
    T = phi.total_matrix()
    n = T.rows
    if n == 0:
        return [field.one]
    mu = [field.one]
    for i in range(n):
        v = tuple(field.one if j == i else field.zero for j in range(n))
        mv = _vector_minpoly(field, T, v)
        g = _pgcd(field, mu, mv)
        q, r = _pdivmod(field, mv, g)
        assert not r
        mu = _pmul(field, mu, q)
        if _pdeg(mu) == n:
            break
    return _pmonic(field, mu)


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
    # rationals: monic p with Fraction coefficients; substitute x = y/d with d
    # the lcm of denominators, making a monic integer polynomial in y.
    d = 1
    for c in p:
        d = d * c.denominator // _gcd_int(d, c.denominator)
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
        roots.append(Fraction(0))
    const = ints[shift]
    for cand in _divisors(abs(const)):
        for s in (cand, -cand):
            x = Fraction(s, d)
            if not _peval_scalar(field, p, field.of(x)):
                if x not in roots:
                    roots.append(x)
    return roots


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


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
        expr = sum(int(c.val) * x ** k for k, c in enumerate(p))
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
            base = [field.of(Fraction(int(sympy.numer(c)), int(sympy.denom(c)))) for c in coeffs]
        base = _pmonic(field, base)
        if _pdeg(base) == 0:
            continue
        acc = [field.one]
        for _ in range(mult):
            acc = _pmul(field, acc, base)
        parts.append(acc)
    return parts


def _primary_parts(field, p):
    """Split p into >= 1 pairwise-coprime primary parts; cheap paths first."""
    p = _pmonic(field, p)
    if _pdeg(p) <= 1:
        return [p]
    roots = _integer_roots(field, p)
    if roots:
        parts = []
        rest = p
        for r in roots:
            lin = [-field.of(r), field.one]
            power = [field.one]
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


def _bezout_idempotent_poly(field, part, rest_parts):
    """Polynomial e with e = 1 mod part, e = 0 mod the product of the rest."""
    b = [field.one]
    for q in rest_parts:
        b = _pmul(field, b, q)
    g, u, v = _pgcdex(field, part, b)
    assert _pdeg(g) == 0 and g, "primary parts were not coprime"
    return _pmul(field, v, b)


# ---------------------------------------------------------------------------
# endomorphism algebra with radical and semisimple quotient


class EndAlgebra:
    """End(M) with its trace-form radical and semisimple quotient."""

    def __init__(self, M: Representation):
        self.M = M
        self.hom = M.quiver.workspace.hom(M, M)
        self.n = M.total_dim

    @property
    def dim(self) -> int:
        return self.hom.dim

    def identity_coords(self):
        return self.hom.coordinates(identity_morphism(self.M))

    def _trace_pair(self, a: RepMorphism, b: RepMorphism):
        field = self.M.field
        acc = field.zero
        for ma, mb in zip(a.comps, b.comps):
            for r in range(ma.rows):
                row = ma.entries[r]
                for c in range(ma.cols):
                    if row[c] and mb.entries[c][r]:
                        acc = acc + row[c] * mb.entries[c][r]
        return acc

    _radical = None

    @property
    def radical(self) -> Subspace:
        """rad End(M) in hom coordinates, via the trace bilinear form."""
        if self._radical is None:
            field = self.M.field
            if isinstance(field, PrimeField) and field.p <= self.n:
                raise FieldTooSmallError(
                    f"trace-form radical needs p > total dimension {self.n}; "
                    f"rerun with --field rat or a larger prime")
            k = self.dim
            rows = []
            for i in range(k):
                rows.append(tuple(self._trace_pair(self.hom.basis[i], self.hom.basis[j])
                                  for j in range(k)))
            gram = Mat(field, k, k, tuple(rows))
            self._radical = kernel_basis(gram)
        return self._radical

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.radical.dim

    @property
    def is_local(self) -> bool:
        return self.quotient_dim == 1

    # -- semisimple quotient B = End/rad in complement coordinates -----------

    _qcache = None

    def _quotient(self):
        if self._qcache is None:
            proj = self.radical.complement_projection()
            sect = self.radical.complement_section()
            self._qcache = (proj, sect)
        return self._qcache

    def q_project(self, coords):
        proj, _ = self._quotient()
        return proj.apply(tuple(coords))

    def q_lift(self, qcoords) -> RepMorphism:
        _, sect = self._quotient()
        return self.hom.from_coordinates(sect.apply(tuple(qcoords)))

    def q_mul(self, a, b):
        fa, fb = self.q_lift(a), self.q_lift(b)
        return self.q_project(self.hom.coordinates(fa @ fb))

    def q_one(self):
        return self.q_project(self.identity_coords())

    def in_radical(self, f: RepMorphism) -> bool:
        return self.radical.contains_vector(self.hom.coordinates(f))


def end_algebra(M: Representation) -> EndAlgebra:
    ws = M.quiver.workspace
    return ws.memo(ws.ends, M, lambda: EndAlgebra(M))


# ---------------------------------------------------------------------------
# splitting


def _newton_lift_idempotent(E: EndAlgebra, e: RepMorphism) -> RepMorphism:
    """Lift an idempotent-mod-radical to an exact idempotent endomorphism."""
    for _ in range(64):
        e2 = e @ e
        if e2 == e:
            return e
        e = (e2.scale(E.M.field.of(3))) - ((e2 @ e).scale(E.M.field.of(2)))
    raise AssertionError("idempotent lifting did not converge")


def split_by_idempotent(M: Representation, e: RepMorphism):
    """M = ker(e) + im(e) for an exact idempotent e; returns both pieces with
    inclusion and projection morphisms."""
    one = identity_morphism(M)
    K, inclK = kernel(e)
    I, inclI, _ = image(e)
    assert K.total_dim + I.total_dim == M.total_dim
    field = M.field
    # projection onto ker(e) corestricts 1 - e; onto im(e) corestricts e
    comp = one - e
    projK_comps = []
    projI_comps = []
    for i in range(M.quiver.n_vertices):
        ker_cols = Subspace.from_vectors(field, M.dims[i],
                                         [inclK.comps[i].col(j) for j in range(K.dims[i])])
        im_cols = Subspace.from_vectors(field, M.dims[i],
                                        [inclI.comps[i].col(j) for j in range(I.dims[i])])
        pk = [ker_cols.coordinates(comp.comps[i].col(j)) for j in range(M.dims[i])]
        pi = [im_cols.coordinates(e.comps[i].col(j)) for j in range(M.dims[i])]
        projK_comps.append(from_columns(field, pk, K.dims[i]))
        projI_comps.append(from_columns(field, pi, I.dims[i]))
    projK = RepMorphism(M, K, tuple(projK_comps))
    projI = RepMorphism(M, I, tuple(projI_comps))
    assert (projK @ inclK) == identity_morphism(K)
    assert (projI @ inclI) == identity_morphism(I)
    return (K, inclK, projK), (I, inclI, projI)


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
        if not any(coeffs):
            continue
        acc = None
        for c, b in zip(coeffs, basis):
            if c:
                t = b.scale(E.M.field.of(c))
                acc = t if acc is None else acc + t
        yield acc


def _idempotent_from_candidate(E: EndAlgebra, phi: RepMorphism) -> RepMorphism | None:
    field = E.M.field
    mu = minimal_polynomial(phi)
    parts = _primary_parts(field, mu)
    if len(parts) < 2:
        return None
    epoly = _bezout_idempotent_poly(field, parts[0], parts[1:])
    _, epoly = _pdivmod(field, epoly, mu)
    e = _peval_endo(epoly, phi)
    assert (e @ e) == e
    if e.is_zero() or e == identity_morphism(E.M):
        return None
    return e


def _central_phase(E: EndAlgebra):
    """Split through the center of End/rad.

    Returns ("split", idempotent), ("indecomposable", None) when the quotient
    is certified to be a field, or ("none", None) when the center gives no
    information (isotypic matrix block)."""
    field = E.M.field
    qdim = E.quotient_dim
    eye = Mat.identity(field, qdim)
    qbasis = [tuple(eye.entries[i]) for i in range(qdim)]
    # center: z with z b = b z for every quotient basis element
    rows = []
    for b in qbasis:
        cols = []
        for zb in qbasis:
            diff = tuple(x - y for x, y in zip(E.q_mul(zb, b), E.q_mul(b, zb)))
            cols.append(diff)
        m = from_columns(field, cols, qdim)
        rows.extend(m.entries)
    Z = kernel_basis(Mat(field, len(rows), qdim, tuple(rows))) if rows else Subspace.full(field, qdim)
    if Z.dim == 1:
        return ("none", None)

    def z_minpoly(zc):
        # Krylov from the quotient identity: powers of z inside Z's span
        one = E.q_one()
        vecs = []
        space = Subspace.zero(field, qdim)
        cur = tuple(one)
        while not space.contains_vector(cur):
            vecs.append(cur)
            space = Subspace.from_vectors(field, qdim, vecs)
            cur = E.q_mul(cur, zc)
        coeffs = solve(from_columns(field, vecs, qdim), cur)
        return _pnormalize([-c for c in coeffs] + [field.one])

    # primitive element search: basis elements, then small deterministic combos
    cands = list(Z.basis)
    state = 7
    for _ in range(64):
        coeffs = []
        for _ in range(Z.dim):
            state = (state * 1103515245 + 12345) % (1 << 31)
            coeffs.append(state % 7)
        if any(coeffs):
            v = [field.zero] * qdim
            for c, b in zip(coeffs, Z.basis):
                if c:
                    v = [x + field.of(c) * y for x, y in zip(v, b)]
            cands.append(tuple(v))
    primitive = None
    best = None
    for zc in cands:
        mu = z_minpoly(zc)
        if best is None or _pdeg(mu) > _pdeg(best[1]):
            best = (zc, mu)
        if _pdeg(mu) == Z.dim:
            primitive = (zc, mu)
            break
    if primitive is None:
        # even a non-primitive element with a split polynomial still splits
        primitive = best
    zc, mu = primitive
    parts = _primary_parts(field, mu)
    if len(parts) >= 2:
        epoly = _bezout_idempotent_poly(field, parts[0], parts[1:])
        _, epoly = _pdivmod(field, epoly, mu)
        # evaluate at z inside the quotient algebra
        acc = [field.zero] * E.quotient_dim
        one = E.q_one()
        for c in reversed(epoly):
            acc = E.q_mul(acc, zc)
            if c:
                acc = tuple(x + c * y for x, y in zip(acc, one))
        ebar = tuple(acc)
        e = _newton_lift_idempotent(E, E.q_lift(ebar))
        if e.is_zero() or e == identity_morphism(E.M):
            return ("none", None)
        return ("split", e)
    if _pdeg(mu) == Z.dim == E.quotient_dim:
        # the quotient itself is k[z]/(mu) with mu irreducible: End(M) local.
        # mu is squarefree because the quotient is semisimple; check it.
        g = _pgcd(field, mu, _pderiv(field, mu))
        assert _pdeg(g) == 0, "semisimple quotient produced a non-squarefree minimal polynomial"
        return ("indecomposable", None)
    return ("none", None)


def _stabilizer_phase(E: EndAlgebra):
    """Split an isotypic block through a vector-stabilizer left ideal."""
    field = E.M.field
    n = E.n
    qdim = E.quotient_dim
    # evaluation of endomorphisms on total-space vectors
    basis_total = [b.total_matrix() for b in E.hom.basis]
    pool = []
    for i in range(n):
        pool.append(tuple(field.one if j == i else field.zero for j in range(n)))
    for i in range(n - 1):
        pool.append(tuple(field.one if j in (i, i + 1) else field.zero for j in range(n)))
    for v in pool:
        cols = [bt.apply(v) for bt in basis_total]
        stab = kernel_basis(from_columns(field, cols, n))
        if stab.dim == 0:
            continue
        images = [E.q_project(w) for w in stab.basis]
        L = Subspace.from_vectors(field, qdim, images)
        if L.dim == 0 or L.dim == qdim:
            continue
        # right identity of the left ideal: x e = x for all basis x of L
        rows = []
        rhs = []
        for x in L.basis:
            cols2 = [E.q_mul(x, lb) for lb in L.basis]
            m = from_columns(field, cols2, qdim)
            rows.extend(m.entries)
            rhs.extend(x)
        sol = solve(Mat(field, len(rows), L.dim, tuple(rows)), tuple(rhs))
        if sol is None:
            continue
        ebar = [field.zero] * qdim
        for c, lb in zip(sol, L.basis):
            if c:
                ebar = [x + c * y for x, y in zip(ebar, lb)]
        if not any(ebar):
            continue
        e = _newton_lift_idempotent(E, E.q_lift(tuple(ebar)))
        if e.is_zero() or e == identity_morphism(E.M):
            continue
        return e
    return None


def _split_once(M: Representation) -> RepMorphism | None:
    """A nontrivial idempotent endomorphism of M, or None when M is certified
    indecomposable."""
    E = end_algebra(M)
    if E.dim == 1:
        return None
    for phi in _candidate_endos(E):
        e = _idempotent_from_candidate(E, phi)
        if e is not None:
            return e
    if E.is_local:
        return None
    verdict, e = _central_phase(E)
    if verdict == "split":
        return e
    if verdict == "indecomposable":
        return None
    e = _stabilizer_phase(E)
    if e is not None:
        return e
    if isinstance(M.field, PrimeField):
        raise FieldTooSmallError(
            "splitting search exhausted over F_p; rerun with --field rat")
    raise DecompositionInconclusiveError(
        "cannot split or certify: End/rad appears to be a noncommutative "
        f"division algebra of dimension {E.quotient_dim}")


@dataclass(frozen=True)
class DecompositionResult:
    """Complete decomposition into indecomposables.

    pieces lists one (summand, inclusion, projection) triple per copy in a
    deterministic order; summands groups them into iso-classes with
    multiplicities; idempotent witnesses are inclusion . projection and are
    mutually orthogonal with sum the identity."""

    rep: Representation
    pieces: tuple
    summands: tuple

    @property
    def idempotents(self):
        return tuple(incl @ proj for _, incl, proj in self.pieces)

    def is_indecomposable(self) -> bool:
        return len(self.pieces) == 1


def _pieces_of(M: Representation):
    if M.total_dim == 0:
        return []
    known = M.quiver.workspace.decompositions.get(M)
    if known is not None:
        return list(known.pieces)
    e = _split_once(M)
    if e is None:
        one = identity_morphism(M)
        M.quiver.workspace.decompositions[M] = DecompositionResult(M, ((M, one, one),), ((M, 1),))
        return [(M, one, one)]
    (K, iK, pK), (I, iI, pI) = split_by_idempotent(M, e)
    out = []
    for sub, isub, psub in ((K, iK, pK), (I, iI, pI)):
        for leaf, i2, p2 in _pieces_of(sub):
            out.append((leaf, isub @ i2, p2 @ psub))
    return out


def decompose(M: Representation) -> DecompositionResult:
    cached = M.quiver.workspace.decompositions.get(M)
    if cached is not None:
        return cached
    pieces = tuple(_pieces_of(M))
    groups: list[list] = []
    for leaf, _, _ in pieces:
        for g in groups:
            if indec_iso_witness(g[0], leaf) is not None:
                g.append(leaf)
                break
        else:
            groups.append([leaf])
    summands = tuple((g[0], len(g)) for g in groups)
    result = M.quiver.workspace.decompositions[M] = DecompositionResult(M, pieces, summands)
    return result


def is_indecomposable(M: Representation) -> bool:
    if M.total_dim == 0:
        return False
    return decompose(M).is_indecomposable()


# ---------------------------------------------------------------------------
# isomorphism testing


def indec_iso_witness(A: Representation, B: Representation) -> RepMorphism | None:
    """Iso A -> B for indecomposables: some composite Hom(B,A) . Hom(A,B)
    basis product avoids rad End(A) iff the two are isomorphic, and the
    Hom(A,B) factor is then itself invertible because End(A) is local."""
    if A.dims != B.dims:
        return None
    if A == B:
        return identity_morphism(A)
    ws = A.quiver.workspace
    key = (A, B)
    if key in ws.isos:
        return ws.isos[key]
    hab = ws.hom(A, B)
    witness = None
    if hab.dim:
        hba = ws.hom(B, A)
        EA = end_algebra(A)
        done = False
        for b in hab.basis:
            for c in hba.basis:
                if not EA.in_radical(c @ b):
                    assert b.is_iso()
                    witness = b
                    done = True
                    break
            if done:
                break
    ws.isos[key] = witness
    return witness


def iso_witness(M: Representation, N: Representation) -> RepMorphism | None:
    """An isomorphism M -> N, or None.  Decomposes both sides and matches
    indecomposable pieces."""
    if M.dims != N.dims:
        return None
    if M == N:
        return identity_morphism(M)
    if M.total_dim == 0:
        return RepMorphism(M, N, tuple(Mat.zero(M.field, 0, 0) for _ in M.dims))
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
    assert total is not None and total.is_iso()
    return total


def is_isomorphic(M: Representation, N: Representation) -> bool:
    return iso_witness(M, N) is not None


# ---------------------------------------------------------------------------
# right minimal versions and the intrinsic kernel


@dataclass(frozen=True)
class RightMinimalResult:
    minimal: RepMorphism        # f1 : X1 -> Y
    split_off: Representation   # X2 with X = X1 + X2 and f zero on X2
    inclusion: RepMorphism      # X1 -> X with f . inclusion = f1

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


def right_minimal_version(f: RepMorphism) -> RightMinimalResult:
    """Split X = X1 + X2 with f = (f1, 0) and f1 right minimal.

    Iteratively removes image parts of stable powers of solutions h of
    f h = 0 that escape the radical; on exit the solution space lies inside
    rad End(X1), which certifies right minimality."""
    X = f.domain
    field = X.field
    cur_f = f
    cur_incl = identity_morphism(X)
    split_parts: list[Representation] = []
    while cur_f.domain.total_dim > 0:
        E = end_algebra(cur_f.domain)
        hXY = hom_basis(cur_f.domain, cur_f.codomain)
        C = postcompose_matrix(E.hom, hXY, cur_f)
        H0 = kernel_basis(C)
        bad = None
        for vec in H0.basis:
            if not E.radical.contains_vector(vec):
                bad = E.hom.from_coordinates(vec)
                break
        if bad is None:
            break
        t = bad
        power = _nilpotency_power(t)
        if power.is_zero():
            # h escaped the radical but is nilpotent: multiply into a
            # non-nilpotent member of the same right ideal, found through a
            # left-identity idempotent of its image ideal in End/rad
            hbar = E.q_project(E.hom.coordinates(bad))
            qdim = E.quotient_dim
            ideal_vecs = []
            eye = Mat.identity(field, qdim)
            for i in range(qdim):
                ideal_vecs.append(E.q_mul(hbar, tuple(eye.entries[i])))
            R = Subspace.from_vectors(field, qdim, ideal_vecs)
            rows = []
            rhs = []
            for x in R.basis:
                cols = [E.q_mul(tuple(lb), x) for lb in R.basis]
                m = from_columns(field, cols, qdim)
                rows.extend(m.entries)
                rhs.extend(x)
            sol = solve(Mat(field, len(rows), R.dim, tuple(rows)), tuple(rhs))
            assert sol is not None, "semisimple quotient must contain the ideal identity"
            ebar = [field.zero] * qdim
            for c, lb in zip(sol, R.basis):
                if c:
                    ebar = [a + c * b for a, b in zip(ebar, lb)]
            # ebar = hbar * sbar: solve for sbar and lift
            cols = [E.q_mul(hbar, tuple(eye.entries[i])) for i in range(qdim)]
            sbar = solve(from_columns(field, cols, qdim), tuple(ebar))
            assert sbar is not None
            s = E.q_lift(tuple(sbar))
            t = bad @ s
            power = _nilpotency_power(t)
            assert not power.is_zero()
        K, inclK = kernel(power)
        I, inclI, _ = image(power)
        assert K.total_dim + I.total_dim == cur_f.domain.total_dim
        assert (cur_f @ inclI).is_zero()
        assert I.total_dim > 0
        split_parts.append(I)
        cur_f = cur_f @ inclK
        cur_incl = cur_incl @ inclK
    if split_parts:
        X2, _, _ = direct_sum(split_parts)
    else:
        X2 = zero_representation(X.quiver, field)
    return RightMinimalResult(cur_f, X2, cur_incl)


def intrinsic_kernel(f: RepMorphism) -> Representation:
    """Kernel of the right minimal version of f."""
    return kernel(right_minimal_version(f).minimal)[0]


# ---------------------------------------------------------------------------
# radical hom spaces


def rad_hom_basis(U: Representation, Z: Representation) -> Subspace:
    """rad(U, Z) as a subspace of Hom(U, Z) in canonical hom coordinates.

    For non-isomorphic indecomposables this is all of Hom(U, Z); for U = Z it
    is the radical of the local endomorphism algebra, transported along an
    isomorphism when U and Z are merely isomorphic."""
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
