"""Minimal right determiners and the functorial verification oracle.

The formula side computes the right minimal version, translates each
indecomposable summand of the intrinsic kernel forward with TrD, and adds the
projective cover of every simple in the socle of the cokernel.  Members are
registry entries: knit stores TrD of each non-injective entry as its
tau-minus link and registers P_x first, so the formula reads both off the
registry.  TrD runs only for a summand without a tau-minus link (one off the
registry, or an entry at its cap), and labels and JSON are as if every member
were translated afresh.

The oracle side never trusts that computation.  For a test object Z the
subspace F_Z of maps Z -> Y factoring through f is the image of
postcomposition with f on Hom(Z, X).  When Z has a projective presentation
(every registry object does) dim F_Z is a rank read off the generator
solutions of Hom(Z, X) and Hom(Z, Y) (reps.Workspace.factoring_rank), and
F_Z is written out only when read; any other Z takes the column space of
the composition matrix.  The determined
subspace of V comes from one constraint builder: a map g: V -> Y must send
every map h: S -> V out of a source S, precomposed, into F_S, which gives the
rows "precompose with h, then project off F_S" for h in a basis of
Hom(S, V), and the maps g meeting all rows form a kernel.  Its sources are
the members.  The almost-factoring subspace of Z asks this only of the
radical maps into Z, but every registry object is preprojective, hence a
brick (End = k): rad(S, Z) is Hom(S, Z) unless S is isomorphic to Z, and 0
then.  So it is the determined subspace of Z with every registry object but
Z's own as the sources, and the oracle needs no trace form.  Every radical
map into Z factors through Z's sink map, whose domain holds Z's direct
predecessors in the AR quiver (Auslander-Reiten-Smalo ch. V.1), so they
alone give the same subspace.  A registered Z whose predecessors are all
registered (IndecRegistry.predecessors, read off the orbit coordinates)
takes them as its sources; any other Z takes every entry but its own.  One
scan for the first V whose determined subspace exceeds F_V decides
determination and each member-removal check; the scans share F_V and the
constraint rows, which the workspace keeps per request morphism.  A V that
no member constrains (each member S has Hom(S, Y) = 0, Hom(S, V) = 0 or
F_S = Hom(S, Y)) has all of Hom(V, Y) as its determined subspace, so it has
a gap exactly when dim F_V < dim Hom(V, Y), one rank with no canonical form
and no composite written out.  On a
complete registry (Dynkin quivers) the verdict is a certificate; otherwise
it is a bounded search and reports say so.  A registry the caller does not
pass is knitted once per quiver object, field and cap, in the workspace's
registries.

Every Hom space comes from reps.Workspace.hom, which on Dynkin type skips
or checks Hom between known indecomposables by the Euler form.  That rests
on a theorem about directed indecomposables, not on the determiner formula,
so the oracle stays independent of what it checks.  An object V with
Hom(V, Y) = 0 adds nothing: F_V and W_V are both 0, and a source S with
Hom(S, Y) = 0 gives no constraint rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .decompose import decompose, is_indecomposable, right_minimal_version
from .errors import NotIndecomposableError, SemanticError, invariant
from .linalg import Subspace, column_space, int_rows, kernel_of_rows, solve
from .reps import (
    HomSpace,
    RepMorphism,
    Representation,
    composite_columns,
    dual_morphism,
    dual_representation,
    kernel,
    postcompose_matrix,
    quotient_representation,
)
from .structure import socle_multiplicities
from .translate import IndecRegistry, knit, trd


@dataclass(frozen=True)
class DeterminerMember:
    label: str
    rep: Representation
    provenance: str

    @property
    def dim_vector(self) -> tuple[int, ...]:
        return self.rep.dims


@dataclass(frozen=True)
class OracleVerdict:
    checked_objects: int
    determination_ok: bool
    determination_witness: str | None
    member_almost_factors: tuple[tuple[str, bool], ...]
    removal_breaks: tuple[tuple[str, str | None], ...]
    complete: bool

    @property
    def certified(self) -> bool:
        return self.complete and self.passed()

    def passed(self) -> bool:
        """Exit-code relevant verdict: no counterexample found.  A
        determination witness and a member that does not almost factor are
        counterexamples at any cap, since more registry objects only add
        constraints; a member whose removal breaks nothing is one only on a
        complete registry, since otherwise its witness may lie beyond the cap."""
        return (self.determination_ok and all(ok for _, ok in self.member_almost_factors)
                and (not self.complete or all(w is not None for _, w in self.removal_breaks)))

    def to_json_dict(self) -> dict:
        return {
            "checked_objects": self.checked_objects,
            "determination_ok": self.determination_ok,
            "determination_witness": self.determination_witness,
            "member_almost_factors": [[l, ok] for l, ok in self.member_almost_factors],
            "removal_breaks": [[l, w] for l, w in self.removal_breaks],
            "complete": self.complete,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class DeterminerReport:
    morphism_name: str
    field_name: str
    side: str                         # "right" or "left"
    domain_dims: tuple[int, ...]
    minimal_domain_dims: tuple[int, ...]
    split_off_dims: tuple[int, ...]
    split_epimorphism: bool
    intrinsic_kernel_labels: tuple[str, ...]
    soc_coker: tuple[tuple[str, int], ...]
    members: tuple[DeterminerMember, ...]
    registry_complete: bool
    registry_size: int
    oracle: OracleVerdict | None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.members)

    def to_json_dict(self) -> dict:
        out = {
            "morphism": self.morphism_name,
            "field": self.field_name,
            "side": self.side,
            "right_minimal": {
                "domain_dims": list(self.domain_dims),
                "minimal_domain_dims": list(self.minimal_domain_dims),
                "split_off_dims": list(self.split_off_dims),
                "already_minimal": not any(self.split_off_dims),
                "split_epimorphism": self.split_epimorphism,
            },
            "trivial": self.split_epimorphism,
            "intrinsic_kernel": list(self.intrinsic_kernel_labels),
            "soc_coker": [{"vertex": v, "multiplicity": m} for v, m in self.soc_coker],
            "determiner": [
                {"label": m.label, "dim_vector": list(m.dim_vector), "provenance": m.provenance}
                for m in self.members
            ],
            "registry": {
                "complete": self.registry_complete,
                "size": self.registry_size,
            },
            "oracle": self.oracle.to_json_dict() if self.oracle else None,
        }
        if not self.registry_complete:
            out["registry"]["note"] = (
                "registry truncated: determination and almost-factorization "
                "quantify over the registered indecomposables only, so verdicts "
                "are bounded searches, not certificates")
        return out


class DeterminerEngine:
    """The formula and the oracle over one registry.

    The engine keeps no table: Hom spaces, factoring subspaces and
    constraint rows live in the quiver's workspace.  ``report``, ``verify``
    and the oracle calls (``almost_factors``, ``almost_factor_subspace``,
    ``determined_subspace``, ``factors_through``) each open a request scope
    there, so what they write is kept for the quiver's life only when it is
    keyed by registry entries and canonical objects alone
    (reps.Workspace.request)."""

    def __init__(self, registry: IndecRegistry):
        self.registry = registry
        self.quiver = registry.quiver
        self.field = registry.field
        self.workspace = registry.quiver.workspace

    def hom(self, M: Representation, N: Representation) -> HomSpace:
        """Hom(M, N) from the workspace, which produces every Hom space."""
        return self.workspace.hom(M, N)

    # -- factorization tests -------------------------------------------------

    @staticmethod
    def factors_through(g: RepMorphism, f: RepMorphism) -> RepMorphism | None:
        """h with f . h = g, or None.  Needs no registry."""
        if g.codomain != f.codomain:
            raise SemanticError("morphisms do not share a codomain")
        ws = f.domain.quiver.workspace
        with ws.request():
            htx = ws.hom(g.domain, f.domain)
            hty = ws.hom(g.domain, f.codomain)
            C = postcompose_matrix(htx, hty, f)
            x = solve(C, hty.coordinates(g))
        if x is None:
            return None
        h = htx.from_coordinates(x)
        invariant((f @ h) == g, "solved factorization does not compose to the target")
        return h

    def _constraint_rows(self, f: RepMorphism, target: Representation,
                         source: Representation) -> list[dict]:
        """Integer rows (see int_rows) on Hom(target, Y) forcing g . h into
        the factoring subspace of source for every h in a basis of
        Hom(source, target)."""
        fs = self.workspace.factoring_subspace(f, source)
        hsy = self.hom(source, f.codomain)
        hty = self.hom(target, f.codomain)
        hst = self.hom(source, target)
        rows: list = []
        for h in hst.flat_basis:
            # g . h in Hom(source, Y) coordinates, reduced modulo fs
            block = defaultdict(list)
            for j, (_, res) in enumerate(fs.residuals(
                    map(fs.sparse, composite_columns(hty, hsy, h, hst._offsets, after=False)))):
                for slot, v in res.items():
                    if v:
                        block[slot].append((j, v))
            rows.extend(int_rows(self.field, block.values()))
        return rows

    def almost_factor_subspace(self, f: RepMorphism, Z: Representation) -> Subspace:
        """Maps Z -> Y all of whose radical precomposites factor through f.

        Every radical map into Z factors through its sink map, so the
        sources are Z's AR predecessors when the registry holds them all,
        else (Z unregistered, a predecessor past the cap, Z's entry without
        an orbit coordinate) every entry but Z's own, a brick (module
        docstring).  Contains the factoring subspace; Z almost factors
        through f exactly when the containment is strict."""
        entries = self.registry.entries
        with self.workspace.request():
            own = self.registry.find_iso(Z)
            preds = None
            if own is not None:
                invariant(self.hom(Z, Z).dim == 1, "a registry entry is not a brick")
                preds = self.registry.predecessors[own]
            elif not is_indecomposable(Z):
                raise NotIndecomposableError("almost factoring needs an indecomposable object")
            if preds is None:
                sources = [e.rep for e in entries if e.index != own]
            else:
                sources = [entries[i].rep for i in preds]
            R = self.determined_subspace(f, sources, Z)
            invariant(R.contains(self.workspace.factoring_subspace(f, Z)),
                      "almost-factoring subspace misses the factoring subspace")
        return R

    def almost_factors(self, f: RepMorphism, Z: Representation) -> bool:
        with self.workspace.request():
            return self.almost_factor_subspace(f, Z).dim > self.workspace.factoring_subspace(f, Z).dim

    # -- the determination oracle -------------------------------------------

    def _constrains(self, f: RepMorphism, S: Representation) -> bool:
        """Whether F_S is a proper subspace of Hom(S, Y) != 0, as a source."""
        dim = self.hom(S, f.codomain).dim
        return dim > 0 and self.workspace.factoring_rank(f, S) < dim

    def determined_subspace(self, f: RepMorphism, sources, V: Representation) -> Subspace:
        """Largest subspace of Hom(V, Y) whose composites with every map out
        of a source object factor through f.  A source S that constrains
        nothing (_constrains) or has Hom(S, V) = 0 gives no rows; the rows
        of every other source are kept per (f, V, S) in the workspace for
        the later scans of the same request."""
        ws = self.workspace
        rows: list = []
        with ws.request():
            for S in sources:
                if self._constrains(f, S) and self.hom(S, V).dim:
                    rows.extend(ws.memo(ws.constraints, (f, V, S), lambda: self._constraint_rows(f, V, S)))
            return kernel_of_rows(self.field, self.hom(V, f.codomain).dim, rows)

    def _gaps(self, f: RepMorphism, members):
        """(entry, gap) for each registry entry in order, where gap says
        whether the determined subspace of V = entry.rep exceeds its
        factoring subspace.  A V with Hom(V, Y) = 0 has both subspaces 0.  A
        V that no active member (_constrains) maps into has all of Hom(V, Y)
        as its determined subspace, so its gap is dim F_V < dim Hom(V, Y), a
        rank; every other V has both subspaces written out, the determined
        one from the active members."""
        ws, Y = self.workspace, f.codomain
        active = [S for S in members if self._constrains(f, S)]
        for entry in self.registry.entries:
            V = entry.rep
            dim = self.hom(V, Y).dim
            if not dim:
                yield entry, False
            elif any(self.hom(S, V).dim for S in active):
                fv = ws.factoring_subspace(f, V)
                wv = self.determined_subspace(f, active, V)
                invariant(wv.contains(fv), "determined subspace misses the factoring subspace")
                yield entry, wv.dim != fv.dim
            else:
                yield entry, ws.factoring_rank(f, V) != dim

    def _first_gap(self, f: RepMorphism, members) -> str | None:
        """Label of the first registry object with a gap (_gaps), or None if
        every one collapses."""
        return next((entry.label for entry, gap in self._gaps(f, members) if gap), None)

    def verify(self, f: RepMorphism, members) -> OracleVerdict:
        """Run the full oracle for the candidate member list.

        (a) determination: for every registry object V the determined
        subspace must collapse onto the factoring subspace of V;
        (b) minimality, first half: every member almost factors through f;
        (c) minimality, second half: dropping any single member re-opens the
        determined subspace at some witness object."""
        member_reps = [m.rep if isinstance(m, DeterminerMember) else m for m in members]
        with self.workspace.request():
            labels = [m.label if isinstance(m, DeterminerMember) else self.registry.label_of(m)
                      for m in members]
            witness = self._first_gap(f, member_reps)
            member_aft = tuple((lbl, self.almost_factors(f, Z))
                               for lbl, Z in zip(labels, member_reps))
            removal = tuple((labels[i], self._first_gap(f, member_reps[:i] + member_reps[i + 1:]))
                            for i in range(len(member_reps)))
        return OracleVerdict(
            checked_objects=len(self.registry.entries),
            determination_ok=witness is None,
            determination_witness=witness,
            member_almost_factors=member_aft,
            removal_breaks=removal,
            complete=self.registry.complete,
        )

    # -- the formula ----------------------------------------------------------

    def formula_members(self, f: RepMorphism):
        """Right minimal version, intrinsic kernel summands, socle of the
        cokernel, and the assembled determiner member list, sorted by
        (dimension vector, registry index) with unregistered members last.
        TrD is injective on the non-injective indecomposables and never gives
        a projective, so the members are pairwise non-isomorphic."""
        rm = right_minimal_version(f)
        f1 = rm.minimal
        K, _ = kernel(f1)
        entries = self.registry.entries
        keyed: list[tuple[int, DeterminerMember]] = []
        kernel_labels = []
        for leaf, _ in decompose(K).summands:
            e = self.registry.find_or_none(leaf)
            leaf_label = self.registry.label_of(leaf) if e is None else e.label
            kernel_labels.append(leaf_label)
            provenance = f"from-tau-minus({leaf_label})"
            if e is not None and e.tau_minus is not None:
                t = entries[e.tau_minus]
                keyed.append((t.index, DeterminerMember(t.label, t.rep, provenance)))
            else:
                # the intrinsic kernel of a right minimal map has no injective
                # summand; TrD would reject one loudly
                t = trd(leaf)
                keyed.append((len(entries), DeterminerMember(
                    self.registry.label_of(t), t, provenance)))
        C = quotient_representation(f1.codomain, [column_space(c) for c in f1.comps])
        soc = socle_multiplicities(C)
        soc_pairs = tuple((x, m) for x, m in zip(self.quiver.vertices, soc) if m)
        for x, _m in soc_pairs:
            # knit registers P_x first, in vertex order
            P = entries[self.quiver.vertex_index[x]]
            keyed.append((P.index, DeterminerMember(
                P.label, P.rep, f"from-projective-cover(S_{x})")))
        keyed.sort(key=lambda im: (im[1].rep.dims, im[0]))
        return rm, tuple(kernel_labels), soc_pairs, tuple(m for _, m in keyed)

    def report(self, f: RepMorphism, morphism_name: str = "f",
               verify: bool = False, override=None) -> DeterminerReport:
        with self.workspace.request():
            rm, kernel_labels, soc_pairs, members = self.formula_members(f)
            if override is not None:
                members = tuple(override)
            verdict = self.verify(rm.minimal, members) if verify else None
        return DeterminerReport(
            morphism_name=morphism_name,
            field_name=self.field.name,
            side="right",
            domain_dims=f.domain.dims,
            minimal_domain_dims=rm.minimal.domain.dims,
            split_off_dims=rm.split_off.dims,
            split_epimorphism=rm.minimal.is_iso(),
            intrinsic_kernel_labels=kernel_labels,
            soc_coker=soc_pairs,
            members=members,
            registry_complete=self.registry.complete,
            registry_size=len(self.registry.entries),
            oracle=verdict,
        )


def _knitted(q, field, cap: int) -> IndecRegistry:
    """The registry knitted over q with the given cap, once per workspace."""
    ws = q.workspace
    return ws.memo(ws.registries, (field, cap), lambda: knit(q, field, cap))


def minimal_right_determiner(f: RepMorphism, registry: IndecRegistry | None = None,
                             verify: bool = False, cap: int = 5000,
                             morphism_name: str = "f") -> DeterminerReport:
    """Compute (and optionally verify) the minimal right determiner of f."""
    if registry is None:
        registry = _knitted(f.domain.quiver, f.domain.field, cap)
    return DeterminerEngine(registry).report(f, morphism_name=morphism_name, verify=verify)


def _record_duals(M: Representation, DM: Representation) -> None:
    """Record on the opposite quiver's workspace what D = DM keeps of M's
    records: D of a recorded sum is the sum of its summands' duals at the
    same starts, and D of a recorded indecomposable is indecomposable, D
    being a duality.  Called inside a request on that workspace, so the
    records go with it."""
    ws, ws_op = M.quiver.workspace, DM.quiver.workspace
    pairs = [(M, DM)]
    record = ws.sums.get(M)
    if record is not None:
        duals = tuple(map(dual_representation, record[0]))
        ws_op.summed(DM, duals, record[1])
        pairs = zip(record[0], duals)
    for S, DS in pairs:
        if S in ws.indecomposables:
            ws_op.indecomposable(DS)


def minimal_left_determiner(f: RepMorphism, registry: IndecRegistry | None = None,
                            verify: bool = False, cap: int = 5000,
                            morphism_name: str = "f") -> DeterminerReport:
    """Minimal left determiner via duality: the right determiner of the dual
    morphism over the opposite quiver, with its members carried back.  The
    opposite quiver is knitted at the cap of the given registry, else at
    cap.  The oracle's witnesses still name objects of the opposite quiver.
    One request scope on each quiver's workspace holds what the request
    writes there for the request only; the knitted registry stays.  The
    records that D carries over (_record_duals) are written there first, so
    the dual of a sum of registry entries takes the block route of
    right_minimal_version, and its Hom spaces are read off blocks."""
    q = f.domain.quiver
    field = f.domain.field
    if registry is not None:
        cap = registry.cap
    fop = dual_morphism(f)
    with q.workspace.request(), fop.domain.quiver.workspace.request():
        _record_duals(f.codomain, fop.domain)
        _record_duals(f.domain, fop.codomain)
        engine_op = DeterminerEngine(_knitted(fop.domain.quiver, field, cap))
        rep_op = engine_op.report(fop, morphism_name=morphism_name, verify=verify)
        if registry is None:
            registry = _knitted(q, field, cap)
        members = []
        for m in rep_op.members:
            back = dual_representation(m.rep)
            members.append(DeterminerMember(
                label=registry.label_of(back),
                rep=back,
                provenance=f"dual:{m.provenance}",
            ))
    relabel = {op.label: new.label for op, new in zip(rep_op.members, members)}
    oracle = rep_op.oracle
    if oracle is not None:
        oracle = replace(
            oracle,
            member_almost_factors=tuple((relabel.get(l, l), ok)
                                        for l, ok in oracle.member_almost_factors),
            removal_breaks=tuple((relabel.get(l, l), w) for l, w in oracle.removal_breaks),
        )
    return replace(rep_op, side="left", members=tuple(members), oracle=oracle,
                   registry_complete=rep_op.registry_complete and registry.complete)
