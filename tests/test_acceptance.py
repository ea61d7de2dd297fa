"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import quivdet as qd
from quivdet.cli import main as cli_main
from quivdet.decompose import (
    _nilpotency_power,
    end_algebra,
    indec_iso_witness,
)
from quivdet.determiner import DeterminerEngine
from quivdet.linalg import Mat, RATIONALS, Subspace, kernel_basis, rref, solve
from quivdet.reps import hom_basis, postcompose_matrix
from quivdet.structure import injective_block_sum

from conftest import corpus_morphisms

F = RATIONALS
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _corpus_reports(corpus_engines, verify: bool):
    """Deterministic corpus: (quiver name, engine, morphism, report) tuples."""
    rng = random.Random(20240614)
    out = []
    for name, engine in corpus_engines:
        for f in corpus_morphisms(engine, rng):
            out.append((name, engine, f, engine.report(f, verify=verify)))
    return out


def test_criterion_1_golden_paper_example(capsys):
    t0 = time.perf_counter()
    code = cli_main(["det", str(DATA_DIR / "a3.quiver"), str(DATA_DIR / "a3.reps"),
                     "f", "--verify", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert [m["label"] for m in doc["determiner"]] == ["S_2", "P_3"]
    assert sorted(m["provenance"] for m in doc["determiner"]) == \
        ["from-projective-cover(S_3)", "from-tau-minus(P_1)"]
    assert doc["oracle"]["complete"] is True
    assert doc["oracle"]["certified"] is True
    assert doc["oracle"]["determination_ok"] is True
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: golden A3 example certified in {elapsed:.3f}s")


def test_criterion_2_formula_oracle_equivalence(corpus_engines):
    t0 = time.perf_counter()
    reports = _corpus_reports(corpus_engines, verify=True)
    assert len(reports) >= 200
    failures = []
    for name, engine, f, rep in reports:
        o = rep.oracle
        if not o.determination_ok:
            failures.append((name, "determination", o.determination_witness))
        for label, ok in o.member_almost_factors:
            if not ok:
                failures.append((name, "almost-factor", label))
        for label, witness in o.removal_breaks:
            if witness is None:
                failures.append((name, "removal", label))
        if not o.complete:
            failures.append((name, "incomplete-registry", None))
    elapsed = time.perf_counter() - t0
    assert failures == []
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: {len(reports)} morphisms, formula == oracle, "
          f"0 failures in {elapsed:.1f}s")


def _transport(f, q2):
    q = f.domain.quiver

    def rep2(M):
        dims = tuple(M.dims[q.vertex_index[v]] for v in q2.vertices)
        return qd.Representation(q2, M.field, dims, M.action)

    comps = tuple(f.comps[q.vertex_index[v]] for v in q2.vertices)
    return qd.RepMorphism(rep2(f.domain), rep2(f.codomain), comps)


def _member_fingerprint(report, q):
    """Vertex-name-keyed dimension data plus provenance kind, per member."""
    out = []
    for m in report.members:
        dims_by_name = tuple(sorted((v, m.rep.dims[q.vertex_index[v]]) for v in q.vertices))
        kind = m.provenance.split("(")[0]
        out.append((dims_by_name, kind))
    return sorted(out)


def test_criterion_3_existence_and_order_independence(corpus_engines):
    rng = random.Random(20240614)
    count = 0
    for name, engine in corpus_engines:
        q = engine.quiver
        q2 = qd.Quiver(tuple(reversed(q.vertices)), q.arrows)
        engine2 = DeterminerEngine(qd.knit(q2))
        for f in corpus_morphisms(engine, rng):
            rep = engine.report(f)            # no error path: always a report
            rep2 = engine2.report(_transport(f, q2))
            assert _member_fingerprint(rep, q) == _member_fingerprint(rep2, q2), \
                (name, rep.labels, rep2.labels)
            count += 1
    print(f"\nPASS criterion 3: {count} morphisms, determiners stable under "
          f"vertex reordering")


def test_criterion_4_mono_epi_dichotomy(corpus_engines):
    checked = 0
    for name, engine in corpus_engines:
        reg = engine.registry
        rng = random.Random(20240614)
        for f in corpus_morphisms(engine, rng):
            rep = engine.report(f)
            if f.is_mono():
                for m in rep.members:
                    entry = reg.find_or_none(m.rep)
                    assert entry is not None and entry.is_projective, (name, m.label)
                checked += 1
            if f.is_epi():
                for m in rep.members:
                    entry = reg.find_or_none(m.rep)
                    assert entry is not None and not entry.is_projective, (name, m.label)
                checked += 1
    assert checked > 100
    print(f"\nPASS criterion 4: mono/epi dichotomy on {checked} one-sided morphisms")


def test_criterion_5_translate_round_trips(corpus_engines):
    pairs = 0
    for name, engine in corpus_engines:
        q = engine.quiver
        for e in engine.registry.entries:
            if not e.is_projective:
                assert qd.is_isomorphic(qd.trd(qd.dtr(e.rep)), e.rep), (name, e.label)
                pairs += 1
            if not e.is_injective:
                assert qd.is_isomorphic(qd.dtr(qd.trd(e.rep)), e.rep), (name, e.label)
                pairs += 1
        for x in q.vertices:
            bs = injective_block_sum(q, engine.field, (x,))
            _, pdom, _ = qd.inverse_nakayama_on_injmap(qd.identity_morphism(bs.rep), bs, bs)
            assert qd.is_isomorphic(pdom.rep, qd.projective_at(q, x, engine.field))
    print(f"\nPASS criterion 5: {pairs} translate round trips plus Nakayama "
          f"images verified")


def test_criterion_6_knitting_counts(corpus_engines):
    expected = {"A2": 3, "A3": 6, "A4": 10, "D4": 12}
    for name, engine in corpus_engines:
        reg = engine.registry
        want = expected[name[:2]]
        assert len(reg.entries) == want, name
        assert reg.complete, name
    print(f"\nPASS criterion 6: knitting counts 3/6/10/12 on "
          f"{len(corpus_engines)} quivers, all complete")


def test_criterion_7_krull_schmidt_multisets(corpus_engines):
    rng = random.Random(777)
    pool = [(name, engine) for name, engine in corpus_engines
            if name.startswith("A3") or name in ("A4000", "D4")]

    def random_summand_rep(engine):
        reg = engine.registry
        picks = [reg.entries[rng.randrange(len(reg.entries))].rep
                 for _ in range(rng.randrange(1, 4))]
        return qd.direct_sum(picks)[0]

    def random_matrix_rep(engine):
        q = engine.quiver
        dims = tuple(rng.randrange(0, 3) for _ in q.vertices)
        action = []
        for a in q.arrows:
            si, ti = q.vertex_index[a.source], q.vertex_index[a.target]
            action.append(Mat.from_rows(
                F, [[rng.randrange(-2, 3) for _ in range(dims[si])]
                    for _ in range(dims[ti])], ncols=dims[si]))
        return qd.Representation(q, F, dims, tuple(action))

    def count_in(dec, leaf):
        return sum(m for r, m in dec.summands if indec_iso_witness(r, leaf) is not None)

    pairs = 0
    while pairs < 100:
        name, engine = pool[pairs % len(pool)]
        if pairs % 5 == 4:
            A, B = random_matrix_rep(engine), random_matrix_rep(engine)
        else:
            A, B = random_summand_rep(engine), random_summand_rep(engine)
        dA, dB = qd.decompose(A), qd.decompose(B)
        AB = qd.direct_sum([A, B])[0]
        dAB = qd.decompose(AB)
        assert len(dAB.pieces) == len(dA.pieces) + len(dB.pieces)
        for leaf, _ in dAB.summands:
            assert count_in(dAB, leaf) == count_in(dA, leaf) + count_in(dB, leaf)
        for leaf, _ in dAB.summands:
            assert end_algebra(leaf).quotient_dim == 1
        pairs += 1
    print(f"\nPASS criterion 7: decompose respects direct sums on {pairs} "
          f"random pairs; all End/rad one-dimensional")


def test_criterion_8_exact_linalg_random_suite():
    rng = random.Random(20240819)
    t0 = time.perf_counter()
    for trial in range(1000):
        r = rng.randrange(0, 13)
        c = rng.randrange(0, 13)
        m = Mat.from_rows(
            F, [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)], ncols=c)
        red, pivots, rank = rref(m)
        assert rank + kernel_basis(m).dim == c
        assert rref(red)[0] == red
        # canonical subspaces: a scrambled spanning set gives the same value
        rows = [list(row) for row in red.entries[:rank]]
        if rank:
            scr = []
            for _ in range(rank + 1):
                coeffs = [rng.randrange(-2, 3) for _ in range(rank)]
                scr.append(tuple(
                    sum(Fraction(cc) * rr[j] for cc, rr in zip(coeffs, rows))
                    for j in range(c)))
            sub1 = Subspace.from_vectors(F, c, [tuple(row) for row in rows])
            sub2 = sub1.sum(Subspace.from_vectors(F, c, scr))
            assert sub2 == sub1
        x0 = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(c))
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None and m.apply(x) == b
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 8: 1000 random exact-linalg checks in {elapsed:.1f}s")


def test_criterion_9_right_minimality_certificates(corpus_engines):
    def certificate(f1) -> bool:
        # the solution space of f1.g = f1 is id + H0 with H0 = {h : f1.h = 0};
        # right minimality holds iff H0 sits inside rad End, in which case
        # every solution is a unit and the affine space carries no nontrivial
        # idempotent; Fitting splitting along H0 members must also come back
        # empty (all stable powers vanish)
        if f1.domain.total_dim == 0:
            return True
        E = end_algebra(f1.domain)
        hxy = hom_basis(f1.domain, f1.codomain)
        H0 = kernel_basis(postcompose_matrix(E.hom, hxy, f1))
        for vec in H0.basis:
            if not E.radical.contains_vector(vec):
                return False
            h = E.hom.from_coordinates(vec)
            if not _nilpotency_power(h).is_zero():
                return False
        return True

    count = 0
    for name, engine in corpus_engines:
        rng = random.Random(20240614)
        for f in corpus_morphisms(engine, rng):
            rm = qd.right_minimal_version(f)
            assert certificate(rm.minimal), name
            again = qd.right_minimal_version(rm.minimal)
            assert again.already_minimal
            assert again.minimal == rm.minimal
            count += 1
    print(f"\nPASS criterion 9: right-minimality certificates on {count} morphisms")
