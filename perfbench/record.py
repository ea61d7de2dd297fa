"""Write the benchmark's inputs and the references its runs are checked against.

Usage (from the repository root):
    python3 perfbench/record.py inputs   # inputs/*.quiver and inputs/*.reps
    python3 perfbench/record.py refs     # refs/*.json

Run ``refs`` only at a commit whose outputs are trusted: every later run must
reproduce these bytes.  The inputs fix the morphisms the cold workloads
certify:
  dynkin-e8          largest indecomposable of E8 (arms oriented towards the
                     branch vertex) into the first registry object after it
                     with nonzero Hom;
  dynkin-a15         P_15 -> I_2 on the linear A15 quiver with arrows i+1 -> i;
  kronecker-bounded  P_1 -> R, R the regular (1,1) representation with both
                     arrows 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import quivdet as qd  # noqa: E402
from quivdet.determiner import DeterminerEngine  # noqa: E402

import workloads as wl  # noqa: E402


def _quiver_text(vertices, arrows) -> str:
    return "".join(f"vertex {v}\n" for v in vertices) + "".join(
        f"arrow {name} {s} {t}\n" for name, s, t in arrows)


def _entries(m) -> str:
    return f"{m.rows}x{m.cols} " + " ".join(str(x) for row in m.entries for x in row)


def _rep_block(name: str, M) -> str:
    q = M.quiver
    lines = [f"rep {name}"]
    lines += [f"dim {v} {d}" for v, d in zip(q.vertices, M.dims) if d]
    lines += [f"map {a.name} {_entries(m)}" for a, m in zip(q.arrows, M.action)
              if m.rows and m.cols and not m.is_zero()]
    return "\n".join(lines) + "\n"


def _morphism_block(dom: str, cod: str, f) -> str:
    q = f.domain.quiver
    lines = [f"morphism f {dom} {cod}"]
    lines += [f"comp {v} {_entries(m)}" for v, m in zip(q.vertices, f.comps)
              if m.rows and m.cols and not m.is_zero()]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def record_inputs() -> None:
    os.makedirs(wl.INPUTS, exist_ok=True)

    # E8: vertex 1 is the branch vertex; arms 2 / 3-4 / 5-6-7-8, every arrow
    # pointing towards vertex 1
    e8 = _quiver_text(range(1, 9), [("a", 2, 1), ("b", 3, 1), ("c", 4, 3), ("d", 5, 1),
                                    ("e", 6, 5), ("g", 7, 6), ("h", 8, 7)])
    q = qd.parse_quiver(e8)
    reg = qd.knit(q)
    big = max(reg.entries, key=lambda e: e.rep.total_dim)
    after = [e for e in reg.entries if e.index > big.index]
    target = next(e for e in after if qd.hom_basis(big.rep, e.rep).dim)
    f = qd.hom_basis(big.rep, target.rep).basis[0]
    _write(f"{wl.INPUTS}/e8.quiver", "# E8, arms oriented towards the branch vertex 1\n" + e8)
    _write(f"{wl.INPUTS}/e8.reps",
           f"# {big.label} -> {target.label}, first basis map of Hom\n"
           + _rep_block("M", big.rep) + "\n" + _rep_block("N", target.rep) + "\n"
           + _morphism_block("M", "N", f))

    a15 = _quiver_text(range(1, 16), [(f"e{i}", i + 1, i) for i in range(1, 15)])
    q = qd.parse_quiver(a15)
    f = qd.hom_basis(qd.projective_at(q, "15"), qd.injective_at(q, "2")).basis[0]
    _write(f"{wl.INPUTS}/a15.quiver", "# linear A15, arrows i+1 -> i\n" + a15)
    _write(f"{wl.INPUTS}/a15.reps", "# the nonzero map P_15 -> I_2\n"
           + _morphism_block("P_15", "I_2", f))

    kron = _quiver_text((1, 2), [("a", 1, 2), ("b", 1, 2)])
    q = qd.parse_quiver(kron)
    F = qd.RATIONALS
    R = qd.Representation(q, F, (1, 1), (qd.Mat.from_rows(F, [[1]]),) * 2)
    f = qd.hom_basis(qd.projective_at(q, "1"), R).basis[0]
    _write(f"{wl.INPUTS}/kronecker.quiver", "# the Kronecker quiver\n" + kron)
    _write(f"{wl.INPUTS}/kronecker.reps",
           "# P_1 -> R, R regular of dimension (1,1) with both arrows 1\n"
           + _rep_block("R", R) + "\n" + _morphism_block("P_1", "R", f))

    e6 = _quiver_text(range(1, 7), [("a", 1, 2), ("b", 2, 3), ("c", 4, 3), ("d", 5, 4),
                                    ("e", 6, 3)])
    _write(f"{wl.INPUTS}/e6.quiver", "# E6, the orientation used in the test suite\n" + e6)


def record_refs() -> None:
    os.makedirs(wl.REFS, exist_ok=True)
    for w in wl.WORKLOADS.values():
        q = qd.parse_quiver(wl.read_input(w.quiver))
        if isinstance(w, wl.Cold):
            session = qd.formats.load_session(q, qd.RATIONALS, wl.read_input(w.data))
            reg = qd.knit(q, qd.RATIONALS, w.cap)
            report = DeterminerEngine(reg).report(session.morphism("f"), verify=True)
            _write(f"{wl.REFS}/{w.name}.json", wl.report_text(report))
            continue
        reg = qd.knit(q, qd.field_from_name(w.field))
        engine = DeterminerEngine(reg)
        digests = []
        for side, f in wl.make_requests(qd, reg, wl.DEFAULT_SEED):
            if side == "left":
                report = qd.minimal_left_determiner(f, registry=reg, verify=True)
            else:
                report = engine.report(f, verify=True)
            if not report.oracle.certified:
                raise SystemExit(f"{w.name}: a request was not certified; not recording")
            digests.append(hashlib.sha256(wl.report_text(report).encode()).hexdigest())
        _write(f"{wl.REFS}/{w.name}.json",
               json.dumps({"seed": wl.DEFAULT_SEED, "digests": digests}, indent=1) + "\n")

    data = {}
    for name in ("a3.quiver", "a3.reps"):
        with open(os.path.join(ROOT, "data", name), encoding="utf-8") as fh:
            data[name] = fh.read()
    q = qd.parse_quiver(data["a3.quiver"])
    session = qd.formats.load_session(q, qd.RATIONALS, data["a3.reps"])
    report = qd.minimal_left_determiner(session.morphism("f"), verify=True, morphism_name="f")
    _write(f"{wl.REFS}/a3-left.json", wl.report_text(report))


if __name__ == "__main__":
    import quivdet.formats  # noqa: F401

    {"inputs": record_inputs, "refs": record_refs}[sys.argv[1]]()
