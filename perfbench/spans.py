"""Spans around calls into quivdet's public functions, installed from outside
the package.

``install`` replaces each traced function in every quivdet module namespace
that bound it (``from .reps import hom_basis`` gives ``quivdet.decompose``
its own binding) and each traced method on its class.  Every call appends a
span to flat in-memory arrays; ``summarize`` computes self time (the span
minus its direct child spans) and the per-layer metrics once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

MODULES = ("linalg", "quiver", "reps", "structure", "decompose", "translate",
           "determiner", "formats", "cli")

# (module, qualified name) of every traced callable.
TARGETS = (
    ("linalg", "rref"), ("linalg", "solve"), ("linalg", "kernel_basis"),
    ("quiver", "paths_between"), ("quiver", "projective_at"), ("quiver", "injective_at"),
    ("reps", "hom_basis"), ("reps", "direct_sum"), ("reps", "kernel"), ("reps", "cokernel"),
    ("structure", "injective_hull"),
    ("decompose", "end_algebra"), ("decompose", "decompose"),
    ("decompose", "is_indecomposable"), ("decompose", "indec_iso_witness"),
    ("decompose", "right_minimal_version"),
    ("translate", "knit"), ("translate", "trd"), ("translate", "IndecRegistry.find_iso"),
    ("determiner", "DeterminerEngine.hom"), ("determiner", "DeterminerEngine.formula_members"),
    ("determiner", "DeterminerEngine.verify"),
    ("determiner", "DeterminerEngine.almost_factor_subspace"),
    ("determiner", "DeterminerEngine.determined_subspace"),
    ("determiner", "minimal_left_determiner"),
    ("formats", "load_session"), ("cli", "main"),
)

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "linalg.rref.calls": "count", "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count", "linalg.rref.nnz": "count",
    "linalg.solve.calls": "count", "linalg.kernel_basis.calls": "count",
    "reps.hom_basis.calls": "count", "reps.hom_basis.self_s": "s",
    "reps.hom_basis.unknowns": "count",
    "quiver.paths_between.calls": "count", "quiver.paths_between.self_s": "s",
    "quiver.projective_at.calls": "count", "quiver.projective_at.self_s": "s",
    "quiver.injective_at.calls": "count", "quiver.injective_at.self_s": "s",
    "reps.direct_sum.calls": "count", "reps.direct_sum.self_s": "s",
    "reps.kernel.self_s": "s", "reps.cokernel.self_s": "s",
    "structure.injective_hull.self_s": "s",
    "decompose.end_algebra.calls": "count", "decompose.end_algebra.self_s": "s",
    "decompose.end_algebra.incl_s": "s",
    "decompose.decompose.calls": "count", "decompose.decompose.self_s": "s",
    "decompose.is_indecomposable.calls": "count",
    "decompose.indec_iso_witness.calls": "count", "decompose.indec_iso_witness.self_s": "s",
    "decompose.right_minimal_version.self_s": "s",
    "translate.knit.calls": "count", "translate.knit.self_s": "s",
    "translate.trd.calls": "count", "translate.trd.self_s": "s",
    "translate.IndecRegistry.find_iso.calls": "count",
    "translate.IndecRegistry.find_iso.self_s": "s",
    "determiner.DeterminerEngine.hom.calls": "count",
    "determiner.DeterminerEngine.hom.hit_ratio": "ratio",
    "determiner.DeterminerEngine.formula_members.self_s": "s",
    "determiner.DeterminerEngine.verify.self_s": "s",
    "determiner.DeterminerEngine.almost_factor_subspace.self_s": "s",
    "determiner.DeterminerEngine.determined_subspace.self_s": "s",
    "determiner.minimal_left_determiner.calls": "count",
    "determiner.minimal_left_determiner.self_s": "s",
    "formats.load_session.self_s": "s", "cli.main.self_s": "s",
    "phase.knit.s": "s",
    "phase.knit.rref_self_share": "ratio",
    "phase.knit.end_algebra_incl_share": "ratio",
    "traced.tracemalloc_peak_mb": "MB",
    "traced.overhead_ratio": "ratio",
}


def _rref_work(args):
    m = args[0]
    return m.rows * m.cols, sum(1 for row in m.entries for v in row if v)


def _hom_unknowns(args):
    M, N = args[0], args[1]
    return sum(a * b for a, b in zip(M.dims, N.dims)), 0


# Work counters summed over calls: traced name -> (measure, metric names).
WORK = {
    "linalg.rref": (_rref_work, ("linalg.rref.cells", "linalg.rref.nnz")),
    "reps.hom_basis": (_hom_unknowns, ("reps.hom_basis.unknowns", None)),
}


class Tracer:
    """Flat span store: parallel arrays indexed by span number.  A span's
    parent always precedes it, because spans are numbered at entry."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")      # 1 when no enclosing span has the same name
        self.work: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._active: list[int] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self._active.append(0)
        return len(self.names) - 1

    def _enter(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(1 if self._active[fid] == 0 else 0)
        self.end.append(0.0)
        self._active[fid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, fid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[fid] -= 1

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, such as a phase."""
        fid = self.names.index(name) if name in self.names else self._name_id(name)
        idx = self._enter(fid)
        try:
            yield
        finally:
            self._exit(idx, fid)

    def wrap(self, name: str, fn):
        fid = self._name_id(name)
        measure, keys = WORK.get(name, (None, ()))
        if measure is not None:
            self.work[name] = [0, 0]
        totals = self.work.get(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure is not None:
                a, b = measure(args)
                totals[0] += a
                totals[1] += b
            idx = enter(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, fid)

        return traced

    def install(self) -> None:
        """Wrap every target in every quivdet namespace that binds it."""
        import quivdet

        namespaces = [quivdet] + [importlib.import_module(f"quivdet.{m}") for m in MODULES]
        for module, qualname in TARGETS:
            home = importlib.import_module(f"quivdet.{module}")
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home, qualname)
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                if getattr(ns, qualname, None) is original:
                    setattr(ns, qualname, wrapper)

    def summarize(self) -> dict:
        """Per-name calls, self and inclusive seconds, and the derived
        per-layer metrics (without the two ``traced.*`` entries)."""
        n = len(self.fid)
        fid, parent, start, end, outer = self.fid, self.parent, self.start, self.end, self.outer
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls, self_s, incl_s = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            f = fid[i]
            calls[f] += 1
            self_s[f] += dur[i] - child[i]
            if outer[i]:
                incl_s[f] += dur[i]
        ids = {name: j for j, name in enumerate(self.names)}

        # spans inside the benchmark's knit phase
        knit_phase = ids["phase.knit"]
        in_knit = array("b", bytes(n))
        for i in range(n):
            p = parent[i]
            in_knit[i] = 1 if fid[i] == knit_phase else (in_knit[p] if p >= 0 else 0)

        # a DeterminerEngine.hom call hits its cache when no hom_basis call
        # happened beneath it
        hom_id, basis_id = ids["determiner.DeterminerEngine.hom"], ids["reps.hom_basis"]
        missed = set()
        for i in range(n):
            if fid[i] == basis_id:
                p = parent[i]
                while p >= 0:
                    if fid[p] == hom_id:
                        missed.add(p)
                    p = parent[p]

        def of(name, kind):
            j = ids[name]
            return {"calls": calls, "self_s": self_s, "incl_s": incl_s}[kind][j]

        metrics: dict[str, float] = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if base in ids and kind in ("calls", "self_s", "incl_s"):
                metrics[metric] = of(base, kind)
        for name, (_, keys) in WORK.items():
            for key, total in zip(keys, self.work[name]):
                if key:
                    metrics[key] = total
        hom_calls = calls[hom_id]
        metrics["determiner.DeterminerEngine.hom.hit_ratio"] = (
            (hom_calls - len(missed)) / hom_calls if hom_calls else 0.0)
        knit_s = incl_s[ids["phase.knit"]]
        rref_id, end_id = ids["linalg.rref"], ids["decompose.end_algebra"]
        rref_in_knit = sum(dur[i] - child[i] for i in range(n)
                           if fid[i] == rref_id and in_knit[i])
        end_in_knit = sum(dur[i] for i in range(n)
                          if fid[i] == end_id and outer[i] and in_knit[i])
        metrics["phase.knit.s"] = knit_s
        metrics["phase.knit.rref_self_share"] = rref_in_knit / knit_s
        metrics["phase.knit.end_algebra_incl_share"] = end_in_knit / knit_s
        return metrics
