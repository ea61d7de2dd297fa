"""The benchmark's pinned outputs replayed as tests: determiner reports must
stay byte-identical to ``perfbench/refs``, not only inside a benchmark run."""

import gc
import hashlib
import importlib.util
import json
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest

import quivdet as qd
from quivdet.cli import main
from quivdet.determiner import DeterminerEngine
from quivdet.formats import load_session
from quivdet.reps import RepMorphism, Representation

from conftest import _watch_solvers

REPLAYED = 24


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


def _ref(name: str) -> str:
    return (Path(wl.REFS) / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["corpus-warm", "corpus-warm-fp"])
def test_stream_requests_match_their_reference_digests(name):
    # the first requests of the seeded stream, each answered as the
    # benchmark answers it, hashed as `det --json` prints it
    w = wl.WORKLOADS[name]
    reg = qd.knit(qd.parse_quiver(wl.read_input(w.quiver)), qd.field_from_name(w.field))
    engine = DeterminerEngine(reg)
    digests = []
    for side, f in wl.make_requests(qd, reg, wl.DEFAULT_SEED)[:REPLAYED]:
        if side == "left":
            report = qd.minimal_left_determiner(f, registry=reg, verify=True)
        else:
            report = engine.report(f, verify=True)
        assert report.oracle.certified
        digests.append(hashlib.sha256(wl.report_text(report).encode()).hexdigest())
    assert json.loads(_ref(f"{name}.json"))["digests"][:REPLAYED] == digests


def test_seed_11_stream_matches_its_pinned_digests():
    # every request of the seed-11 stream, right and left, answered on one
    # engine and hashed as `det --json` prints it, against the digests the
    # stream gave when they were recorded
    pinned = json.loads((Path(__file__).resolve().parent / "corpus_warm_seed11.json")
                        .read_text(encoding="utf-8"))
    w = wl.WORKLOADS["corpus-warm"]
    reg = qd.knit(qd.parse_quiver(wl.read_input(w.quiver)), qd.field_from_name(w.field))
    engine = DeterminerEngine(reg)
    requests = wl.make_requests(qd, reg, pinned["seed"])
    assert {side for side, _ in requests} == {"right", "left"}
    assert [_answer(engine, side, f) for side, f in requests] == pinned["digests"]


def _kernels_per_request(monkeypatch, seed: int):
    """A fresh E6 engine over Q, and for each request of the seed's stream
    the (M, N) of every generator_kernel call it made, in order."""
    w = wl.WORKLOADS["corpus-warm"]
    reg = qd.knit(qd.parse_quiver(wl.read_input(w.quiver)), qd.field_from_name(w.field))
    engine = DeterminerEngine(reg)
    requests = wl.make_requests(qd, reg, seed)
    seen = _watch_solvers(monkeypatch)
    solved = []
    for side, f in requests:
        seen.clear()
        _answer(engine, side, f)
        solved.append([(M, N) for name, M, N in seen if name == "generator_kernel"])
    monkeypatch.undo()
    return reg, solved


@pytest.mark.parametrize("seed", [1, 11])
def test_no_request_solves_a_pair_twice(seed, monkeypatch):
    # a generator solution a request has solved is held in a Hom space and
    # read again from there, on Q and on Q^op alike
    _, solved = _kernels_per_request(monkeypatch, seed)
    assert sum(map(len, solved)) > len(solved)
    twice = [(i, pair) for i, pairs in enumerate(solved)
             for pair, n in Counter(pairs).items() if n > 1]
    assert twice == []


@pytest.mark.parametrize("seed", [1, 11])
def test_a_stream_solves_each_pair_of_owned_objects_once(seed, monkeypatch):
    # Hom spaces between the registry's own objects are held for the
    # quiver's life, so over one stream no pair of Q's owned objects is
    # solved in two requests
    reg, solved = _kernels_per_request(monkeypatch, seed)
    owned = reg.quiver.workspace.owned
    first: dict = {}
    again = set()
    for i, pairs in enumerate(solved):
        for pair in set(pairs):
            if pair[0] in owned and pair[1] in owned and first.setdefault(pair, i) != i:
                again.add(pair)
    assert first and not again


@pytest.mark.parametrize("field", ["fp:2", "fp:3", "fp:7"])
def test_stream_requests_certify_over_small_primes(field):
    # every stream domain is a recorded sum of registry entries, bricks, so
    # its right minimal version needs no trace form, and a left request
    # records the duals of its sums and entries for the same route over the
    # opposite quiver: all 112 seed-1 requests certify over F_2, F_3 and F_7
    # (41, 46 and 61 did while every domain took the trace-form loop)
    w = wl.WORKLOADS["corpus-warm"]
    reg = qd.knit(qd.parse_quiver(wl.read_input(w.quiver)), qd.field_from_name(field))
    engine = DeterminerEngine(reg)
    for side, f in wl.make_requests(qd, reg, wl.DEFAULT_SEED):
        _answer(engine, side, f)


def _cold_report_matches_its_reference(name: str) -> None:
    w = wl.WORKLOADS[name]
    q = qd.parse_quiver(wl.read_input(w.quiver))
    field = qd.field_from_name("rat")
    f = load_session(q, field, wl.read_input(w.data)).morphism("f")
    reg = qd.knit(q, field, w.cap)
    assert (len(reg.entries), reg.complete) == (w.registry_size, w.complete)
    report = DeterminerEngine(reg).report(f, morphism_name="f", verify=True)
    assert wl.report_text(report) == _ref(f"{w.name}.json")


@pytest.mark.parametrize("name", ["dynkin-e8", "dynkin-a15"])
def test_a_cold_certify_holds_no_hom_space_the_euler_form_makes_zero(name, monkeypatch):
    # on Dynkin type dim Hom(M, N) = max(0, <dim M, dim N>) between recorded
    # indecomposables, and the workspace answers a pair whose form is <= 0
    # with a zero space that no solver sees and no table holds, through the
    # knit and the certified bench request alike (119 of the 244 spaces the
    # E8 request wrote, and 119 of 173 on A15, were such pairs while every
    # zero space between owned objects was held)
    w = wl.WORKLOADS[name]
    q = qd.parse_quiver(wl.read_input(w.quiver))
    field = qd.field_from_name("rat")
    f = load_session(q, field, wl.read_input(w.data)).morphism("f")
    seen = _watch_solvers(monkeypatch)
    reg = qd.knit(q, field, w.cap)
    ws = q.workspace
    knitted = len(ws.homs)
    assert DeterminerEngine(reg).report(f, verify=True).oracle.certified
    monkeypatch.undo()
    known = ws.indecomposables

    def zero(M, N):
        return M in known and N in known and qd.euler_form(q, M.dims, N.dims) <= 0

    assert len(ws.homs) > knitted and not [pair for pair in ws.homs if zero(*pair)]
    assert seen and not [s for s in seen if zero(s[1], s[2])]


def test_kronecker_bounded_report_matches_its_reference():
    _cold_report_matches_its_reference("kronecker-bounded")


@pytest.mark.parametrize("name", ["dynkin-e8", "dynkin-a15"])
def test_dynkin_report_matches_its_reference(name):
    _cold_report_matches_its_reference(name)


def test_a3_left_cli_report_matches_its_reference(capsys):
    data = Path(__file__).resolve().parent.parent / "data"
    argv = ["det", str(data / "a3.quiver"), str(data / "a3.reps"), "f", "--verify", "--left", "--json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == _ref("a3-left.json")


def _answer(engine, side, f):
    """The report the benchmark asks for, and its digest."""
    if side == "left":
        report = qd.minimal_left_determiner(f, registry=engine.registry, verify=True)
    else:
        report = engine.report(f, verify=True)
    assert report.oracle.certified
    return hashlib.sha256(wl.report_text(report).encode()).hexdigest()


def _parts(key) -> tuple:
    return key if type(key) is tuple else (key,)


def _unowned_keys(reg) -> set:
    """(quiver side, table, key) of every workspace entry whose key holds a
    morphism or a representation its workspace does not own, over the
    quiver of reg and its opposite; checks on the way that each workspace
    owns exactly the entries of reg and of the registries it knitted, its
    canonical P_x and I_x and its block sums."""
    q, out = reg.quiver, set()
    for side, ws in (("Q", q.workspace), ("Qop", q.opposite.workspace)):
        registries = [reg, *ws.registries.values()] if ws is q.workspace else ws.registries.values()
        assert ws.owned == ({e.rep for r in registries for e in r.entries}
                            | set(ws.canonical.values())
                            | {bs.rep for bs in ws.block_sums.values()})
        for name, table in vars(ws).items():
            if isinstance(table, (dict, set, WeakKeyDictionary)):
                out.update((side, name, key) for key in table
                           if any(isinstance(r, RepMorphism)
                                  or isinstance(r, Representation) and r not in ws.owned
                                  for r in _parts(key)))
    return out


def _morphism_keys(q) -> list:
    """(table, key) of every entry of the workspaces of q and its opposite
    whose key holds a morphism."""
    return [(name, key) for ws in (q.workspace, q.opposite.workspace)
            for name, table in vars(ws).items() if isinstance(table, (dict, set, WeakKeyDictionary))
            for key in table if any(isinstance(k, RepMorphism) for k in _parts(key))]


def _oracle_requests(count: int):
    """A fresh E6 engine and the (minimal morphism, members) that its
    first count right requests of the seed-1 stream hand to ``verify``."""
    w = wl.WORKLOADS["corpus-warm"]
    reg = qd.knit(qd.parse_quiver(wl.read_input(w.quiver)), qd.field_from_name(w.field))
    engine = DeterminerEngine(reg)
    asks = []
    for side, f in wl.make_requests(qd, reg, wl.DEFAULT_SEED):
        if side == "right" and len(asks) < count:
            rm, _, _, members = engine.formula_members(f)
            asks.append((rm.minimal, members))
    return engine, asks


def test_the_engine_holds_no_table_of_its_own():
    # every oracle table lives in the workspace: the engine keeps only what
    # it is built from, before and after a report and a direct verify
    engine, [(f, members)] = _oracle_requests(1)
    attributes = {"registry", "quiver", "field", "workspace"}
    assert vars(engine).keys() == attributes
    assert engine.report(f, verify=True).oracle.certified
    assert vars(engine).keys() == attributes
    assert engine.verify(f, members).certified
    assert vars(engine).keys() == attributes


def test_a_direct_verify_leaves_no_morphism_in_the_workspaces():
    # verify opens its own request scope, so the factoring subspaces and
    # constraint rows keyed by the request morphism go when it returns
    engine, asks = _oracle_requests(3)
    for f, members in asks:
        assert engine.verify(f, members).certified
        assert not _morphism_keys(engine.quiver)


def test_interleaved_verifies_on_one_engine_get_their_solo_verdicts(monkeypatch):
    # a verify for one morphism run inside every determination scan of
    # another, on the same engine, and the other way round, gives each
    # morphism the verdict it gets alone: the tables of the two never mix;
    # a dropped member makes one verdict fail, so the verdicts differ
    engine, [(f, members), (g, g_members)] = _oracle_requests(2)
    asks = [(f, members), (g, g_members), (f, members[1:])]
    solo = [engine.verify(*ask) for ask in asks]
    assert solo[0].certified and not solo[2].passed()
    real_gap = engine._first_gap
    for outer in range(len(asks)):
        nested, busy = [], []

        def interleaved(h, sources):
            if h is asks[outer][0] and not busy:
                busy.append(h)  # the inner verifies scan unpatched
                nested.extend((k, engine.verify(*asks[k])) for k in range(len(asks)) if k != outer)
                busy.pop()
            return real_gap(h, sources)

        monkeypatch.setattr(engine, "_first_gap", interleaved)
        assert engine.verify(*asks[outer]) == solo[outer]
        monkeypatch.undo()
        assert nested and all(v == solo[k] for k, v in nested)
    assert not _morphism_keys(engine.quiver)


# traced memory that 24 requests of a second seed may leave in the
# workspaces, mostly Hom spaces between registry entries that the first seed
# did not ask for: 0.34 MB on Python 3.11, where the same requests left
# 1.59 MB before each request's entries were dropped with it
SECOND_STREAM_GROWTH_MB = 0.8


def test_requests_leave_only_owned_entries_in_the_workspaces():
    # two seeded streams on one E6 engine over Q: after each request no
    # workspace key holds a representation that is neither owned by the
    # registry nor written outside a request (the caller's direct sums), the
    # second stream leaves little traced memory behind, and the first
    # stream's requests, asked again after it, still give their digests
    w = wl.WORKLOADS["corpus-warm"]
    q = qd.parse_quiver(wl.read_input(w.quiver))
    reg = qd.knit(q, qd.field_from_name(w.field))
    engine = DeterminerEngine(reg)

    def stream(seed):
        requests = wl.make_requests(qd, reg, seed)[:REPLAYED]
        before = _unowned_keys(reg)
        for side, f in requests:
            _answer(engine, side, f)
            assert _unowned_keys(reg) <= before

    stream(1)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stream(2)
        gc.collect()
        grown = (tracemalloc.get_traced_memory()[0] - start) / 2**20
    finally:
        tracemalloc.stop()
    assert grown < SECOND_STREAM_GROWTH_MB
    digests = [_answer(engine, side, f) for side, f in wl.make_requests(qd, reg, 1)[:REPLAYED]]
    assert json.loads(_ref("corpus-warm.json"))["digests"][:REPLAYED] == digests


def test_threads_sharing_a_quiver_get_the_reference_digests():
    # two threads ask the seed-1 requests of one fresh quiver and registry at
    # once, each with its own engine: a request scope closing in one thread
    # drops entries the other may be reading, which may cost it a
    # recomputation but never a different answer, and no request leaves an
    # entry behind; the first left requests race to knit the opposite quiver
    w = wl.WORKLOADS["corpus-warm"]
    reg = qd.knit(qd.parse_quiver(wl.read_input(w.quiver)), qd.field_from_name(w.field))
    streams = [wl.make_requests(qd, reg, wl.DEFAULT_SEED)[:REPLAYED] for _ in range(2)]
    before = _unowned_keys(reg)
    start = threading.Barrier(len(streams))
    digests: dict = {}
    errors: list = []

    def run(k):
        try:
            engine = DeterminerEngine(reg)
            start.wait(timeout=60)
            digests[k] = [_answer(engine, side, f) for side, f in streams[k]]
        except Exception as e:  # the main thread reports it
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two threads finely
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(streams))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and _unowned_keys(reg) <= before
    expected = json.loads(_ref("corpus-warm.json"))["digests"][:REPLAYED]
    assert [digests[k] for k in range(len(streams))] == [expected] * len(streams)
