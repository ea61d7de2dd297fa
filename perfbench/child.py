"""One benchmark repetition in a fresh interpreter.

Usage: python perfbench/child.py <workload> <seed> <plain|knit|spans|memory> <golden:0|1>

Runs one repetition of the workload against the package in ``src/`` of the
checkout and prints one JSON object as its last line of standard output.

``plain`` is the measured mode.  It runs the speed probe (see ``SpeedProbe``)
so that each timed interval can also be given in reference seconds.  ``knit``
is ``plain`` stopped after the knit of a stream workload, which samples the
knit more often than one stream repetition can.  ``spans`` installs the
tracer from ``spans.py`` and also runs the probe.  ``memory`` runs under
``tracemalloc``, which slows quivdet three- to fourfold, so it stops after the
knit on cold workloads and after the first quarter of the requests on stream
workloads.  With golden=1 the CLI is also checked against the golden A3
report after the timed part.  A failed check or an exception counts as one
failed operation; it does not stop the repetition.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext, redirect_stdout
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads as wl  # noqa: E402


class SpeedProbe:
    """Samples how fast this machine runs exact arithmetic right now.

    Every PERIOD_S of wall time a SIGALRM handler times a fixed Fraction row
    update, the operation at the heart of quivdet's elimination.  On a shared
    host the interpreter's speed drifts by a quarter or more within seconds,
    and the probe slows down with the measured code, so ``factor`` rescales an
    interval to the time it would have taken on a machine where the probe
    takes REFERENCE_S.  The probe costs under 2% of the run.
    """

    PERIOD_S = 0.02
    REFERENCE_S = 340e-6    # the probe's median on a shared 2-CPU machine, Python 3.11.7
    PAD_S = 0.1             # probes this close to an interval still describe it
    ROW_A = tuple(Fraction(i, 7) for i in range(1, 25))
    ROW_B = tuple(Fraction(3, i) if i % 3 else Fraction(0) for i in range(1, 25))

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _sample(self, _signum, _frame):
        t = time.perf_counter()
        c = Fraction(5, 3)
        for _ in range(3):
            [a - c * b for a, b in zip(self.ROW_A, self.ROW_B)]
        self.at.append(t)
        self.took.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, a: float, b: float) -> float:
        """Reference seconds per wall second over the interval [a, b]."""
        i = bisect_left(self.at, a - self.PAD_S)
        j = bisect_right(self.at, b + self.PAD_S)
        if i == j:
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        return self.REFERENCE_S * (j - i) / sum(self.took[i:j])


class Repetition:
    """Timed intervals, the operation tally and the optional trace phases."""

    def __init__(self, tracer=None):
        self.intervals: dict[str, list[tuple[float, float]]] = {"knit": [], "request": []}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first_call = None
        self.phase = tracer.span if tracer is not None else (lambda _name: nullcontext())

    @contextmanager
    def timed(self, kind: str):
        if self.first_call is None:
            self.first_call = (time.monotonic(), time.perf_counter())
        t = time.perf_counter()
        yield
        self.intervals[kind].append((t, time.perf_counter()))

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)

    def error(self, what: str) -> None:
        self.check(False, f"{what}: {traceback.format_exc(limit=3)}")


def _read_ref(name: str) -> str:
    with open(os.path.join(wl.REFS, name), encoding="utf-8") as fh:
        return fh.read()


def run_cold(qd, w, rep: Repetition, mode: str) -> None:
    from quivdet.determiner import DeterminerEngine

    q = qd.parse_quiver(wl.read_input(w.quiver))
    field = qd.field_from_name("rat")
    f = qd.formats.load_session(q, field, wl.read_input(w.data)).morphism("f")
    try:
        with rep.timed("knit"), rep.phase("phase.knit"):
            reg = qd.knit(q, field, w.cap)
    except Exception:
        rep.error("knit")
        rep.error("report (no registry)")
        return
    rep.check(len(reg.entries) == w.registry_size and reg.complete == w.complete,
              f"registry size {len(reg.entries)} complete={reg.complete}")
    if mode == "memory":
        return
    try:
        with rep.timed("request"):
            report = DeterminerEngine(reg).report(f, morphism_name="f", verify=True)
    except Exception:
        rep.error("report")
        return
    o = report.oracle
    ok = (wl.report_text(report) == _read_ref(f"{w.name}.json")
          and o.determination_ok
          and all(wit is not None for _, wit in o.removal_breaks)
          and o.certified == w.complete)
    rep.check(ok, f"{w.name} report differs from refs/{w.name}.json")


def run_stream(qd, w, seed: int, rep: Repetition, mode: str) -> None:
    """Knit and request generation are set-up here; the requests are timed."""
    from quivdet.determiner import DeterminerEngine

    q = qd.parse_quiver(wl.read_input(w.quiver))
    field = qd.field_from_name(w.field)
    t0 = time.perf_counter()
    with rep.phase("phase.knit"):
        reg = qd.knit(q, field)
    rep.intervals["knit"].append((t0, time.perf_counter()))
    if mode == "knit":
        return
    engine = DeterminerEngine(reg)
    requests = wl.make_requests(qd, reg, seed)
    if mode == "memory":
        requests = requests[:len(requests) // 4]
    expected = None
    if seed == wl.DEFAULT_SEED:
        expected = json.loads(_read_ref(f"{w.name}.json"))["digests"]
    for i, (side, f) in enumerate(requests):
        try:
            with rep.timed("request"):
                if side == "left":
                    report = qd.minimal_left_determiner(f, registry=reg, verify=True)
                else:
                    report = engine.report(f, verify=True)
        except Exception:
            rep.error(f"request {i} ({side})")
            continue
        digest = hashlib.sha256(wl.report_text(report).encode()).hexdigest()
        ok = report.oracle.certified and (expected is None or expected[i] == digest)
        rep.check(ok, f"request {i} ({side}) not certified or digest differs")


def golden_checks(rep: Repetition) -> None:
    """The CLI on the shipped A3 example: right side byte for byte against
    data/golden_a3_report.json, left side against refs/a3-left.json."""
    from quivdet import cli

    cases = (
        (["--verify", "--json"], os.path.join(ROOT, "data", "golden_a3_report.json")),
        (["--verify", "--left", "--json"], os.path.join(wl.REFS, "a3-left.json")),
    )
    for flags, ref in cases:
        argv = ["det", os.path.join(ROOT, "data", "a3.quiver"),
                os.path.join(ROOT, "data", "a3.reps"), "f"] + flags
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:
            rep.error(f"cli {' '.join(flags)}")
            continue
        with open(ref, "rb") as fh:
            want = fh.read()
        rep.check(code == 0 and buf.getvalue().encode() == want,
                  f"cli det {' '.join(flags)} differs from {os.path.basename(ref)}")


def main(argv) -> int:
    name, seed, mode, golden = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    if sys.flags.optimize:
        sys.stderr.write("refusing to run under -O: asserts are part of the measured program\n")
        return 2
    probe = SpeedProbe() if mode != "memory" else None
    if probe is not None:
        probe.start()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quivdet as qd
    import quivdet.formats  # noqa: F401  (load_session is reached as qd.formats)

    src = os.path.join(ROOT, "src", "quivdet")
    if os.path.dirname(os.path.abspath(qd.__file__)) != src:
        sys.stderr.write(f"quivdet imported from {qd.__file__}, not from {src}\n")
        return 2

    tracer = None
    if mode == "spans":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "memory":
        import tracemalloc

        tracemalloc.start()

    w = wl.WORKLOADS[name]
    rep = Repetition(tracer)
    t0 = time.perf_counter()
    if isinstance(w, wl.Cold):
        run_cold(qd, w, rep, mode)
    else:
        run_stream(qd, w, seed, rep, mode)
    t1 = time.perf_counter()
    out = {"timed_s": t1 - t0}
    if probe is not None:
        probe.stop()
        out["timed_ref_s"] = (t1 - t0) * probe.factor(t0, t1)
    if golden:
        golden_checks(rep)

    for kind, spans_ in rep.intervals.items():
        out[f"{kind}_s"] = [b - a for a, b in spans_]
        if probe is not None:
            out[f"{kind}_ref_s"] = [(b - a) * probe.factor(a, b) for a, b in spans_]
    if rep.first_call is not None:
        out["first_call"] = rep.first_call[0]
        if probe is not None:
            out["setup_factor"] = probe.factor(started, rep.first_call[1])
    if mode == "memory":
        out["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        out["layers"] = tracer.summarize()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=rep.attempted, failed=rep.failed, notes=rep.notes)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
