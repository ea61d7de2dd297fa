"""quivdet benchmark: cold Dynkin certification, warm determiner streams and a
bounded Kronecker knit.  See perfbench/README.md for what each workload and
metric means.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every repetition runs in a fresh interpreter (perfbench/child.py), one after
another, importing quivdet from src/ with PYTHONHASHSEED pinned.  With
--trace 0 the run repeats until --seconds have passed (at least once) and
reports the end-to-end metrics; with --trace 1 it runs one untraced, one
traced and one tracemalloc repetition and reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# name -> unit of every end-to-end metric; all are better when lower except
# requests_per_s
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "knit_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
}
# A workload's run must end within this many seconds; a repetition still
# going then is killed and counted as failed.
RUN_DEADLINE_S = 170.0
# Knit-only repetitions before a stream: one stream repetition knits once.
STREAM_KNIT_SAMPLES = 4
HASH_SEED = "0"


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def source_identity() -> dict:
    """Git SHA when the checkout is a repository, and a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(workload: str, seed: int, mode: str, golden: bool, deadline: float):
    """One repetition; returns (spawn time, parsed result or None, note)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), workload, str(seed), mode,
           "1" if golden else "0"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return spawned, None, f"{mode} repetition passed the {RUN_DEADLINE_S:.0f} s deadline"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return spawned, None, f"{mode} repetition exited {proc.returncode}: {proc.stderr[-2000:]}"
    return spawned, json.loads(lines[-1]), ""


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(results, setups, knits, key: str) -> dict:
    """End-to-end metrics from the repetitions' intervals, in ``key`` units
    ("ref_s": probe-scaled reference seconds, "s": wall seconds)."""
    latencies = [x for r in results for x in r[f"request_{key}"]]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "knit_s": statistics.median(knits + [x for r in results for x in r[f"knit_{key}"]]),
        "requests_per_s": len(latencies) / sum(latencies),
        "request_p50_ms": 1000 * percentile(latencies, 0.5),
        "request_p90_ms": 1000 * percentile(latencies, 0.9),
    }


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """Untraced repetitions until `seconds` have passed; end-to-end metrics in
    reference seconds, plus the same figures in wall seconds."""
    start = time.monotonic()
    results, setups, wall_setups, notes = [], [], [], []
    attempted = failed = 0
    knits: dict[str, list[float]] = {"s": [], "ref_s": []}
    if isinstance(wl.WORKLOADS[workload], wl.Stream):
        for _ in range(STREAM_KNIT_SAMPLES):
            _, res, note = run_child(workload, seed, "knit", False, deadline)
            if res is None:
                attempted, failed = attempted + 1, failed + 1
                notes.append(note)
                continue
            for key in knits:
                knits[key] += res[f"knit_{key}"]
    while True:
        spawned, res, note = run_child(workload, seed, "plain", not results, deadline)
        if res is None:
            attempted, failed = attempted + 1, failed + 1
            notes.append(note)
            break
        attempted += res["attempted"]
        failed += res["failed"]
        notes += res["notes"]
        if not res["request_s"]:
            break
        results.append(res)
        wall_setups.append(res["first_call"] - spawned)
        setups.append(wall_setups[-1] * res["setup_factor"])
        if time.monotonic() - start >= seconds:
            break
    if not results:
        return None, None, attempted, max(failed, 1), notes, ""
    metrics = {k: (v, END_TO_END[k])
               for k, v in summarize(results, setups, knits["ref_s"], "ref_s").items()}
    wall = {k: (v, END_TO_END[k])
            for k, v in summarize(results, wall_setups, knits["s"], "s").items()}
    nreq = sum(len(r["request_s"]) for r in results)
    return (metrics, wall, attempted, failed, notes,
            f"{len(results)} repetitions, {nreq} certified requests")


def measure_traced(workload: str, seed: int, deadline: float):
    """One untraced, one traced and one tracemalloc repetition; per-layer metrics,
    with times in reference seconds of the traced repetition."""
    runs, notes = {}, []
    attempted = failed = 0
    for mode in ("plain", "spans", "memory"):
        _, res, note = run_child(workload, seed, mode, mode == "spans", deadline)
        if res is None:
            return None, attempted + 1, failed + 1, notes + [note]
        runs[mode] = res
        attempted += res["attempted"]
        failed += res["failed"]
        notes += res["notes"]
    traced, plain = runs["spans"], runs["plain"]
    to_ref = traced["timed_ref_s"] / traced["timed_s"]
    layers = {k: v * to_ref if spans.LAYER_METRICS.get(k) == "s" else v
              for k, v in traced["layers"].items()}
    layers["traced.tracemalloc_peak_mb"] = runs["memory"]["tracemalloc_peak_mb"]
    layers["traced.overhead_ratio"] = traced["timed_ref_s"] / plain["timed_ref_s"]
    return ({k: (layers[k], unit) for k, unit in spans.LAYER_METRICS.items()},
            attempted, failed, notes)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float):
    ident = source_identity()
    wall = None
    if trace:
        metrics, attempted, failed, notes = measure_traced(workload, seed, deadline)
        shape = "3 repetitions (untraced, traced, tracemalloc)"
    else:
        metrics, wall, attempted, failed, notes, shape = measure(workload, seed, seconds,
                                                                 deadline)
    print(f"# workload {workload} seed {seed} trace {int(trace)}: {shape}; "
          f"git {ident['git_sha']} src {ident['src_sha256']} python {ident['python']} "
          f"nproc {ident['nproc']}")
    for note in notes:
        print(f"# FAILED: {note.strip()}")
    print(f"#   failed_frac {failed / max(attempted, 1):.6g}  ({failed} of {attempted} operations)")
    for name, (value, unit) in (metrics or {}).items():
        extra = f"   (wall {wall[name][0]:.6g})" if wall else ""
        print(f"#   {name:<56} {value:>14.6g} {unit}{extra}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        return fail("refusing to run under -O / PYTHONOPTIMIZE: asserts are part of the "
                    "measured program")
    for needed in ("src/quivdet/__init__.py", "data/a3.quiver", "data/a3.reps",
                   "data/golden_a3_report.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found: run from a checkout of the repository")

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed, complete = {}, 0, 0, True
    for name in names:
        metrics, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     time.monotonic() + RUN_DEADLINE_S)
        attempted, failed = attempted + a, failed + f
        complete = complete and metrics is not None
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, (value, unit) in (metrics or {}).items():
            combined[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and complete, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
