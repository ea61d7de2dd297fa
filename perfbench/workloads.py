"""Workload definitions shared by the benchmark's parent and child processes.

A cold workload knits one registry in a fresh interpreter and certifies one
fixed morphism read from a data file.  A stream workload knits one registry
during set-up and then certifies a seeded list of morphisms against a single
``DeterminerEngine``.  Inputs live under ``perfbench/inputs``; the references
the outputs are checked against live under ``perfbench/refs`` and were
recorded with ``perfbench/record.py``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INPUTS = f"{BENCH_DIR}/inputs"
REFS = f"{BENCH_DIR}/refs"

# The seed whose stream outputs are pinned by digest in refs/<workload>.json.
# Other seeds are checked by the oracle's own certificate only.
DEFAULT_SEED = 1

# Requests per stream run: the 90th percentile then has 12 samples beyond it.
STREAM_REQUESTS = 112
# Every LEFT_EVERY-th request asks for a left determiner, the rest for right.
LEFT_EVERY = 4
# Size tiers the registry is split into when drawing request summands.
TIERS = 6


@dataclass(frozen=True)
class Cold:
    """Parse, knit and certify one fixed morphism in a fresh interpreter."""

    name: str
    quiver: str            # file under inputs/
    data: str              # file under inputs/, defines morphism "f"
    cap: int
    registry_size: int     # positive-root count on Dynkin type, else the cap
    complete: bool


@dataclass(frozen=True)
class Stream:
    """Knit once, then certify a seeded request list on one engine."""

    name: str
    quiver: str
    field: str


WORKLOADS = {
    w.name: w
    for w in (
        Cold("dynkin-e8", "e8.quiver", "e8.reps", 5000, 120, True),
        Cold("dynkin-a15", "a15.quiver", "a15.reps", 5000, 120, True),
        Cold("kronecker-bounded", "kronecker.quiver", "kronecker.reps", 12, 12, False),
        Stream("corpus-warm", "e6.quiver", "rat"),
        Stream("corpus-warm-fp", "e6.quiver", "fp:10007"),
    )
}


def read_input(name: str) -> str:
    with open(f"{INPUTS}/{name}", encoding="utf-8") as fh:
        return fh.read()


def report_text(report) -> str:
    """The report exactly as ``quivdet det --json`` prints it."""
    import json

    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def make_requests(qd, registry, seed: int):
    """Seeded request list: (side, morphism) pairs between direct sums of one
    to three registry indecomposables, coefficients drawn from [-2, 2].

    The draw is stratified so that runs on different seeds cost about the
    same.  Summand counts cycle through 1, 2, 3; the registry is split by
    total dimension into TIERS tiers of similar objects, and successive
    summands cycle through the tiers, so every seed sees the same sequence of
    object sizes; within a tier, objects are dealt from a shuffled deck.  Left
    requests sit at fixed positions.  The seed picks the objects within each
    tier and the coefficients.
    """
    rng = random.Random(seed)
    field = registry.field
    by_size = sorted(registry.entries, key=lambda e: (e.rep.total_dim, e.index))
    tiers = [[e.rep for e in by_size[k * len(by_size) // TIERS:(k + 1) * len(by_size) // TIERS]]
             for k in range(TIERS)]
    decks: list[list] = [[] for _ in range(TIERS)]
    picked = 0

    def deal(count: int):
        nonlocal picked
        picks = []
        for _ in range(count):
            deck = decks[picked % TIERS]
            if not deck:
                deck.extend(tiers[picked % TIERS])
                rng.shuffle(deck)
            picks.append(deck.pop())
            picked += 1
        return qd.direct_sum(picks)[0]

    out = []
    for i in range(STREAM_REQUESTS):
        A = deal(1 + i % 3)
        B = deal(1 + (i // 3) % 3)
        hs = qd.hom_basis(A, B)
        coeffs = [field.of(rng.randrange(-2, 3)) for _ in range(hs.dim)]
        f = hs.from_coordinates(coeffs) if hs.dim else qd.zero_morphism(A, B)
        side = "left" if i % LEFT_EVERY == LEFT_EVERY - 1 else "right"
        out.append((side, f))
    return out
