"""Shared fixtures: test quivers, registries, and the verification corpus."""

from __future__ import annotations

import random

import pytest

import quivdet as qd
import quivdet.reps
from quivdet.determiner import DeterminerEngine


A3_TEXT = "vertex 1\nvertex 2\nvertex 3\narrow a 2 1\narrow b 3 2"


def linear_quiver(n: int, orientation: tuple[int, ...]) -> qd.Quiver:
    """A_n with vertices 1..n; orientation bit 0 points arrow i+1 -> i,
    bit 1 points i -> i+1."""
    assert len(orientation) == n - 1
    lines = [f"vertex {i + 1}" for i in range(n)]
    for i, bit in enumerate(orientation):
        if bit:
            lines.append(f"arrow e{i} {i + 1} {i + 2}")
        else:
            lines.append(f"arrow e{i} {i + 2} {i + 1}")
    return qd.parse_quiver("\n".join(lines))


def d4_subspace_quiver() -> qd.Quiver:
    return qd.parse_quiver(
        "vertex c\nvertex 1\nvertex 2\nvertex 3\n"
        "arrow a 1 c\narrow b 2 c\narrow d 3 c")


def all_orientations(n: int):
    for bits in range(1 << (n - 1)):
        yield tuple((bits >> k) & 1 for k in range(n - 1))


def corpus_quivers():
    """All orientations of A2, A3, A4 plus the D4 subspace orientation."""
    out = []
    for n in (2, 3, 4):
        for orient in all_orientations(n):
            out.append((f"A{n}{''.join(map(str, orient))}", linear_quiver(n, orient)))
    out.append(("D4", d4_subspace_quiver()))
    return out


def _watch_solvers(monkeypatch) -> list:
    """(solver, M, N) of each call of hom_basis and generator_kernel made
    through quivdet.reps from now on."""
    seen = []

    def watched(name):
        real = getattr(quivdet.reps, name)

        def solve(M, *args):
            seen.append((name, M, args[-1]))
            return real(M, *args)
        return solve

    for name in ("hom_basis", "generator_kernel"):
        monkeypatch.setattr(quivdet.reps, name, watched(name))
    return seen


def corpus_morphisms(engine: DeterminerEngine, rng: random.Random):
    """Deterministic morphism list: every hom-basis element between registry
    pairs, plus fixed and seeded combinations, identities, and a zero map."""
    reg = engine.registry
    out = []
    for a in reg.entries:
        for b in reg.entries:
            hs = engine.hom(a.rep, b.rep)
            out.extend(hs.basis)
            if hs.dim >= 2:
                out.append(hs.basis[0] + hs.basis[1])
                coeffs = [rng.randrange(1, 5) for _ in range(hs.dim)]
                combo = None
                for c, m in zip(coeffs, hs.basis):
                    t = m.scale(engine.field.of(c))
                    combo = t if combo is None else combo + t
                out.append(combo)
    first = reg.entries[0].rep
    out.append(qd.identity_morphism(first))
    out.append(qd.zero_morphism(first, reg.entries[-1].rep))
    return out


@pytest.fixture(scope="session")
def a3():
    return qd.parse_quiver(A3_TEXT)


@pytest.fixture(scope="session")
def a3_registry(a3):
    return qd.knit(a3)


@pytest.fixture(scope="session")
def a3_engine(a3_registry):
    return DeterminerEngine(a3_registry)


@pytest.fixture(scope="session")
def golden_f(a3):
    """The nonzero morphism P_2 -> I_2 on the linear A3 quiver."""
    P2 = qd.projective_at(a3, "2")
    I2 = qd.injective_at(a3, "2")
    hs = qd.hom_basis(P2, I2)
    assert hs.dim == 1
    return hs.basis[0]


@pytest.fixture(scope="session")
def corpus_engines():
    """One registry + engine per corpus quiver, knitted once per session."""
    out = []
    for name, q in corpus_quivers():
        reg = qd.knit(q)
        out.append((name, DeterminerEngine(reg)))
    return out
