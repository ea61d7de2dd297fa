"""Hom spaces over F_2 counted by enumeration, with no elimination.

A map M -> N is a tuple of vertex matrices f(v), each of shape
dim N_v x dim M_v, that makes every square N(a) f(s) = f(t) M(a) commute, so
over F_2 there are exactly 2^dim Hom(M, N) of them.  The count here tries
every 0/1 matrix at each vertex in turn and checks each square, by integer
products mod 2, as soon as both of its vertex maps are chosen: an exhaustive
search that shares nothing with quivdet.linalg or the workspace's solvers.
"""

import itertools

import pytest

import quivdet as qd

from conftest import all_orientations, d4_subspace_quiver, linear_quiver

F2 = qd.field_from_name("fp:2")

QUIVERS = {"A2": lambda: linear_quiver(2, (1,)), "D4": d4_subspace_quiver}
QUIVERS.update({f"A3{''.join(map(str, o))}": (lambda o=o: linear_quiver(3, o))
                for o in all_orientations(3)})


def _matrices(rows: int, cols: int):
    """Every rows x cols matrix over F_2, as a tuple of rows."""
    for bits in itertools.product((0, 1), repeat=rows * cols):
        yield tuple(bits[r * cols:(r + 1) * cols] for r in range(rows))


def _product(a, b, cols: int) -> tuple:
    """a b mod 2, for a given by its rows and b with cols columns."""
    return tuple(tuple(sum(x * b[k][c] for k, x in enumerate(row)) % 2 for c in range(cols))
                 for row in a)


def _count_maps(M, N) -> int:
    """How many tuples of vertex matrices over F_2 make every square of the
    arrows commute, for representations M and N over F_2."""
    ends = M.quiver.arrow_ends
    chosen: dict = {}

    def squares_commute(v) -> bool:
        return all(_product(N.action[ai].entries, chosen[s], M.dims[s])
                   == _product(chosen[t], M.action[ai].entries, M.dims[s])
                   for ai, (s, t) in enumerate(ends)
                   if v in (s, t) and s in chosen and t in chosen)

    def extend(v) -> int:
        if v == len(M.dims):
            return 1
        count = 0
        for f in _matrices(N.dims[v], M.dims[v]):
            chosen[v] = f
            if squares_commute(v):
                count += extend(v + 1)
        del chosen[v]
        return count

    return extend(0)


def test_the_count_sees_the_squares():
    # on 1 -> 2: the scalars on P_1 = (1, 1), the simple P_2 = (0, 1) into
    # P_1 by any scalar, and of the two scalars at vertex 2 of a map
    # P_1 -> P_2 only 0 commutes with the arrow
    q = linear_quiver(2, (1,))
    reg = qd.knit(q, F2)
    P1, P2 = (next(e.rep for e in reg.entries if e.label == label) for label in ("P_1", "P_2"))
    assert _count_maps(P1, P1) == 2 and _count_maps(P2, P1) == 2 and _count_maps(P1, P2) == 1
    assert len(list(_matrices(2, 2))) == 16


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_hom_between_entries_counts_the_commuting_tuples(name):
    # every ordered pair of registry entries: the workspace's dimension is
    # the count's exponent, and max(0, <dim M, dim N>) on Dynkin type
    q = QUIVERS[name]()
    reg = qd.knit(q, F2)
    ws = q.workspace
    for a in reg.entries:
        for b in reg.entries:
            dim = ws.hom(a.rep, b.rep).dim
            assert _count_maps(a.rep, b.rep) == 2 ** dim, (a.label, b.label)
            assert dim == max(0, qd.euler_form(q, a.rep.dims, b.rep.dims)), (a.label, b.label)


@pytest.mark.parametrize("name", sorted(n for n in QUIVERS if n.startswith("A")))
def test_hom_with_two_entry_sums_counts_the_commuting_tuples(name):
    # Hom between each two-entry direct sum (a repeated summand included)
    # and each entry, both ways, and between two such sums: the workspace
    # puts these together from blocks, the count sees only the sums
    q = QUIVERS[name]()
    reg = qd.knit(q, F2)
    ws = q.workspace
    reps = [e.rep for e in reg.entries]
    sums = [qd.direct_sum([a, b])[0] for a, b in itertools.combinations_with_replacement(reps, 2)]
    assert all(S in ws.sums for S in sums)
    pairs = ([(S, E) for S in sums for E in reps] + [(E, S) for S in sums for E in reps]
             + [(S, T) for S in sums for T in sums])
    for M, N in pairs:
        assert _count_maps(M, N) == 2 ** ws.hom(M, N).dim, (M, N)
