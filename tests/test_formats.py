"""The representation/morphism data file format and name resolution."""

from fractions import Fraction

import pytest

import quivdet as qd
from quivdet.errors import DataSyntaxError, SemanticError
from quivdet.formats import load_session, parse_data_file
from quivdet.linalg import PrimeField, RATIONALS


DATA = """\
# representations of the running example
rep X
dim 1 1
dim 2 1
map a 1x1 1

rep Y
dim 2 1
dim 3 1
map b 1x1 1

morphism g X Y
comp 2 1x1 1

morphism h P_2 I_2
comp 2 1x1 -1/2
"""


def test_parse_reps_and_morphisms(a3):
    reps, morphisms = parse_data_file(DATA, a3)
    assert reps["X"].dims == (1, 1, 0)
    assert reps["Y"].dims == (0, 1, 1)
    g = morphisms["g"]
    assert g.domain == reps["X"] and g.codomain == reps["Y"]
    h = morphisms["h"]
    assert h.comps[1].entries[0][0] == Fraction(-1, 2)
    assert qd.is_isomorphic(reps["X"], qd.projective_at(a3, "2"))


def test_unspecified_blocks_are_zero(a3):
    reps, _ = parse_data_file("rep Z\ndim 1 2\ndim 3 1\n", a3)
    assert reps["Z"].dims == (2, 0, 1)
    assert all(m.is_zero() for m in reps["Z"].action)


def test_prime_field_entries(a3):
    f7 = PrimeField(7)
    reps, _ = parse_data_file("rep W\ndim 1 1\ndim 2 1\nmap a 1x1 -1/2\n", a3, f7)
    assert reps["W"].action[0].entries[0][0] == f7.of(Fraction(-1, 2))


def test_error_unknown_vertex(a3):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file("rep X\ndim 9 1\n", a3)
    assert e.value.line == 2


def test_error_bad_shape(a3):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file("rep X\ndim 1 1\ndim 2 1\nmap a 2x2 1 0 0 1\n", a3)
    assert e.value.line == 4


def test_error_wrong_entry_count(a3):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file("rep X\ndim 1 2\ndim 2 1\nmap a 2x1 1\n", a3)
    assert e.value.line == 4


def test_error_directive_outside_block(a3):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file("dim 1 1\n", a3)
    assert e.value.line == 1


def test_error_non_commuting_morphism(a3):
    # S_2 lives at vertex 2 only; at P_2 the arrow a 2 -> 1 acts by 1, so a
    # nonzero component at vertex 2 cannot commute with the zero one at 1
    for field in (RATIONALS, PrimeField(7)):
        with pytest.raises(DataSyntaxError) as e:
            parse_data_file("morphism k S_2 P_2\ncomp 2 1x1 1\n", a3, field)
        assert e.value.line == 1
        assert str(e.value) == "line 1: morphism 'k': square at arrow 'a' does not commute"


@pytest.mark.parametrize("text, line, message", [
    ("rep X\ndim 1 1\ndim 2 1\nmap a 1by1 1\n", 4, "bad shape '1by1'"),
    ("rep X\ndim 1 1\ndim 2 1\nmap a 1x1 z\n", 4, "bad matrix entry"),
    ("rep X\ndim 1 1\ndim 2 1\nmap a 1x1 1/0\n", 4, "bad matrix entry"),
    ("rep X Y\n", 1, "expected 'rep <name>'"),
    ("morphism k P_1\n", 1, "expected 'morphism <name> <domain> <codomain>'"),
    ("rep X\ndim 1\n", 2, "expected 'dim <vertex> <n>'"),
    ("rep X\nmap a\n", 2, "expected 'map <arrow> <r>x<c> <entries>'"),
    ("morphism k P_1 P_1\ncomp 1\n", 2, "expected 'comp <vertex> <r>x<c> <entries>'"),
    ("rep X\ndim 1 two\n", 2, "bad dimension 'two'"),
    ("rep X\ndim 1 -1\n", 2, "dimensions must be nonnegative"),
    ("map a 1x1 1\n", 1, "'map' outside of a rep block"),
    ("rep X\ncomp 1 1x1 1\n", 2, "'comp' outside of a morphism block"),
    ("morphism k P_1 P_1\ndim 1 1\n", 2, "'dim' outside of a rep block"),
    ("rep X\nmap z 1x1 1\n", 2, "unknown arrow 'z'"),
    ("morphism k P_1 P_1\ncomp 9 1x1 1\n", 2, "unknown vertex '9'"),
    ("rep X\nfrob 1\n", 2, "unknown directive 'frob'"),
    ("rep X\ndim 1 1\nrep X\n", 3, "duplicate rep name 'X'"),
    ("morphism k P_1 P_1\nmorphism k P_2 P_2\n", 2, "duplicate morphism name 'k'"),
], ids=["shape", "entry", "zero-denominator", "rep-fields", "morphism-fields", "dim-fields",
        "map-fields", "comp-fields", "dimension", "negative-dimension", "map-outside",
        "comp-outside", "dim-outside", "unknown-arrow", "unknown-vertex", "unknown-directive",
        "duplicate-rep", "duplicate-morphism"])
def test_data_syntax_errors_name_their_line(a3, text, line, message):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file(text, a3)
    assert e.value.line == line
    assert str(e.value).startswith(f"line {line}: {message}")


def test_fp_entry_with_a_denominator_divisible_by_p(a3):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file("rep W\ndim 1 1\ndim 2 1\nmap a 1x1 1/7\n", a3, PrimeField(7))
    assert str(e.value) == "line 4: bad matrix entry: denominator divisible by 7"
    reps, _ = parse_data_file("rep W\ndim 1 1\ndim 2 1\nmap a 1x1 1/14\n", a3, PrimeField(11))
    assert reps["W"].action[0].entries[0][0] == PrimeField(11).of(Fraction(1, 14))


def test_error_unknown_morphism_endpoint(a3):
    with pytest.raises(DataSyntaxError) as e:
        parse_data_file("morphism k NOPE P_1\n", a3)
    assert e.value.line == 1


def test_session_canonical_names(a3):
    session = load_session(a3, RATIONALS, None)
    assert session.representation("P_2").dims == (1, 1, 0)
    assert session.representation("I_1").dims == (1, 1, 1)
    assert session.representation("S_3").dims == (0, 0, 1)
    with pytest.raises(SemanticError):
        session.representation("P_9")
    with pytest.raises(SemanticError):
        session.morphism("nope")


def test_session_data_shadows_canonical(a3):
    session = load_session(a3, RATIONALS, "rep P_1\ndim 3 1\n")
    assert session.representation("P_1").dims == (0, 0, 1)
