"""CLI behaviors: subcommands, exit codes, and byte-stable JSON output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivdet.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
A3Q = str(DATA_DIR / "a3.quiver")
A3D = str(DATA_DIR / "a3.reps")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_det_golden(capsys):
    code, out, _ = run(capsys, "det", A3Q, A3D, "f", "--verify")
    assert code == 0
    assert "S_2" in out and "P_3" in out and "CERTIFIED" in out


def test_det_json_golden(capsys):
    code, out, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [m["label"] for m in doc["determiner"]] == ["S_2", "P_3"]
    assert [m["provenance"] for m in doc["determiner"]] == \
        ["from-tau-minus(P_1)", "from-projective-cover(S_3)"]
    assert doc["oracle"]["certified"] is True


def test_det_json_byte_stable(capsys):
    _, out1, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--json")
    _, out2, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--json")
    assert out1 == out2


def test_det_json_matches_golden_file(capsys):
    _, out, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--json")
    golden = (DATA_DIR / "golden_a3_report.json").read_text(encoding="utf-8")
    assert out == golden


def test_det_json_matches_golden_file_under_optimize():
    # python -O strips assert statements; the invariant checks must not
    # depend on them, and the output must not change.  Over F_2 only "field"
    # differs: every object here has End = k, whose radical is 0 over every
    # field, so no trace form refuses the small prime
    root = DATA_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    golden = (DATA_DIR / "golden_a3_report.json").read_bytes()
    for extra, expected in (((), golden),
                            (("--field", "fp:2"), golden.replace(b'"field": "rat"', b'"field": "fp:2"'))):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "quivdet.cli", "det", "data/a3.quiver", "data/a3.reps",
             "f", "--verify", "--json", *extra],
            cwd=root, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


def test_det_incomplete_registry_warns_but_passes(tmp_path, capsys):
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    data = tmp_path / "kron.reps"
    data.write_text("morphism f P_2 P_1\ncomp 2 2x1 1 0\n", encoding="utf-8")
    code, out, err = run(capsys, "det", str(kq), str(data), "f", "--verify",
                         "--cap", "6")
    assert code == 0
    assert "INCOMPLETE" in out
    assert "warning" in err and "not a certificate" in err


def test_det_override_counterexample(capsys):
    code, out, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--override", "P_3")
    assert code == 1
    assert "S_2" in out   # the witness is printed


def test_det_verdict_line_fails_exactly_when_the_exit_code_does(capsys):
    # on a complete registry P_1 neither almost factors nor breaks anything
    # when removed: a counterexample, printed as one
    code, out, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--override", "S_2,P_3,P_1")
    assert code == 1
    assert "P_1: almost factors = False" in out
    assert "P_1: removal breaks at NOTHING (not minimal!)" in out
    assert "verdict: FAILED" in out


def test_det_missing_removal_witness_beyond_the_cap_is_inconclusive(capsys):
    # at cap 4 the witness of S_2's removal is not registered (cap 5 finds
    # it, cap 6 certifies), so the bounded search finds no counterexample
    code, out, err = run(capsys, "det", A3Q, A3D, "g", "--left", "--verify", "--cap", "4")
    assert code == 0
    assert "S_2: removal finds no witness among the registered objects" in out
    assert "NOTHING" not in out
    assert "verdict: no counterexample found (bounded)" in out
    assert "not a certificate" in err
    code, out, _ = run(capsys, "det", A3Q, A3D, "g", "--left", "--verify", "--cap", "5")
    assert code == 0 and "S_2: removal breaks at S_2" in out
    code, out, _ = run(capsys, "det", A3Q, A3D, "g", "--left", "--verify", "--cap", "6")
    assert code == 0 and "verdict: CERTIFIED" in out


def test_det_left(capsys):
    code, out, _ = run(capsys, "det", A3Q, A3D, "f", "--left", "--verify")
    assert code == 0
    assert "left determiner" in out


def test_det_secondary_morphism(capsys):
    code, out, _ = run(capsys, "det", A3Q, A3D, "g", "--verify")
    assert code == 0
    assert "S_2" in out and "P_3" in out


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 1\nfrob\n", encoding="utf-8")
    code, _, err = run(capsys, "ar", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text", ["vertex 1\nvertex 2 3\n", "vertex 1\narrow a 1\n",
                                  "vertex 1\nvertex 2\narrow a 1 2\narrow a 2 1\n",
                                  "vertex 1\narrow a 9 1\n"],
                         ids=["vertex-arity", "arrow-arity", "duplicate-arrow", "unknown-source"])
def test_quiver_errors_exit_2_with_their_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.quiver"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "ar", str(bad))
    assert code == 2 and out == ""
    assert f"line {len(text.splitlines())}" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "det", "/nonexistent.quiver", A3D, "f")
    assert code == 2


def test_unknown_morphism_exit_3(capsys):
    code, _, err = run(capsys, "det", A3Q, A3D, "nope")
    assert code == 3
    assert "nope" in err


def test_unknown_label_override_exit_3(capsys):
    code, _, err = run(capsys, "det", A3Q, A3D, "f", "--verify", "--override", "Z_9")
    assert code == 3


def test_ar_listing(capsys):
    code, out, _ = run(capsys, "ar", A3Q)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 6
    assert lines[0].startswith("P_1")
    assert "complete" in out and "A3" in out


def test_ar_kronecker_incomplete(tmp_path, capsys):
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "ar", str(kq), "--cap", "8")
    assert code == 0
    assert "INCOMPLETE" in out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) >= 8


def test_ar_single_vertex(tmp_path, capsys):
    qf = tmp_path / "pt.quiver"
    qf.write_text("vertex x\n", encoding="utf-8")
    code, out, _ = run(capsys, "ar", str(qf))
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1


def test_hom_command(capsys):
    code, out, _ = run(capsys, "hom", A3Q, "P_2", "I_2")
    assert code == 0
    assert "= 1" in out


def test_hom_with_fp_field(capsys):
    code, out, _ = run(capsys, "hom", A3Q, "P_2", "I_2", "--field", "fp:10007")
    assert code == 0
    assert "= 1" in out


def test_det_with_fp_field(capsys):
    code, out, _ = run(capsys, "det", A3Q, A3D, "f", "--verify", "--field", "fp:10007")
    assert code == 0
    assert "S_2" in out and "P_3" in out and "CERTIFIED" in out


def test_det_fp_too_small_exit_3(tmp_path, capsys):
    # the right minimal version of P_4 + (twisted P_4) -> I_1, a domain with
    # no sum record, a four-dimensional End and total dimension 8, needs no
    # trace form: over F_2 and F_3 the report is the one over the rationals.
    # The splitter's field-degree certificate still needs p > total
    # dimension: (I, J_2(0)) on the Kronecker quiver has End = k[x]/(x^2),
    # total dimension 4, and no candidate splits it
    quiver = tmp_path / "a4.quiver"
    quiver.write_text("vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
                      "arrow a 2 1\narrow b 3 2\narrow c 4 3\n", encoding="utf-8")
    data = tmp_path / "a4.reps"
    data.write_text("rep X\ndim 1 2\ndim 2 2\ndim 3 2\ndim 4 2\n"
                    "map a 2x2 1 0 0 2\nmap b 2x2 1 0 0 1\nmap c 2x2 1 0 0 1\n\n"
                    "morphism f X I_1\ncomp 1 1x2 1 0\ncomp 2 1x2 1 0\n"
                    "comp 3 1x2 1 0\ncomp 4 1x2 1 0\n", encoding="utf-8")
    _, want, _ = run(capsys, "det", str(quiver), str(data), "f", "--verify", "--json")
    for field in ("fp:2", "fp:3"):
        code, out, _ = run(capsys, "det", str(quiver), str(data), "f", "--verify", "--json",
                           "--field", field)
        assert code == 0
        assert out == want.replace('"field": "rat"', f'"field": "{field}"')
        code, out, _ = run(capsys, "det", str(quiver), str(data), "f", "--verify", "--field", field)
        assert code == 0 and "CERTIFIED" in out
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    data = tmp_path / "j2.reps"
    data.write_text("rep J\ndim 1 2\ndim 2 2\nmap a 2x2 1 0 0 1\nmap b 2x2 0 0 1 0\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(kq), "J", "--data", str(data), "--field", "fp:3")
    assert code == 3 and out == ""
    assert "rat" in err


def test_bad_field_flag_exit_3(capsys):
    code, _, err = run(capsys, "det", A3Q, A3D, "f", "--field", "fp:6")
    assert code == 3


def test_left_with_override_rejected(capsys):
    code, _, err = run(capsys, "det", A3Q, A3D, "f", "--left", "--override", "P_3")
    assert code == 3
    assert "override" in err


def test_left_with_override_rejected_before_knitting(tmp_path, capsys, monkeypatch):
    # with the default cap, knitting the Kronecker quiver would not return
    import quivdet.cli

    def no_knit(*args, **kwargs):
        raise AssertionError("contradictory flags must be rejected before knitting")

    monkeypatch.setattr(quivdet.cli, "knit", no_knit)
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    data = tmp_path / "kron.reps"
    data.write_text("morphism f P_2 P_1\ncomp 2 2x1 1 0\n", encoding="utf-8")
    code, _, err = run(capsys, "det", str(kq), str(data), "f", "--left", "--override", "P_1")
    assert code == 3
    assert "--override is only supported for right determiners" in err


def test_decompose_inconclusive_exit_3(tmp_path, capsys, monkeypatch):
    # with the identity as the only candidate, the regular (I, rotation)
    # representation of the Kronecker quiver can be neither split nor certified
    import importlib

    from quivdet.reps import identity_morphism

    decompose_module = importlib.import_module("quivdet.decompose")  # not the function
    monkeypatch.setattr(decompose_module, "_candidate_endos",
                        lambda E: iter([identity_morphism(E.M)]))
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    data = tmp_path / "rot.reps"
    data.write_text("rep R\ndim 1 2\ndim 2 2\nmap a 2x2 1 0 0 1\nmap b 2x2 0 -1 1 0\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(kq), "R", "--data", str(data), "--cap", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "End/rad has dimension 2" in err


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", A3Q, "P_2")
    assert code == 0
    assert "P_2" in out and "x1" in out


def test_decompose_data_rep(tmp_path, capsys):
    data = tmp_path / "two.reps"
    data.write_text("rep M\ndim 1 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "decompose", A3Q, "M", "--data", str(data))
    assert code == 0
    assert "x2" in out


def test_decompose_zero_rep(tmp_path, capsys):
    data = tmp_path / "zero.reps"
    data.write_text("rep Z\n", encoding="utf-8")
    code, out, _ = run(capsys, "decompose", A3Q, "Z", "--data", str(data))
    assert code == 0 and out == "Z is the zero representation\n"
    code, out, _ = run(capsys, "decompose", A3Q, "Z", "--data", str(data), "--json")
    assert code == 0 and json.loads(out) == {"rep": "Z", "summands": []}


def test_decompose_off_dynkin_knits_no_registry(tmp_path, capsys, monkeypatch):
    # at the default cap a Kronecker knit would not return; the summands are
    # labelled by the canonical P_x, I_x and S_x instead
    import quivdet.cli

    def no_knit(*args, **kwargs):
        raise AssertionError("decompose must not knit off Dynkin quivers")

    monkeypatch.setattr(quivdet.cli, "knit", no_knit)
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    data = tmp_path / "r.reps"
    data.write_text("rep R\ndim 1 1\ndim 2 1\nmap a 1x1 1\nmap b 1x1 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "decompose", str(kq), "P_1")
    assert code == 0
    assert out == "P_1\t(1,2)\tx1\n"
    code, out, _ = run(capsys, "decompose", str(kq), "I_1", "--json")
    assert code == 0 and json.loads(out)["summands"][0]["label"] == "I_1"
    code, out, _ = run(capsys, "decompose", str(kq), "R", "--data", str(data))
    assert code == 0
    assert out == "M[1, 1]#?\t(1,1)\tx1\n"


def test_cap_only_on_knitting_commands(capsys):
    for argv in (["hom", A3Q, "P_1", "P_2", "--cap", "3"],
                 ["factor", A3Q, A3D, "f", "f", "--cap", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 3" in capsys.readouterr().err


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", A3Q, A3D, "f", "f")
    assert code == 0
    assert out.startswith("yes")


def test_factor_no(tmp_path, capsys):
    data = tmp_path / "m.reps"
    data.write_text(
        "morphism f P_2 I_2\ncomp 2 1x1 1\n"
        "morphism idI I_2 I_2\ncomp 2 1x1 1\ncomp 3 1x1 1\n",
        encoding="utf-8")
    code, out, _ = run(capsys, "factor", A3Q, str(data), "idI", "f")
    assert code == 0
    assert out.startswith("no")


def test_factor_knits_no_registry(tmp_path, capsys, monkeypatch):
    # with the default cap, knitting the Kronecker quiver would not return
    import quivdet.cli

    def no_knit(*args, **kwargs):
        raise AssertionError("factor must not knit a registry")

    monkeypatch.setattr(quivdet.cli, "knit", no_knit)
    kq = tmp_path / "kron.quiver"
    kq.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n", encoding="utf-8")
    data = tmp_path / "kron.reps"
    data.write_text("morphism f P_2 P_1\ncomp 2 2x1 1 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "factor", str(kq), str(data), "f", "f")
    assert code == 0
    assert out.startswith("yes")


# -- pinned JSON and text output over Q and F_7 --------------------------------

PIN_DATA = ("rep X\ndim 1 1\ndim 2 1\nmap a 1x1 -1\n"
            "morphism idX X X\ncomp 1 1x1 1\ncomp 2 1x1 1\n"
            "morphism g P_2 X\ncomp 1 1x1 1\ncomp 2 1x1 -1\n"
            "morphism f P_2 I_2\ncomp 2 1x1 1\n"
            "morphism idI I_2 I_2\ncomp 2 1x1 1\ncomp 3 1x1 1\n")
FIELD_MINUS_ONE = [("rat", "-1"), ("fp:7", "6")]


@pytest.mark.parametrize("field", ["rat", "fp:7"])
def test_ar_json_is_pinned(field, capsys):
    code, out, _ = run(capsys, "ar", A3Q, "--json", "--field", field)
    assert code == 0
    rows = [("P_1", [1, 0, 0], "1", None, "S_2"), ("P_2", [1, 1, 0], "2", None, "I_2"),
            ("P_3", [1, 1, 1], "3", "1", None), ("S_2", [0, 1, 0], None, None, "I_3"),
            ("I_2", [0, 1, 1], None, "2", None), ("I_3", [0, 0, 1], None, "3", None)]
    assert json.loads(out) == {
        "underlying_graph": {"kind": "dynkin", "types": ["A3"]},
        "complete": True,
        "entries": [{"label": l, "dim_vector": d, "projective": p, "injective": i, "tau_minus": t}
                    for l, d, p, i, t in rows],
    }
    assert out.endswith("}\n") and out.startswith('{\n  "underlying_graph": {\n    "kind": "dynkin"')


@pytest.mark.parametrize("field, minus_one", FIELD_MINUS_ONE)
def test_hom_output_is_pinned(field, minus_one, tmp_path, capsys):
    # the hom basis map of P_2 into X has the entry -1, which F_7 prints as 6
    data = tmp_path / "pin.reps"
    data.write_text(PIN_DATA, encoding="utf-8")
    code, out, _ = run(capsys, "hom", A3Q, "P_2", "X", "--data", str(data), "--json", "--field", field)
    assert code == 0
    assert json.loads(out) == {"domain": "P_2", "codomain": "X", "dimension": 1,
                               "basis": [{"1": [["1"]], "2": [[minus_one]], "3": []}]}
    code, out, _ = run(capsys, "hom", A3Q, "P_2", "X", "--data", str(data), "--field", field)
    assert code == 0
    assert out == ("dim Hom(P_2, X) = 1\nbasis element 0:\n"
                   f"  1: Mat[1]\n  2: Mat[{minus_one}]\n  3: Mat(0x0)\n")


@pytest.mark.parametrize("field, minus_one", FIELD_MINUS_ONE)
def test_factor_output_is_pinned(field, minus_one, tmp_path, capsys):
    data = tmp_path / "pin.reps"
    data.write_text(PIN_DATA, encoding="utf-8")
    code, out, _ = run(capsys, "factor", A3Q, str(data), "g", "idX", "--json", "--field", field)
    assert code == 0
    assert json.loads(out) == {"factors": True,
                               "witness": {"1": [["1"]], "2": [[minus_one]], "3": []}}
    code, out, _ = run(capsys, "factor", A3Q, str(data), "g", "idX", "--field", field)
    assert code == 0
    assert out == f"yes\n  1: Mat[1]\n  2: Mat[{minus_one}]\n  3: Mat(0x0)\n"
    code, out, _ = run(capsys, "factor", A3Q, str(data), "idI", "f", "--json", "--field", field)
    assert code == 0 and out == '{\n  "factors": false\n}\n'


@pytest.mark.parametrize("field", ["rat", "fp:7"])
def test_det_of_a_split_epimorphism_prints_an_empty_determiner(field, tmp_path, capsys):
    data = tmp_path / "pin.reps"
    data.write_text(PIN_DATA, encoding="utf-8")
    code, out, _ = run(capsys, "det", A3Q, str(data), "idX", "--verify", "--field", field)
    assert code == 0
    assert out == (
        f"morphism idX over field {field} (right determiner)\n"
        "  domain dims [1, 1, 0], minimal version dims [1, 1, 0], split off [0, 0, 0]\n"
        "  split epimorphism: the determiner is empty (trivial)\n"
        "  intrinsic kernel: zero\n"
        "  socle of cokernel: zero\n"
        "  determiner:\n"
        "    (empty)\n"
        "  registry: 6 objects, complete\n"
        "  oracle: checked 6 objects, determination_ok=True\n"
        "  verdict: CERTIFIED\n")
