"""The benchmark's pinned outputs replayed as tests: determiner reports must
stay byte-identical to ``perfbench/refs``, not only inside a benchmark run."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import quivdet as qd
from quivdet.cli import main
from quivdet.determiner import DeterminerEngine
from quivdet.formats import load_session

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


def _cold_report_matches_its_reference(name: str) -> None:
    w = wl.WORKLOADS[name]
    q = qd.parse_quiver(wl.read_input(w.quiver))
    field = qd.field_from_name("rat")
    f = load_session(q, field, wl.read_input(w.data)).morphism("f")
    reg = qd.knit(q, field, w.cap)
    assert (len(reg.entries), reg.complete) == (w.registry_size, w.complete)
    report = DeterminerEngine(reg).report(f, morphism_name="f", verify=True)
    assert wl.report_text(report) == _ref(f"{w.name}.json")


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
