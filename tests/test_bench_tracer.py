"""The benchmark's tracer names quivdet functions; a rename must not break it."""

import importlib
import importlib.util
from pathlib import Path


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # `perfbench/run.py --trace 1` wraps each TARGETS entry by name and
    # crashes on the first one that is gone
    spans = _load_spans()
    assert spans.TARGETS
    for module, qualname in spans.TARGETS:
        obj = importlib.import_module(f"quivdet.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{module}.{qualname} does not resolve"
        assert callable(obj), f"{module}.{qualname} is not callable"
