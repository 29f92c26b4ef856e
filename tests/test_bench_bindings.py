"""The benchmark's tracer (benchmarks/spans.py) replaces wspolicy functions by
(module, attribute).  A name that a refactor unbinds only fails a traced
benchmark run, so check every entry of its tables here."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    entries = [entry[:2] for table in (spans.TRACED, spans.COUNTED, spans.LEAF_TIMED)
               for entry in table]
    assert entries
    unbound = [(module, attr) for module, attr in entries
               if not callable(getattr(importlib.import_module(f"wspolicy.{module}"), attr, None))]
    assert unbound == []
