"""The benchmark's tracer names diffrad functions by module and attribute
path; a renamed or deleted one breaks traced runs, which this suite does not
run.  perfbench/spans.py uses only the standard library, so it loads here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = load_spans()
    targets = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    assert targets
    for name, module, path in targets:
        importlib.import_module(f"diffrad.{module}")
        assert callable(spans._resolve(module, path)), name
