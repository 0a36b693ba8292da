"""The traced benchmark wraps the codec by rebinding module-level names.

perfbench/spans.py lists those names in FUNCTION_SPANS; a refactor that
renames or removes one breaks `perfbench/run.py --trace 1` without any
codec test noticing, so every binding is checked here.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    spans = _load_spans()
    assert spans.FUNCTION_SPANS
    for name, bindings in spans.FUNCTION_SPANS.items():
        assert bindings, name
        for owner, attr in bindings:
            assert callable(getattr(owner, attr)), (name, owner, attr)
