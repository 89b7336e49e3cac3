"""The benchmark tracer's targets still exist in the library."""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "spans.py",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_exists():
    spans = _load_spans()
    missing = []
    for module, owner, attr, key, _ in spans.SPANS:
        mod = importlib.import_module(f"quadlie.{module}")
        if owner is None:
            found = hasattr(mod, attr)
        else:
            cls = getattr(mod, owner, None)
            found = cls is not None and attr in cls.__dict__
        if not found:
            missing.append(key)
    for module, owner, key in spans.COUNTERS:
        if not hasattr(importlib.import_module(f"quadlie.{module}"), owner):
            missing.append(key)
    assert not missing
