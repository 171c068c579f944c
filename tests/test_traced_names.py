"""perfbench's span tracer wraps program functions by (module, attribute)
name. A name that no longer resolves would break a traced benchmark run
(`--trace 1`), which nothing else in the suite exercises."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for name, (module, attr) in spans.TRACED.items():
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module}.{attr} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module}.{attr} is not callable"
