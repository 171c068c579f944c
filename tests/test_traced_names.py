"""perfbench's span tracer wraps program functions by (module, attribute)
name. A name that no longer resolves would break a traced benchmark run
(`--trace 1`), which nothing else in the suite exercises; so would a traced
module that is not loaded yet when the tracer installs its wrappers."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for name, (module, attr) in traced.items():
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module}.{attr} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module}.{attr} is not callable"


def test_import_loads_no_numpy_random_nor_scipy_but_every_traced_module():
    # `import accelatoms` and perfbench's `from accelatoms import config,
    # runner` load neither numpy.random nor scipy (their import time counts
    # in every execution's set-up), yet every module the tracer wraps is
    # loaded by then: it reads them from sys.modules, without importing
    traced = sorted({module for module, _ in _traced().values()})
    code = ("import sys\n"
            "def unwanted():\n"
            "    return sorted(m for m in sys.modules if m.startswith(('numpy.random', 'scipy')))\n"
            "import accelatoms\n"
            "print(*unwanted())\n"
            "from accelatoms import config, runner\n"
            "print(*unwanted())\n"
            f"print(*[m for m in {traced!r} if m not in sys.modules])\n")
    src = str(SPANS.parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "", ""]
    assert "accelatoms.rates" in traced and "accelatoms.bec" in traced
