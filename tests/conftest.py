import time

import pytest
from hypothesis import settings

from accelatoms import cli

# property tests draw the same examples on every run, so the suite's result
# does not depend on the run; no example database is read or written
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")

PRESET_NAMES = ("fig2", "fig4", "counter", "bec_design")


@pytest.fixture(scope="session")
def preset_outputs(tmp_path_factory):
    """Run every shipped preset once; the acceptance tests share the outputs."""
    dirs = {}
    for name in PRESET_NAMES:
        out = tmp_path_factory.mktemp(f"preset_{name}")
        assert cli.main(["preset", name, "--out", str(out)]) == 0
        dirs[name] = out
    return dirs


@pytest.fixture(scope="session")
def acceptance_clock():
    return {"start": time.perf_counter()}


def pytest_terminal_summary(terminalreporter):
    lines = []
    for status in ("passed", "failed"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                name = rep.nodeid.split("::")[-1]
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"  {verdict}  {name}")
