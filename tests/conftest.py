import hashlib
import time
from pathlib import Path

import pytest
from hypothesis import settings

from accelatoms import cli

# property tests draw the same examples on every run, so the suite's result
# does not depend on the run; no example database is read or written
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")

PRESET_NAMES = ("fig2", "fig4", "counter", "bec_design")
SHA256 = Path(__file__).resolve().parent / "data" / "reference" / "sha256.txt"
PRESET_DIRS = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def preset_outputs(tmp_path_factory, pytestconfig):
    """Run every shipped preset once; the acceptance tests share the outputs,
    and the terminal summary compares their sha256 digests."""
    dirs = {}
    for name in PRESET_NAMES:
        out = tmp_path_factory.mktemp(f"preset_{name}")
        assert cli.main(["preset", name, "--out", str(out)]) == 0
        dirs[name] = out
    pytestconfig.stash[PRESET_DIRS] = dirs
    return dirs


def _changed_outputs(dirs):
    """The preset output files, as preset/file, whose sha256 differs from
    tests/data/reference/sha256.txt or that are missing or new; and the
    number of reference digests."""
    expected = {name: digest for digest, name in map(str.split, SHA256.read_text().splitlines())}
    found = {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
             for name, out in dirs.items() for path in out.iterdir()}
    changed = {f for f in expected.keys() | found.keys() if expected.get(f) != found.get(f)}
    return sorted(changed), len(expected)


@pytest.fixture(scope="session")
def acceptance_clock():
    return {"start": time.perf_counter()}


def pytest_terminal_summary(terminalreporter, config):
    dirs = config.stash.get(PRESET_DIRS, None)
    if dirs is not None:  # test_reference.py owns the verdict; this only reports
        changed, total = _changed_outputs(dirs)
        terminalreporter.write_line("")
        if changed:
            terminalreporter.write_line(f"preset outputs no longer byte-identical to "
                                        f"tests/data/reference/sha256.txt ({len(changed)}):")
            for name in changed:
                terminalreporter.write_line(f"  {name}")
        else:
            terminalreporter.write_line(f"preset outputs: all {total} files byte-identical "
                                        "to tests/data/reference/sha256.txt")
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
