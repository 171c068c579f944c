"""README's library example is the public API's front door: run it exactly
as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_written(capsys):
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    # a superradiant burst: above six lone atoms' zero-temperature rate 2 gamma0 each,
    # below N^2 times it
    peak = float(capsys.readouterr().out)
    assert 6 * 2 * 0.1 < peak < 36 * 2 * 0.1
