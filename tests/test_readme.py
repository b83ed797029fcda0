"""The README's documented examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}  # the second block continues the first
    for code in blocks:
        exec(compile(code, "README.md (Library quickstart)", "exec"), namespace)
