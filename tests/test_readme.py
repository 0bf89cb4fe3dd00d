"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick tour'"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library quick tour", "exec"), namespace)
    assert namespace["s"].values.shape == (10,)
