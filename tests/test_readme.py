"""The README's Library example runs as printed."""

import re

from test_golden import ROOT


def test_library_example_runs():
    # Compiled with its asserts kept, also under ``python -O``.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    exec(compile(code, "README.md (Library)", "exec", optimize=0), {})
