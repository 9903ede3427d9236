"""README's python examples run as written, so the docs follow the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_in_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
