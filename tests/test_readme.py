"""README's python examples run as written, so the docs follow the API."""

import re
from pathlib import Path

from dyncast import netsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_in_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_the_scenario_file_in_the_readme_parses():
    section = README.read_text().split("## Scenario files", 1)[1]
    text = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    scenario = netsim.parse_scenario(text)
    assert scenario.burst == netsim.GilbertLoss(0.10, 8.0)
    assert scenario.receivers == (netsim.ReceiverSpec(2885390), netsim.ReceiverSpec(721347, 2.5))
