"""README's python examples run as written, so the docs follow the API."""

import re
from pathlib import Path

from dyncast import fec, netsim, sequencer

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_in_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_the_scenario_file_in_the_readme_parses():
    section = README.read_text().split("## Scenario files", 1)[1]
    text = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    scenario = netsim.parse_scenario(text)
    assert scenario.burst == netsim.GilbertLoss(0.10, 8.0)
    assert scenario.receivers == (netsim.ReceiverSpec(2885390), netsim.ReceiverSpec(721347, 2.5))


def as_written(value: int) -> str:
    """A cap as README writes it: a power of two above 2**16 as 2 and a superscript."""
    exponent = value.bit_length() - 1
    if value != 1 << exponent or value <= 1 << 16:
        return str(value)
    return "2" + str(exponent).translate(str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹"))


def test_the_exit_code_table_names_every_input_cap():
    # Every row that names a cap also states its value.
    table = README.read_text().split("| command ", 1)[1].split("\n\n", 1)[0]
    caps = {"sequencer.MAX_WINDOW_TILES": sequencer.MAX_WINDOW_TILES,
            "netsim.MAX_SUB_SLOTS": netsim.MAX_SUB_SLOTS, "netsim.MAX_PACKETS": netsim.MAX_PACKETS,
            "fec.MAX_N": fec.MAX_N, "fec.MAX_CODE_BYTES": fec.MAX_CODE_BYTES}
    for name, value in caps.items():
        rows = [row for row in table.splitlines() if f"`{name}`" in row]
        assert rows, f"no exit-code row names {name}"
        for row in rows:
            assert as_written(value) in row, (name, as_written(value), row)
