"""The bench harness's probes still find the functions they wrap.

perfbench/instrument.py patches library functions by name; a refactor
that renames or moves one fails here instead of only in a traced bench
run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    assert instrument.PROBES
    for _name, module, path in instrument.PROBES:
        instrument.resolve(module, path)
