"""The bench harness's probes still find the functions they wrap.

perfbench/instrument.py patches library functions by name; a refactor
that renames or moves one fails here instead of only in a traced bench
run.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    assert instrument.PROBES
    for _name, module, path in instrument.PROBES:
        instrument.resolve(module, path)


def test_importing_the_package_loads_every_probed_module(monkeypatch):
    # perfbench times `import dyncast` as a part of its own; a module the
    # probes patch that loaded only later would move its import cost into
    # an untimed gap.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    probed = set()
    for _name, module, path in instrument.PROBES:
        owner, _ = instrument.resolve(module, path)
        probed.add(module)
        probed.add(owner.__name__ if inspect.ismodule(owner) else owner.__module__)
    code = ("import sys\n"
            "sys.path[0] = sys.argv[1]\n"
            "import dyncast\n"
            "print(' '.join(sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert probed <= set(out.split())


def test_benchmark_mds_workload_runs_traced():
    # The mds workload calls every probe and reads every attribute that
    # the summary and the per-layer metrics use; a renamed field fails
    # here before it fails a benchmark run.
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", "mds",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
