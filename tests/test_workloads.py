"""The benchmark's simulated outputs are pinned.

perfbench/workloads.py drives the library the way the benchmark does; each
workload's fingerprint holds every simulated output of its runs (counters,
paper metrics, link counters, end times and reports).  A change that moves
any of them fails here instead of only in a hand comparison.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# SHA-256 of json.dumps(summarize(...)["fingerprint"], sort_keys=True) at
# seed 1.  Computed on x86_64 with glibc 2.36 and CPython 3.11.7; like
# EMISSIONS_SHA256 in test_transfer.py the outputs depend on libm's pow, so
# a mismatch on another platform is a platform difference first, not a
# reason to re-pin.
FINGERPRINT_SHA256 = {
    "bulk": "87cdf45937aff926060644b72c46fbb47dc8757fb9cd85e777c9299a0fba097d",
    "fanout": "946bb11ae102c36586e880e0ed68dbe2d1c7481844d8ad86db5bf12d1b44da08",
    "mds": "368a62456dae792d603c0f82bd2bf87a6fb0812a76a4e58afdc7edad766599c3",
}


@pytest.mark.parametrize("workload", sorted(FINGERPRINT_SHA256))
def test_workload_fingerprint_is_pinned(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    inputs = workloads.make_inputs(workload, 1)
    summary = workloads.summarize(inputs, workloads.run(inputs))
    assert summary["failed"] == 0
    fingerprint = json.dumps(summary["fingerprint"], sort_keys=True).encode()
    assert hashlib.sha256(fingerprint).hexdigest() == FINGERPRINT_SHA256[workload]
