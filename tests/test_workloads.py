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


# The same digests at the held-out seed 7919, which perfbench/design.json
# keeps for checking that a change holds beyond the default seed.
HELD_OUT_FINGERPRINT_SHA256 = {
    "bulk": "2200a6c8c7d4d40e4bf713cc088976cc7ae5c8fae58730b2fb5ed2119f4e8278",
    "fanout": "7788405be990cd9b2fbdeb6ad83e2580dbb189c6ae812e3e2ef9222366477868",
    "mds": "65a5a9a747475ad1e317400f0e7e04cbc0978908f04f5a185e66c9e45fb7ada8",
}


def fingerprint_sha256(monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    inputs = workloads.make_inputs(workload, seed)
    summary = workloads.summarize(inputs, workloads.run(inputs))
    assert summary["failed"] == 0
    fingerprint = json.dumps(summary["fingerprint"], sort_keys=True).encode()
    return hashlib.sha256(fingerprint).hexdigest()


@pytest.mark.parametrize("workload", sorted(FINGERPRINT_SHA256))
def test_workload_fingerprint_is_pinned(monkeypatch, workload):
    assert fingerprint_sha256(monkeypatch, workload, 1) == FINGERPRINT_SHA256[workload]


@pytest.mark.parametrize("workload", sorted(HELD_OUT_FINGERPRINT_SHA256))
def test_held_out_seed_fingerprint_is_pinned(monkeypatch, workload):
    assert fingerprint_sha256(monkeypatch, workload, 7919) == HELD_OUT_FINGERPRINT_SHA256[workload]
