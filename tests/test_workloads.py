"""The benchmark's simulated outputs are pinned.

perfbench/workloads.py drives the library the way the benchmark does; each
workload's fingerprint holds every simulated output of its runs (counters,
paper metrics, link counters, end times and reports).  A change that moves
any of them fails here instead of only in a hand comparison.
"""

import hashlib
import importlib
import json
import subprocess
import sys
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


# The traced per-layer metrics of unit "count" in BENCHMARK.json, from
# ``perfbench/worker.py --seed 1 --trace 1``.  They say how much work each
# layer was handed (adds, parses, PDUs stored, buffers flushed), so a
# change that keeps the fingerprint but moves work between layers fails
# here.  The sequencer's and the channel's counts cover only the buffers
# that no earlier run in the process recorded (``transfer._layout_record``),
# and so does ``wire.pack_calls``: each packet of a sequenced buffer is
# packed once, and a recorded buffer replays its rows.
TRACED_COUNTS = {
    "bulk": {
        "fec.add_calls": 5525, "fec.epsilon": 0, "transfer.on_packet_calls": 5525,
        "transfer.symbols_fed": 5525, "netsim.policy_calls": 21, "netsim.offered": 5525,
        "netsim.delivered": 5525, "netsim.queue_dropped": 0, "netsim.channel_lost": 0,
        "netsim.rx_deliveries": 5525, "netsim.rx_missed": 0, "wire.pack_calls": 5543,
        "wire.parse_calls": 5525, "reassembly.stored": 5525, "reassembly.duplicate": 0,
        "reassembly.stale": 0, "reassembly.malformed": 0, "reassembly.flushed": 221,
        "sequencer.buffers": 222, "sequencer.packets": 5543, "channel.tiles": 2420,
    },
    "fanout": {
        "fec.add_calls": 41520, "fec.epsilon": 0, "transfer.on_packet_calls": 137280,
        "transfer.symbols_fed": 137280, "netsim.policy_calls": 1900, "netsim.offered": 112494,
        "netsim.delivered": 80093, "netsim.queue_dropped": 26201, "netsim.channel_lost": 5909,
        "netsim.rx_deliveries": 137280, "netsim.rx_missed": 61420, "wire.pack_calls": 11634,
        "wire.parse_calls": 45736, "reassembly.stored": 137280, "reassembly.duplicate": 0,
        "reassembly.stale": 0, "reassembly.malformed": 0, "reassembly.flushed": 19285,
        "sequencer.buffers": 466, "sequencer.packets": 11634, "channel.tiles": 5080,
    },
    "mds": {
        "fec.add_calls": 4500, "fec.epsilon": 0, "transfer.on_packet_calls": 4509,
        "transfer.symbols_fed": 4509, "netsim.policy_calls": 87, "netsim.offered": 7557,
        "netsim.delivered": 7139, "netsim.queue_dropped": 0, "netsim.channel_lost": 403,
        "netsim.rx_deliveries": 4509, "netsim.rx_missed": 333, "wire.pack_calls": 2553,
        "wire.parse_calls": 1309, "reassembly.stored": 4509, "reassembly.duplicate": 0,
        "reassembly.stale": 0, "reassembly.malformed": 0, "reassembly.flushed": 737,
        "sequencer.buffers": 102, "sequencer.packets": 2553, "channel.tiles": 1110,
    },
}


# The same counts at the held-out seed 7919.
HELD_OUT_TRACED_COUNTS = {
    "bulk": {
        "fec.add_calls": 5528, "fec.epsilon": 3, "transfer.on_packet_calls": 5528,
        "transfer.symbols_fed": 5528, "netsim.policy_calls": 21, "netsim.offered": 5533,
        "netsim.delivered": 5528, "netsim.queue_dropped": 0, "netsim.channel_lost": 0,
        "netsim.rx_deliveries": 5528, "netsim.rx_missed": 0, "wire.pack_calls": 5543,
        "wire.parse_calls": 5528, "reassembly.stored": 5528, "reassembly.duplicate": 0,
        "reassembly.stale": 0, "reassembly.malformed": 0, "reassembly.flushed": 221,
        "sequencer.buffers": 222, "sequencer.packets": 5543, "channel.tiles": 2420,
    },
    "fanout": {
        "fec.add_calls": 41520, "fec.epsilon": 0, "transfer.on_packet_calls": 140721,
        "transfer.symbols_fed": 140721, "netsim.policy_calls": 2003, "netsim.offered": 131304,
        "netsim.delivered": 93555, "netsim.queue_dropped": 30577, "netsim.channel_lost": 6877,
        "netsim.rx_deliveries": 140721, "netsim.rx_missed": 61850, "wire.pack_calls": 12712,
        "wire.parse_calls": 47425, "reassembly.stored": 140721, "reassembly.duplicate": 0,
        "reassembly.stale": 0, "reassembly.malformed": 0, "reassembly.flushed": 20377,
        "sequencer.buffers": 509, "sequencer.packets": 12712, "channel.tiles": 5550,
    },
    "mds": {
        "fec.add_calls": 4500, "fec.epsilon": 0, "transfer.on_packet_calls": 4504,
        "transfer.symbols_fed": 4504, "netsim.policy_calls": 86, "netsim.offered": 7659,
        "netsim.delivered": 7262, "netsim.queue_dropped": 0, "netsim.channel_lost": 380,
        "netsim.rx_deliveries": 4504, "netsim.rx_missed": 242, "wire.pack_calls": 2631,
        "wire.parse_calls": 1304, "reassembly.stored": 4504, "reassembly.duplicate": 0,
        "reassembly.stale": 0, "reassembly.malformed": 0, "reassembly.flushed": 719,
        "sequencer.buffers": 105, "sequencer.packets": 2631, "channel.tiles": 1140,
    },
}


def traced_counts(workload, seed):
    """The metrics of unit "count" from one traced ``perfbench/worker.py`` run."""
    benchmark = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"}
    assert set(TRACED_COUNTS[workload]) == set(HELD_OUT_TRACED_COUNTS[workload]) == names
    done = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, timeout=300, check=True)
    layers = json.loads(done.stdout.splitlines()[-1])["layers"]
    assert layers["wire.pack_calls"] == layers["sequencer.packets"]
    return {name: layers[name] for name in names}


@pytest.mark.parametrize("workload", sorted(TRACED_COUNTS))
def test_traced_counts_are_pinned(workload):
    assert traced_counts(workload, 1) == TRACED_COUNTS[workload]


@pytest.mark.parametrize("workload", sorted(HELD_OUT_TRACED_COUNTS))
def test_held_out_seed_traced_counts_are_pinned(workload):
    assert traced_counts(workload, 7919) == HELD_OUT_TRACED_COUNTS[workload]
