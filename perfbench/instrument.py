"""Spans recorded from outside the library, and the per-layer metrics.

Each probe wraps one function where the library looks it up, written
as the module that makes the call plus the dotted path it uses: the
transfer layer calls ``netsim.run`` and ``sequence``, so those are
patched on ``dyncast.transfer``'s view of them.  A path that no longer
resolves is an error, and so is a probe that records no call on a
workload meant to exercise it.  Probes stay installed for the life of
the process, which is one repetition in a fresh interpreter.

A span is (name, start, end, parent).  Spans are kept in flat arrays
while the workload runs and reduced to per-name totals afterwards; a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

# (span name, calling module, path as the call site spells it)
PROBES = (
    ("fec.encode", "dyncast.transfer", "fec.encode"),
    ("fec.add", "dyncast.transfer", "fec.SymbolDecoder.add"),
    ("fec.blocks", "dyncast.transfer", "fec.SymbolDecoder.blocks"),
    ("transfer.session", "dyncast.transfer", "CarouselSession.__init__"),
    ("transfer.emissions", "dyncast.transfer", "CarouselSession.emissions"),
    ("transfer.buffer_payload", "dyncast.transfer", "CarouselSession.buffer_payload"),
    ("transfer.on_packet", "dyncast.transfer", "SymbolReceiver.on_packet"),
    ("transfer.report", "dyncast.transfer", "report"),
    ("netsim.run", "dyncast.transfer", "netsim.run"),
    ("netsim.policy", "dyncast.netsim", "receiver_policy_step"),
    ("wire.pack", "dyncast.transfer", "wire.pack_packet"),
    ("wire.parse", "dyncast.transfer", "wire.parse_packet"),
    ("reassembly.on_packet", "dyncast.transfer", "Reassembler.on_packet"),
    ("reassembly.covered", "dyncast.reassembly", "ReassemblyBuffer.covered"),
    ("sequencer.sequence", "dyncast.transfer", "sequence"),
    ("channel.tiles_in_window", "dyncast.sequencer", "tiles_in_window"),
    ("carousel.build_plan", "dyncast.transfer", "carousel.build_plan"),
    ("carousel.blocks_for_buffer", "dyncast.transfer", "carousel.blocks_for_buffer"),
)

# The one probe an untraced run keeps: setup time is the import plus
# every CarouselSession build.
SETUP_PROBES = tuple(p for p in PROBES if p[0] == "transfer.session")

# Functions whose result is a generator: the span covers each next().
GENERATORS = {"transfer.emissions"}

# Functions whose result's length is summed: packets per buffer, tiles
# per window.
SIZED = {"sequencer.sequence", "channel.tiles_in_window"}


class ProbeError(RuntimeError):
    """A probe does not resolve, or a probed function was never called."""


def resolve(module: str, path: str):
    """(owner, attribute name) for ``path`` as seen from ``module``."""
    owner = importlib.import_module(module)
    *links, attr = path.split(".")
    for link in links:
        if not hasattr(owner, link):
            raise ProbeError(f"{module}.{path}: {link!r} does not resolve")
        owner = getattr(owner, link)
    if not callable(getattr(owner, attr, None)):
        raise ProbeError(f"{module}.{path}: {attr!r} does not resolve to a function")
    return owner, attr


class Tracer:
    """Records spans around probed functions in flat arrays."""

    def __init__(self, probes=PROBES):
        self.names = [name for name, _, _ in probes]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.items = [0] * len(self.names)
        self._stack = [-1]
        for index, (name, module, path) in enumerate(probes):
            owner, attr = resolve(module, path)
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            setattr(owner, attr, wrap(index, getattr(owner, attr)))

    def _open(self, index: int) -> int:
        span = len(self.span_name)
        self.span_name.append(index)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, index: int, fn):
        sized = self.names[index] in SIZED

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = self._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sized:
                self.items[index] += len(result)
            return result
        return probe

    def _wrap_generator(self, index: int, fn):
        tracer = self

        class Pulls:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                span = tracer._open(index)
                try:
                    return next(self.inner)
                finally:
                    tracer._close(span)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            return Pulls(fn(*args, **kwargs))
        return probe

    def spans(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of each span of ``name``, in the order they opened."""
        index = self.names.index(name)
        return [(self.span_start[span], self.span_end[span])
                for span in range(len(self.span_name)) if self.span_name[span] == index]

    def totals(self, seconds) -> dict[str, dict]:
        """Per span name: calls, items, total seconds, self seconds, and
        the seconds of direct children per child name.  ``seconds`` turns
        a span's start and end into its length."""
        out = {name: {"calls": 0, "items": items, "total": 0.0, "self": 0.0,
                      "children": defaultdict(float)}
               for name, items in zip(self.names, self.items)}
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for span in range(len(names)):
            duration = seconds(starts[span], ends[span])
            row = out[self.names[names[span]]]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration
            parent = parents[span]
            if parent >= 0:
                up = out[self.names[names[parent]]]
                up["self"] -= duration
                up["children"][self.names[names[span]]] += duration
        return out

    def check_called(self, not_called: set[str], seconds) -> dict[str, dict]:
        totals = self.totals(seconds)
        silent = [name for name, row in totals.items() if row["calls"] == 0 and name not in not_called]
        if silent:
            raise ProbeError(f"probed functions never called on this workload: {', '.join(silent)}")
        return totals


def collect_instances(module: str, cls_name: str) -> list:
    """Keep every instance of ``module.cls_name`` built from now on."""
    cls = getattr(importlib.import_module(module), cls_name, None)
    if not isinstance(cls, type):
        raise ProbeError(f"{module}.{cls_name} does not resolve to a class")
    instances: list = []
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append(self)

    cls.__init__ = __init__
    return instances


def layer_metrics(totals: dict[str, dict], receivers: list, runs: list) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``receivers`` are the SymbolReceiver objects the transfers built;
    ``runs`` are the (outcomes, SimResult) pairs.
    """
    def s(name):
        return totals[name]["total"]

    def calls(name):
        return totals[name]["calls"]

    closed = sum(1 for r in receivers if r.done)
    if calls("fec.blocks") != closed:
        # Every blocks() call must be a decoder's first, which solves.
        raise ProbeError(f"{calls('fec.blocks')} blocks() calls for {closed} closed decoders")
    link = defaultdict(int)
    for _, sim in runs:
        for key in ("offered", "delivered", "queue_dropped", "channel_lost"):
            link[key] += getattr(sim.link, key)
    states = [rres.state for _, sim in runs for rres in sim.receivers]
    rx_deliveries = sum(st.received for st in states)
    counters = defaultdict(int)
    for r in receivers:
        for key in ("stored", "duplicate", "stale", "malformed", "flushed"):
            counters[key] += getattr(r.reassembler.counters, key)
    run_children = totals["netsim.run"]["children"]
    netsim_self = s("netsim.run") - run_children["transfer.emissions"] - run_children["transfer.on_packet"]
    return {
        "fec.encode_s": s("fec.encode"),
        "fec.add_s": s("fec.add"),
        "fec.add_calls": calls("fec.add"),
        "fec.add_useful_ratio": sum(r.decoder.distinct for r in receivers) / calls("fec.add"),
        "fec.solve_s": s("fec.blocks"),
        "fec.epsilon": sum(r.epsilon for r in receivers),
        "transfer.session_s": s("transfer.session"),
        "transfer.emissions_s": s("transfer.emissions"),
        "transfer.buffer_payload_s": s("transfer.buffer_payload"),
        "transfer.on_packet_s": s("transfer.on_packet"),
        "transfer.on_packet_self_s": totals["transfer.on_packet"]["self"],
        "transfer.on_packet_calls": calls("transfer.on_packet"),
        "transfer.symbols_fed": sum(r.received_symbols for r in receivers),
        "transfer.report_s": s("transfer.report"),
        "netsim.run_s": s("netsim.run"),
        "netsim.self_s": netsim_self,
        "netsim.policy_s": s("netsim.policy"),
        "netsim.policy_calls": calls("netsim.policy"),
        "netsim.offered": link["offered"],
        "netsim.delivered": link["delivered"],
        "netsim.queue_dropped": link["queue_dropped"],
        "netsim.channel_lost": link["channel_lost"],
        "netsim.rx_deliveries": rx_deliveries,
        "netsim.rx_missed": sum(st.missed for st in states),
        "netsim.delivery_ratio": link["delivered"] / link["offered"],
        "netsim.self_us_per_rx_delivery": 1e6 * netsim_self / rx_deliveries,
        "wire.pack_s": s("wire.pack"),
        "wire.pack_calls": calls("wire.pack"),
        "wire.parse_s": s("wire.parse"),
        "wire.parse_calls": calls("wire.parse"),
        "wire.parses_per_delivery": calls("wire.parse") / link["delivered"],
        "reassembly.on_packet_s": s("reassembly.on_packet"),
        "reassembly.covered_s": s("reassembly.covered"),
        "reassembly.useful_ratio": counters["stored"] / calls("reassembly.on_packet"),
        "reassembly.stored": counters["stored"],
        "reassembly.duplicate": counters["duplicate"],
        "reassembly.stale": counters["stale"],
        "reassembly.malformed": counters["malformed"],
        "reassembly.flushed": counters["flushed"],
        "sequencer.sequence_s": s("sequencer.sequence"),
        "sequencer.self_s": totals["sequencer.sequence"]["self"],
        "sequencer.buffers": calls("sequencer.sequence"),
        "sequencer.packets": totals["sequencer.sequence"]["items"],
        "channel.tiles_in_window_s": s("channel.tiles_in_window"),
        "channel.tiles": totals["channel.tiles_in_window"]["items"],
        "carousel.build_plan_s": s("carousel.build_plan"),
        "carousel.blocks_for_buffer_s": s("carousel.blocks_for_buffer"),
    }
