"""Deterministic discrete-event simulation of one bottleneck multicast path.

Packets from a time-ordered source stream pass through a single
drop-tail FIFO served at the bottleneck rate, the packet in service
heading the queue, then through an optional loss stage (independent
losses, a two-state burst model, or both), and are finally delivered to
every receiver subscribed to the packet's group at that instant.
Receivers adjust their subscription only at sub-slot boundaries: they
join the next younger group whenever the average rate they would have
consumed since their start, including one sub slot ahead at the
candidate's rate, stays within their target.  Groups are left only once
quiescent, which costs nothing by then.  Events at one instant run in a
fixed order: the boundary's policy step, then the service completion,
then the emission.

Everything random flows from one seeded generator drawn in a fixed
order, so equal seeds give bit-identical traces and counters.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .channel import (
    BASE_GROUP,
    ChannelConfig,
    cumulative_rate_integral,
    group_quiescence_time,
    interval_index,
)
from . import wire

_EPS = 1e-9


@dataclass(frozen=True)
class ReceiverSpec:
    target_rate: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.target_rate <= 0:
            raise ValueError("target_rate must be positive")
        if self.start_time < 0:
            raise ValueError("start_time cannot be negative")


@dataclass(frozen=True)
class GilbertLoss:
    """Two-state burst loss: stationary loss rate and mean burst length.

    The chain enters the bad state with probability ``p_enter``, which
    reaches 1 at ``rate = mean_burst / (1 + mean_burst)``; a higher rate
    would need an entry probability above 1.
    """

    rate: float = 0.10
    mean_burst: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < 1.0:
            raise ValueError("burst loss rate must be in (0, 1)")
        if self.mean_burst < 1.0:
            raise ValueError("mean burst length must be >= 1 packet")
        highest = self.mean_burst / (1.0 + self.mean_burst)
        if self.rate > highest:
            raise ValueError(f"burst loss rate {self.rate} is above {highest:.6g}, the most a mean"
                             f" burst length of {self.mean_burst} packets can reach")

    @property
    def p_exit(self) -> float:
        return 1.0 / self.mean_burst

    @property
    def p_enter(self) -> float:
        return self.rate * self.p_exit / (1.0 - self.rate)


# The most work one run may ask for.  ``run`` walks every sub-slot boundary
# and every emitted packet up to ``duration`` unless all receivers close
# first, so a scenario is refused where it is parsed when its duration
# holds more boundaries than MAX_SUB_SLOTS, or more packets than
# MAX_PACKETS at the channel's top rate (the benchmark's longest run, 1800 s
# at 4 Mb/s in 1448-byte packets, holds 1800 boundaries and 6.2e5 packets).
MAX_SUB_SLOTS = 1 << 20
MAX_PACKETS = 1 << 22


@dataclass(frozen=True)
class Scenario:
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    bottleneck_rate: float = 4_000_000.0
    queue_capacity: int = 25
    iid_loss: float = 0.0
    burst: GilbertLoss | None = None
    receivers: tuple[ReceiverSpec, ...] = ()
    duration: float = 60.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.bottleneck_rate <= 0:
            raise ValueError("bottleneck_rate must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not 0.0 <= self.iid_loss < 1.0:
            raise ValueError("iid_loss must be in [0, 1)")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        ch = self.channel
        boundaries = self.duration / ch.sub_tsi
        if boundaries > MAX_SUB_SLOTS:
            raise ValueError(f"duration {self.duration:g} s holds {boundaries:.3g} sub slots of "
                             f"{ch.sub_tsi:g} s, more than {MAX_SUB_SLOTS}")
        packets = self.duration * ch.max_cumulative_rate / (8 * ch.packet_payload)
        if packets > MAX_PACKETS:
            raise ValueError(f"duration {self.duration:g} s holds up to {packets:.3g} packets of "
                             f"{ch.packet_payload} bytes at {ch.max_cumulative_rate:g} bit/s, "
                             f"more than {MAX_PACKETS}")


@dataclass
class LinkCounters:
    offered: int = 0
    delivered: int = 0
    queue_dropped: int = 0
    channel_lost: int = 0
    offered_bytes: int = 0
    delivered_bytes: int = 0

    @property
    def in_flight(self) -> int:
        return self.offered - self.delivered - self.queue_dropped - self.channel_lost


class ReceiverState:
    """Subscription state and bookkeeping of one simulated receiver."""

    def __init__(self, spec: ReceiverSpec, cfg: ChannelConfig):
        self.spec = spec
        self.cfg = cfg
        s = cfg.sub_tsi
        self.start_time = math.ceil(spec.start_time / s - _EPS) * s
        self.top_group: int | None = None
        self.rate_integral = 0.0  # bits of nominal subscription since start
        self.last_eval = self.start_time
        self.joins: list[tuple[float, int]] = []
        self.received = 0
        self.received_bytes = 0
        self.missed = 0
        self.done = False
        self.done_time: float | None = None

    # -- subscription ----------------------------------------------------

    def active(self, t: float) -> bool:
        return t >= self.start_time - _EPS

    def subscription_rate_integral(self, t0: float, t1: float) -> float:
        """Bits of nominal subscription rate over [t0, t1]."""
        if t1 <= t0:
            return 0.0
        if self.top_group is None:
            return self.cfg.base_rate * (t1 - t0)
        quiesce = group_quiescence_time(self.cfg, self.top_group)
        bits = cumulative_rate_integral(self.cfg, self.top_group, t0, min(t1, quiesce))
        if t1 > quiesce:
            # All joined dynamic groups are gone past this point.
            bits += self.cfg.base_rate * (t1 - max(t0, quiesce))
        return bits


def receiver_policy_step(state: ReceiverState, t: float) -> list[int]:
    """Evaluate joins at sub-slot boundary ``t``; returns groups joined now.

    The controller keeps the receiver's long-run average subscription
    rate on its target: it joins the next group whenever the average
    since start, projected one sub slot ahead at the candidate's rate,
    would still not exceed the target.
    """
    state.rate_integral += state.subscription_rate_integral(state.last_eval, t)
    state.last_eval = t
    cfg = state.cfg
    s = cfg.sub_tsi
    elapsed = t - state.start_time
    target = state.spec.target_rate
    idx = interval_index(cfg, t)
    oldest, youngest = idx + 1, idx + cfg.group_count - 1
    joined: list[int] = []
    while True:
        top = state.top_group if (state.top_group is not None and state.top_group >= oldest) else None
        candidate = oldest if top is None else top + 1
        if candidate > youngest:
            break
        lookahead = cumulative_rate_integral(cfg, candidate, t, t + s)
        projected = target * (elapsed + s) - (state.rate_integral + lookahead)
        if projected < -_EPS * max(1.0, target * s):
            break
        state.top_group = candidate
        state.joins.append((t, candidate))
        joined.append(candidate)
    return joined


@dataclass
class DeliveryRecord:
    time: float
    group: int
    packet: bytes


@dataclass
class ReceiverResult:
    state: ReceiverState
    trace: list[DeliveryRecord]


@dataclass
class SimResult:
    receivers: list[ReceiverResult]
    link: LinkCounters
    end_time: float


_NO_EMISSION = (math.inf, BASE_GROUP, b"")


def run(
    scenario: Scenario,
    packet_source,
    *,
    on_delivery=None,
    collect_traces: bool = True,
) -> SimResult:
    """Simulate ``packet_source`` over the path.

    ``packet_source`` yields (time, group, bytes) in non-decreasing time.
    ``on_delivery(packet, receivers)`` is called once per delivered packet
    that has listeners, with the packet the source yielded and the list of
    its listeners' indices in index order, which the call must not change;
    it returns the indices it marks as done, which hear nothing more.  The
    run stops early once every receiver is done.

    The loop merges three pending events, taking the earliest: the next
    sub-slot boundary, the completion of the packet in service, which
    heads the queue, and the one emission pulled from the source; ties
    go in that order.  ``queue_capacity`` counts the packets waiting
    behind the one in service.
    Listener lists are cached and change only when a receiver joins or
    finishes, or when a packet's group, sub-slot index or passed start
    thresholds select another list.
    """
    cfg = scenario.channel
    duration, rate = scenario.duration, scenario.bottleneck_rate
    rng = random.Random(scenario.seed)
    rxs = [ReceiverState(spec, cfg) for spec in scenario.receivers]
    results = [ReceiverResult(state, []) for state in rxs]
    link = LinkCounters()
    gilbert_bad = False
    iid_loss, burst = scenario.iid_loss, scenario.burst
    p_enter, p_exit = (burst.p_enter, burst.p_exit) if burst is not None else (0.0, 0.0)

    def lose_packet() -> bool:
        nonlocal gilbert_bad
        lost = False
        if iid_loss > 0.0 and rng.random() < iid_loss:
            lost = True
        if burst is not None:
            r = rng.random()
            if gilbert_bad:
                if r < p_exit:
                    gilbert_bad = False
            else:
                if r < p_enter:
                    gilbert_bad = True
            lost = lost or gilbert_bad
        return lost

    source = iter(packet_source)

    def pull_emission() -> tuple:
        item = next(source, _NO_EMISSION)
        return item if item[0] <= duration else _NO_EMISSION

    s = cfg.sub_tsi
    n_boundaries = math.floor(duration / s + _EPS) + 1
    policy_i, t_policy = 0, 0.0
    t_service = math.inf
    queue: deque[tuple[int, bytes]] = deque()  # queue[0] is in service
    t_emit, emit_group, emit_packet = pull_emission()

    pending = list(range(len(rxs)))  # the receivers not done, in index order
    start_thresholds = sorted(state.start_time - _EPS for state in rxs)
    base_lists: dict[int, list[int]] = {}  # by count of start thresholds passed
    dynamic_lists: dict[int, list[int]] = {}  # by lowest top group that listens

    def listeners(group: int, t: float) -> list[int]:
        """The pending receivers subscribed to ``group`` at ``t``.

        ``subscribed`` in tests/test_netsim.py states the rule one receiver
        at a time and is the reference for this one.  A set top group
        implies the receiver was active at an earlier policy event, so
        only the base group tests the start time.
        """
        if group == BASE_GROUP:
            key = bisect_right(start_thresholds, t)
            found = base_lists.get(key)
            if found is None:
                found = base_lists[key] = [i for i in pending if rxs[i].active(t)]
        else:
            key = max(group, interval_index(cfg, t) + 1)
            found = dynamic_lists.get(key)
            if found is None:
                found = dynamic_lists[key] = [
                    i for i in pending
                    if rxs[i].top_group is not None and rxs[i].top_group >= key
                ]
        return found

    end_time = 0.0
    while True:
        t = min(t_policy, t_service, t_emit)
        if t > duration + _EPS:
            break
        end_time = t
        if t == t_policy:
            for i in pending:
                state = rxs[i]
                if state.active(t) and receiver_policy_step(state, t):
                    dynamic_lists.clear()
            policy_i += 1
            t_policy = policy_i * s if policy_i < n_boundaries else math.inf
        elif t == t_service:
            group, packet = queue.popleft()
            size = len(packet)
            if lose_packet():
                link.channel_lost += 1
                for i in listeners(group, t):
                    rxs[i].missed += 1
            else:
                link.delivered += 1
                link.delivered_bytes += size
                heard = listeners(group, t)
                for i in heard:
                    state = rxs[i]
                    state.received += 1
                    state.received_bytes += size
                    if collect_traces:
                        results[i].trace.append(DeliveryRecord(t, group, packet))
                if heard and on_delivery is not None:
                    for i in on_delivery(packet, heard):
                        rxs[i].done = True
                        rxs[i].done_time = t
                        pending = [j for j in pending if not rxs[j].done]
                        base_lists.clear()
                        dynamic_lists.clear()
            t_service = t + len(queue[0][1]) * 8.0 / rate if queue else math.inf
        else:
            link.offered += 1
            link.offered_bytes += len(emit_packet)
            if len(queue) <= scenario.queue_capacity:
                if not queue:
                    t_service = t + len(emit_packet) * 8.0 / rate
                queue.append((emit_group, emit_packet))
            else:
                link.queue_dropped += 1
                for i in listeners(emit_group, t):
                    rxs[i].missed += 1
            t_emit, emit_group, emit_packet = pull_emission()
        assert link.in_flight == len(queue)
        if rxs and not pending:
            break
    return SimResult(results, link, end_time)


# ---------------------------------------------------------------------------
# Scenario files: one "key = value" per line, receivers repeatable.

def finite_float(text: str) -> float:
    """``float(text)``, refusing infinities and NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def finite_int(text: str) -> int:
    """``int(text)``, refusing an integer too large for a float, as the
    channel and the scenario meet every integer in float arithmetic."""
    finite_float(text)  # a float of too many digits is infinite
    return int(text)


# Each scenario key sets one dataclass field and converts its value to the
# type of that field's default; keys left out keep the dataclass defaults.
_CONVERTERS = {float: finite_float, int: finite_int}

SCENARIO_KEYS = {
    key: (cls, name, _CONVERTERS[type(getattr(cls, name))])
    for key, cls, name in (
        ("base_rate", ChannelConfig, "base_rate"),
        ("max_rate", ChannelConfig, "max_cumulative_rate"),
        ("decay", ChannelConfig, "decay_ratio"),
        ("tsd", ChannelConfig, "tsd"),
        ("groups_per_tsi", ChannelConfig, "groups_per_tsi"),
        ("payload", ChannelConfig, "packet_payload"),
        ("group_count", ChannelConfig, "group_count"),
        ("bottleneck_rate", Scenario, "bottleneck_rate"),
        ("queue_capacity", Scenario, "queue_capacity"),
        ("iid_loss", Scenario, "iid_loss"),
        ("duration", Scenario, "duration"),
        ("seed", Scenario, "seed"),
        ("burst_loss", GilbertLoss, "rate"),
        ("burst_length", GilbertLoss, "mean_burst"),
    )
}


def parse_scenario(text: str) -> Scenario:
    kwargs: dict[type, dict[str, object]] = {ChannelConfig: {}, Scenario: {}, GilbertLoss: {}}
    receivers: list[ReceiverSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key != "receiver" and key not in SCENARIO_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "receiver":  # rate[, start]
                receivers.append(ReceiverSpec(*map(finite_float, value.split(",", 1))))
            else:
                cls, name, convert = SCENARIO_KEYS[key]
                kwargs[cls][name] = convert(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    burst = kwargs[GilbertLoss]
    return Scenario(
        channel=ChannelConfig(**kwargs[ChannelConfig]),
        burst=GilbertLoss(**burst) if burst.get("rate") else None,
        receivers=tuple(receivers),
        **kwargs[Scenario],
    )


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def format_trace_line(time: float, group: int, packet: bytes, event: str) -> str:
    """One trace record: ``time_us group buffer_id offset len event``."""
    buffer_id = offset = 0
    try:
        header, _ = wire.parse_packet(packet)
        buffer_id, offset = header.buffer_id, header.offset
    except ValueError:
        pass
    return f"{round(time * 1e6)} {group} {buffer_id} {offset} {len(packet)} {event}"


def write_receiver_trace(path, trace: list[DeliveryRecord]) -> None:
    lines = [format_trace_line(r.time, r.group, r.packet, "deliver") for r in trace]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
