"""File transfer on top of the layered channel.

The sender FEC-encodes the file into n symbols, spreads them over a
carousel of n buffers (one symbol per level, level 1 first), and hands
each buffer to the sequencer so receivers at any rate always get the
most useful prefix.  The receiver reassembles buffers, carves complete
symbols out of them, and feeds the FEC decoder until the file closes.

Evaluation metrics: time (s), gput and tput (Kb/s), and the overhead
percentages loss, dup, sym, head, net and comp.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from . import carousel, fec, netsim, wire
from .channel import ChannelConfig
from .reassembly import MALFORMED, STALE, Reassembler
from .sequencer import SequenceRequest, infer_buffer_length, infer_buffer_time, sequence

METRIC_NAMES = ("time", "gput", "tput", "loss", "dup", "sym", "head", "net", "comp")


class MetricUndefinedError(ValueError):
    """A metric's denominator is zero for these counters."""


class NeedMoreRunsError(ValueError):
    """Confidence intervals need at least two runs."""


class DigestMismatchError(Exception):
    """The decoded file differs from the SHA-256 in the trace header."""


class TransferTimeoutError(Exception):
    """Decode did not close before the input ended."""

    def __init__(self, message: str, counters: "TransferCounters"):
        super().__init__(message)
        self.counters = counters
        self.partial = partial_metrics(counters)


@dataclass(frozen=True)
class TransferMetrics:
    time: float
    gput: float
    tput: float
    loss: float
    dup: float
    sym: float
    head: float
    net: float
    comp: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


@dataclass
class TransferCounters:
    """Raw counts a transfer produces; metrics are pure functions of these."""

    file_length: int
    k: int
    epsilon: int
    received_symbols: int
    received_packets: int
    missed_packets: int
    link_bytes: int
    elapsed: float
    network_time: float
    packet_length: int = wire.HEADER_SIZE + wire.MAX_PAYLOAD
    applicative_data: int = wire.MAX_PAYLOAD


def _ratio(num: float, den: float, what: str) -> float:
    if den == 0:
        raise MetricUndefinedError(f"{what} undefined: zero denominator")
    return num / den


def compute_metrics(c: TransferCounters) -> TransferMetrics:
    if c.elapsed <= 0:
        raise MetricUndefinedError("time undefined: nothing elapsed")
    needed = c.k + c.epsilon
    return TransferMetrics(
        time=c.elapsed,
        gput=c.file_length * 8.0 / c.elapsed / 1000.0,
        tput=c.link_bytes * 8.0 / c.elapsed / 1000.0,
        loss=100.0 * _ratio(c.missed_packets, c.missed_packets + c.received_packets, "loss"),
        dup=(_ratio(c.received_symbols, needed, "dup") - 1.0) * 100.0,
        sym=(_ratio(needed, c.k, "sym") - 1.0) * 100.0,
        head=(_ratio(c.packet_length, c.applicative_data, "head") - 1.0) * 100.0,
        net=(_ratio(c.link_bytes, c.file_length, "net") - 1.0) * 100.0,
        comp=(_ratio(c.elapsed, c.network_time, "comp") - 1.0) * 100.0,
    )


def partial_metrics(c: TransferCounters) -> dict[str, float]:
    """The metrics still defined when a transfer did not complete."""
    out: dict[str, float] = {}
    if c.elapsed > 0:
        out["time"] = c.elapsed
        out["tput"] = c.link_bytes * 8.0 / c.elapsed / 1000.0
    if c.missed_packets + c.received_packets:
        out["loss"] = 100.0 * c.missed_packets / (c.missed_packets + c.received_packets)
    out["head"] = (c.packet_length / c.applicative_data - 1.0) * 100.0
    return out


def spec_for_file(name: str, file_length: int, symbol_size: int, *,
                  n: int | None = None, seed: int = 0) -> fec.CodecSpec:
    """Codec dimensions for a file: k from its size, n defaulting to 2k."""
    if file_length <= 0:
        raise ValueError("empty file")
    if symbol_size < 1:
        raise ValueError("symbol_size must be >= 1")
    k = math.ceil(file_length / symbol_size)
    if n is None:
        n = k if name == "null" else 2 * k
    return fec.CodecSpec(name, k, n, symbol_size, seed)


def ring_symbol(position: int, k: int, n: int) -> int:
    """FEC symbol index stored at carousel ring ``position``.

    Source and repair symbols interleave evenly around the ring.  The
    carousel levels walk the ring from spread-out offsets, so with the
    sources parked in one contiguous half a receiver's level arcs can
    favour that half for a long stretch and starve the decoder of
    repairs; interleaving keeps both kinds arriving at matching rates
    no matter which arcs the receiver happens to walk.
    """
    before = position * k // n
    if (position + 1) * k // n > before:
        return before
    return k + position - before


def _checked_session_id(session_id: int) -> int:
    if not 0 <= session_id <= 0xFFFFFFFF:
        raise ValueError(f"session_id {session_id} not in 0..{0xFFFFFFFF}")
    return session_id


class CarouselSession:
    """Sender state: encoded symbols, carousel plan and packet stream."""

    def __init__(
        self,
        data: bytes,
        channel: ChannelConfig | None = None,
        codec: fec.CodecSpec | None = None,
        *,
        levels: int | None = None,
        session_id: int = 1,
        start_time: float = 0.0,
        buffer_time: float | None = None,
    ):
        if not data:
            raise ValueError("nothing to send")
        if start_time < 0:
            raise ValueError("start_time cannot be negative")
        cfg = channel if channel is not None else ChannelConfig()
        spec = codec if codec is not None else spec_for_file("sparse_parity", len(data), 1448)
        if spec.k != math.ceil(len(data) / spec.symbol_size):
            raise ValueError("codec k does not match the file and symbol size")
        self.cfg = cfg
        self.spec = spec
        self.file_length = len(data)
        self.session_id = _checked_session_id(session_id)
        self.start_time = start_time
        ss = spec.symbol_size
        self.symbols = fec.encode(spec, [data[i * ss : (i + 1) * ss] for i in range(spec.k)])
        self.block_count = spec.n
        if buffer_time is None:
            # One level-1 symbol per buffer at the rate everyone has.
            buffer_time = infer_buffer_time(ss, cfg.base_rate)
        self.buffer_time = buffer_time
        if levels is None:
            # As many levels as the mean full subscription drains per buffer.
            levels = infer_buffer_length(buffer_time, cfg.mean_top_rate) // ss
        self.levels = max(1, min(self.block_count, levels))
        self.plan = carousel.build_plan(self.block_count, self.levels)
        self.buffer_length = self.levels * ss

    def buffer_payload(self, buffer_id: int) -> bytes:
        indices = carousel.blocks_for_buffer(self.plan, buffer_id, self.levels)
        spec = self.spec
        return b"".join(self.symbols[ring_symbol(b, spec.k, spec.n)].data for b in indices)

    def emissions(self, *, max_buffers: int | None = None):
        """Yield (send_time, group, datagram) in send order, buffer after buffer."""
        buffer_id = 0
        while max_buffers is None or buffer_id < max_buffers:
            t0 = self.start_time + buffer_id * self.buffer_time
            payload = self.buffer_payload(buffer_id)
            request = SequenceRequest(payload, self.buffer_time, buffer_id=buffer_id)
            for p in sequence(request, self.cfg, t0):
                header = wire.PacketHeader(
                    group=p.group,
                    session_id=self.session_id,
                    tsi=max(int(p.send_time / self.cfg.tsd), 0),
                    seq=p.seq,
                    buffer_id=buffer_id,
                    offset=p.offset,
                    buffer_length=len(payload),
                    payload_len=len(p.payload),
                )
                yield p.send_time, p.group, wire.pack_packet(header, p.payload)
            buffer_id += 1


class SymbolReceiver:
    """Receiver application: datagrams in, decoded file out."""

    def __init__(
        self,
        spec: fec.CodecSpec,
        plan: carousel.CarouselPlan,
        levels: int,
        *,
        file_length: int,
        session_id: int = 1,
    ):
        if not 1 <= levels <= plan.level_count:
            raise carousel.LevelOutOfRangeError(f"levels must be 1..{plan.level_count}")
        self.spec = spec
        self.plan = plan
        self.levels = levels
        self.buffer_length = levels * spec.symbol_size
        self.file_length = file_length
        self.session_id = _checked_session_id(session_id)
        self.reassembler = Reassembler()
        self.decoder = fec.SymbolDecoder(spec)
        self.received_symbols = 0
        self.duplicate_symbols = 0
        self.foreign_packets = 0  # another session's datagrams, dropped
        self.conflicting_symbols = 0  # copies unlike the first one of their symbol, dropped
        self.done = False
        self.completion_time: float | None = None
        self._slots_done: set[int] = set()

    def on_packet(self, t: float, datagram: bytes) -> bool:
        """Feed one datagram; True once the decoder has closed."""
        if self.done:
            return True
        try:
            header, payload = wire.parse_packet(datagram)
        except wire.MalformedPacketError:
            header = None
        # Every buffer of the session holds exactly one symbol per level.
        if header is None or header.buffer_length != self.buffer_length:
            self.reassembler.counters.malformed += 1
            return False
        if header.session_id != self.session_id:
            self.foreign_packets += 1
            return False
        status, flushed = self.reassembler.on_packet(header, payload)
        if status in (STALE, MALFORMED):
            return False
        if flushed is not None:
            self._slots_done.clear()
        buf = self.reassembler.current
        ss = self.spec.symbol_size
        first = header.offset // ss
        last = (header.offset + len(payload) - 1) // ss
        for slot in range(first, last + 1):
            if slot in self._slots_done:
                continue
            data = buf.covered(slot * ss, (slot + 1) * ss)
            if data is None:
                continue
            self._slots_done.add(slot)
            position = self.plan.block_for(header.buffer_id, slot + 1)
            symbol = ring_symbol(position, self.spec.k, self.spec.n)
            try:
                status = self.decoder.add(symbol, data)
            except fec.DecodeFailureError:
                self.conflicting_symbols += 1
                continue
            self.received_symbols += 1
            if status == "duplicate":
                self.duplicate_symbols += 1
            if self.decoder.complete:
                self.done = True
                self.completion_time = t
                break
        return self.done

    @property
    def epsilon(self) -> int:
        return self.decoder.epsilon if self.done else max(self.decoder.distinct - self.spec.k, 0)

    def file(self) -> bytes:
        return b"".join(self.decoder.blocks())[: self.file_length]


@dataclass
class TransferOutcome:
    done: bool
    file: bytes | None
    metrics: TransferMetrics | None
    counters: TransferCounters
    receiver: netsim.ReceiverState


def simulate_transfer(
    data: bytes,
    scenario: netsim.Scenario,
    codec: fec.CodecSpec,
    *,
    levels: int | None = None,
    session_id: int = 1,
    collect_traces: bool = False,
) -> tuple[list[TransferOutcome], netsim.SimResult]:
    """Run one carousel transfer through the simulator, one outcome per receiver."""
    if not scenario.receivers:
        raise ValueError("scenario has no receivers")
    session = CarouselSession(data, scenario.channel, codec, levels=levels, session_id=session_id)
    apps = [
        SymbolReceiver(codec, session.plan, session.levels,
                       file_length=len(data), session_id=session_id)
        for _ in scenario.receivers
    ]

    def on_delivery(i: int, t: float, group: int, packet: bytes) -> bool:
        return apps[i].on_packet(t, packet)

    result = netsim.run(
        scenario, session.emissions(), on_delivery=on_delivery, collect_traces=collect_traces
    )
    outcomes = []
    for app, rres in zip(apps, result.receivers):
        state = rres.state
        end = state.done_time if (app.done and state.done_time is not None) else result.end_time
        elapsed = max(end - state.start_time, 0.0)
        counters = TransferCounters(
            file_length=len(data),
            k=codec.k,
            epsilon=app.epsilon,
            received_symbols=app.received_symbols,
            received_packets=state.received,
            missed_packets=state.missed,
            link_bytes=state.received_bytes,
            elapsed=elapsed,
            # The simulated clock cannot advance during decoding, so the
            # download ends when the last needed symbol lands: comp = 0.
            network_time=elapsed,
            packet_length=wire.HEADER_SIZE + scenario.channel.packet_payload,
            applicative_data=scenario.channel.packet_payload,
        )
        metrics = compute_metrics(counters) if app.done else None
        file_bytes = app.file() if app.done else None
        outcomes.append(TransferOutcome(app.done, file_bytes, metrics, counters, state))
    return outcomes, result


# ---------------------------------------------------------------------------
# Trace-file transport: `send` writes datagrams, `recv` replays them.


def _sha256_hex(data: bytes) -> str:
    # Imported here: hashlib loads OpenSSL (~3.6 MB resident), which only
    # the trace files need.
    import hashlib

    return hashlib.sha256(data).hexdigest()


def send_file(
    path,
    out_path,
    *,
    channel: ChannelConfig | None = None,
    codec: fec.CodecSpec | None = None,
    levels: int | None = None,
    session_id: int = 1,
    buffers: int | None = None,
) -> CarouselSession:
    """Sequence a file onto an emission-trace file (one datagram per line).

    Line 1 is the header ``receive_file`` needs: the FEC Object
    Transmission Information (codec, n, symbol size, seed; k follows from
    the file length), the levels, the session id and the file's SHA-256.
    ``buffers`` defaults to one full carousel period, which always carries
    every symbol at least once.
    """
    data = Path(path).read_bytes()
    session = CarouselSession(data, channel, codec, levels=levels, session_id=session_id)
    spec = session.spec
    count = buffers if buffers is not None else session.block_count
    with open(out_path, "w") as fh:
        fh.write(f"# codec={spec.name} n={spec.n} symbol_size={spec.symbol_size} "
                 f"fec_seed={spec.seed} levels={session.levels} "
                 f"file_length={session.file_length} session_id={session.session_id} "
                 f"sha256={_sha256_hex(data)}\n")
        for t, group, datagram in session.emissions(max_buffers=count):
            fh.write(f"{round(t * 1e6)} {group} {datagram.hex()}\n")
    return session


def _sha256_field(value: str) -> str:
    if len(value) != 64 or value.strip("0123456789abcdef"):
        raise ValueError("not a hex SHA-256")
    return value


# The header fields in the order ``send_file`` writes them.
_HEADER_FIELDS = (("codec", str), ("n", int), ("symbol_size", int), ("fec_seed", int),
                  ("levels", int), ("file_length", int), ("session_id", int),
                  ("sha256", _sha256_field))


def _read_header(line: str) -> tuple[SymbolReceiver, str]:
    """The receiver and the file digest a trace header describes.

    Raises ValueError naming the first field that is missing or invalid.
    """
    fields = dict(token.partition("=")[::2] for token in line.removeprefix("#").split())
    meta = {}
    for name, parse in _HEADER_FIELDS:
        if name not in fields:
            raise ValueError(f"trace header: no {name}= field")
        try:
            meta[name] = parse(fields[name])
        except ValueError:
            raise ValueError(f"trace header: invalid {name}={fields[name]}") from None
    try:
        spec = spec_for_file(meta["codec"], meta["file_length"], meta["symbol_size"],
                             n=meta["n"], seed=meta["fec_seed"])
        plan = carousel.build_plan(spec.n, meta["levels"])
        app = SymbolReceiver(spec, plan, meta["levels"], file_length=meta["file_length"],
                             session_id=meta["session_id"])
    except ValueError as exc:
        raise ValueError(f"trace header: {exc}") from None
    return app, meta["sha256"]


def receive_file(trace_path) -> tuple[bytes, TransferMetrics, TransferCounters]:
    """Replay an emission trace into a receiver until the decode closes.

    The receiver is built from the trace header alone (see ``send_file``);
    a missing or invalid header field raises ValueError, and a decoded
    file unlike the header's digest raises DigestMismatchError.
    """
    received = link_bytes = 0
    last_t = 0.0
    with open(trace_path) as fh:
        app, digest = _read_header(fh.readline())
        for line in fh:
            if not line.strip():
                continue
            t_us, _group, hexdata = line.split()
            datagram = bytes.fromhex(hexdata)
            last_t = int(t_us) / 1e6
            received += 1
            link_bytes += len(datagram)
            if app.on_packet(last_t, datagram):
                break
    elapsed = app.completion_time if app.done else last_t
    counters = TransferCounters(
        file_length=app.file_length,
        k=app.spec.k,
        epsilon=app.epsilon,
        received_symbols=app.received_symbols,
        received_packets=received,
        missed_packets=0,
        link_bytes=link_bytes,
        elapsed=elapsed,
        network_time=elapsed,
    )
    if not app.done:
        raise TransferTimeoutError("trace ended before the decode closed", counters)
    data = app.file()
    if _sha256_hex(data) != digest:
        raise DigestMismatchError(f"the {len(data)} decoded bytes do not match "
                                  f"the trace header's sha256")
    return data, compute_metrics(counters), counters


# ---------------------------------------------------------------------------
# Reporting over repeated runs.

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _t_quantile(p: float, df: int) -> float:
    """Student-t quantile for 0.5 < p < 1 with ``df`` degrees of freedom.

    P(T > t) is half the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2); the quantile is bisected down to adjacent floats.
    """
    a, b = df / 2.0, 0.5
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def upper_tail(t: float) -> float:
        x, y = df / (df + t * t), t * t / (df + t * t)
        front = math.exp(a * math.log(x) + b * math.log(y) - lbeta)
        if x < (a + 1.0) / (a + b + 2.0):
            return 0.5 * front * _betacf(a, b, x) / a
        return 0.5 - 0.5 * front * _betacf(b, a, y) / b

    q = 1.0 - p
    lo, hi = 0.0, 1.0
    while upper_tail(hi) > q:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if upper_tail(mid) > q:
            lo = mid
        else:
            hi = mid


def report(runs) -> dict[str, tuple[float, float]]:
    """Per-metric (mean, 95% confidence half-width) over repeated runs."""
    runs = list(runs)
    if len(runs) < 2:
        raise NeedMoreRunsError("confidence intervals need at least 2 runs")
    quantile = _t_quantile(0.975, len(runs) - 1)
    out: dict[str, tuple[float, float]] = {}
    for name in METRIC_NAMES:
        values = [getattr(m, name) for m in runs]
        mean = statistics.fmean(values)
        half = quantile * statistics.stdev(values) / math.sqrt(len(values))
        out[name] = (mean, half)
    return out


def format_report(rep: dict[str, tuple[float, float]]) -> str:
    """One `name value ci` line per metric, fixed order."""
    return "\n".join(f"{name} {rep[name][0]:.6g} {rep[name][1]:.6g}" for name in METRIC_NAMES)


def format_metrics(metrics: TransferMetrics) -> str:
    return "\n".join(f"{name} {value:.6g}" for name, value in metrics.as_dict().items())
