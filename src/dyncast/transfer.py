"""File transfer on top of the layered channel.

The sender FEC-encodes the file into n symbols, spreads them over a
carousel of n buffers (one symbol per level, level 1 first), and hands
each buffer to the sequencer so receivers at any rate always get the
most useful prefix.  The receiver reassembles buffers slot by slot and
feeds each slot to the FEC decoder once it is whole, until the file closes;
a whole-slot copy of a symbol the decoder holds is only compared with it.
A datagram is parsed once: ``SymbolReceiver.on_datagram`` parses and
calls ``on_packet(header, payload)``, and the simulator hands each
delivery to all its listeners in one call, which parses it once.

A buffer's layout, the ``(send_time, group, seq, offset)`` rows that
``sequence`` returns, depends on the ladder, the buffer time, the buffer
length and the buffer's index, never on its bytes, and so does every
header field but the session id.  So each sent packet is a 48-byte row,
its send time, group, offset and packed header less the session id, and
its datagram one join of header, session id and PDU.  A cold buffer's
rows are cut from the datagrams ``wire.pack_packet`` packs once.  The
process keeps the rows of the first buffers ``CarouselSession.emissions``
sequenced, up to ``MAX_RECORDED_PACKETS``, as one layout record for the
last sender geometry ``(ChannelConfig, buffer_time, buffer_length)`` it
saw.  A later session of that geometry, whatever its session id and
bytes, replays them and sequences only the buffers past them; every
datagram is the same either way.

Evaluation metrics: time (s), gput and tput (Kb/s), and the overhead
percentages loss, dup, sym, head, net and comp.
"""

from __future__ import annotations

import functools
import math
import statistics
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from . import carousel, fec, netsim, wire
from .channel import ChannelConfig
from .reassembly import Reassembler
from .sequencer import infer_buffer_length, infer_buffer_time, sequence

METRIC_NAMES = ("time", "gput", "tput", "loss", "dup", "sym", "head", "net", "comp")

# Most tiles one buffer's window may hold.  A window of buffer_time seconds
# meets at most buffer_time / sub_tsi + 2 sub slots of group_count tiles
# each, and the sequencer builds and sorts them all, so a huge buffer time
# or a tiny sub slot would spend unbounded time and memory before the
# first packet.
MAX_WINDOW_TILES = 65536

# Most packets the layout record holds, at _ROW.size = 48 bytes each
# (about 3.1 MB).
MAX_RECORDED_PACKETS = 1 << 16

# A packet as a row: its send time, group and offset as ``sequence``
# returned them, and its packed header cut around the session id, which
# is bytes 4..8 of ``wire``'s header: the head is bytes 0..4, the tail
# bytes 8..32.  Buffer b's rows lie between the byte offsets at entries b
# and b + 1 of the record's starts, which are _START rows.
_ROW = struct.Struct("dQI4s24s")
_START = struct.Struct("I")
_SPAN = struct.Struct("II")
# Serialises the check that a buffer is the record's next with its append.
_RECORD_LOCK = threading.Lock()


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
        raise ValueError(f"{what} undefined: zero denominator")
    return num / den


def compute_metrics(c: TransferCounters) -> TransferMetrics:
    if c.elapsed <= 0:
        raise ValueError("time undefined: nothing elapsed")
    needed = c.k + c.epsilon
    metrics = TransferMetrics(
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
    # A tiny elapsed or network time can push a metric past the floats.
    infinite = [name for name, value in metrics.as_dict().items() if not math.isfinite(value)]
    if infinite:
        raise ValueError(f"{', '.join(infinite)} undefined: not finite")
    return metrics


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
                  n: int | None = None, seed: int = fec.CodecSpec.seed) -> fec.CodecSpec:
    """Codec dimensions for a file: k from its size, n defaulting to 2k."""
    if file_length <= 0:
        raise ValueError("empty file")
    if symbol_size < 1:
        raise ValueError("symbol_size must be >= 1")
    k = -(-file_length // symbol_size)
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


def ring_table(k: int, n: int) -> memoryview:
    """``ring_symbol`` of every ring position, as n native unsigned ints.

    Four bytes a position rather than an int object each, filled in place
    so that no list of n ints is ever alive; ``struct`` is loaded
    already, where ``array`` would add an extension module import
    (0.3 ms) to every run.
    """
    table = memoryview(bytearray(n * struct.calcsize("I"))).cast("I")
    for p in range(n):
        table[p] = ring_symbol(p, k, n)
    return table


@functools.lru_cache(maxsize=1)
def _layout_record(channel: ChannelConfig, buffer_time: float,
                   buffer_length: int) -> tuple[bytearray, bytearray]:
    """The recorded packets of one sender geometry: (rows, starts).

    Empty when made; ``CarouselSession.emissions`` appends each buffer it
    sequences that is the record's next one, while the rows fit in
    ``MAX_RECORDED_PACKETS``.
    """
    return bytearray(), bytearray(_START.pack(0))


def _checked_session_id(session_id: int) -> int:
    if not 0 <= session_id <= 0xFFFFFFFF:
        raise ValueError(f"session_id {session_id} not in 0..{0xFFFFFFFF}")
    return session_id


class CarouselSession:
    """Sender state: encoded symbols, carousel plan and packet stream."""

    def __init__(
        self,
        data: bytes,
        channel: ChannelConfig,
        codec: fec.CodecSpec,
        *,
        levels: int | None = None,
        session_id: int = 1,
    ):
        if not data:
            raise ValueError("nothing to send")
        if channel.packet_payload > wire.MAX_PAYLOAD:
            raise ValueError(f"packet_payload {channel.packet_payload} > {wire.MAX_PAYLOAD}, "
                             "the most one datagram carries")
        if codec.k != -(-len(data) // codec.symbol_size):
            raise ValueError("codec k does not match the file and symbol size")
        self.cfg = channel
        self.spec = codec
        self.file_length = len(data)
        self.session_id = _checked_session_id(session_id)
        ss = codec.symbol_size
        # Every geometry check comes before the encode, which none of them needs.
        # One level-1 symbol per buffer at the rate everyone has.
        self.buffer_time = infer_buffer_time(ss, channel.base_rate)
        if levels is None:
            # As many levels as the mean full subscription drains per buffer, in 1..n.
            levels = infer_buffer_length(self.buffer_time, channel.mean_top_rate) // ss
            levels = max(1, min(codec.n, levels))
        if (self.buffer_time / channel.sub_tsi + 2) * channel.group_count > MAX_WINDOW_TILES:
            raise ValueError(f"buffer time {self.buffer_time:g} s over {channel.sub_tsi:g} s "
                             f"sub slots makes more than {MAX_WINDOW_TILES} tiles per buffer")
        self.plan = carousel.build_plan(codec.n, levels)
        # Every buffer holds exactly one symbol per level.
        self.buffer_length = self.plan.level_count * ss
        # Views, not slices: the source symbols of a bytes file share its
        # memory (fec.encode copies anything writable).
        view = memoryview(data)
        self.symbols = fec.encode(codec, [view[i * ss : (i + 1) * ss] for i in range(codec.k)])

    def buffer_payload(self, buffer_id: int) -> bytes:
        indices = carousel.blocks_for_buffer(self.plan, buffer_id)
        spec = self.spec
        return b"".join(self.symbols[ring_symbol(b, spec.k, spec.n)] for b in indices)

    def emissions(self, *, max_buffers: int | None = None):
        """Yield (send_time, group, datagram) in send order, buffer after buffer.

        Each buffer's packets are ``_ROW`` rows, and each datagram joins
        a row's head, this session's id, its tail and the PDU sliced from
        a view of ``buffer_payload``.  A buffer in this geometry's layout
        record takes its rows from there.  Any other buffer is sequenced,
        each packet packed by ``wire.pack_packet`` and its row cut from
        that datagram, all before the first is yielded; if the buffer is
        the record's next and fits, its rows are recorded.
        """
        cfg, buffer_time, session_id = self.cfg, self.buffer_time, self.session_id
        tsd, pdu_size, length = cfg.tsd, cfg.packet_payload, self.buffer_length
        session_id_bytes = session_id.to_bytes(4, "big")
        rows, starts = _layout_record(cfg, buffer_time, length)
        buffer_id = 0
        while max_buffers is None or buffer_id < max_buffers:
            payload_view = memoryview(self.buffer_payload(buffer_id))
            if buffer_id < len(starts) // _START.size - 1:
                begin, end = _SPAN.unpack_from(starts, _START.size * buffer_id)
                packed = rows[begin:end]
            else:
                packed = bytearray()
                for send_time, group, seq, offset in sequence(length, buffer_time, cfg,
                                                              buffer_id * buffer_time):
                    pdu = payload_view[offset : offset + pdu_size]
                    header = wire.PacketHeader(group, session_id, max(int(send_time / tsd), 0),
                                               seq, buffer_id, offset, length, len(pdu))
                    datagram = wire.pack_packet(header, pdu)
                    packed += _ROW.pack(send_time, group, offset, datagram[:4],
                                        datagram[8:wire.HEADER_SIZE])
                with _RECORD_LOCK:
                    if (buffer_id == len(starts) // _START.size - 1
                            and len(rows) + len(packed) <= MAX_RECORDED_PACKETS * _ROW.size):
                        rows += packed
                        starts += _START.pack(len(rows))
            for send_time, group, offset, head, tail in _ROW.iter_unpack(packed):
                yield send_time, group, b"".join(
                    (head, session_id_bytes, tail, payload_view[offset : offset + pdu_size]))
            buffer_id += 1


class SymbolReceiver:
    """Receiver application: datagrams in, decoded file out.

    ``on_datagram`` takes a datagram as it came off the wire;
    ``on_packet`` takes one already parsed, so that a caller with many
    receivers of one datagram parses it once.
    """

    def __init__(self, spec: fec.CodecSpec, plan: carousel.CarouselPlan, *,
                 file_length: int, session_id: int = 1):
        if spec.k != -(-file_length // spec.symbol_size):
            raise ValueError("codec k does not match the file and symbol size")
        if plan.block_count != spec.n:
            raise ValueError(f"a carousel of {plan.block_count} blocks for a code of "
                             f"{spec.n} symbols")
        self.spec = spec
        self.plan = plan
        # Slot s of buffer b carries ring position (b + level_offsets[s]) % n,
        # as plan.block_for(b, s + 1) says; on_packet skips its level check,
        # since only buffers of level_count slots reach the reassembler.
        self.ring = ring_table(spec.k, spec.n)
        # Every buffer of the session holds exactly one symbol per level.
        self.buffer_length = plan.level_count * spec.symbol_size
        self.file_length = file_length
        self.session_id = _checked_session_id(session_id)
        self.reassembler = Reassembler(spec.symbol_size)
        self.decoder = fec.SymbolDecoder(spec)
        self.received_symbols = 0
        self.foreign_packets = 0  # another session's datagrams, dropped
        self.malformed_packets = 0  # unparsable or of another buffer length, dropped
        self.conflicting_symbols = 0  # copies unlike the first one of their symbol, dropped

    def on_datagram(self, datagram: bytes) -> bool:
        """Parse and feed one datagram; True once the decoder has closed.

        A datagram ``wire.parse_packet`` refuses is counted in
        ``malformed_packets`` and dropped.
        """
        if self.decoder.complete:
            return True
        try:
            header, payload = wire.parse_packet(datagram)
        except ValueError:
            self.malformed_packets += 1
            return False
        return self.on_packet(header, payload)

    def on_packet(self, header: wire.PacketHeader, payload: bytes) -> bool:
        """Feed one parsed PDU; True once the decoder has closed.

        Each symbol slot of a buffer is settled once, by the PDU that
        completes it.  A PDU that fills its slot alone (on a slot boundary,
        one symbol wide) is that slot's bytes: when the decoder already
        holds the slot's symbol, the copy is compared with it and counted
        as a duplicate or a conflict without reading the slot back or
        calling the decoder.  Every other whole slot goes to the decoder.
        """
        if self.decoder.complete:
            return True
        if header.buffer_length != self.buffer_length:
            self.malformed_packets += 1
            return False
        if header.session_id != self.session_id:
            self.foreign_packets += 1
            return False
        reassembler, decoder = self.reassembler, self.decoder
        offsets, ss = self.plan.level_offsets, self.spec.symbol_size
        for slot in reassembler.on_packet(header, payload):
            symbol = self.ring[(header.buffer_id + offsets[slot]) % self.spec.n]
            if header.offset == slot * ss and len(payload) == ss:
                held = decoder.held(symbol)
                if held is not None:
                    if held == payload:
                        self.received_symbols += 1
                    else:
                        self.conflicting_symbols += 1
                    continue
            try:
                decoder.add(symbol, reassembler.current.covered(slot))
            except fec.DecodeFailureError:
                self.conflicting_symbols += 1
                continue
            self.received_symbols += 1
            if decoder.complete:
                return True
        return False

    @property
    def done(self) -> bool:
        return self.decoder.complete

    @property
    def duplicate_symbols(self) -> int:
        # Every symbol the decoder accepted was either new or a duplicate.
        return self.received_symbols - self.decoder.distinct

    @property
    def epsilon(self) -> int:
        # Distinct symbols beyond k so far: epsilon, once the decoder closes.
        return max(self.decoder.distinct - self.spec.k, 0)

    def counters(self, *, packets: int, missed: int, link_bytes: int, elapsed: float,
                 payload: int) -> TransferCounters:
        """This receiver's counts joined with the network's, as the caller saw them."""
        return TransferCounters(
            file_length=self.file_length,
            k=self.spec.k,
            epsilon=self.epsilon,
            received_symbols=self.received_symbols,
            received_packets=packets,
            missed_packets=missed,
            link_bytes=link_bytes,
            elapsed=elapsed,
            # Neither the simulated clock nor a trace's timestamps advance
            # during decoding, so the download ends when the last needed
            # symbol lands: comp = 0.
            network_time=elapsed,
            packet_length=wire.HEADER_SIZE + payload,
            applicative_data=payload,
        )

    def file(self) -> bytes:
        # One join of exactly file_length bytes: the whole blocks and the
        # used head of the last one, never the padded file and a copy.
        blocks = self.decoder.blocks()
        whole, tail = divmod(self.file_length, self.spec.symbol_size)
        parts = blocks[:whole]
        if tail:
            parts.append(blocks[whole][:tail])
        return b"".join(parts)


@dataclass
class TransferOutcome:
    done: bool
    file: bytes | None
    metrics: TransferMetrics | None
    counters: TransferCounters


def simulate_transfer(
    data: bytes,
    scenario: netsim.Scenario,
    codec: fec.CodecSpec,
    *,
    levels: int | None = None,
    collect_traces: bool = False,
) -> tuple[list[TransferOutcome], netsim.SimResult]:
    """Run one carousel transfer through the simulator, one outcome per receiver."""
    if not scenario.receivers:
        raise ValueError("scenario has no receivers")
    session = CarouselSession(data, scenario.channel, codec, levels=levels)
    apps = [SymbolReceiver(codec, session.plan, file_length=len(data))
            for _ in scenario.receivers]

    def on_delivery(packet: bytes, receivers: list[int]) -> list[int]:
        # One parse for all listeners: they share its header and payload.
        try:
            header, payload = wire.parse_packet(packet)
        except ValueError:
            return [i for i in receivers if apps[i].on_datagram(packet)]
        return [i for i in receivers if apps[i].on_packet(header, payload)]

    result = netsim.run(
        scenario, session.emissions(), on_delivery=on_delivery, collect_traces=collect_traces
    )
    outcomes = []
    for i, rres in enumerate(result.receivers):
        # Each receiver is released once its outcome is built, so the
        # next one decodes in the memory of those before it.
        app, apps[i] = apps[i], None
        state = rres.state
        end = state.done_time if app.done else result.end_time
        counters = app.counters(packets=state.received, missed=state.missed,
                                link_bytes=state.received_bytes,
                                elapsed=max(end - state.start_time, 0.0),
                                payload=scenario.channel.packet_payload)
        metrics = compute_metrics(counters) if app.done else None
        file_bytes = app.file() if app.done else None
        outcomes.append(TransferOutcome(app.done, file_bytes, metrics, counters))
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
    channel: ChannelConfig,
    codec: fec.CodecSpec,
    levels: int | None = None,
    session_id: int = 1,
    buffers: int | None = None,
) -> CarouselSession:
    """Sequence a file onto an emission-trace file (one datagram per line).

    Line 1 is the header ``receive_file`` needs: the FEC Object
    Transmission Information (codec, n, symbol size, seed; k follows from
    the file length), levels, session id, file SHA-256 and packet payload.
    ``buffers`` defaults to one full carousel period, which always carries
    every symbol at least once.  The buffers may hold at most
    ``fec.MAX_CODE_BYTES`` of symbols in all, so the trace stays bounded.
    """
    data = Path(path).read_bytes()
    session = CarouselSession(data, channel, codec, levels=levels, session_id=session_id)
    spec = session.spec
    count = buffers if buffers is not None else spec.n
    level_count = session.plan.level_count
    symbol_bytes = count * level_count * spec.symbol_size
    if symbol_bytes > fec.MAX_CODE_BYTES:
        raise ValueError(f"--buffers * levels * symbol_size = {count} * {level_count} * "
                         f"{spec.symbol_size} = {symbol_bytes} bytes is above "
                         f"{fec.MAX_CODE_BYTES}, the most one trace may carry")
    values = dict(codec=spec.name, n=spec.n, symbol_size=spec.symbol_size, fec_seed=spec.seed,
                  levels=level_count, file_length=session.file_length,
                  session_id=session.session_id, sha256=_sha256_hex(data),
                  payload=session.cfg.packet_payload)
    header = " ".join(f"{name}={values[name]}" for name, _ in _HEADER_FIELDS)
    with open(out_path, "w") as fh:
        try:
            fh.write(f"# {header}\n")
            for t, group, datagram in session.emissions(max_buffers=count):
                fh.write(f"{round(t * 1e6)} {group} {datagram.hex()}\n")
        except BaseException:
            fh.close()
            Path(out_path).unlink()  # a cut trace would read as a lossy channel
            raise
    return session


def _sha256_field(value: str) -> str:
    if len(value) != 64 or value.strip("0123456789abcdef"):
        raise ValueError("not a hex SHA-256")
    return value


def _payload_field(value: str) -> int:
    if not 1 <= int(value) <= wire.MAX_PAYLOAD:
        raise ValueError("payload out of range")
    return int(value)


# The header fields and their parsers, in the order ``send_file`` writes them.
_HEADER_FIELDS = (("codec", str), ("n", int), ("symbol_size", int), ("fec_seed", int),
                  ("levels", int), ("file_length", int), ("session_id", int),
                  ("sha256", _sha256_field), ("payload", _payload_field))


def _read_header(line: str) -> tuple[SymbolReceiver, str, int]:
    """The receiver, the file digest and the packet payload a trace header describes.

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
        app = SymbolReceiver(spec, plan, file_length=meta["file_length"],
                             session_id=meta["session_id"])
    except ValueError as exc:
        raise ValueError(f"trace header: {exc}") from None
    return app, meta["sha256"], meta["payload"]


def receive_file(trace_path) -> tuple[bytes, TransferMetrics, TransferCounters]:
    """Replay an emission trace into a receiver until the decode closes.

    The receiver is built from the trace header alone (see ``send_file``);
    a missing or invalid header field raises ValueError, and so does a
    malformed record line, naming the file and line.  An unterminated
    malformed last line is a trace cut short: it ends the input, and an
    undecoded file then raises TransferTimeoutError like any other cut.  A
    decoded file unlike the header's digest raises fec.DecodeFailureError.
    The replay stops at the close, which is final: the records after it
    are not read, so nothing they hold can change the decoded bytes.
    """
    received = link_bytes = 0
    last_t = 0.0
    with open(trace_path) as fh:
        app, digest, payload = _read_header(fh.readline())
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                t_us, _group, hexdata = line.split()
                datagram = bytes.fromhex(hexdata)
                last_t = netsim.finite_int(t_us) / 1e6
            except ValueError as exc:
                if not line.endswith("\n"):
                    break
                raise ValueError(f"{trace_path}:{number}: {exc}") from None
            received += 1
            link_bytes += len(datagram)
            if app.on_datagram(datagram):
                break
    counters = app.counters(packets=received, missed=0, link_bytes=link_bytes,
                            elapsed=last_t, payload=payload)
    if not app.done:
        raise TransferTimeoutError("trace ended before the decode closed", counters)
    data = app.file()
    if _sha256_hex(data) != digest:
        raise fec.DecodeFailureError(f"the {len(data)} decoded bytes do not match "
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
        raise ValueError("confidence intervals need at least 2 runs")
    quantile = _t_quantile(0.975, len(runs) - 1)
    out: dict[str, tuple[float, float]] = {}
    for name in METRIC_NAMES:
        values = [getattr(m, name) for m in runs]
        try:
            mean = statistics.fmean(values)
            half = quantile * statistics.stdev(values) / math.sqrt(len(values))
        except OverflowError:
            half = math.inf
        if not math.isfinite(half):
            raise ValueError(f"{name} undefined over these runs: the mean or its "
                             "interval is not finite")
        out[name] = (mean, half)
    return out


def format_report(rep: dict[str, tuple[float, float]]) -> str:
    """One `name value ci` line per metric, fixed order."""
    return "\n".join(f"{name} {rep[name][0]:.6g} {rep[name][1]:.6g}" for name in METRIC_NAMES)


def format_metrics(metrics: dict[str, float]) -> str:
    """One `name value` line per metric, in the mapping's order."""
    return "\n".join(f"{name} {value:.6g}" for name, value in metrics.items())
