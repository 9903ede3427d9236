"""File transfer: wire format, metrics, carousel sessions, reports."""

import dataclasses
import hashlib
import itertools
import math
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_reassembly import ReferenceReassembler

from dyncast import transfer, wire
from dyncast.carousel import build_plan
from dyncast.channel import ChannelConfig
from dyncast.fec import CodecSpec, DecodeFailureError, SymbolDecoder
from dyncast.netsim import GilbertLoss, ReceiverSpec, Scenario
from dyncast.reassembly import ReassemblyBuffer
from dyncast.sequencer import sequence
from dyncast.transfer import (
    METRIC_NAMES,
    CarouselSession,
    SymbolReceiver,
    TransferCounters,
    TransferMetrics,
    TransferTimeoutError,
    _t_quantile,
    compute_metrics,
    format_metrics,
    format_report,
    partial_metrics,
    receive_file,
    report,
    ring_symbol,
    ring_table,
    send_file,
    simulate_transfer,
    spec_for_file,
)

CFG = ChannelConfig(
    base_rate=62_500.0,
    max_cumulative_rate=4_000_000.0,
    decay_ratio=0.5,
    tsd=1.0,
    groups_per_tsi=1,
    packet_payload=1448,
    group_count=7,
)

# Same ladder but with tiny PDUs so one base packet carries one symbol.
SMALL_CFG = ChannelConfig(
    base_rate=62_500.0,
    max_cumulative_rate=4_000_000.0,
    decay_ratio=0.5,
    tsd=1.0,
    groups_per_tsi=1,
    packet_payload=64,
    group_count=7,
)


# ---------------------------------------------------------------------------
# wire format


def test_header_round_trip():
    h = wire.PacketHeader(
        group=65_535,
        session_id=0xDEADBEEF,
        tsi=123_456,
        seq=2**32 - 1,
        buffer_id=2**32 - 1,
        offset=41_992,
        buffer_length=43_440,
        payload_len=1448,
    )
    datagram = wire.pack_packet(h, b"p" * 1448)
    assert len(datagram) == 1480  # 32-byte header + full payload
    back, payload = wire.parse_packet(datagram)
    assert back == h
    assert payload == b"p" * 1448


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_header_round_trip_over_every_field_range(data):
    u32 = st.integers(0, 2**32 - 1)
    payload_len = data.draw(st.integers(0, wire.MAX_PAYLOAD))
    buffer_length = data.draw(st.integers(payload_len, 2**32 - 1))
    h = wire.PacketHeader(
        group=data.draw(st.integers(0, 2**16 - 1)),
        session_id=data.draw(u32),
        tsi=data.draw(u32),
        seq=data.draw(u32),
        buffer_id=data.draw(u32),
        offset=data.draw(st.integers(0, buffer_length - payload_len)),
        buffer_length=buffer_length,
        payload_len=payload_len,
        flags=data.draw(st.integers(0, 255)),
        reserved=data.draw(st.integers(0, 2**16 - 1)),
    )
    payload = data.draw(st.binary(min_size=payload_len, max_size=payload_len))
    assert wire.parse_packet(wire.pack_packet(h, payload)) == (h, payload)


@pytest.mark.parametrize("field", ["group", "session_id", "tsi", "seq", "buffer_id", "offset",
                                   "buffer_length", "payload_len", "version", "flags",
                                   "reserved"])
def test_header_is_immutable(field):
    h = wire.PacketHeader(0, 1, 0, 0, 0, 0, 8, payload_len=8)
    with pytest.raises(AttributeError):
        setattr(h, field, 1)


def test_pack_rejects_payload_mismatch():
    h = wire.PacketHeader(0, 1, 0, 0, 0, 0, 10, payload_len=4)
    with pytest.raises(ValueError):
        wire.pack_packet(h, b"12345")


# Each way of mangling a datagram, and the message parse_packet refuses it with.
MANGLED = {
    (lambda d: d[:10]): "datagram shorter than the header",
    (lambda d: b"\x02" + d[1:]): "unknown protocol version 2",
    (lambda d: d + b"extra"): "payload length does not match the header",  # longer
    (lambda d: d[:-1]): "payload length does not match the header",  # shorter
}


@pytest.mark.parametrize("mangle", list(MANGLED))
def test_parse_rejects_malformed(mangle):
    h = wire.PacketHeader(0, 1, 0, 0, 0, 0, 8, payload_len=8)
    good = wire.pack_packet(h, b"8bytes!!")
    with pytest.raises(ValueError, match=MANGLED[mangle]):
        wire.parse_packet(mangle(good))


def test_parse_rejects_pdu_outside_buffer():
    h = wire.PacketHeader(0, 1, 0, 0, 0, offset=8, buffer_length=10, payload_len=8)
    datagram = wire.pack_header(h) + b"8bytes!!"
    with pytest.raises(ValueError, match="PDU extends past the end of its buffer"):
        wire.parse_packet(datagram)


def test_parse_rejects_payload_above_maximum():
    # Header and payload agree on the length, which one datagram never carries.
    size = wire.MAX_PAYLOAD + 1
    h = wire.PacketHeader(0, 1, 0, 0, 0, offset=0, buffer_length=2 * size, payload_len=size)
    with pytest.raises(ValueError, match="payload larger than the maximum"):
        wire.parse_packet(wire.pack_header(h) + bytes(size))


# ---------------------------------------------------------------------------
# ring layout


def test_ring_symbol_alternates_at_double_rate():
    k = 5
    assert [ring_symbol(p, k, 2 * k) for p in range(2 * k)] == [
        5, 0, 6, 1, 7, 2, 8, 3, 9, 4,
    ]


@pytest.mark.parametrize("k,n", [(1, 1), (7, 7), (7, 19), (100, 137), (64, 256)])
def test_ring_symbol_is_a_bijection(k, n):
    mapped = [ring_symbol(p, k, n) for p in range(n)]
    assert sorted(mapped) == list(range(n))
    if n == k:
        assert mapped == list(range(n))  # no repairs: identity


def test_ring_symbol_spreads_sources_evenly():
    k, n = 100, 250
    positions = [p for p in range(n) if ring_symbol(p, k, n) < k]
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    assert set(gaps) <= {2, 3}  # a source every n/k = 2.5 slots


@pytest.mark.parametrize("k,n", [(1, 1), (7, 19), (100, 137), (64, 256)])
def test_ring_table_holds_ring_symbol_of_every_position(k, n):
    table = ring_table(k, n)
    assert (table.format, table.itemsize) == ("I", 4)
    assert table.tolist() == [ring_symbol(p, k, n) for p in range(n)]


# ---------------------------------------------------------------------------
# metrics


def counters(**kw):
    base = dict(
        file_length=1_000_000,
        k=1000,
        epsilon=0,
        received_symbols=1000,
        received_packets=1000,
        missed_packets=0,
        link_bytes=1_480_000,
        elapsed=8.0,
        network_time=8.0,
    )
    base.update(kw)
    return TransferCounters(**base)


def test_metric_formulas_exact():
    m = compute_metrics(
        counters(
            k=9800,
            epsilon=200,
            received_symbols=10_051,
            received_packets=9500,
            missed_packets=500,
            link_bytes=1_200_000,
        )
    )
    assert m.time == 8.0
    assert m.gput == pytest.approx(1_000_000 * 8 / 8.0 / 1000)  # 1000 Kb/s
    assert m.tput == pytest.approx(1_200_000 * 8 / 8.0 / 1000)
    assert m.loss == pytest.approx(5.0)
    assert m.dup == pytest.approx(0.51)  # 10051 symbols for k+eps = 10000
    assert m.sym == pytest.approx((10_000 / 9800 - 1) * 100)
    assert m.net == pytest.approx(20.0)
    assert m.comp == 0.0


def test_sym_at_four_thousand_blocks():
    m = compute_metrics(counters(k=4000, epsilon=240, received_symbols=4240))
    assert m.sym == pytest.approx(6.0)


def test_head_depends_only_on_framing():
    assert compute_metrics(counters()).head == pytest.approx(100 * (1480 / 1448 - 1))
    assert round(compute_metrics(counters()).head, 1) == 2.2
    m = compute_metrics(counters(applicative_data=1460))
    assert m.head == pytest.approx(100 * (1480 / 1460 - 1))
    assert round(m.head, 1) == 1.4


def test_undefined_metrics_raise():
    with pytest.raises(ValueError, match="time undefined: nothing elapsed"):
        compute_metrics(counters(elapsed=0.0))
    with pytest.raises(ValueError, match="loss undefined: zero denominator"):
        compute_metrics(counters(received_packets=0, missed_packets=0))
    with pytest.raises(ValueError, match="comp undefined: zero denominator"):
        compute_metrics(counters(network_time=0.0))


def test_partial_metrics_subset():
    p = partial_metrics(counters(received_packets=90, missed_packets=10))
    assert set(p) == {"time", "tput", "loss", "head"}
    assert p["loss"] == pytest.approx(10.0)
    assert partial_metrics(counters(elapsed=0.0, received_packets=0)).keys() == {"head"}


def test_format_metrics_and_report_order():
    m = compute_metrics(counters())
    lines = format_metrics(m.as_dict()).splitlines()
    assert [ln.split()[0] for ln in lines] == list(METRIC_NAMES)
    rep = report([m, m])
    out = format_report(rep).splitlines()
    assert len(out) == 9
    assert [ln.split()[0] for ln in out] == list(METRIC_NAMES)


# ---------------------------------------------------------------------------
# codec sizing


def test_spec_for_file_dimensions():
    spec = spec_for_file("sparse_parity", 4 * 1024 * 1024, 1448, seed=3)
    assert (spec.k, spec.n) == (2897, 5794)
    assert spec.seed == 3
    assert spec_for_file("null", 2560, 64).n == 40
    assert spec_for_file("mds", 100, 10, n=25).n == 25
    with pytest.raises(ValueError):
        spec_for_file("sparse_parity", 0, 1448)


def test_session_rejects_mismatched_codec():
    with pytest.raises(ValueError):
        CarouselSession(b"x" * 1000, CFG, CodecSpec("sparse_parity", 5, 10, 64))
    with pytest.raises(ValueError):
        CarouselSession(b"", CFG, CodecSpec("sparse_parity", 1, 2, 64))


@pytest.mark.parametrize("fields, levels, refusal", [
    pytest.param({"base_rate": 5e-324}, None, "no finite buffer time", id="base_rate=5e-324"),
    pytest.param({"base_rate": 1e-300}, None, "no finite buffer length", id="base_rate=1e-300"),
    pytest.param({}, 41, "41 levels > 40 blocks", id="levels=41"),
    pytest.param({"base_rate": 1e-9}, None, "tiles per buffer", id="base_rate=1e-9"),
    pytest.param({"base_rate": 1e-300}, 1, "tiles per buffer", id="levels=1-base_rate=1e-300"),
])
def test_session_refuses_its_geometry_before_encoding(fields, levels, refusal):
    # None of these refusals needs the symbols, so none waits for the
    # encode of a large file; each says what it says with the encode run.
    data, spec = random.Random(8).randbytes(64 * 40), CodecSpec("null", 40, 40, 64)
    cfg = dataclasses.replace(SMALL_CFG, **fields)
    with pytest.raises(ValueError, match=refusal) as encoded:
        CarouselSession(data, cfg, spec, levels=levels)
    with (mock.patch.object(transfer.fec, "encode", side_effect=AssertionError("encoded")),
          pytest.raises(ValueError) as refused):
        CarouselSession(data, cfg, spec, levels=levels)
    assert str(refused.value) == str(encoded.value)


# ---------------------------------------------------------------------------
# carousel session + symbol receiver (fed directly, no simulator)


def null_session(block_count=40):
    data = random.Random(8).randbytes(64 * block_count)
    spec = CodecSpec("null", block_count, block_count, 64)
    return data, CarouselSession(data, SMALL_CFG, spec, levels=1)


def test_emission_headers():
    data, sess = null_session()
    assert sess.plan.level_count == 1 and sess.spec.n == 40
    stream = []
    for t, group, datagram in sess.emissions(max_buffers=3):
        header, payload = wire.parse_packet(datagram)
        assert header.session_id == sess.session_id
        assert header.tsi == int(t / SMALL_CFG.tsd)
        assert header.buffer_length == sess.plan.level_count * sess.spec.symbol_size == 64
        assert header.offset + len(payload) <= header.buffer_length
        stream.append((header.buffer_id, t))
    ids = [b for b, _ in stream]
    assert ids == sorted(ids)
    for b in set(ids):
        times = [t for bid, t in stream if bid == b]
        assert times == sorted(times)


# SHA-256 of the first 400 buffers' emissions (repr of each send time, the
# group and the datagram) on criterion 8's ladder and on the default one.
# Computed on x86_64 with glibc 2.36 and CPython 3.11.7; like
# CRITERION_10_TRACE_SHA256 it depends on libm's pow, so a mismatch on
# another platform is a platform difference first, not a reason to re-pin.
EMISSIONS_SHA256 = "0da8fc3da894c105760fcc71951a23cee315a5a85a7c88a5aecc5acdbd2df258"


def test_emission_stream_is_pinned():
    # Send times and budgets are floats floored into packet counts, so an
    # ulp-level change in the channel model or the sequencer shows here.
    data = random.Random(0xE5).randbytes(200_000)
    codec = spec_for_file("sparse_parity", len(data), 1448, seed=3)
    digest = hashlib.sha256()
    count = 0
    for cfg in (ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10), ChannelConfig()):
        for t, group, datagram in CarouselSession(data, cfg, codec).emissions(max_buffers=400):
            digest.update(f"{t!r} {group} ".encode() + datagram)
            count += 1
    assert count == 29983
    assert digest.hexdigest() == EMISSIONS_SHA256


def ref_emissions(sess, max_buffers=None):
    """``CarouselSession.emissions`` before the layout record: every
    buffer is sequenced afresh.  The reference for the replayed stream."""
    tsd, session_id = sess.cfg.tsd, sess.session_id
    buffer_id = 0
    while max_buffers is None or buffer_id < max_buffers:
        t0 = buffer_id * sess.buffer_time
        payload = sess.buffer_payload(buffer_id)
        for send_time, group, seq, offset in sequence(len(payload), sess.buffer_time, sess.cfg, t0):
            pdu = payload[offset : offset + sess.cfg.packet_payload]
            header = wire.PacketHeader(group, session_id, max(int(send_time / tsd), 0), seq,
                                       buffer_id, offset, len(payload), len(pdu))
            yield send_time, group, wire.pack_packet(header, pdu)
        buffer_id += 1


def stream(emissions):
    # repr keeps a send time's every bit, as EMISSIONS_SHA256 does.
    return [(repr(t), group, datagram) for t, group, datagram in emissions]


def recorded_packets(sess):
    """The rows the record of ``sess``'s geometry holds, buffer by buffer:
    (send_time, group, offset, head, tail) per packet.

    Asking for a record makes it the current one, so this reads only the
    geometry in use."""
    rows, starts = transfer._layout_record(sess.cfg, sess.buffer_time, sess.buffer_length)
    bounds = [v for (v,) in transfer._START.iter_unpack(starts)]
    return [list(transfer._ROW.iter_unpack(rows[a:b])) for a, b in zip(bounds, bounds[1:])]


def record_of(sess):
    """The layouts the record of ``sess``'s geometry holds, buffer by buffer,
    as ``sequence``'s (send_time, group, seq, offset) rows.  The seq is
    header bytes 12..16, so bytes 4..8 of the recorded tail."""
    return [[(send_time, group, int.from_bytes(tail[4:8], "big"), offset)
             for send_time, group, offset, _, tail in packets]
            for packets in recorded_packets(sess)]


def ref_layout(sess, buffer_id):
    return sequence(sess.buffer_length, sess.buffer_time, sess.cfg, buffer_id * sess.buffer_time)


def ladder(**fields):
    try:
        return ChannelConfig(**fields)
    except ValueError:  # the ladder does not reach down to base_rate
        return None


# Small ladders whose PDUs are at most a symbol, so every window carries
# a packet; with levels inferred, windows below the mean top rate carry
# fewer packets than the buffer has PDUs, so buffers differ in length.
LADDERS = st.builds(
    ladder,
    base_rate=st.sampled_from([62_500.0, 40_000.0]),
    max_cumulative_rate=st.sampled_from([4e6, 3e6]),
    decay_ratio=st.sampled_from([0.5, 0.6, 0.75]),
    tsd=st.sampled_from([1.0, 0.05, 2.0]),
    groups_per_tsi=st.sampled_from([1, 2]),
    packet_payload=st.sampled_from([32, 48, 64]),
    group_count=st.sampled_from([5, 6, 7]),
).filter(lambda cfg: cfg is not None)

# (ladder, symbol size, levels or None to infer them, k = n of a null code)
GEOMETRIES = st.tuples(LADDERS, st.sampled_from([64, 100]), st.sampled_from([None, 1, 2, 3]),
                       st.integers(4, 60))


def session_of(geometry, data_seed=0, session_id=1):
    cfg, symbol_size, levels, blocks = geometry
    data = random.Random(data_seed).randbytes(symbol_size * blocks - data_seed % symbol_size)
    return CarouselSession(data, cfg, spec_for_file("null", len(data), symbol_size),
                           levels=levels, session_id=session_id)


# Inferred levels on a short tsd: buffers of unequal packet counts.
UNEVEN_GEOMETRY = (dataclasses.replace(SMALL_CFG, tsd=0.05), 64, None, 60)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(geometry=GEOMETRIES, buffers=st.integers(1, 12), warm_id=st.integers(0, 0xFFFFFFFF))
@example(geometry=UNEVEN_GEOMETRY, buffers=12, warm_id=0)
@example(geometry=UNEVEN_GEOMETRY, buffers=12, warm_id=0xFFFFFFFF)
def test_a_warm_session_emits_what_a_cold_one_does(geometry, buffers, warm_id):
    # The warm session carries other bytes under another session id; its
    # layouts and headers come from the record, so it neither sequences
    # nor packs a header.
    transfer._layout_record.cache_clear()
    cold, warm = session_of(geometry), session_of(geometry, data_seed=5, session_id=warm_id)
    assert stream(cold.emissions(max_buffers=buffers)) == stream(ref_emissions(cold, buffers))
    with (mock.patch.object(transfer, "sequence", wraps=transfer.sequence) as sequenced,
          mock.patch.object(wire, "pack_packet", wraps=wire.pack_packet) as packed):
        emitted = stream(warm.emissions(max_buffers=buffers))
    assert sequenced.call_count == packed.call_count == 0
    assert emitted == stream(ref_emissions(warm, buffers))
    assert record_of(warm) == [ref_layout(warm, b) for b in range(buffers)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(geometry=GEOMETRIES, buffers=st.integers(1, 12), session_id=st.integers(0, 0xFFFFFFFF))
def test_recorded_headers_are_the_datagrams_less_the_session_id(geometry, buffers, session_id):
    transfer._layout_record.cache_clear()
    sess = session_of(geometry, session_id=session_id)
    for _ in sess.emissions(max_buffers=buffers):
        pass
    recorded = [row for packets in recorded_packets(sess) for row in packets]
    want = list(ref_emissions(sess, buffers))
    assert len(recorded) == len(want)
    for (send_time, group, offset, head, tail), (t, g, datagram) in zip(recorded, want):
        assert (send_time, group, head, tail) == (t, g, datagram[0:4], datagram[8:32])
        assert offset == wire.parse_packet(datagram)[0].offset


# One change to a geometry: a ladder field, the levels or the symbol size.
CHANGES = st.one_of(
    st.tuples(st.just("decay_ratio"), st.sampled_from([0.55, 0.7])),
    st.tuples(st.just("max_cumulative_rate"), st.sampled_from([3.5e6, 5e6])),
    st.tuples(st.just("tsd"), st.sampled_from([0.25, 1.5])),
    st.tuples(st.just("groups_per_tsi"), st.sampled_from([3, 4])),
    st.tuples(st.just("packet_payload"), st.sampled_from([16, 40])),
    st.tuples(st.just("group_count"), st.sampled_from([3, 4])),
    st.tuples(st.just("base_rate"), st.sampled_from([31_250.0, 50_000.0])),
    st.tuples(st.just("levels"), st.sampled_from([1, 2, 4])),
    st.tuples(st.just("symbol_size"), st.sampled_from([32, 80])),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(geometry=GEOMETRIES, change=CHANGES, buffers=st.integers(1, 10))
def test_geometries_built_back_to_back_replay_only_their_own_layouts(geometry, change, buffers):
    cfg, symbol_size, levels, blocks = geometry
    name, value = change
    if name == "levels":
        levels = value
    elif name == "symbol_size":
        symbol_size = value
    else:
        cfg = dataclasses.replace(cfg, **{name: value})
    other = (cfg, symbol_size, levels, blocks)
    for g in (geometry, other, geometry, other):
        try:
            sess = session_of(g)
        except ValueError:
            return  # the changed ladder does not reach down to base_rate
        assert stream(sess.emissions(max_buffers=buffers)) == stream(ref_emissions(sess, buffers))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(geometry=GEOMETRIES, buffers=st.integers(1, 10), ints_first=st.booleans())
def test_a_ladder_of_ints_equal_to_one_of_floats_shares_its_layouts(geometry, buffers, ints_first):
    cfg, *rest = geometry
    as_ints = ChannelConfig(*(int(v) if type(v) is float and v.is_integer() else v
                              for v in dataclasses.astuple(cfg)))
    assert as_ints == cfg and hash(as_ints) == hash(cfg)
    assert type(as_ints.base_rate) is int
    transfer._layout_record.cache_clear()
    order = (as_ints, cfg) if ints_first else (cfg, as_ints)
    for ladder_ in order:
        sess = session_of((ladder_, *rest))
        assert stream(sess.emissions(max_buffers=buffers)) == stream(ref_emissions(sess, buffers))
    assert transfer._layout_record.cache_info().misses == 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(geometry=GEOMETRIES, turns=st.lists(st.booleans(), max_size=200))
def test_interleaved_generators_of_one_geometry(geometry, turns):
    # Two sessions of one geometry, pulled in any interleaving, each
    # recording the buffers the other has not reached yet.
    transfer._layout_record.cache_clear()
    sessions_ = [session_of(geometry), session_of(geometry, data_seed=3, session_id=4)]
    generators = [s.emissions(max_buffers=8) for s in sessions_]
    got = [[], []]
    for turn in turns:
        got[turn].extend(itertools.islice(generators[turn], 1))
    for emitted, rest in zip(got, generators):
        emitted.extend(rest)
    for s, emitted in zip(sessions_, got):
        assert stream(emitted) == stream(ref_emissions(s, 8))
    assert record_of(sessions_[0]) == [ref_layout(sessions_[0], b) for b in range(8)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(geometry=GEOMETRIES,
       runs=st.lists(st.tuples(st.integers(1, 10), st.integers(0, 200)), min_size=1, max_size=5))
def test_runs_that_stop_mid_record(geometry, runs):
    # Each run stops after its buffers, or after some packets: inside a
    # buffer, which is recorded whole all the same.
    transfer._layout_record.cache_clear()
    reached = 0
    for seed, (buffers, packets) in enumerate(runs):
        sess = session_of(geometry, data_seed=seed, session_id=seed + 1)
        got = stream(itertools.islice(sess.emissions(max_buffers=buffers), packets))
        want = stream(itertools.islice(ref_emissions(sess, buffers), packets))
        assert got == want
        if got:
            reached = max(reached, wire.parse_packet(got[-1][2])[0].buffer_id + 1)
        assert record_of(sess) == [ref_layout(sess, b) for b in range(reached)]


def test_a_run_past_the_record_bound_records_only_the_prefix(monkeypatch):
    # Inferred levels: some windows carry fewer packets than the buffer
    # has PDUs.  The bound admits the first `fits` buffers and stops at a
    # longer buffer that a later, shorter one would have fitted after.
    geometry = (dataclasses.replace(SMALL_CFG, tsd=0.05), 64, None, 60)
    sess = session_of(geometry)
    counts = [len(ref_layout(sess, b)) for b in range(30)]
    fits = next(b for b in range(1, 29) if counts[b] > min(counts[b + 1:]))
    bound = sum(counts[:fits]) + counts[fits] - 1
    monkeypatch.setattr(transfer, "MAX_RECORDED_PACKETS", bound)
    transfer._layout_record.cache_clear()
    for run in range(2):
        s = session_of(geometry, data_seed=run)
        # Every run packs each packet of the buffers past the record once;
        # the second packs none of the recorded prefix.
        with mock.patch.object(wire, "pack_packet", wraps=wire.pack_packet) as packed:
            emitted = stream(s.emissions(max_buffers=30))
        assert packed.call_count == sum(counts[fits if run else 0:])
        assert emitted == stream(ref_emissions(s, 30))
        assert record_of(s) == [ref_layout(s, b) for b in range(fits)]


def test_a_row_holds_a_group_id_past_32_bits():
    # `send` reaches group ids near 2**35: 2**20 buffers of up to 2**15
    # sub slots each.
    row = (1.5, 2**35 + 9, 7, b"head", bytes(range(24)))
    assert transfer._ROW.unpack(transfer._ROW.pack(*row)) == row


def test_threads_share_one_record_without_a_lost_or_doubled_buffer():
    # More threads than cores over one cold geometry, with a thread switch
    # every microsecond; a buffer appended twice or out of turn would put
    # another buffer's layout in some recorded place.
    geometry = (dataclasses.replace(SMALL_CFG, tsd=0.05), 64, None, 60)
    transfer._layout_record.cache_clear()
    sessions_ = [session_of(geometry, data_seed=i, session_id=i + 1) for i in range(6)]
    got = [None] * len(sessions_)

    def run(i):
        got[i] = stream(sessions_[i].emissions(max_buffers=40))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sessions_))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for s, emitted in zip(sessions_, got):
        assert emitted == stream(ref_emissions(s, 40))
    assert record_of(sessions_[0]) == [ref_layout(sessions_[0], b) for b in range(40)]


def test_null_codec_one_period_completes():
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    done_at = None
    for t, _, datagram in sess.emissions(max_buffers=sess.spec.n):
        if rx.on_datagram(datagram):
            done_at = t
            break
    assert rx.done and done_at is not None
    assert rx.received_symbols == sess.spec.n  # every block exactly once
    assert rx.duplicate_symbols == 0
    assert rx.epsilon == 0
    assert rx.file() == data


def test_on_packet_after_close_changes_nothing():
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    stream = sess.emissions(max_buffers=2 * sess.spec.n)
    for t, _, datagram in stream:
        if rx.on_datagram(datagram):
            break

    def state():
        return (rx.received_symbols, rx.foreign_packets, rx.malformed_packets,
                rx.conflicting_symbols, rx.decoder.distinct,
                dataclasses.asdict(rx.reassembler.counters))

    before = state()
    # The rest of the second lap, then a datagram that does not parse.
    for t, _, datagram in stream:
        assert rx.on_datagram(datagram) is True
    assert rx.on_datagram(b"junk") is True
    assert state() == before


@pytest.mark.parametrize("codec", ["null", "mds", "sparse_parity"])
@pytest.mark.parametrize("length", [3 * 64, 3 * 64 + 1, 63])
def test_file_is_the_input_at_every_tail_length(codec, length):
    # Whole blocks only, one byte into a fourth block, and less than one.
    data = random.Random(length).randbytes(length)
    sess = CarouselSession(data, SMALL_CFG, spec_for_file(codec, length, 64, seed=4), levels=1)
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=length)
    for t, _, datagram in sess.emissions(max_buffers=8 * sess.spec.n):
        if rx.on_datagram(datagram):
            break
    assert rx.done
    assert rx.file() == data


def test_duplicates_counted_against_missed_block():
    data, sess = null_session()
    B = sess.spec.n
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    for t, _, datagram in sess.emissions(max_buffers=B + 10):
        header, _ = wire.parse_packet(datagram)
        if header.buffer_id == 3:  # lose one buffer in the first lap
            continue
        if rx.on_datagram(datagram):
            break
    # second lap replays blocks 0..2 (duplicates) before delivering block 3
    assert rx.done
    assert rx.duplicate_symbols == 3
    assert rx.received_symbols == B + 3
    assert rx.epsilon == 0
    assert rx.file() == data
    c = counters(k=B, epsilon=0, received_symbols=rx.received_symbols)
    assert compute_metrics(c).dup == pytest.approx(300.0 / B)


def test_wrong_buffer_length_dropped_and_counted():
    # Parses, but a buffer of 8 bytes cannot hold the 64-byte symbol of its level.
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    h = wire.PacketHeader(0, sess.session_id, 0, 0, 0, offset=0, buffer_length=8, payload_len=8)
    assert rx.on_datagram(wire.pack_packet(h, b"8bytes!!")) is False
    assert rx.malformed_packets == 1
    assert rx.reassembler.counters.malformed == 0
    assert rx.reassembler.current is None
    assert rx.received_symbols == 0
    for t, _, datagram in sess.emissions(max_buffers=sess.spec.n):
        if rx.on_datagram(datagram):
            break
    assert rx.file() == data


def buffer_datagrams(sess, buffer_id):
    return [d for _, _, d in sess.emissions(max_buffers=buffer_id + 1)
            if wire.parse_packet(d)[0].buffer_id == buffer_id]


def repacked(datagram, *, flip=False, **fields):
    header, payload = wire.parse_packet(datagram)
    if flip:
        payload = bytes([payload[0] ^ 1]) + payload[1:]
    return wire.pack_packet(header._replace(**fields), payload)


def test_conflicting_later_lap_copy_dropped_and_counted():
    # Buffer 40 is the second lap of buffer 0: the same symbol, here with other bytes.
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    for datagram in buffer_datagrams(sess, 0):
        rx.on_datagram(datagram)
    before = dataclasses.asdict(rx.reassembler.counters)
    for datagram in buffer_datagrams(sess, 40):
        assert rx.on_datagram(repacked(datagram, flip=True)) is False
    assert rx.conflicting_symbols == 1
    assert rx.received_symbols == 1 and rx.duplicate_symbols == 0
    after = dataclasses.asdict(rx.reassembler.counters)
    assert after["malformed"] == before["malformed"] and after["duplicate"] == before["duplicate"]
    for t, _, datagram in sess.emissions(max_buffers=2 * sess.spec.n):
        if wire.parse_packet(datagram)[0].buffer_id > 40 and rx.on_datagram(datagram):
            break
    assert rx.file() == data


def test_foreign_session_dropped_and_counted():
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    for datagram in buffer_datagrams(sess, 0):
        assert rx.on_datagram(repacked(datagram, session_id=77)) is False
    assert rx.received_symbols == 0
    assert rx.foreign_packets == len(buffer_datagrams(sess, 0))
    assert rx.reassembler.current is None


def test_conflicting_copy_in_the_open_buffer_counted_as_malformed():
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    (datagram,) = buffer_datagrams(sess, 0)
    assert rx.on_datagram(datagram) is False
    assert rx.on_datagram(repacked(datagram, flip=True)) is False
    assert rx.reassembler.counters.malformed == 1
    assert rx.received_symbols == 1 and rx.conflicting_symbols == 0


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from now on; returns the list of counts."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_later_lap_copy_of_a_held_symbol_settled_without_the_decoder(monkeypatch):
    # Buffers 40 and 80 are the second and third laps of buffer 0: a
    # whole-slot copy of the symbol the decoder holds from buffer 0.
    data, sess = null_session()
    rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(data))
    (first,) = buffer_datagrams(sess, 0)
    assert rx.on_datagram(first) is False
    assert (rx.received_symbols, rx.duplicate_symbols) == (1, 0)
    adds = counting(monkeypatch, SymbolDecoder, "add")
    covered = counting(monkeypatch, ReassemblyBuffer, "covered")
    (second,) = buffer_datagrams(sess, 40)
    assert rx.on_datagram(second) is False
    assert (rx.received_symbols, rx.duplicate_symbols, rx.conflicting_symbols) == (2, 1, 0)
    (third,) = buffer_datagrams(sess, 80)
    assert rx.on_datagram(repacked(third, flip=True)) is False
    assert (rx.received_symbols, rx.duplicate_symbols, rx.conflicting_symbols) == (2, 1, 1)
    assert adds == covered == [0]
    symbol = ring_symbol(sess.plan.block_for(0, 1), sess.spec.k, sess.spec.n)
    assert rx.decoder.held(symbol) == wire.parse_packet(first)[1]
    # A first copy still goes through the decoder.
    (new,) = buffer_datagrams(sess, 81)
    assert rx.on_datagram(new) is False
    assert adds == covered == [1]
    assert rx.decoder.distinct == 2


@pytest.mark.parametrize("session_id", [-1, 2**32, 2**32 + 1])
def test_session_id_outside_32_bits_rejected(session_id):
    data, sess = null_session()
    with pytest.raises(ValueError, match="session_id"):
        CarouselSession(data, SMALL_CFG, sess.spec, levels=1, session_id=session_id)
    with pytest.raises(ValueError, match="session_id"):
        SymbolReceiver(sess.spec, sess.plan, file_length=len(data), session_id=session_id)
    top = CarouselSession(data, SMALL_CFG, sess.spec, levels=1, session_id=2**32 - 1)
    _, _, datagram = next(top.emissions())
    assert wire.parse_packet(datagram)[0].session_id == 2**32 - 1


@pytest.mark.parametrize("file_length", [2, 13, 0])
def test_receiver_rejects_a_file_length_its_codec_cannot_hold(file_length):
    # Three 4-byte symbols hold a file of 9 to 12 bytes, no more, no less.
    spec = CodecSpec("null", 3, 3, 4)
    plan = build_plan(3, 1)
    for fits in (9, 12):
        SymbolReceiver(spec, plan, file_length=fits)
    with pytest.raises(ValueError, match="codec k does not match the file and symbol size"):
        SymbolReceiver(spec, plan, file_length=file_length)


def test_receiver_rejects_a_plan_of_another_ring_size():
    # The receiver maps slots to symbols through a table of the code's n
    # ring positions, so the carousel must walk a ring of n blocks.
    spec = CodecSpec("sparse_parity", 3, 6, 4)
    SymbolReceiver(spec, build_plan(6, 2), file_length=12)
    for blocks in (5, 7):
        with pytest.raises(ValueError, match=f"a carousel of {blocks} blocks for a code of 6"):
            SymbolReceiver(spec, build_plan(blocks, 2), file_length=12)


FUZZ_DATA = random.Random(21).randbytes(64 * 12 - 5)


def sessions(cfg):
    """One small session per codec over ``cfg`` (k = 12, three 64-byte levels per buffer)."""
    return {name: CarouselSession(FUZZ_DATA, cfg, spec_for_file(name, len(FUZZ_DATA), 64, seed=1),
                                  levels=3, session_id=7)
            for name in ("null", "sparse_parity", "mds")}


# 64-byte PDUs over 64-byte symbols, as every workload sends them: each
# PDU fills one slot whole.
FUZZ_SESSIONS = sessions(SMALL_CFG)


def fuzz_datagrams(sess):
    """Lists of datagram groups: raw bytes, forged headers, real and mutated datagrams."""
    real = [d for _, _, d in sess.emissions(max_buffers=2 * sess.spec.n)]
    right = sess.plan.level_count * sess.spec.symbol_size

    def forge(session_id, buffer_id, offset, buffer_length, payload_len, payload):
        if payload_len is None:
            payload_len = len(payload)
        header = wire.PacketHeader(0, session_id, 0, 0, buffer_id, offset, buffer_length,
                                   payload_len)
        return [wire.pack_header(header) + payload]

    def mutate(i, position, xor):
        # The real datagram, then a copy with one byte changed.
        d = real[i]
        position %= len(d)
        return [d, d[:position] + bytes([d[position] ^ xor]) + d[position + 1:]]

    forged = st.builds(
        forge,
        st.sampled_from([sess.session_id, 1, 0, 2**32 - 1]),
        st.integers(0, 2 * sess.spec.n) | st.just(2**32 - 1),
        st.integers(0, right + 64),
        st.sampled_from([right, right - 1, right + 64, 8, 0]),
        st.none() | st.integers(0, 100),
        st.binary(max_size=100),
    )
    mutated = st.builds(mutate, st.integers(0, len(real) - 1), st.integers(0, 2000),
                        st.integers(1, 255))
    raw = st.binary(max_size=300).map(lambda b: [b])
    exact = st.sampled_from(real).map(lambda d: [d])
    return st.lists(st.one_of(raw, forged, exact, mutated), max_size=40)


@pytest.mark.parametrize("codec", sorted(FUZZ_SESSIONS))
def test_on_packet_never_raises(codec):
    sess = FUZZ_SESSIONS[codec]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(fuzz_datagrams(sess))
    def feed(groups):
        rx = SymbolReceiver(sess.spec, sess.plan, file_length=len(FUZZ_DATA),
                            session_id=sess.session_id)
        for datagram in itertools.chain.from_iterable(groups):
            assert type(rx.on_datagram(datagram)) is bool

    feed()


class SlotSetReceiver(SymbolReceiver):
    """The receiver's former feeding rule, kept as the reference.

    It takes parsed PDUs through ``on_packet``, so the inherited
    ``on_datagram`` parses for it as for the receiver.  It reassembles
    with the byte-mask reference reassembler, keeps a set of the open
    buffer's slots already fed, cleared when a new buffer opens, and
    feeds every slot a stored PDU touches that is whole and not in the
    set to the decoder, held symbols included.  Stale and rejected PDUs
    are read off the reassembler's counters, so the reference shares
    nothing with ``dyncast.reassembly``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reassembler = ReferenceReassembler()
        self.slots_done: set[int] = set()

    def on_packet(self, header, payload):
        if self.decoder.complete:
            return True
        if header.buffer_length != self.buffer_length:
            self.malformed_packets += 1
            return False
        if header.session_id != self.session_id:
            self.foreign_packets += 1
            return False
        r = self.reassembler
        before, dropped = r.current, r.counters.stale + r.counters.malformed
        r.on_packet(header, payload)
        if r.counters.stale + r.counters.malformed > dropped:
            return False
        if r.current is not before:
            self.slots_done.clear()
        ss = self.spec.symbol_size
        for slot in range(header.offset // ss, (header.offset + len(payload) - 1) // ss + 1):
            if slot in self.slots_done:
                continue
            data = r.current.covered(slot * ss, (slot + 1) * ss)
            if data is None:
                continue
            self.slots_done.add(slot)
            position = self.plan.block_for(header.buffer_id, slot + 1)
            try:
                self.decoder.add(ring_symbol(position, self.spec.k, self.spec.n), data)
            except DecodeFailureError:
                self.conflicting_symbols += 1
                continue
            self.received_symbols += 1
            if self.decoder.complete:
                return True
        return False


# 40-byte PDUs over 64-byte symbols: most PDUs straddle two slots.
STRADDLE_SESSIONS = sessions(dataclasses.replace(SMALL_CFG, packet_payload=40))
EDITS = ("drop", "keep", "twice", "corrupt", "corrupt_copy", "split")


def edited_stream(real, seed):
    """``real`` with one random edit per datagram, reordered by index plus jitter.

    Half the datagrams are kept in place, so that some decodes close.  A
    split datagram becomes two parts that overlap, sent in either order;
    a corrupt one has one payload byte flipped, and a corrupt copy follows
    the datagram; a jitter that crosses a buffer's datagrams makes the
    older buffer's ones stale.
    """
    rng = random.Random(seed)
    keyed = []
    for index, datagram in enumerate(real):
        edit = rng.choice(EDITS) if rng.random() < 0.5 else "keep"
        x, y = rng.randrange(2**16), rng.randrange(2**16)
        jitter = rng.randint(-6, 6) if rng.random() < 0.5 else 0
        header, payload = wire.parse_packet(datagram)
        size = len(payload)
        out = {"drop": [], "keep": [datagram], "twice": [datagram, datagram]}.get(edit)
        if edit.startswith("corrupt"):
            at = x % size
            flipped = payload[:at] + bytes([payload[at] ^ (y % 255 + 1)]) + payload[at + 1:]
            out = [datagram] * (edit == "corrupt_copy") + [wire.pack_packet(header, flipped)]
        elif edit == "split":
            a = x % (size + 1)
            b = a + y % (size - a + 1)
            out = [wire.pack_packet(header._replace(offset=header.offset + lo, payload_len=hi - lo),
                                    payload[lo:hi])
                   for lo, hi in ((0, b), (a, size))]
            if x % 2:
                out.reverse()
        keyed += [(index + jitter, d) for d in out]
    keyed.sort(key=lambda item: item[0])
    return [d for _, d in keyed]


def receiver_state(rx):
    try:
        file = rx.file() if rx.done else None
    except DecodeFailureError as exc:
        file = str(exc)
    return (rx.received_symbols, rx.conflicting_symbols, rx.decoder.distinct,
            rx.malformed_packets, rx.foreign_packets,
            dataclasses.asdict(rx.reassembler.counters), file)


def feeds_what_the_slot_set_reference_feeds(sess):
    """The receiver against ``SlotSetReceiver`` over edited streams of ``sess``.

    Returns the outcomes the reference saw over all the streams.
    """
    real = [d for _, _, d in sess.emissions(max_buffers=2 * sess.spec.n)]
    seen = set()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def feed(seed):
        kwargs = dict(file_length=len(FUZZ_DATA), session_id=sess.session_id)
        rx = SymbolReceiver(sess.spec, sess.plan, **kwargs)
        ref = SlotSetReceiver(sess.spec, sess.plan, **kwargs)
        for datagram in edited_stream(real, seed):
            assert rx.on_datagram(datagram) == ref.on_datagram(datagram)
        assert receiver_state(rx) == receiver_state(ref)
        c = ref.reassembler.counters
        seen.update(name for name, hit in (("closed", ref.done), ("stale", c.stale),
                                           ("malformed", c.malformed),
                                           ("conflicting", ref.conflicting_symbols),
                                           ("duplicate", ref.duplicate_symbols)) if hit)

    feed()
    return seen


@pytest.mark.parametrize("codec", sorted(STRADDLE_SESSIONS))
def test_receiver_feeds_what_the_slot_set_reference_feeds(codec):
    seen = feeds_what_the_slot_set_reference_feeds(STRADDLE_SESSIONS[codec])
    assert seen == {"closed", "stale", "malformed", "conflicting", "duplicate"}


@pytest.mark.parametrize("codec", sorted(FUZZ_SESSIONS))
def test_aligned_receiver_feeds_what_the_slot_set_reference_feeds(codec):
    # Whole-slot PDUs take the reassembler's one-store path; a split one
    # leaves a partial slot that a later whole copy completes through the
    # per-slot loop.
    seen = feeds_what_the_slot_set_reference_feeds(FUZZ_SESSIONS[codec])
    assert seen == {"closed", "stale", "malformed", "conflicting", "duplicate"}


# ---------------------------------------------------------------------------
# simulated end-to-end


def test_simulated_transfer_round_trip():
    data = random.Random(99).randbytes(100_000)
    spec = spec_for_file("sparse_parity", len(data), 1448, seed=2)
    scen = Scenario(
        channel=CFG,
        bottleneck_rate=8_000_000.0,
        receivers=(ReceiverSpec(CFG.mean_top_rate),),
        duration=120.0,
        seed=6,
    )
    outcomes, sim = simulate_transfer(data, scen, spec)
    (out,) = outcomes
    assert out.done
    assert out.file == data
    m = out.metrics
    assert m.comp == 0.0  # virtual clock: decode costs no simulated time
    assert m.loss == 0.0
    assert m.tput > m.gput > 0
    assert m.net > 0
    # dup consistency with the raw counters
    c = out.counters
    assert m.dup == pytest.approx((c.received_symbols / (c.k + c.epsilon) - 1) * 100)
    assert c.received_packets == sim.link.delivered


def sim_view(result):
    """Every field of a SimResult, receiver state included, as comparable values."""
    return (result.end_time, result.link,
            [(vars(r.state), r.trace) for r in result.receivers])


def test_a_warm_simulation_equals_a_cold_one():
    # The fanout workload's shape, smaller: a null-codec file to eight
    # receivers behind a lossy, overflowing bottleneck.  The second run
    # replays every layout the first one recorded.
    cfg = ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
    data = random.Random(0xFA).randbytes(60_000)
    spec = spec_for_file("null", len(data), 1448)
    scen = Scenario(channel=cfg, bottleneck_rate=2.5e6, queue_capacity=25, iid_loss=0.02,
                    burst=GilbertLoss(0.05, 6.0), duration=600.0, seed=5,
                    receivers=tuple(ReceiverSpec((0.1 + 0.9 * i / 7) * cfg.mean_top_rate, 2.0 * i)
                                    for i in range(8)))
    transfer._layout_record.cache_clear()
    with mock.patch.object(transfer, "sequence", wraps=transfer.sequence) as sequenced:
        cold_outcomes, cold = simulate_transfer(data, scen, spec, collect_traces=True)
        cold_calls = sequenced.call_count
        warm_outcomes, warm = simulate_transfer(data, scen, spec, collect_traces=True)
    assert cold_calls > 0 and sequenced.call_count == cold_calls
    assert all(out.done and out.file == data for out in cold_outcomes)
    assert warm_outcomes == cold_outcomes
    assert sim_view(warm) == sim_view(cold)


def test_simulated_transfer_timeout_leaves_partial_state():
    data = random.Random(1).randbytes(200_000)
    spec = spec_for_file("sparse_parity", len(data), 1448)
    scen = Scenario(
        channel=CFG,
        receivers=(ReceiverSpec(CFG.base_rate),),  # base rate only: very slow
        duration=2.0,
    )
    outcomes, _ = simulate_transfer(data, scen, spec)
    (out,) = outcomes
    assert not out.done
    assert out.file is None and out.metrics is None
    assert out.counters.received_packets > 0


def test_simulated_transfer_parses_each_delivery_once(monkeypatch):
    # Two receivers alike hear the same datagrams; a third at a lower rate
    # hears only some, so the listener lists vary.  Each datagram with a
    # listener is parsed once, the first copy of a symbol is stored as
    # the one payload object all listeners share, and a datagram that
    # does not parse still reaches every listener's on_datagram.
    data = random.Random(31).randbytes(64 * 60)
    spec = spec_for_file("null", len(data), 64)
    scen = Scenario(channel=SMALL_CFG, bottleneck_rate=1e7, duration=120.0, seed=4,
                    receivers=(ReceiverSpec(SMALL_CFG.mean_top_rate),) * 2
                    + (ReceiverSpec(0.3 * SMALL_CFG.mean_top_rate),))
    receivers = []
    init = SymbolReceiver.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        receivers.append(self)

    monkeypatch.setattr(SymbolReceiver, "__init__", keep)
    emissions = CarouselSession.emissions

    def junk_first(self, **kwargs):
        yield 0.0, 0, b"junk"
        yield from emissions(self, **kwargs)

    monkeypatch.setattr(CarouselSession, "emissions", junk_first)
    parses = counting(monkeypatch, wire, "parse_packet")
    outcomes, sim = simulate_transfer(data, scen, spec, collect_traces=True)
    assert all(out.done and out.file == data for out in outcomes)
    heard = [r.packet for rres in sim.receivers for r in rres.trace]
    # The junk is parsed once on_delivery's way and once by each of the
    # three receivers' on_datagram.
    assert parses == [len({id(packet) for packet in heard}) + 3]
    assert len(heard) > parses[0]
    assert [rx.malformed_packets for rx in receivers] == [1, 1, 1]
    a, b, _ = receivers
    assert all(a.decoder.held(i) is b.decoder.held(i) for i in range(spec.k))


def test_one_transfer_holds_the_file_few_times():
    # Criterion 8's channel, one receiver at the mean top rate, no loss.
    # The session's sources are views of the file and the decoder's blocks
    # are the sources it received, so the peak traced allocation stays
    # near four times the file: sparse payloads as ints, the repairs, the
    # received symbols and the decoded file.
    cfg = ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
    data = random.Random(0xD8).randbytes(1_000_000)
    spec = spec_for_file("sparse_parity", len(data), 1448, seed=3)
    scen = Scenario(channel=cfg, bottleneck_rate=8e6, receivers=(ReceiverSpec(cfg.mean_top_rate),),
                    duration=600.0, seed=8)
    (out,), peak = traced_transfer(data, scen, spec)
    assert out.done and out.file == data
    assert peak <= 5.0 * len(data), f"peak {peak / len(data):.2f} bytes per file byte"


def test_receivers_decode_one_after_another_in_the_same_memory():
    # The mds workload's shape on criterion 8's channel: 12 receivers at
    # 5% loss.  Every receiver decodes after the run, and a GF(256)
    # combine holds 8 accumulators per missing source.  Each receiver is
    # released once its outcome is built, so each decode reuses the
    # memory of the receivers before it (a peak of about 39 file lengths
    # when all stay alive to the end, 23 with the release).
    cfg = ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
    data = random.Random(0x3D5).randbytes(180_900)
    spec = spec_for_file("mds", len(data), 1448)
    scen = Scenario(channel=cfg, bottleneck_rate=8e6, iid_loss=0.05, duration=120.0, seed=1,
                    receivers=tuple(ReceiverSpec((0.05 + 0.95 * i / 11) * cfg.mean_top_rate)
                                    for i in range(12)))
    outcomes, peak = traced_transfer(data, scen, spec)
    assert all(out.done and out.file == data for out in outcomes)
    assert peak <= 28.0 * len(data), f"peak {peak / len(data):.2f} bytes per file byte"


def traced_transfer(data, scen, spec):
    """``simulate_transfer``'s outcomes and its peak traced allocation."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outcomes, _ = simulate_transfer(data, scen, spec)
        return outcomes, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_session_sources_are_views_of_the_file():
    data = random.Random(7).randbytes(64 * 40 - 9)
    sess = CarouselSession(data, SMALL_CFG, spec_for_file("sparse_parity", len(data), 64))
    sources = sess.symbols[: sess.spec.k]
    assert all(v.obj is data for v in sources[:-1])
    assert b"".join(sources)[: len(data)] == data


def test_no_receivers_rejected():
    with pytest.raises(ValueError):
        simulate_transfer(b"x", Scenario(channel=CFG, receivers=()), CodecSpec("null", 1, 1, 1))


# ---------------------------------------------------------------------------
# trace-file transport


def test_send_receive_file_round_trip(tmp_path):
    data = random.Random(12).randbytes(20_000)
    src = tmp_path / "payload.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    spec = spec_for_file("sparse_parity", len(data), 1448, seed=4)
    session = send_file(src, trace, channel=CFG, codec=spec)
    assert trace.read_text().startswith("# codec=sparse_parity n=28 symbol_size=1448 fec_seed=4 ")
    got, metrics, c = receive_file(trace)
    assert got == data
    assert c.file_length == len(data)
    assert metrics.time > 0 and metrics.sym >= 0


def test_receive_file_takes_session_from_header(tmp_path):
    data = random.Random(14).randbytes(20_000)
    src = tmp_path / "payload.bin"
    src.write_bytes(data)
    spec = spec_for_file("sparse_parity", len(data), 1448, seed=4)
    trace = tmp_path / "emitted.trace"
    send_file(src, trace, channel=CFG, codec=spec, session_id=9)
    header, *records = trace.read_text().splitlines()
    assert "session_id=9" in header.split()
    assert receive_file(trace)[0] == data
    # A header without session_id is rejected.
    bare = tmp_path / "bare.trace"
    send_file(src, bare, channel=CFG, codec=spec)
    header, *records = bare.read_text().splitlines()
    bare.write_text("\n".join([header.replace(" session_id=1", ""), *records]) + "\n")
    assert "session_id" not in bare.read_text().splitlines()[0]
    with pytest.raises(ValueError, match="session_id="):
        receive_file(bare)


def test_receive_file_checks_the_header_digest(tmp_path):
    data = random.Random(15).randbytes(20_000)
    src = tmp_path / "payload.bin"
    src.write_bytes(data)
    spec = spec_for_file("sparse_parity", len(data), 1448, seed=4)
    trace = tmp_path / "emitted.trace"
    send_file(src, trace, channel=CFG, codec=spec)
    header, *records = trace.read_text().splitlines()
    digest = hashlib.sha256(data).hexdigest()
    assert f"sha256={digest}" in header.split()
    forged = tmp_path / "forged.trace"
    forged.write_text("\n".join([header.replace(digest, "0" * 64), *records]) + "\n")
    with pytest.raises(DecodeFailureError, match="decoded bytes do not match the trace header's sha256"):
        receive_file(forged)
    # A header without sha256 is rejected.
    bare = tmp_path / "bare.trace"
    bare.write_text("\n".join([header.replace(f" sha256={digest}", ""), *records]) + "\n")
    assert "sha256" not in bare.read_text().splitlines()[0]
    with pytest.raises(ValueError, match="sha256="):
        receive_file(bare)


def test_receive_file_truncated_trace_times_out(tmp_path):
    data = random.Random(13).randbytes(20_000)
    src = tmp_path / "payload.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    spec = spec_for_file("sparse_parity", len(data), 1448, seed=4)
    send_file(src, trace, channel=CFG, codec=spec)
    lines = trace.read_text().splitlines()
    cut = tmp_path / "cut.trace"
    cut.write_text("\n".join(lines[:4]) + "\n")  # header + 3 PDUs < k symbols
    with pytest.raises(TransferTimeoutError) as exc:
        receive_file(cut)
    assert exc.value.counters.received_packets == 3
    assert "head" in exc.value.partial


def sent_lines(tmp_path):
    """The lines of a sent trace that needs more than its first 3 records."""
    data = random.Random(13).randbytes(20_000)
    src = tmp_path / "payload.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    send_file(src, trace, channel=CFG, codec=spec_for_file("sparse_parity", len(data), 1448, seed=4))
    return trace.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("where", ["time", "group", "hex"])
def test_receive_file_record_cut_mid_line_times_out(tmp_path, where):
    # ``head -c`` ends the trace inside its fifth line: in the time field,
    # right after the group, or one hex digit into the datagram.
    lines = sent_lines(tmp_path)
    t_us, group, _ = lines[4].split()
    end = {"time": len(t_us) - 1, "group": len(t_us) + 1 + len(group),
           "hex": len(t_us) + len(group) + 3}[where]
    cut = tmp_path / "cut.trace"
    cut.write_text("".join(lines[:4]) + lines[4][:end])
    with pytest.raises(TransferTimeoutError) as exc:
        receive_file(cut)
    assert exc.value.counters.received_packets == 3
    assert "head" in exc.value.partial


@pytest.mark.parametrize("record", ["1 0 zz", "1 0", "x 0 00", "1 0 00 7"])
def test_receive_file_malformed_record_names_the_line(tmp_path, record):
    lines = sent_lines(tmp_path)
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(lines[:3]) + record + "\n" + "".join(lines[3:]))
    with pytest.raises(ValueError, match=re.escape(f"{bad}:4: ")):
        receive_file(bad)


# ---------------------------------------------------------------------------
# confidence reporting


def fake_metrics(v):
    return TransferMetrics(
        time=v, gput=2 * v, tput=3 * v, loss=0.0, dup=0.0, sym=v / 10,
        head=2.21, net=1.0, comp=0.0,
    )


def test_report_uses_student_t_quantile():
    rep = report([fake_metrics(i + 1.0) for i in range(20)])
    mean, half = rep["time"]
    assert mean == pytest.approx(10.5)
    # sd of 1..20 is sqrt(35); the 97.5% Student quantile at 19 dof
    expected = 2.0930240544 * math.sqrt(35.0) / math.sqrt(20.0)
    assert half == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize(
    "df,expected",
    [
        (1, 12.706204736174694),
        (2, 4.302652729749462),
        (5, 2.5705818356363146),
        (30, 2.0422724563012378),
        (1000, 1.9623390808264083),
    ],
)
def test_t_quantile_matches_reference(df, expected):
    # Reference values: scipy.stats.t.ppf(0.975, df).
    assert _t_quantile(0.975, df) == pytest.approx(expected, rel=1e-10)


def test_report_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.path[0] = sys.argv[1]\n"
        "from dyncast.transfer import TransferMetrics, report\n"
        "report([TransferMetrics(*[v] * 9) for v in (1.0, 2.0)])\n"
        "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))\n"
    )
    # -S skips site-packages and -E ignores PYTHONPATH: only src/ and the
    # standard library are importable.
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    foreign = set(out.split()) - set(sys.stdlib_module_names) - {"dyncast", "__main__"}
    assert not foreign


def test_report_identical_runs_zero_width():
    rep = report([fake_metrics(4.0)] * 5)
    for name in METRIC_NAMES:
        assert rep[name][1] == 0.0


def test_report_needs_two_runs():
    with pytest.raises(ValueError, match="confidence intervals need at least 2 runs"):
        report([fake_metrics(1.0)])
