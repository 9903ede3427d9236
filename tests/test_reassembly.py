"""Buffer reassembly: merging, duplicate detection, flush-on-new-id.

An insert returns the symbol slots it made whole (None when it brought
no new byte), so the tests assert the exact slots a PDU completed.  The
former byte-mask buffer is kept below as the reference: the slot buffer
must hold the bytes it holds and complete a slot when its bits fill the
slot's window.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncast.reassembly import Reassembler, ReassemblyBuffer, serial_newer
from dyncast.wire import PacketHeader


def hdr(buffer_id, offset, payload_len, buffer_length, seq=0):
    return PacketHeader(
        group=0,
        session_id=7,
        tsi=0,
        seq=seq,
        buffer_id=buffer_id,
        offset=offset,
        buffer_length=buffer_length,
        payload_len=payload_len,
    )


# ---------------------------------------------------------------------------
# The byte-mask reference


class ReferenceBuffer:
    """One buffer under construction: its bytes and a mask of the offsets received.

    Bit i of ``mask`` is set once byte i has arrived; bytes whose bit is
    clear are zero placeholders.  ``insert`` returns the mask bits it set,
    0 for a duplicate.
    """

    def __init__(self, buffer_id, expected_length):
        self.buffer_id = buffer_id
        self.expected_length = expected_length
        self.data = bytearray(expected_length)
        self.mask = 0

    def insert(self, offset, data):
        end = offset + len(data)
        if offset < 0 or end > self.expected_length:
            raise ValueError("PDU outside the buffer")
        span = ((1 << len(data)) - 1) << offset
        seen = self.mask & span
        if seen == span:
            if self.data[offset:end] != data:
                raise ValueError(f"buffer {self.buffer_id}: conflicting bytes at {offset}..{end}")
            return 0
        added = span ^ seen
        if seen:
            seen >>= offset
            for i, byte in enumerate(data):
                if seen >> i & 1 and self.data[offset + i] != byte:
                    raise ValueError(f"buffer {self.buffer_id}: conflicting byte at {offset + i}")
        self.data[offset:end] = data
        self.mask |= span
        return added

    def covered(self, start, end):
        """The bytes of [start, end) if fully received, else None."""
        if not 0 <= start <= end <= self.expected_length:
            raise ValueError("range outside the buffer")
        span = ((1 << (end - start)) - 1) << start
        if self.mask & span != span:
            return None
        return bytes(self.data[start:end])


@dataclass
class ReferenceCounters:
    stored: int = 0
    duplicate: int = 0
    stale: int = 0
    malformed: int = 0
    flushed: int = 0


class ReferenceReassembler:
    """Per-buffer reassembly over ``ReferenceBuffer``, one open buffer at a time."""

    def __init__(self):
        self.current = None
        self.counters = ReferenceCounters()

    def on_packet(self, header, payload):
        if self.current is not None and header.buffer_id != self.current.buffer_id:
            if not 0 < (header.buffer_id - self.current.buffer_id) % 2**32 < 2**31:
                self.counters.stale += 1
                return 0
            self.flush()
        if self.current is None:
            self.current = ReferenceBuffer(header.buffer_id, header.buffer_length)
        try:
            added = self.current.insert(header.offset, payload)
        except ValueError:
            self.counters.malformed += 1
            return 0
        if added:
            self.counters.stored += 1
        else:
            self.counters.duplicate += 1
        return added

    def flush(self):
        buf, self.current = self.current, None
        if buf is not None:
            self.counters.flushed += 1
        return buf


# ---------------------------------------------------------------------------
# What a slot buffer holds


def slot_count(buf):
    return -(-buf.expected_length // buf.symbol_size)


def slot_window(buf, slot):
    """The byte positions of ``slot``."""
    return range(slot * buf.symbol_size, min((slot + 1) * buf.symbol_size, buf.expected_length))


def byte_view(buf):
    """The buffer-wide (bytes, mask) a slot buffer holds, as the reference keeps them."""
    data, mask = bytearray(buf.expected_length), 0
    for slot, (held, bits) in buf.slots.items():
        base = slot * buf.symbol_size
        data[base:base + len(held)] = held
        mask |= bits << base
    return bytes(data), mask


def contiguous_prefix(buf):
    """The bytes available from offset 0 without a hole."""
    out = bytearray()
    for slot in range(slot_count(buf)):
        data, mask = buf.slots.get(slot, (b"", 0))
        run = (~mask & (mask + 1)).bit_length() - 1  # the low bits set
        out += data[:run]
        if not data or run < len(data):
            break
    return bytes(out)


def received_bytes(buf):
    return sum(mask.bit_count() for _, mask in buf.slots.values())


def is_complete(buf):
    return all(buf.covered(slot) is not None for slot in range(slot_count(buf)))


# ---------------------------------------------------------------------------
# ReassemblyBuffer


def test_adjacent_parts_merge():
    buf = ReassemblyBuffer(1, 2896, 1448)
    assert buf.insert(0, b"a" * 1448) == [0]
    assert buf.insert(1448, b"b" * 1448) == [1]
    assert byte_view(buf)[0][1000:2000] == b"a" * 448 + b"b" * 552  # across the seam
    assert buf.covered(0) == b"a" * 1448 and buf.covered(1) == b"b" * 1448
    assert is_complete(buf)
    assert contiguous_prefix(buf) == b"a" * 1448 + b"b" * 1448


def test_whole_slot_holds_the_pdu_bytes():
    payload = b"s" * 64
    buf = ReassemblyBuffer(1, 128, 64)
    assert buf.insert(64, payload) == [1]
    assert buf.slots[1][0] is payload  # one PDU filled the slot: no copy
    assert buf.covered(1) is payload
    assert buf.insert(0, b"p" * 32) == []
    assert isinstance(buf.slots[0][0], bytearray)  # filled piece by piece


def test_hole_then_fill():
    buf = ReassemblyBuffer(1, 300, 100)
    assert buf.insert(200, b"z" * 100) == [2]
    assert contiguous_prefix(buf) == b""
    assert not is_complete(buf)
    assert buf.insert(0, b"y" * 200) == [0, 1]
    assert is_complete(buf)
    assert contiguous_prefix(buf) == b"y" * 200 + b"z" * 100


def test_contained_duplicate():
    buf = ReassemblyBuffer(1, 100, 100)
    assert buf.insert(10, b"x" * 50) == []  # new bytes, no slot whole
    assert buf.insert(10, b"x" * 50) is None
    assert buf.insert(20, b"x" * 10) is None  # strict sub-range
    assert received_bytes(buf) == 50


def test_partial_overlap_identical_bytes_merges():
    data = bytes(range(200)) * 2
    buf = ReassemblyBuffer(1, 400, 128)  # the last slot is 16 bytes
    assert buf.insert(0, data[:250]) == [0]
    assert buf.insert(200, data[200:]) == [1, 2, 3]  # the overlap ends inside slot 1
    assert received_bytes(buf) == 400
    assert contiguous_prefix(buf) == data


def test_overlap_mismatch_raises():
    buf = ReassemblyBuffer(1, 100, 100)
    buf.insert(0, b"\x01" * 60)
    with pytest.raises(ValueError, match="buffer 1: conflicting byte at 40"):
        buf.insert(40, b"\x02" * 30)


def test_rejected_straddle_leaves_every_slot():
    buf = ReassemblyBuffer(1, 30, 10)
    buf.insert(15, b"q" * 5)
    view = byte_view(buf)
    # Slot 0 would be filled, but slot 1 conflicts: nothing is written.
    with pytest.raises(ValueError, match="conflicting byte at 15"):
        buf.insert(0, b"p" * 20)
    assert byte_view(buf) == view and sorted(buf.slots) == [1]


def test_insert_outside_buffer_rejected():
    buf = ReassemblyBuffer(1, 100, 30)
    with pytest.raises(ValueError):
        buf.insert(90, b"q" * 20)
    with pytest.raises(ValueError):
        buf.insert(-1, b"q")
    assert buf.slots == {}


def test_empty_payload_is_noop():
    buf = ReassemblyBuffer(1, 100, 30)
    assert buf.insert(0, b"") is None
    assert buf.insert(45, b"") is None
    assert received_bytes(buf) == 0
    assert buf.covered(0) is None


def test_covered_ranges():
    buf = ReassemblyBuffer(1, 500, 100)
    assert buf.insert(100, b"m" * 100) == [1]
    assert buf.insert(200, b"n" * 100) == [2]
    assert buf.insert(350, b"o" * 50) == []
    assert buf.covered(1) == b"m" * 100
    assert buf.covered(2) == b"n" * 100
    assert byte_view(buf)[0][150:250] == b"m" * 50 + b"n" * 50
    assert buf.covered(0) is None
    assert buf.covered(3) is None  # half received
    assert buf.covered(5) is None and buf.covered(-1) is None  # outside the buffer


def slots_completed(buf, before, after, start, end):
    """The slots touched by [start, end) whose window is whole in ``after`` but not ``before``."""
    def whole(mask, s):
        return all(mask >> i & 1 for i in slot_window(buf, s))

    ss = buf.symbol_size
    return [s for s in range(start // ss, -(-end // ss)) if whole(after, s) and not whole(before, s)]


def test_random_replay_matches_interval_oracle():
    rng = random.Random(4242)
    for symbol_size in (1, 7, 100, 1448, 4096) * 5:  # PDUs straddle all but the widest slots
        length = rng.randrange(1, 4000)
        original = rng.randbytes(length)
        cuts = sorted(rng.sample(range(1, length), min(rng.randrange(0, 12), length - 1)))
        pieces = []
        prev = 0
        for c in cuts + [length]:
            pieces.append((prev, original[prev:c]))
            prev = c
        pieces = pieces * 2  # every PDU twice
        rng.shuffle(pieces)

        buf = ReassemblyBuffer(0, length, symbol_size)
        seen: set[int] = set()  # oracle: byte positions received so far
        seen_mask = 0  # and the same as bits
        for off, chunk in pieces:
            rc = buf.insert(off, chunk)
            rng_set = set(range(off, off + len(chunk)))
            after = seen_mask | ((1 << len(chunk)) - 1) << off
            if rng_set <= seen:
                assert rc is None
            else:
                assert rc == slots_completed(buf, seen_mask, after, off, off + len(chunk))
            seen |= rng_set
            seen_mask = after
            assert received_bytes(buf) == len(seen)
        assert is_complete(buf)
        assert contiguous_prefix(buf) == original
        assert all(buf.covered(s) == original[slot_window(buf, s).start:slot_window(buf, s).stop]
                   for s in range(slot_count(buf)))


def test_random_overlaps_match_byte_oracle():
    rng = random.Random(815)
    kinds = set()  # (covered before, outcome) pairs seen, to prove both compare paths ran
    for symbol_size in (1, 5, 32, 300) * 8:
        length = rng.randrange(1, 300)
        original = rng.randbytes(length)
        buf = ReassemblyBuffer(0, length, symbol_size)
        stored: dict[int, int] = {}  # oracle: offset -> byte received there
        ranges = []
        for _ in range(25):
            if ranges and rng.random() < 0.4:  # inside an earlier PDU
                lo, hi = rng.choice(ranges)
                off = rng.randrange(lo, hi)
                end = rng.randrange(off, hi) + 1
            else:
                off = rng.randrange(length)
                end = rng.randrange(off, length) + 1
            ranges.append((off, end))
            chunk = bytearray(original[off:end])
            if rng.random() < 0.3:  # one flipped byte
                chunk[rng.randrange(len(chunk))] ^= 1 << rng.randrange(8)
            span = range(off, end)
            conflict = any(i in stored and stored[i] != chunk[i - off] for i in span)
            contained = all(i in stored for i in span)
            if conflict:
                with pytest.raises(ValueError, match="conflicting byte"):
                    buf.insert(off, bytes(chunk))
                outcome = "conflict"
            else:
                added = buf.insert(off, bytes(chunk))
                before = sum(1 << i for i in stored)
                stored.update(zip(span, chunk))
                after = sum(1 << i for i in stored)
                assert added == (None if contained else slots_completed(buf, before, after, off, end))
                outcome = "duplicate" if added is None else "added"
            kinds.add((contained, outcome))
            # The buffer holds exactly the oracle's bytes, also after a rejection.
            assert received_bytes(buf) == len(stored)
            assert byte_view(buf) == (bytes(stored.get(i, 0) for i in range(length)),
                                      sum(1 << i for i in stored))
            for s in range(slot_count(buf)):
                window = slot_window(buf, s)
                want = bytes(stored[i] for i in window) if all(i in stored for i in window) else None
                assert buf.covered(s) == want
            prefix = 0
            while prefix in stored:
                prefix += 1
            assert contiguous_prefix(buf) == bytes(stored[i] for i in range(prefix))
            assert is_complete(buf) == (len(stored) == length)
    assert {(True, "conflict"), (False, "conflict"), (True, "duplicate"), (False, "added")} <= kinds


def test_slot_buffer_matches_byte_reference():
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def feed(draw):
        length = draw.draw(st.integers(1, 200), "length")
        ss = draw.draw(st.integers(1, 70), "symbol_size")
        original = draw.draw(st.binary(min_size=length, max_size=length), "original")
        buf, ref = ReassemblyBuffer(0, length, ss), ReferenceBuffer(0, length)
        sent = []
        for _ in range(draw.draw(st.integers(1, 25), "pdus")):
            if sent and draw.draw(st.booleans(), "repeat"):
                off, chunk = draw.draw(st.sampled_from(sent), "earlier")
            else:
                off = draw.draw(st.integers(-2, length + 1), "offset")
                size = draw.draw(st.integers(0, 3 * ss), "size")
                chunk = bytes(original[i] if 0 <= i < length else 0 for i in range(off, off + size))
            if chunk and draw.draw(st.integers(0, 3), "flip") == 0:
                at = draw.draw(st.integers(0, len(chunk) - 1), "at")
                chunk = chunk[:at] + bytes([chunk[at] ^ 0x5A]) + chunk[at + 1:]
            sent.append((off, chunk))
            before = ref.mask
            try:
                added = ref.insert(off, chunk)
            except ValueError:
                with pytest.raises(ValueError):
                    buf.insert(off, chunk)
                seen.add("rejected")
            else:
                whole = buf.insert(off, chunk)
                if not added:
                    assert whole is None
                    seen.add("duplicate")
                else:
                    assert whole == slots_completed(buf, before, ref.mask, off, off + len(chunk))
                    if off // ss != (off + len(chunk) - 1) // ss:
                        seen.add("straddle")
                    if before & (((1 << len(chunk)) - 1) << off):
                        seen.add("partial overlap")
            assert byte_view(buf) == (bytes(ref.data), ref.mask)

    feed()
    assert seen == {"rejected", "duplicate", "straddle", "partial overlap"}

# ---------------------------------------------------------------------------
# serial-number comparison


@pytest.mark.parametrize(
    "a,b,newer",
    [
        (1, 0, True),
        (0, 1, False),
        (5, 5, False),
        (0, 2**32 - 1, True),  # wrap: 0 follows the last id
        (2**32 - 1, 0, False),
        (2**31, 0, False),  # exactly half the space apart: treated as old
        (0, 2**31, False),
    ],
)
def test_serial_newer(a, b, newer):
    assert serial_newer(a, b) is newer


# ---------------------------------------------------------------------------
# Reassembler


def test_new_buffer_flushes_previous():
    r = Reassembler(5)
    assert r.on_packet(hdr(10, 0, 5, 20), b"aaaaa") == [0]
    assert r.on_packet(hdr(10, 10, 5, 20), b"bbbbb") == [2]
    flushed = r.current
    assert r.on_packet(hdr(11, 0, 5, 20), b"ccccc") == [0]  # of the new buffer
    assert flushed.buffer_id == 10
    assert flushed.covered(0) == b"aaaaa" and flushed.covered(2) == b"bbbbb"
    assert flushed.covered(1) is None and received_bytes(flushed) == 10
    assert r.current.buffer_id == 11
    assert r.counters.flushed == 1


def test_stale_buffer_dropped():
    r = Reassembler(5)
    r.on_packet(hdr(10, 0, 5, 20), b"aaaaa")
    assert r.on_packet(hdr(9, 0, 5, 20), b"zzzzz") == []
    assert r.current.buffer_id == 10
    assert r.current.covered(0) == b"aaaaa"
    assert r.counters.stale == 1


def test_wraparound_id_opens_new_buffer():
    r = Reassembler(5)
    r.on_packet(hdr(2**32 - 1, 0, 5, 20), b"aaaaa")
    flushed = r.current
    assert r.on_packet(hdr(0, 0, 5, 20), b"bbbbb") == [0]
    assert flushed.buffer_id == 2**32 - 1
    assert r.current.buffer_id == 0
    assert r.counters.flushed == 1


def test_malformed_packets_counted():
    # wire.parse_packet checks the framing; the buffer's bounds and the
    # bytes already held are the reassembler's own checks.
    r = Reassembler(4)  # each PDU below straddles two slots
    # PDU sticking out of the buffer
    assert r.on_packet(hdr(1, 18, 5, 20), b"aaaaa") == []
    assert r.on_packet(hdr(1, 0, 5, 20), b"aaaaa") == [0]
    # bytes unlike the ones already held, in part or in whole
    assert r.on_packet(hdr(1, 3, 5, 20), b"axxxx") == []
    assert r.on_packet(hdr(1, 0, 5, 20), b"aaaab") == []
    assert r.counters.malformed == 3
    assert r.counters.stored == 1
    assert received_bytes(r.current) == 5 and contiguous_prefix(r.current) == b"aaaaa"


def test_counter_totals():
    r = Reassembler(5)
    r.on_packet(hdr(1, 0, 5, 10), b"aaaaa")
    r.on_packet(hdr(1, 0, 5, 10), b"aaaaa")  # duplicate
    r.on_packet(hdr(1, 5, 5, 10), b"bbbbb")
    r.on_packet(hdr(0, 0, 5, 10), b"old..")  # stale
    r.on_packet(hdr(2, 0, 5, 10), b"ccccc")  # flushes buffer 1
    c = r.counters
    assert (c.stored, c.duplicate, c.stale, c.malformed, c.flushed) == (3, 1, 1, 0, 1)
