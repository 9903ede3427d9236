"""Buffer reassembly: merging, duplicate detection, flush-on-new-id.

An insert returns the mask bits it set, so the oracles below assert the
exact byte positions a PDU added, 0 for a duplicate.
"""

import random

import pytest

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


def bits(start, end):
    """The mask bits of byte positions [start, end)."""
    return ((1 << (end - start)) - 1) << start


def positions(mask):
    """The byte positions whose bits are set in ``mask``."""
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def contiguous_prefix(buf):
    """The bytes available from offset 0 without a hole."""
    return bytes(buf.data[: (~buf.mask & (buf.mask + 1)).bit_length() - 1])


def received_bytes(buf):
    return buf.mask.bit_count()


def is_complete(buf):
    return buf.mask == (1 << buf.expected_length) - 1


# ---------------------------------------------------------------------------
# ReassemblyBuffer


def test_adjacent_parts_merge():
    buf = ReassemblyBuffer(1, 2896)
    assert buf.insert(0, b"a" * 1448) == bits(0, 1448)
    assert buf.insert(1448, b"b" * 1448) == bits(1448, 2896)
    assert buf.covered(1000, 2000) == b"a" * 448 + b"b" * 552  # across the seam
    assert is_complete(buf)
    assert contiguous_prefix(buf) == b"a" * 1448 + b"b" * 1448


def test_hole_then_fill():
    buf = ReassemblyBuffer(1, 300)
    buf.insert(200, b"z" * 100)
    assert contiguous_prefix(buf) == b""
    assert not is_complete(buf)
    buf.insert(0, b"y" * 200)
    assert is_complete(buf)
    assert contiguous_prefix(buf) == b"y" * 200 + b"z" * 100


def test_contained_duplicate():
    buf = ReassemblyBuffer(1, 100)
    assert buf.insert(10, b"x" * 50) == bits(10, 60)
    assert buf.insert(10, b"x" * 50) == 0
    assert buf.insert(20, b"x" * 10) == 0  # strict sub-range
    assert received_bytes(buf) == 50


def test_partial_overlap_identical_bytes_merges():
    data = bytes(range(200)) * 2
    buf = ReassemblyBuffer(1, 400)
    buf.insert(0, data[:250])
    assert buf.insert(200, data[200:]) == bits(250, 400)  # only the bytes past the overlap
    assert received_bytes(buf) == 400
    assert contiguous_prefix(buf) == data


def test_overlap_mismatch_raises():
    buf = ReassemblyBuffer(1, 100)
    buf.insert(0, b"\x01" * 60)
    with pytest.raises(ValueError, match="buffer 1: conflicting byte at 40"):
        buf.insert(40, b"\x02" * 30)


def test_insert_outside_buffer_rejected():
    buf = ReassemblyBuffer(1, 100)
    with pytest.raises(ValueError):
        buf.insert(90, b"q" * 20)
    with pytest.raises(ValueError):
        buf.insert(-1, b"q")


def test_empty_payload_is_noop():
    buf = ReassemblyBuffer(1, 100)
    assert buf.insert(0, b"") == 0
    assert received_bytes(buf) == 0
    assert buf.covered(0, 1) is None


def test_covered_ranges():
    buf = ReassemblyBuffer(1, 500)
    buf.insert(100, b"m" * 100)
    buf.insert(200, b"n" * 100)  # merges with the first
    assert buf.covered(100, 300) == b"m" * 100 + b"n" * 100
    assert buf.covered(150, 250) == b"m" * 50 + b"n" * 50
    assert buf.covered(0, 100) is None
    assert buf.covered(250, 350) is None  # tail not received
    assert buf.covered(120, 120) == b""  # empty range inside a part
    with pytest.raises(ValueError):
        buf.covered(400, 600)
    with pytest.raises(ValueError):
        buf.covered(-1, 10)


def test_random_replay_matches_interval_oracle():
    rng = random.Random(4242)
    for _ in range(25):
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

        buf = ReassemblyBuffer(0, length)
        seen: set[int] = set()  # oracle: byte positions received so far
        for off, chunk in pieces:
            rc = buf.insert(off, chunk)
            rng_set = set(range(off, off + len(chunk)))
            assert positions(rc) == rng_set - seen
            seen |= rng_set
            assert received_bytes(buf) == len(seen)
        assert is_complete(buf)
        assert contiguous_prefix(buf) == original


def test_random_overlaps_match_byte_oracle():
    rng = random.Random(815)
    kinds = set()  # (covered before, outcome) pairs seen, to prove both compare paths ran
    for _ in range(30):
        length = rng.randrange(1, 300)
        original = rng.randbytes(length)
        buf = ReassemblyBuffer(0, length)
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
                assert added == sum(1 << i for i in span if i not in stored)
                outcome = "added" if added else "duplicate"
                stored.update(zip(span, chunk))
            kinds.add((contained, outcome))
            # The buffer holds exactly the oracle's bytes, also after a rejection.
            assert received_bytes(buf) == len(stored)
            assert [buf.covered(i, i + 1) for i in range(length)] == [
                bytes([stored[i]]) if i in stored else None for i in range(length)
            ]
            a = rng.randrange(length)
            b = rng.randrange(a, length) + 1
            want = bytes(stored[i] for i in range(a, b)) if all(i in stored for i in range(a, b)) else None
            assert buf.covered(a, b) == want
            prefix = 0
            while prefix in stored:
                prefix += 1
            assert contiguous_prefix(buf) == bytes(stored[i] for i in range(prefix))
            assert is_complete(buf) == (len(stored) == length)
    assert {(True, "conflict"), (False, "conflict"), (True, "duplicate"), (False, "added")} <= kinds


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
    r = Reassembler()
    assert r.on_packet(hdr(10, 0, 5, 20), b"aaaaa") == bits(0, 5)
    assert r.on_packet(hdr(10, 10, 5, 20), b"bbbbb") == bits(10, 15)
    flushed = r.current
    assert r.on_packet(hdr(11, 0, 5, 20), b"ccccc") == bits(0, 5)  # of the new buffer
    assert flushed.buffer_id == 10
    assert flushed.covered(0, 5) == b"aaaaa" and flushed.covered(10, 15) == b"bbbbb"
    assert flushed.covered(5, 10) is None and received_bytes(flushed) == 10
    assert r.current.buffer_id == 11
    assert r.counters.flushed == 1


def test_stale_buffer_dropped():
    r = Reassembler()
    r.on_packet(hdr(10, 0, 5, 20), b"aaaaa")
    assert r.on_packet(hdr(9, 0, 5, 20), b"zzzzz") == 0
    assert r.current.buffer_id == 10
    assert r.current.covered(0, 5) == b"aaaaa"
    assert r.counters.stale == 1


def test_wraparound_id_opens_new_buffer():
    r = Reassembler()
    r.on_packet(hdr(2**32 - 1, 0, 5, 20), b"aaaaa")
    flushed = r.current
    assert r.on_packet(hdr(0, 0, 5, 20), b"bbbbb") == bits(0, 5)
    assert flushed.buffer_id == 2**32 - 1
    assert r.current.buffer_id == 0
    assert r.counters.flushed == 1


def test_malformed_packets_counted():
    # wire.parse_packet checks the framing; the buffer's bounds and the
    # bytes already held are the reassembler's own checks.
    r = Reassembler()
    # PDU sticking out of the buffer
    assert r.on_packet(hdr(1, 18, 5, 20), b"aaaaa") == 0
    assert r.on_packet(hdr(1, 0, 5, 20), b"aaaaa") == bits(0, 5)
    # bytes unlike the ones already held, in part or in whole
    assert r.on_packet(hdr(1, 3, 5, 20), b"axxxx") == 0
    assert r.on_packet(hdr(1, 0, 5, 20), b"aaaab") == 0
    assert r.counters.malformed == 3
    assert r.counters.stored == 1
    assert received_bytes(r.current) == 5 and r.current.covered(0, 5) == b"aaaaa"


def test_flush_explicit_and_empty():
    r = Reassembler()
    assert r.flush() is None
    r.on_packet(hdr(3, 0, 4, 4), b"done")
    buf = r.flush()
    assert is_complete(buf)
    assert r.current is None
    assert r.counters.flushed == 1


def test_counter_totals():
    r = Reassembler()
    r.on_packet(hdr(1, 0, 5, 10), b"aaaaa")
    r.on_packet(hdr(1, 0, 5, 10), b"aaaaa")  # duplicate
    r.on_packet(hdr(1, 5, 5, 10), b"bbbbb")
    r.on_packet(hdr(0, 0, 5, 10), b"old..")  # stale
    r.on_packet(hdr(2, 0, 5, 10), b"ccccc")  # flushes buffer 1
    c = r.counters
    assert (c.stored, c.duplicate, c.stale, c.malformed, c.flushed) == (3, 1, 1, 0, 1)
