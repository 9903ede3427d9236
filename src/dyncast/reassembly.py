"""Receiver-side buffer reassembly keyed by (buffer id, symbol slot).

A buffer splits into slots of ``symbol_size`` bytes, one FEC symbol each.
The receiver holds exactly one buffer open at a time.  A packet carrying
a newer buffer id drops the buffer under construction, whatever state it
is in, and counts it as flushed: each of its slots went to the caller
when it became whole, so nothing reads it after.  Packets for older ids
are dropped.
Buffer ids compare with serial-number arithmetic so the 32-bit field may
wrap during long sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .wire import PacketHeader

_SERIAL_MOD = 1 << 32
_SERIAL_HALF = 1 << 31


def serial_newer(a: int, b: int) -> bool:
    """True when buffer id ``a`` is newer than ``b`` (RFC 1982 style)."""
    return a != b and (a - b) % _SERIAL_MOD < _SERIAL_HALF


class ReassemblyBuffer:
    """One buffer under construction, held as symbol slots.

    Slot s is bytes [s * symbol_size, (s + 1) * symbol_size), the last one
    cut at the buffer's end.  ``slots`` maps each slot reached so far to
    ``(data, mask)``, bit i of ``mask`` set once byte i of the slot arrived.
    """

    def __init__(self, buffer_id: int, expected_length: int, symbol_size: int):
        self.buffer_id = buffer_id
        self.expected_length = expected_length
        self.symbol_size = symbol_size
        self.slots: dict[int, tuple[bytes | bytearray, int]] = {}

    def insert(self, offset: int, data: bytes) -> list[int] | None:
        """Store one PDU, verifying the bytes it shares with earlier ones.

        Returns the slots it made whole, or None if it brought no new byte.
        A PDU outside the buffer, or unlike the bytes already held, raises
        ValueError and leaves every slot as it was.
        """
        end = offset + len(data)
        if offset < 0 or end > self.expected_length:
            raise ValueError("PDU outside the buffer")
        ss = self.symbol_size
        whole, updates = [], {}
        for slot in range(offset // ss, -(-end // ss)):
            base = slot * ss
            lo, hi = max(offset - base, 0), min(end - base, ss)
            piece = data[base + lo - offset:base + hi - offset]
            held, mask = self.slots.get(slot, (b"", 0))
            span = ((1 << hi - lo) - 1) << lo
            seen = mask & span
            if seen == span:
                if held[lo:hi] != piece:
                    raise ValueError(f"buffer {self.buffer_id}: conflicting bytes at {base + lo}")
                continue
            if seen:
                # A partial overlap: only traces and fuzzed input send one.
                for i, byte in enumerate(piece, lo):
                    if seen >> i & 1 and held[i] != byte:
                        raise ValueError(f"buffer {self.buffer_id}: conflicting byte at {base + i}")
            width = min(ss, self.expected_length - base)
            if held or hi - lo < width:  # filled piece by piece; else held as the PDU's bytes
                held = bytearray(held or width)
                held[lo:hi] = piece
            updates[slot] = held or piece, mask | span
            if mask | span == (1 << width) - 1:
                whole.append(slot)
        if not updates:
            return None
        self.slots.update(updates)
        return whole

    def covered(self, slot: int) -> bytes | None:
        """The bytes of ``slot`` if it is whole, else None."""
        data, mask = self.slots.get(slot, (b"", 0))  # held data is as long as its slot
        return bytes(data) if data and mask == (1 << len(data)) - 1 else None


@dataclass
class Counters:
    stored: int = 0
    duplicate: int = 0
    stale: int = 0
    malformed: int = 0
    flushed: int = 0


class Reassembler:
    """Feeds packets into per-buffer reassembly, one open buffer at a time.

    Packets come framed as ``wire.parse_packet`` checks them.  A buffer
    opens empty and holds only the slots its PDUs have reached.
    """

    def __init__(self, symbol_size: int) -> None:
        self.symbol_size = symbol_size
        self.current: ReassemblyBuffer | None = None
        self.counters = Counters()

    def on_packet(self, header: PacketHeader, payload: bytes) -> list[int]:
        """Store one PDU; returns the slots of the open buffer it made whole.

        A newer buffer id closes the open buffer first.  The list is empty
        for a duplicate, a stale buffer id, and a PDU outside its buffer or
        unlike the bytes already held.
        """
        if self.current is not None and header.buffer_id != self.current.buffer_id:
            if not serial_newer(header.buffer_id, self.current.buffer_id):
                self.counters.stale += 1
                return []
            self.current = None
            self.counters.flushed += 1
        if self.current is None:
            self.current = ReassemblyBuffer(header.buffer_id, header.buffer_length, self.symbol_size)
        try:
            whole = self.current.insert(header.offset, payload)
        except ValueError:  # outside the buffer, or conflicting bytes
            self.counters.malformed += 1
            return []
        if whole is None:
            self.counters.duplicate += 1
            return []
        self.counters.stored += 1
        return whole
