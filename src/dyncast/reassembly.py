"""Receiver-side buffer reassembly keyed by (buffer id, offset).

The receiver holds exactly one buffer open at a time.  A packet carrying
a newer buffer id flushes the buffer under construction to the
application, whatever state it is in; packets for older ids are dropped.
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
    """One buffer under construction: its bytes and a mask of the offsets received.

    Bit i of ``mask`` is set once byte i has arrived; bytes whose bit is
    clear are zero placeholders.
    """

    def __init__(self, buffer_id: int, expected_length: int):
        self.buffer_id = buffer_id
        self.expected_length = expected_length
        self.data = bytearray(expected_length)
        self.mask = 0

    def insert(self, offset: int, data: bytes) -> int:
        """Store one PDU, verifying the bytes it shares with earlier ones.

        Returns the mask bits it set, one per byte not received before (0
        for a duplicate).  A PDU outside the buffer, or with bytes unlike
        those already held for its range, raises ValueError and leaves the
        buffer as it was.
        """
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
            # A partial overlap: only traces and fuzzed input send one.
            seen >>= offset
            for i, byte in enumerate(data):
                if seen >> i & 1 and self.data[offset + i] != byte:
                    raise ValueError(f"buffer {self.buffer_id}: conflicting byte at {offset + i}")
        self.data[offset:end] = data
        self.mask |= span
        return added

    def covered(self, start: int, end: int) -> bytes | None:
        """The bytes of [start, end) if fully received, else None."""
        if not 0 <= start <= end <= self.expected_length:
            raise ValueError("range outside the buffer")
        span = ((1 << (end - start)) - 1) << start
        if self.mask & span != span:
            return None
        return bytes(self.data[start:end])


@dataclass
class Counters:
    stored: int = 0
    duplicate: int = 0
    stale: int = 0
    malformed: int = 0
    flushed: int = 0


class Reassembler:
    """Feeds packets into per-buffer reassembly, one open buffer at a time.

    Packets come framed as ``wire.parse_packet`` checks them.  A buffer is
    allocated at its header's ``buffer_length`` when it opens, so callers
    bound that field first (SymbolReceiver admits only its own).
    """

    def __init__(self) -> None:
        self.current: ReassemblyBuffer | None = None
        self.counters = Counters()

    def on_packet(self, header: PacketHeader, payload: bytes) -> int:
        """Store one PDU; returns the bits it set in the open buffer's mask.

        A newer buffer id flushes the open buffer first.  The return is 0
        for a duplicate, a stale buffer id, and a PDU outside its buffer or
        unlike the bytes already held.
        """
        if self.current is not None and header.buffer_id != self.current.buffer_id:
            if not serial_newer(header.buffer_id, self.current.buffer_id):
                self.counters.stale += 1
                return 0
            self.flush()
        if self.current is None:
            self.current = ReassemblyBuffer(header.buffer_id, header.buffer_length)
        try:
            added = self.current.insert(header.offset, payload)
        except ValueError:  # outside the buffer, or conflicting bytes
            self.counters.malformed += 1
            return 0
        if added:
            self.counters.stored += 1
        else:
            self.counters.duplicate += 1
        return added

    def flush(self) -> ReassemblyBuffer | None:
        """Close and return the buffer under construction, if any."""
        buf, self.current = self.current, None
        if buf is not None:
            self.counters.flushed += 1
        return buf
