"""Receiver-side buffer reassembly keyed by (buffer id, offset).

The receiver holds exactly one buffer open at a time.  A packet carrying
a newer buffer id flushes the buffer under construction to the
application, whatever state it is in; packets for older ids are dropped.
Buffer ids compare with serial-number arithmetic so the 32-bit field may
wrap during long sessions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .wire import PacketHeader

_SERIAL_MOD = 1 << 32
_SERIAL_HALF = 1 << 31

STORED = "stored"
DUPLICATE = "duplicate"
STALE = "stale"
MALFORMED = "malformed"
FLUSHED_PREVIOUS = "flushed_previous"


class IntegrityError(ValueError):
    """Two packets delivered different bytes for the same buffer range."""


def serial_newer(a: int, b: int) -> bool:
    """True when buffer id ``a`` is newer than ``b`` (RFC 1982 style)."""
    return a != b and (a - b) % _SERIAL_MOD < _SERIAL_HALF


@dataclass
class ReassemblyBuffer:
    buffer_id: int
    expected_length: int
    parts: list[tuple[int, bytearray]] = field(default_factory=list)

    def insert(self, offset: int, data: bytes) -> str:
        """Store one PDU; merges with touching parts, verifying overlaps."""
        if offset < 0 or offset + len(data) > self.expected_length:
            raise ValueError("PDU outside the buffer")
        if not data:
            return DUPLICATE
        starts = [p[0] for p in self.parts]
        i = bisect_right(starts, offset)
        # Walk every stored part touching [offset, offset+len(data)).
        lo = max(i - 1, 0)
        new_start, new_end = offset, offset + len(data)
        merged = bytearray(data)
        absorbed: list[int] = []
        for idx in range(lo, len(self.parts)):
            p_start, p_data = self.parts[idx]
            p_end = p_start + len(p_data)
            if p_end < new_start:
                continue
            if p_start > new_end:
                break
            # Overlapping region must carry identical bytes.
            o_start, o_end = max(p_start, new_start), min(p_end, new_end)
            if o_start < o_end:
                if (
                    p_data[o_start - p_start : o_end - p_start]
                    != merged[o_start - new_start : o_end - new_start]
                ):
                    raise IntegrityError(
                        f"buffer {self.buffer_id}: conflicting bytes at {o_start}..{o_end}"
                    )
            if p_start <= new_start and p_end >= new_end:
                return DUPLICATE
            # Grow the merged span over this part.
            if p_start < new_start:
                merged[:0] = p_data[: new_start - p_start]
                new_start = p_start
            if p_end > new_end:
                merged.extend(p_data[len(p_data) - (p_end - new_end) :])
                new_end = p_end
            absorbed.append(idx)
        for idx in reversed(absorbed):
            del self.parts[idx]
        self.parts.insert(bisect_right([p[0] for p in self.parts], new_start), (new_start, merged))
        return STORED

    def contiguous_prefix(self) -> bytes:
        """Bytes available from offset 0 without a hole."""
        if not self.parts or self.parts[0][0] != 0:
            return b""
        return bytes(self.parts[0][1])

    def covered(self, start: int, end: int) -> bytes | None:
        """The bytes of [start, end) if fully received, else None.

        Parts are kept merged, so full coverage means one part spans
        the whole range.
        """
        if not 0 <= start <= end <= self.expected_length:
            raise ValueError("range outside the buffer")
        i = bisect_right([p[0] for p in self.parts], start)
        if i == 0:
            return None
        p_start, p_data = self.parts[i - 1]
        if p_start + len(p_data) < end:
            return None
        return bytes(p_data[start - p_start : end - p_start])

    def all_parts(self) -> list[tuple[int, bytes]]:
        return [(off, bytes(data)) for off, data in self.parts]

    @property
    def received_bytes(self) -> int:
        return sum(len(d) for _, d in self.parts)

    @property
    def is_complete(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][0] == 0 and len(
            self.parts[0][1]
        ) == self.expected_length


@dataclass
class Counters:
    stored: int = 0
    duplicate: int = 0
    stale: int = 0
    malformed: int = 0
    flushed: int = 0


class Reassembler:
    """Feeds packets into per-buffer reassembly, one open buffer at a time."""

    def __init__(self) -> None:
        self.current: ReassemblyBuffer | None = None
        self.counters = Counters()

    def on_packet(self, header: PacketHeader, payload: bytes) -> tuple[str, ReassemblyBuffer | None]:
        """Store one PDU.

        Returns (status, flushed) where flushed is the previous buffer
        when this packet opened a new one.
        """
        if len(payload) != header.payload_len or header.offset + len(payload) > header.buffer_length:
            self.counters.malformed += 1
            return MALFORMED, None
        flushed: ReassemblyBuffer | None = None
        status = STORED
        if self.current is None:
            self.current = ReassemblyBuffer(header.buffer_id, header.buffer_length)
        elif header.buffer_id != self.current.buffer_id:
            if not serial_newer(header.buffer_id, self.current.buffer_id):
                self.counters.stale += 1
                return STALE, None
            flushed = self.flush()
            status = FLUSHED_PREVIOUS
            self.current = ReassemblyBuffer(header.buffer_id, header.buffer_length)
        try:
            stored = self.current.insert(header.offset, payload)
        except ValueError:  # outside the buffer, or an IntegrityError
            self.counters.malformed += 1
            return MALFORMED, flushed
        if stored == DUPLICATE:
            self.counters.duplicate += 1
            return (status if flushed else DUPLICATE), flushed
        self.counters.stored += 1
        return status, flushed

    def flush(self) -> ReassemblyBuffer | None:
        """Close and return the buffer under construction, if any."""
        buf, self.current = self.current, None
        if buf is not None:
            self.counters.flushed += 1
        return buf
