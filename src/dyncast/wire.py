"""Packet header shared by the sender, the receiver and the trace tools.

Fixed 32-byte big-endian layout in front of the payload:

    version:1  flags:1  group:2  session_id:4  tsi:4  seq:4
    buffer_id:4  offset:4  buffer_length:4  payload_len:2  reserved:2

With the default 1448-byte payload a datagram is exactly 1480 bytes.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

HEADER_FORMAT = ">BBHIIIIIIHH"
_HEADER = struct.Struct(HEADER_FORMAT)
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 32

PROTOCOL_VERSION = 1
MAX_PAYLOAD = 1448


class PacketHeader(NamedTuple):
    group: int
    session_id: int
    tsi: int
    seq: int
    buffer_id: int
    offset: int
    buffer_length: int
    payload_len: int
    version: int = PROTOCOL_VERSION
    flags: int = 0
    reserved: int = 0


def pack_header(h: PacketHeader) -> bytes:
    (group, session_id, tsi, seq, buffer_id, offset, buffer_length, payload_len,
     version, flags, reserved) = h
    return _HEADER.pack(
        version,
        flags,
        group & 0xFFFF,
        session_id & 0xFFFFFFFF,
        tsi & 0xFFFFFFFF,
        seq & 0xFFFFFFFF,
        buffer_id & 0xFFFFFFFF,
        offset,
        buffer_length,
        payload_len,
        reserved,
    )


def pack_packet(h: PacketHeader, payload: bytes) -> bytes:
    if len(payload) != h.payload_len:
        raise ValueError("payload_len does not match the payload")
    return pack_header(h) + payload


def parse_packet(datagram: bytes) -> tuple[PacketHeader, bytes]:
    """Split a datagram into (header, payload); ValueError if the framing is bad."""
    if len(datagram) < HEADER_SIZE:
        raise ValueError("datagram shorter than the header")
    (version, flags, group, session_id, tsi, seq,
     buffer_id, offset, buffer_length, payload_len, reserved) = _HEADER.unpack_from(datagram)
    if version != PROTOCOL_VERSION:
        raise ValueError(f"unknown protocol version {version}")
    payload = datagram[HEADER_SIZE:]
    if len(payload) != payload_len:
        raise ValueError("payload length does not match the header")
    if payload_len > MAX_PAYLOAD:
        raise ValueError("payload larger than the maximum")
    if offset + payload_len > buffer_length:
        raise ValueError("PDU extends past the end of its buffer")
    header = PacketHeader(group, session_id, tsi, seq, buffer_id, offset, buffer_length,
                          payload_len, version, flags, reserved)
    return header, payload
