"""Maps the bytes of one application buffer onto the group ladder.

The buffer is cut into fixed-size PDUs (one per packet) numbered ``j``
from 0: lower ``j`` means more important, because receivers consume the
buffer as a prefix.  The scheduling window is cut into tiles, one per
(active group, sub slot) cell, and tiles are ranked by their minimal
cumulative rate: a receiver subscribed at rate R receives exactly the
tiles ranked below R, so giving the lowest PDU numbers to the
lowest-ranked tiles makes every subscription level decode a prefix.

Inside one tile the PDUs are emitted in decreasing ``j`` so that the most
important packet of the tile leaves last: a receiver that joins the
group mid-tile still collects the prefix end of the tile's range.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .channel import ChannelConfig, tiles_in_window


class SequencedPacket(NamedTuple):
    group: int  # g: multicast group carrying the packet
    seq: int  # s: per-group send counter inside the buffer window
    send_time: float
    offset: int
    payload: bytes


def infer_buffer_time(first_level_bytes: int, min_rate: float) -> float:
    """Seconds needed to push the first-level bytes at the minimal rate."""
    if min_rate <= 0:
        raise ValueError("minimal rate must be positive")
    if first_level_bytes < 0:
        raise ValueError("byte count cannot be negative")
    seconds = first_level_bytes * 8.0 / min_rate
    if not math.isfinite(seconds):
        raise ValueError(f"minimal rate {min_rate:g} bits/s gives no finite buffer time")
    return seconds


def infer_buffer_length(buffer_time: float, max_rate: float) -> int:
    """Bytes that fit in ``buffer_time`` at the maximal rate (floored)."""
    length = buffer_time * max_rate / 8.0
    if not math.isfinite(length):
        raise ValueError(f"{buffer_time:g} s at {max_rate:g} bits/s gives no finite buffer length")
    return math.floor(length)


def sequence(data: bytes, buffer_time: float, cfg: ChannelConfig,
             t_start: float) -> list[SequencedPacket]:
    """Schedule the buffer ``data`` over [t_start, t_start + buffer_time).

    Returns packets sorted by send time.  The window is used as given so
    consecutive buffers can tile time back to back (edge tiles then carry
    pro-rated budgets).
    """
    if not data:
        raise ValueError("buffer holds no data")
    if buffer_time <= 0:
        raise ValueError("buffer_time must be positive")
    # Most important tile first: minimal cumulative rate.  Ties (same rung)
    # go to the earlier interval, then the lower group id, which keeps the
    # order total and deterministic.
    ranked = sorted(tiles_in_window(cfg, t_start, t_start + buffer_time),
                    key=lambda tb: (tb.min_cum_rate, tb.interval, tb.group))
    if sum(tb.packet_count for tb in ranked) == 0:
        raise ValueError("window budget is zero packets")

    pdu_size = cfg.packet_payload
    total_pdus = math.ceil(len(data) / pdu_size)

    emitted: list[tuple[float, int, int, int]] = []  # (send_time, group, j, tiebreak)
    next_j = 0
    for tb in ranked:
        if next_j >= total_pdus or tb.packet_count == 0:
            continue
        count = min(tb.packet_count, total_pdus - next_j)
        first_j = next_j
        next_j += count
        step = (tb.end - tb.start) / count
        # Most important PDU of the tile (lowest j) leaves last.
        for pos in range(count):
            j = first_j + count - 1 - pos
            send_time = tb.start + (pos + 0.5) * step
            emitted.append((send_time, tb.group, j, pos))

    emitted.sort(key=lambda e: (e[0], e[1], e[3]))
    counters: dict[int, int] = {}
    packets: list[SequencedPacket] = []
    for send_time, group, j, _ in emitted:
        seq = counters.get(group, 0)
        counters[group] = seq + 1
        offset = j * pdu_size
        packets.append(
            SequencedPacket(group, seq, send_time, offset, data[offset : offset + pdu_size])
        )
    return packets
