"""Maps one application buffer of ``length`` bytes onto the group ladder.

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

The mapping depends on the buffer's length, never on its bytes, so
``sequence`` returns a layout: one ``(send_time, group, seq, offset)``
row per packet, whose PDU is ``buf[offset : offset + cfg.packet_payload]``.
"""

from __future__ import annotations

import math

from .channel import ChannelConfig, tiles_in_window

# Most tiles one buffer's window may hold: it meets at most buffer_time /
# sub_tsi + 2 sub slots of group_count tiles, all built and sorted before
# the first packet, so a huge buffer time or a tiny sub slot is refused.
MAX_WINDOW_TILES = 65536


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


def check_window(buffer_time: float, cfg: ChannelConfig) -> None:
    """Refuse a buffer time not finite and positive, or over ``MAX_WINDOW_TILES`` tiles."""
    if not 0 < buffer_time < math.inf:
        raise ValueError(f"buffer_time must be finite and positive, not {buffer_time!r}")
    if (buffer_time / cfg.sub_tsi + 2) * cfg.group_count > MAX_WINDOW_TILES:
        raise ValueError(f"buffer time {buffer_time:g} s over {cfg.sub_tsi:g} s "
                         f"sub slots makes more than {MAX_WINDOW_TILES} tiles per buffer")


def sequence(length: int, buffer_time: float, cfg: ChannelConfig,
             t_start: float) -> list[tuple[float, int, int, int]]:
    """Lay out a buffer of ``length`` bytes over [t_start, t_start + buffer_time).

    Returns one ``(send_time, group, seq, offset)`` row per packet, sorted
    by send time; ``seq`` counts the group's packets inside the window.
    The window is used as given so consecutive buffers can tile time back
    to back (edge tiles then carry pro-rated budgets).
    """
    if type(length) is not int or length < 1:
        raise ValueError(f"buffer length must be a positive int, not {length!r}")
    check_window(buffer_time, cfg)
    # Most important tile first: minimal cumulative rate.  Ties (same rung)
    # go to the earlier interval, then the lower group id, which keeps the
    # order total and deterministic.
    ranked = sorted(tiles_in_window(cfg, t_start, t_start + buffer_time),
                    key=lambda tb: (tb.min_cum_rate, tb.interval, tb.group))
    if sum(tb.packet_count for tb in ranked) == 0:
        raise ValueError("window budget is zero packets")

    pdu_size = cfg.packet_payload
    total_pdus = math.ceil(length / pdu_size)

    emitted: list[tuple[float, int, int, int]] = []  # (send_time, group, offset, tiebreak)
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
            emitted.append((send_time, tb.group, j * pdu_size, pos))

    emitted.sort(key=lambda e: (e[0], e[1], e[3]))
    counters: dict[int, int] = {}
    rows: list[tuple[float, int, int, int]] = []
    for send_time, group, offset, _ in emitted:
        seq = counters.get(group, 0)
        counters[group] = seq + 1
        rows.append((send_time, group, seq, offset))
    return rows
