import math
import random

import pytest

from dyncast.channel import ChannelConfig, interval_index, tiles_in_window
from dyncast.sequencer import infer_buffer_length, infer_buffer_time, sequence


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate the window's tiles, sort by minimal
# cumulative rate, hand out contiguous PDU index ranges in that order.
# This re-states the assignment rule without sharing any sequencing code.

def oracle_assignment(cfg, data, buffer_time, t_start):
    tiles = tiles_in_window(cfg, t_start, t_start + buffer_time)
    order = sorted(tiles, key=lambda tb: (tb.min_cum_rate, tb.interval, tb.group))
    total = math.ceil(len(data) / cfg.packet_payload)
    expected = {}
    j = 0
    for tb in order:
        take = min(tb.packet_count, total - j)
        if take > 0:
            expected[(tb.group, tb.interval)] = set(range(j, j + take))
        j += take
    return expected


def pdu_index(cfg, p):
    """j, the position of the packet's PDU in the buffer."""
    return p.offset // cfg.packet_payload


def packets_by_tile(cfg, packets):
    got = {}
    for p in packets:
        interval = interval_index(cfg, p.send_time)
        got.setdefault((p.group, interval), set()).add(pdu_index(cfg, p))
    return got


def random_config(rng):
    rho = rng.uniform(0.35, 0.9)
    groups = rng.randint(3, 12)
    max_rate = rng.uniform(5e5, 8e6)
    base = max_rate * rho ** (groups - 1) * rng.uniform(0.3, 1.0)
    return ChannelConfig(
        base_rate=base,
        max_cumulative_rate=max_rate,
        decay_ratio=rho,
        tsd=rng.choice([1.0, 2.0, 4.0]),
        groups_per_tsi=rng.randint(1, 2),
        packet_payload=rng.choice([512, 1024, 1448]),
        group_count=groups,
    )


def test_single_tile_sends_descending():
    # Four PDUs all fitting the base tile leave in order j = 3, 2, 1, 0.
    cfg = ChannelConfig(base_rate=11_584.0, tsd=4.0)
    data = bytes(4 * 1448)
    pkts = sequence(data, 4.0, cfg, 0.0)
    base = [p for p in pkts if p.group == 0]
    assert [pdu_index(cfg, p) for p in base] == [3, 2, 1, 0]
    times = [p.send_time for p in base]
    assert times == sorted(times)


def test_pdu_zero_lands_in_lowest_min_cum_tile():
    cfg = ChannelConfig()
    data = bytes(500 * 1448)
    pkts = sequence(data, cfg.sub_tsi, cfg, 0.0)
    tiles = tiles_in_window(cfg, 0.0, cfg.sub_tsi)
    lowest = min(tiles, key=lambda tb: (tb.min_cum_rate, tb.interval, tb.group))
    p0 = next(p for p in pkts if p.offset == 0)
    assert p0.group == lowest.group


def test_assignment_matches_oracle_small_config():
    cfg = ChannelConfig(
        base_rate=64_000.0,
        max_cumulative_rate=1_000_000.0,
        decay_ratio=0.5,
        tsd=2.0,
        group_count=3,
    )
    data = bytes(977 * 41)  # awkward size, last PDU short
    t0 = 4.0
    pkts = sequence(data, 2 * cfg.sub_tsi, cfg, t0)
    assert packets_by_tile(cfg, pkts) == oracle_assignment(cfg, data, 2 * cfg.sub_tsi, t0)


def test_assignment_matches_oracle_randomized():
    rng = random.Random(2024)
    for _ in range(40):
        cfg = random_config(rng)
        s = cfg.sub_tsi
        t0 = rng.randint(0, 20) * s if rng.random() < 0.5 else rng.uniform(0.0, 20 * s)
        buffer_time = rng.uniform(0.4, 3.0) * s
        total_budget = sum(
            tb.packet_count for tb in tiles_in_window(cfg, t0, t0 + buffer_time)
        )
        if total_budget == 0:
            continue
        pdus = rng.randint(1, int(total_budget * 1.4) + 1)
        data = bytes(pdus * cfg.packet_payload - rng.randint(0, cfg.packet_payload - 1))
        pkts = sequence(data, buffer_time, cfg, t0)
        assert packets_by_tile(cfg, pkts) == oracle_assignment(cfg, data, buffer_time, t0)


def test_prefix_property_under_rate_thresholds():
    # Everything scheduled at or below any rate threshold is a clean prefix
    # of the PDU index space.
    rng = random.Random(7)
    cfg = ChannelConfig()
    data = bytes(300 * 1448)
    pkts = sequence(data, 2 * cfg.sub_tsi, cfg, 0.0)
    tiles = {
        (tb.group, tb.interval): tb
        for tb in tiles_in_window(cfg, 0.0, 2 * cfg.sub_tsi)
    }
    rates = sorted({tb.min_cum_rate for tb in tiles.values()})
    for threshold in rates + [rng.uniform(rates[0], rates[-1]) for _ in range(10)]:
        below = {
            pdu_index(cfg, p)
            for p in pkts
            if tiles[(p.group, interval_index(cfg, p.send_time))].min_cum_rate <= threshold
        }
        assert below == set(range(len(below)))


def test_tile_ranges_contiguous_and_ascending():
    cfg = ChannelConfig()
    data = bytes(200 * 1448)
    pkts = sequence(data, cfg.sub_tsi, cfg, 0.0)
    ranges = []
    for (group, interval), js in packets_by_tile(cfg, pkts).items():
        lo, hi = min(js), max(js)
        assert js == set(range(lo, hi + 1))
        tb = next(
            t
            for t in tiles_in_window(cfg, 0.0, cfg.sub_tsi)
            if t.group == group and t.interval == interval
        )
        ranges.append((tb.min_cum_rate, lo, hi))
    ranges.sort()
    for (_, _, hi_prev), (_, lo_next, _) in zip(ranges, ranges[1:]):
        assert lo_next == hi_prev + 1


def test_intra_tile_times_increase_while_j_decreases():
    cfg = ChannelConfig()
    data = bytes(300 * 1448)
    pkts = sequence(data, cfg.sub_tsi, cfg, 0.0)
    per_tile = {}
    for p in pkts:
        per_tile.setdefault(p.group, []).append(p)
    for group, plist in per_tile.items():
        plist.sort(key=lambda p: p.send_time)
        js = [pdu_index(cfg, p) for p in plist]
        assert js == sorted(js, reverse=True), f"group {group} not most-important-last"
        assert all(a.send_time < b.send_time for a, b in zip(plist, plist[1:]))
        assert all(0.0 <= p.send_time < cfg.sub_tsi for p in plist)


def test_per_group_seq_counts_chronologically():
    cfg = ChannelConfig()
    data = bytes(400 * 1448)
    pkts = sequence(data, 3 * cfg.sub_tsi, cfg, 0.0)
    seen: dict[int, int] = {}
    for p in pkts:  # pkts are globally time-ordered
        expect = seen.get(p.group, 0)
        assert p.seq == expect
        seen[p.group] = expect + 1


def test_offsets_and_payload_slices():
    cfg = ChannelConfig()
    data = bytes(random.Random(5).randbytes(90 * 1448 + 311))
    pkts = sequence(data, cfg.sub_tsi, cfg, 0.0)
    assert len({p.offset for p in pkts}) == len(pkts)
    for p in pkts:
        assert p.offset % cfg.packet_payload == 0
        assert p.payload == data[p.offset : p.offset + cfg.packet_payload]
    # the short tail PDU is included iff the budget reached it
    sizes = {len(p.payload) for p in pkts}
    assert sizes <= {1448, 311}


def test_oversized_buffer_drops_highest_indices():
    cfg = ChannelConfig(base_rate=11_584.0, tsd=4.0, group_count=2,
                        max_cumulative_rate=23_168.0, decay_ratio=0.7)
    # Window budget is tiny; a huge buffer keeps only the lowest PDUs.
    data = bytes(50 * 1448)
    pkts = sequence(data, 4.0, cfg, 0.0)
    assigned = sorted(pdu_index(cfg, p) for p in pkts)
    assert assigned == list(range(len(assigned)))
    assert len(assigned) < 50


def test_surplus_budget_left_at_highest_rates():
    cfg = ChannelConfig()
    data = bytes(30 * 1448)  # far below the window budget
    pkts = sequence(data, cfg.sub_tsi, cfg, 0.0)
    assert len(pkts) == 30
    used_groups = {p.group for p in pkts}
    all_groups = {tb.group for tb in tiles_in_window(cfg, 0.0, cfg.sub_tsi)}
    # the fastest groups stayed idle
    assert max(all_groups) not in used_groups


def test_infer_buffer_time_examples():
    assert infer_buffer_time(8192, 65_536.0) == 1.0
    assert infer_buffer_time(0, 123.0) == 0.0
    assert infer_buffer_time(1448, 11_584.0) == 1.0
    with pytest.raises(ValueError, match="minimal rate must be positive"):
        infer_buffer_time(100, 0.0)
    with pytest.raises(ValueError, match="minimal rate must be positive"):
        infer_buffer_time(100, -5.0)


def test_infer_buffer_length_examples():
    assert infer_buffer_length(1.0, 8_000_000.0) == 1_000_000
    assert infer_buffer_length(0.5, 4_000_000.0) == 250_000


def test_infer_buffer_sizes_refuse_non_finite_results():
    # A subnormal rate overflows the buffer time; a tiny one leaves it
    # finite but overflows the length at any ordinary top rate.
    with pytest.raises(ValueError, match="no finite buffer time"):
        infer_buffer_time(1448, 5e-324)
    assert math.isfinite(infer_buffer_time(1448, 1e-300))
    with pytest.raises(ValueError, match="no finite buffer length"):
        infer_buffer_length(infer_buffer_time(1448, 1e-300), 8_000_000.0)
    with pytest.raises(ValueError, match="no finite buffer length"):
        infer_buffer_length(math.inf, 1.0)


def test_infer_round_trip_within_one_byte():
    rng = random.Random(99)
    for _ in range(100):
        nbytes = rng.randint(1, 10_000_000)
        rate = rng.uniform(1e3, 1e8)
        back = infer_buffer_length(infer_buffer_time(nbytes, rate), rate)
        assert abs(back - nbytes) <= 1


def test_empty_buffer_rejected():
    cfg = ChannelConfig()
    with pytest.raises(ValueError, match="buffer holds no data"):
        sequence(b"", 1.0, cfg, 0.0)
    with pytest.raises(ValueError):
        sequence(b"x", 0.0, cfg, 0.0)


def test_zero_budget_window_rejected():
    cfg = ChannelConfig(base_rate=64_000.0)
    # A microscopic window carries no whole packet on any group.
    with pytest.raises(ValueError, match="window budget is zero packets"):
        sequence(b"x" * 1448, 1e-7, cfg, 0.05)


def test_sequencing_is_deterministic():
    cfg = ChannelConfig()
    data, buffer_time = bytes(123 * 1448 + 7), 1.5 * cfg.sub_tsi
    assert sequence(data, buffer_time, cfg, 2.0) == sequence(data, buffer_time, cfg, 2.0)
