"""Acceptance gate: ten system-level criteria, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every verdict line even
on green runs; without ``-s`` the lines surface only for failing gates.
Wall-clock budgets are part of each gate and are asserted, not advisory.

Criterion 5 is expected to fail and is marked strict-xfail: the carousel's
first-repeat bound does not hold for odd level counts (16 blocks walked with
3 levels sees its first duplicate after 12 deliveries with 4 blocks still
missing, and 4 >= 3/2).  The test states the bound literally and is left red
on purpose rather than weakened to pass.
"""

import hashlib
import itertools
import random
import statistics
import time
from collections import defaultdict

import pytest
from test_reassembly import contiguous_prefix

from dyncast import fec, wire
from dyncast.carousel import CarouselPlan, build_plan
from dyncast.channel import (
    BASE_GROUP,
    ChannelConfig,
    interval_index,
    tiles_in_window,
)
from dyncast.netsim import (
    GilbertLoss,
    ReceiverSpec,
    Scenario,
    format_trace_line,
    run,
)
from dyncast.reassembly import Reassembler
from dyncast.sequencer import sequence
from dyncast.transfer import (
    TransferCounters,
    compute_metrics,
    simulate_transfer,
    spec_for_file,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _random_ladder_config(rng: random.Random) -> ChannelConfig:
    """A valid random config: the top rate decayed down the whole ladder
    still covers the base rate, so every rung is reachable."""
    groups = rng.randint(3, 14)
    rho = rng.uniform(0.35, 0.9)
    max_rate = rng.uniform(5e5, 8e6)
    base = max_rate * rho ** (groups - 1) * rng.uniform(0.2, 1.0)
    return ChannelConfig(
        base_rate=base,
        max_cumulative_rate=max_rate,
        decay_ratio=rho,
        tsd=rng.uniform(0.5, 8.0),
        groups_per_tsi=rng.choice((1, 2, 4)),
        packet_payload=1448,
        group_count=groups,
    )


# --------------------------------------------------------------- criterion 1


def test_criterion_1_tile_interleaving():
    t0 = time.perf_counter()
    rng = random.Random(0xA1)
    pairs = 0
    for _ in range(1000):
        cfg = _random_ladder_config(rng)
        s = cfg.sub_tsi
        i = rng.randint(0, 400)
        tiles = tiles_in_window(cfg, i * s, (i + 1) * s)
        assert tiles[0].group == BASE_GROUP
        dyn = [tb for tb in tiles if tb.group != BASE_GROUP]
        assert len(dyn) == cfg.group_count - 1
        for older, younger in zip(dyn, dyn[1:]):
            # adjacent groups in one sub-slot meet edge to edge: the older
            # group's ceiling rate equals the younger group's floor rate
            assert younger.group == older.group + 1
            assert older.max_cum_rate == pytest.approx(younger.min_cum_rate, rel=1e-9)
            assert younger.min_cum_rate == pytest.approx(older.max_cum_rate, rel=1e-9)
            pairs += 1
        # the meeting rates induce a total tile order: floor rates ascend
        # with group age, base tile first
        floors = [tb.min_cum_rate for tb in tiles]
        assert floors == sorted(floors)
        assert dyn[0].min_cum_rate >= cfg.base_rate * (1 - 1e-9)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "tile interleaving equalities",
        pairs >= 2000 and elapsed < 5.0,
        f"1000 configs, {pairs} adjacent pairs exact, {elapsed:.2f}s < 5s",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_sequencer_prefix_optimality():
    t0 = time.perf_counter()
    rng = random.Random(0xB2)
    cases = 0
    while cases < 200:
        cfg = _random_ladder_config(rng)
        t_start = rng.uniform(0.0, 50.0) * cfg.sub_tsi
        buffer_time = rng.uniform(0.3, 1.6) * cfg.tsd
        tiles = tiles_in_window(cfg, t_start, t_start + buffer_time)
        budget = sum(tb.packet_count for tb in tiles)
        if budget == 0:
            continue
        cases += 1
        # occasionally oversize the buffer: the tail PDUs must then be the
        # ones that never get a slot
        pdus = rng.randint(1, max(1, int(budget * 1.1)))
        length = (pdus - 1) * cfg.packet_payload + rng.randint(1, cfg.packet_payload)
        packets = sequence(bytes(length), buffer_time, cfg, t_start)

        ranked = sorted(
            tiles, key=lambda tb: (tb.min_cum_rate, tb.interval, tb.group)
        )
        expect: dict[int, tuple[int, int]] = {}
        floor_of: dict[tuple[int, int], float] = {}
        j = 0
        for tb in ranked:
            floor_of[(tb.group, tb.interval)] = tb.min_cum_rate
            take = min(tb.packet_count, pdus - j)
            for _ in range(take):
                expect[j] = (tb.group, tb.interval)
                j += 1
        got = {
            p.offset // cfg.packet_payload: (p.group, interval_index(cfg, p.send_time))
            for p in packets
        }
        assert got == expect

        # below any rate threshold the delivered PDU set is an exact prefix
        per_tile: dict[tuple[int, int], set[int]] = defaultdict(set)
        for idx, tile in got.items():
            per_tile[tile].add(idx)
        prefix: set[int] = set()
        for _, same_rate in itertools.groupby(ranked, key=lambda tb: tb.min_cum_rate):
            for tb in same_rate:
                prefix |= per_tile.get((tb.group, tb.interval), set())
            assert prefix == set(range(len(prefix)))

        times = [p.send_time for p in packets]
        assert times == sorted(times)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "sequencer prefix optimality",
        elapsed < 30.0,
        f"200 random buffers match the tile-sort oracle, {elapsed:.2f}s < 30s",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_end_to_end_prefix_delivery():
    t0 = time.perf_counter()
    cfg = ChannelConfig(62500.0, 4e6, 0.5, 1.0, 1, 1448, 7)
    top = cfg.mean_top_rate
    fractions = (0.25, 0.50, 0.75)
    warmup, measured = 2, 50
    total = warmup + measured + 1  # one extra buffer flushes the last measured one

    rng = random.Random(303)

    def emissions():
        for b in range(total):
            tiles = tiles_in_window(cfg, float(b), float(b + 1))
            capacity = sum(tb.packet_count for tb in tiles)
            data = rng.randbytes(capacity * cfg.packet_payload)
            for pkt in sequence(data, 1.0, cfg, float(b)):
                header = wire.PacketHeader(
                    group=pkt.group,
                    session_id=1,
                    tsi=int(pkt.send_time / cfg.tsd),
                    seq=pkt.seq,
                    buffer_id=b,
                    offset=pkt.offset,
                    buffer_length=len(data),
                    payload_len=len(pkt.payload),
                )
                yield pkt.send_time, pkt.group, wire.pack_packet(header, pkt.payload)

    reassemblers = [Reassembler(cfg.packet_payload) for _ in fractions]
    fetched: list[dict[int, float]] = [dict() for _ in fractions]

    def note(i: int, buf) -> None:
        if buf is not None and buf.buffer_id not in fetched[i]:
            fetched[i][buf.buffer_id] = len(contiguous_prefix(buf)) / buf.expected_length

    def on_delivery(i, t, group, packet):
        header, payload = wire.parse_packet(packet)
        previous = reassemblers[i].current
        reassemblers[i].on_packet(header, payload)
        if reassemblers[i].current is not previous:
            note(i, previous)
        return False

    scenario = Scenario(
        channel=cfg,
        bottleneck_rate=8e6,
        queue_capacity=64,
        receivers=[ReceiverSpec(f * top) for f in fractions],
        duration=float(total),
        seed=5,
    )
    run(scenario, emissions(), on_delivery=on_delivery, collect_traces=False)
    for i in range(len(fractions)):
        note(i, reassemblers[i].current)

    means = []
    for i, f in enumerate(fractions):
        window = [fetched[i][b] for b in range(warmup, warmup + measured)]
        assert len(window) == measured
        means.append(statistics.fmean(window))
    elapsed = time.perf_counter() - t0
    ok = all(m >= f - 0.05 for m, f in zip(means, fractions)) and elapsed < 60.0
    detail = ", ".join(
        f"{f:.0%} rate -> {m:.3f} prefix (>= {f - 0.05:.2f})"
        for f, m in zip(fractions, means)
    )
    _verdict(3, "end-to-end prefix delivery", ok, f"{detail}, {elapsed:.1f}s < 60s")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_carousel_level_halving():
    # Imported here, not at the top: test_carousel imports first_duplicate
    # from this module.
    from test_carousel import ref_completion_time

    t0 = time.perf_counter()
    blocks = 4000
    plan = build_plan(blocks, 8)
    rng = random.Random(0xC4)
    starts = [rng.randrange(blocks) for _ in range(32)]
    mean_time = {
        levels: statistics.fmean(ref_completion_time(plan, levels, s) for s in starts)
        for levels in (1, 2, 4, 8)
    }
    ratios = {levels: mean_time[2 * levels] / mean_time[levels] for levels in (1, 2, 4)}
    elapsed = time.perf_counter() - t0
    ok = all(0.40 <= r <= 0.60 for r in ratios.values()) and elapsed < 60.0
    detail = ", ".join(f"T({2 * l})/T({l})={r:.3f}" for l, r in ratios.items())
    _verdict(4, "carousel level halving", ok, f"{detail}, {elapsed:.1f}s < 60s")


# --------------------------------------------------------------- criterion 5


def first_duplicate(plan: CarouselPlan, levels: int, start_buffer: int = 0) -> tuple[int, int]:
    """(blocks_seen, blocks_missing) when the first repeated block arrives.

    Blocks are consumed buffer by buffer, level 1 first inside a buffer.
    ``blocks_seen`` counts distinct blocks delivered strictly before the
    first duplicate; ``blocks_missing`` is what the ring still owes.
    """
    # With no level at all the walk over the buffers would never end.
    if not 1 <= levels <= plan.level_count:
        raise ValueError(f"levels {levels} not in 1..{plan.level_count}")
    seen: set[int] = set()
    b = start_buffer
    while True:
        for level in range(1, levels + 1):
            block = plan.block_for(b, level)
            if block in seen:
                return len(seen), plan.block_count - len(seen)
            seen.add(block)
        b += 1


@pytest.mark.xfail(
    strict=True,
    reason="first-repeat bound fails for odd level counts: 16 blocks walked "
    "with 3 levels hits its first duplicate after 12 deliveries with 4 "
    "blocks missing, and 4 >= 3/2; the bound holds only for power-of-two "
    "level counts.  Kept literal and red on purpose.",
)
def test_criterion_5_first_duplicate_bound():
    t0 = time.perf_counter()
    violations = []
    for blocks in (16, 32, 64, 128):
        for levels in range(2, 9):
            plan = build_plan(blocks, levels)
            for start in range(blocks):
                _, missing = first_duplicate(plan, levels, start)
                if not missing < levels / 2:
                    violations.append((blocks, levels, start, missing))
    elapsed = time.perf_counter() - t0
    detail = f"{len(violations)} violating walks, {elapsed:.1f}s < 120s"
    if violations:
        blocks, levels, start, missing = violations[0]
        detail += (
            f"; first: blocks={blocks} levels={levels} start={start} "
            f"leaves {missing} missing >= {levels / 2}"
        )
    _verdict(5, "first-duplicate bound", not violations and elapsed < 120.0, detail)


# --------------------------------------------------------------- criterion 6


def test_criterion_6_mds_any_k_of_n():
    t0 = time.perf_counter()
    decodes = 0
    for k in range(1, 11):
        spec = fec.CodecSpec("mds", k, 2 * k, 1)
        source = [bytes([(37 * i + 11) % 256]) for i in range(k)]
        symbols = fec.encode(spec, source)
        for subset in itertools.combinations(symbols, k):
            assert fec.decode(spec, subset) == source
            decodes += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "any k of n decodes",
        elapsed < 60.0,
        f"{decodes} k-subsets byte-exact, {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------- criterion 7


def _head_only_counters(packet_length: int, applicative_data: int) -> TransferCounters:
    return TransferCounters(
        file_length=1_000_000,
        k=691,
        epsilon=0,
        received_symbols=691,
        received_packets=691,
        missed_packets=0,
        link_bytes=1_022_680,
        elapsed=4.0,
        network_time=4.0,
        packet_length=packet_length,
        applicative_data=applicative_data,
    )


def test_criterion_7_header_overhead_constants():
    t0 = time.perf_counter()
    head_1448 = compute_metrics(_head_only_counters(1480, 1448)).head
    head_1460 = compute_metrics(_head_only_counters(1480, 1460)).head
    ok = (
        round(head_1448, 2) == 2.21
        and round(head_1448, 1) == 2.2
        and round(head_1460, 2) == 1.37
        and round(head_1460, 1) == 1.4
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        "header overhead constants",
        ok and elapsed < 1.0,
        f"1480/1448 -> {head_1448:.4f}%, 1480/1460 -> {head_1460:.4f}%",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_single_receiver_overhead():
    t0 = time.perf_counter()
    cfg = ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
    data = random.Random(0xD8).randbytes(4_000_000)
    codec = spec_for_file("sparse_parity", len(data), 1448, seed=3)
    scenario = Scenario(
        channel=cfg,
        bottleneck_rate=8e6,
        receivers=[ReceiverSpec(cfg.mean_top_rate)],
        duration=600.0,
        seed=8,
    )
    outcomes, _ = simulate_transfer(data, scenario, codec)
    outcome = outcomes[0]
    assert outcome.done and outcome.file == data
    dup, sym = outcome.metrics.dup, outcome.metrics.sym
    elapsed = time.perf_counter() - t0
    ok = dup < 2.0 and sym <= 10.0 and elapsed < 120.0
    _verdict(
        8,
        "single receiver overhead",
        ok,
        f"dup={dup:.3f}% < 2%, sym={sym:.3f}% <= 10%, {elapsed:.1f}s < 120s",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_loss_robustness():
    t0 = time.perf_counter()
    cfg = ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
    data = random.Random(4242).randbytes(1_000_000)
    codec = spec_for_file("sparse_parity", len(data), 1448, seed=7)

    def download(loss, target: float, seed: int) -> tuple[float, float]:
        iid, burst = loss
        scenario = Scenario(
            channel=cfg,
            bottleneck_rate=8e6,
            iid_loss=iid,
            burst=burst,
            receivers=[ReceiverSpec(target)],
            duration=300.0,
            seed=seed,
        )
        outcomes, _ = simulate_transfer(data, scenario, codec)
        outcome = outcomes[0]
        assert outcome.done
        return outcome.metrics.time, outcome.metrics.tput

    # the bursty receiver subscribes a touch higher so both paths deliver
    # the same goodput: 3% scattered loss vs 10% bursty loss
    target = 0.6 * cfg.mean_top_rate
    seeds = (11, 12, 13)
    iid_runs = [download((0.03, None), target, s) for s in seeds]
    burst_runs = [
        download((0.0, GilbertLoss(0.10, 8.0)), target * 0.97 / 0.90, s) for s in seeds
    ]
    iid_time = statistics.fmean(r[0] for r in iid_runs)
    burst_time = statistics.fmean(r[0] for r in burst_runs)
    iid_tput = statistics.fmean(r[1] for r in iid_runs)
    burst_tput = statistics.fmean(r[1] for r in burst_runs)
    tput_gap = abs(iid_tput - burst_tput) / min(iid_tput, burst_tput)
    time_gap = abs(iid_time - burst_time) / min(iid_time, burst_time)
    elapsed = time.perf_counter() - t0
    ok = tput_gap < 0.10 and time_gap < 0.25 and elapsed < 180.0
    _verdict(
        9,
        "loss robustness",
        ok,
        f"times {iid_time:.2f}s vs {burst_time:.2f}s ({time_gap:.1%} < 25%), "
        f"delivered tput gap {tput_gap:.1%} < 10%, {elapsed:.1f}s < 180s",
    )


# -------------------------------------------------------------- criterion 10


# SHA-256 of criterion 10's delivery trace: repr of each delivery time, the
# group and the datagram.  Two runs of one build agreeing with each other
# would not catch an ulp-level change between builds; this constant does.
# It was computed on x86_64 with glibc 2.36 and CPython 3.11.7.  The budgets
# floor results of libm's pow (rho ** x), so a mismatch on another libm or
# Python build is a platform difference first: compare against the parent
# commit on that platform before touching the code, and do not re-pin the
# constant on a different platform to make it pass.
CRITERION_10_TRACE_SHA256 = "7e987a91a82c44bd375e6ae3c5639bf3114c2d266bfe01b548c443df381d006b"


def test_criterion_10_determinism():
    cfg = ChannelConfig(128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
    data = random.Random(0xE0).randbytes(300_000)
    codec = spec_for_file("sparse_parity", len(data), 1448, seed=5)

    def traced_run():
        scenario = Scenario(
            channel=cfg,
            bottleneck_rate=8e6,
            iid_loss=0.02,
            burst=GilbertLoss(0.08, 6.0),
            receivers=[ReceiverSpec(0.8 * cfg.mean_top_rate)],
            duration=240.0,
            seed=77,
        )
        outcomes, sim = simulate_transfer(data, scenario, codec, collect_traces=True)
        outcome = outcomes[0]
        assert outcome.done
        trace = "\n".join(
            format_trace_line(r.time, r.group, r.packet, "deliver")
            for r in sim.receivers[0].trace
        ).encode()
        digest = hashlib.sha256(b"".join(
            f"{r.time!r} {r.group} ".encode() + r.packet for r in sim.receivers[0].trace
        )).hexdigest()
        return trace, outcome.metrics.as_dict(), outcome.counters, outcome.file, sim.link, digest

    first = traced_run()
    second = traced_run()
    ok = (
        first[5] == second[5] == CRITERION_10_TRACE_SHA256
        and first[0] == second[0]
        and first[1] == second[1]
        and first[2] == second[2]
        and first[3] == second[3] == data
        and first[4] == second[4]
    )
    _verdict(
        10,
        "equal seeds, identical runs",
        ok,
        f"{len(first[0])} trace bytes and all metrics bit-identical, trace digest pinned",
    )
