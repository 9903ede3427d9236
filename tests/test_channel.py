import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncast.channel import (
    _GRID_EPS,
    BASE_GROUP,
    ChannelConfig,
    TileBudget,
    _age_slots,
    _cum_at,
    cumulative_rate_integral,
    group_quiescence_time,
    group_start_time,
    interval_index,
    tiles_in_window,
)


# ---------------------------------------------------------------------------
# The paper's rate model at one instant: group lifetimes, rates and the
# start/quiescence events.  The library needs only the budgets of
# tiles_in_window; these functions state the model the budgets integrate,
# and the tests below check it.

class QuiescentGroupError(Exception):
    """A rate was requested for a group outside its active lifetime."""


class GroupEvent(NamedTuple):
    time: float
    group: int
    kind: str  # "start" or "quiescent"


def active_groups(cfg: ChannelConfig, t: float) -> list[int]:
    """Groups alive at instant ``t``, base first then oldest to youngest."""
    if t < 0:
        raise ValueError("model time starts at 0")
    idx = interval_index(cfg, t)
    return [BASE_GROUP] + list(range(idx + 1, idx + cfg.group_count))


def cumulative_rate(cfg: ChannelConfig, group: int, t: float) -> float:
    """Cumulative rate of ``group`` at ``t``: its own rate plus every rate below it."""
    if group == BASE_GROUP:
        return cfg.base_rate
    if group < 0:
        raise QuiescentGroupError(f"group {group} does not exist")
    age = _age_slots(cfg, group, t)
    if age < -_GRID_EPS:
        raise QuiescentGroupError(f"group {group} has not started at t={t}")
    if age >= cfg.group_count - 1 - _GRID_EPS:
        raise QuiescentGroupError(f"group {group} is quiescent at t={t}")
    return cfg.max_cumulative_rate * cfg.decay_ratio ** age


def group_rate(cfg: ChannelConfig, group: int, t: float) -> float:
    """Own rate of ``group`` at ``t`` (cumulative minus next lower neighbour)."""
    if group == BASE_GROUP:
        return cfg.base_rate
    cum = cumulative_rate(cfg, group, t)
    idx = interval_index(cfg, t)
    oldest = idx + 1
    if group > oldest:
        return cum - _cum_at(cfg, group - 1, t)
    return cum - cfg.base_rate


def quiescence_events(cfg: ChannelConfig, t_start: float, t_end: float) -> list[GroupEvent]:
    """Group starts and quiescences at sub-slot boundaries inside [t_start, t_end).

    The base group never appears.  At a boundary the quiescence is
    reported before the start.
    """
    if t_end <= t_start:
        return []
    s = cfg.sub_tsi
    events: list[GroupEvent] = []
    i = math.ceil(t_start / s - _GRID_EPS)
    while i * s < t_end - _GRID_EPS:
        t = i * s
        if i >= 1:
            events.append(GroupEvent(t, i, "quiescent"))
        events.append(GroupEvent(t, i + cfg.group_count - 1, "start"))
        i += 1
    return events


# ---------------------------------------------------------------------------
# Independent oracle: numerical integration of a from-scratch rate model.
# Deliberately re-derives the group rate from the config definition instead
# of calling the module under test.

def oracle_group_rate(cfg: ChannelConfig, group: int, t: float) -> float:
    if group == BASE_GROUP:
        return cfg.base_rate
    s = cfg.tsd / cfg.groups_per_tsi
    idx = math.floor(t / s + 1e-9)
    if not idx + 1 <= group <= idx + cfg.group_count - 1:
        return 0.0

    def cum(m: int) -> float:
        age = (t - (m - cfg.group_count + 1) * s) / s
        return cfg.max_cumulative_rate * cfg.decay_ratio**age

    below = cum(group - 1) if group - 1 >= idx + 1 else cfg.base_rate
    return cum(group) - below


def oracle_packets(cfg: ChannelConfig, group: int, t0: float, t1: float, steps: int = 4000) -> float:
    """Trapezoid integral of the oracle rate, in packets."""
    if t1 <= t0:
        return 0.0
    h = (t1 - t0) / steps
    total = 0.0
    prev = oracle_group_rate(cfg, group, t0)
    for i in range(1, steps + 1):
        cur = oracle_group_rate(cfg, group, t0 + i * h)
        total += 0.5 * (prev + cur) * h
        prev = cur
    return total / (8.0 * cfg.packet_payload)


def test_base_group_rate_constant():
    cfg = ChannelConfig()
    for t in (0.0, 0.3, 17.2, 400.0):
        assert cumulative_rate(cfg, BASE_GROUP, t) == cfg.base_rate
        assert group_rate(cfg, BASE_GROUP, t) == cfg.base_rate


def test_decay_closed_form_half():
    # A group aged two sub slots under rho=0.5 sits at max/4.
    cfg = ChannelConfig(
        base_rate=250_000.0,
        max_cumulative_rate=8_000_000.0,
        decay_ratio=0.5,
        tsd=1.0,
        group_count=6,
    )
    newborn = cfg.group_count - 1  # starts exactly at t = 0
    assert group_start_time(cfg, newborn) == 0.0
    assert cumulative_rate(cfg, newborn, 2 * cfg.sub_tsi) == pytest.approx(2_000_000.0, rel=1e-12)


def test_group_rate_is_difference_of_adjacent_cumulatives():
    cfg = ChannelConfig(
        base_rate=250_000.0,
        max_cumulative_rate=8_000_000.0,
        decay_ratio=0.5,
        tsd=1.0,
        group_count=6,
    )
    t = 2.0  # group 6 aged 1, group 5 aged 2
    assert cumulative_rate(cfg, 6, t) == pytest.approx(4_000_000.0, rel=1e-12)
    assert cumulative_rate(cfg, 5, t) == pytest.approx(2_000_000.0, rel=1e-12)
    assert group_rate(cfg, 6, t) == pytest.approx(2_000_000.0, rel=1e-12)


def test_sum_of_group_rates_telescopes_to_top_cumulative():
    cfg = ChannelConfig()
    for t in (0.5, 4.0, 9.31, 40.0):
        groups = active_groups(cfg, t)
        total = sum(group_rate(cfg, g, t) for g in groups)
        top = cumulative_rate(cfg, groups[-1], t)
        assert total == pytest.approx(top, rel=1e-12)


def test_adjacent_tiles_interleave_exactly():
    cfg = ChannelConfig()
    s = cfg.sub_tsi
    for i in (0, 1, 7):
        tiles = {tb.group: tb for tb in tiles_in_window(cfg, i * s, (i + 1) * s)}
        dynamics = sorted(g for g in tiles if g != BASE_GROUP)
        for older, younger in zip(dynamics, dynamics[1:]):
            assert tiles[older].max_cum_rate == pytest.approx(
                tiles[younger].min_cum_rate, rel=1e-12
            )


def test_one_subtsi_window_has_one_tile_per_active_group():
    cfg = ChannelConfig(
        base_rate=64_000.0,
        max_cumulative_rate=1_000_000.0,
        decay_ratio=0.5,
        tsd=2.0,
        group_count=3,
    )
    tiles = tiles_in_window(cfg, 0.0, cfg.sub_tsi)
    assert len(tiles) == 3
    assert sorted(tb.group for tb in tiles) == [0, 1, 2]


def test_base_tile_rates_pinned_to_base_rate():
    cfg = ChannelConfig()
    for tb in tiles_in_window(cfg, 0.0, 3 * cfg.sub_tsi):
        if tb.group == BASE_GROUP:
            assert tb.min_cum_rate == tb.max_cum_rate == cfg.base_rate


def test_base_budget_one_packet_per_second():
    # 11584 b/s moves exactly one 1448-byte packet per second.
    cfg = ChannelConfig(base_rate=11_584.0)
    for i in range(5):
        tiles = tiles_in_window(cfg, float(i), float(i + 1))
        base = [tb for tb in tiles if tb.group == BASE_GROUP]
        assert sum(tb.packet_count for tb in base) == 1


def test_budgets_match_numeric_integral_over_100_subtsis():
    cfg = ChannelConfig(
        base_rate=70_000.0,
        max_cumulative_rate=3_000_000.0,
        decay_ratio=0.65,
        tsd=2.0,
        group_count=9,
    )
    horizon = 100 * cfg.sub_tsi
    totals: dict[int, int] = {}
    for tb in tiles_in_window(cfg, 0.0, horizon):
        totals[tb.group] = totals.get(tb.group, 0) + tb.packet_count
    # every group fully contained in the horizon, plus the base group
    for group in [0, 1, 5, 20, 47, 80]:
        t0 = max(group_start_time(cfg, group), 0.0)
        t1 = min(group_quiescence_time(cfg, group), horizon)
        expect = oracle_packets(cfg, group, t0, t1)
        assert abs(totals.get(group, 0) - expect) <= 1.0, (group, totals.get(group), expect)


def test_quiescence_events_interior_tsd_k2():
    cfg = ChannelConfig(tsd=4.0, groups_per_tsi=2)
    events = quiescence_events(cfg, 4.0, 8.0)
    quiesced = [e for e in events if e.kind == "quiescent"]
    started = [e for e in events if e.kind == "start"]
    assert len(quiesced) == 2 and len(started) == 2
    assert all(e.group != BASE_GROUP for e in events)


def test_quiescence_events_k1_over_three_tsds():
    cfg = ChannelConfig(tsd=4.0)
    events = quiescence_events(cfg, 4.0, 16.0)
    assert [e.group for e in events if e.kind == "quiescent"] == [1, 2, 3]


def test_started_groups_begin_at_the_top_rate():
    cfg = ChannelConfig()
    for e in quiescence_events(cfg, 0.0, 40.0):
        if e.kind == "start":
            assert cumulative_rate(cfg, e.group, e.time) == pytest.approx(
                cfg.max_cumulative_rate, rel=1e-12
            )
            tops = [cumulative_rate(cfg, g, e.time) for g in active_groups(cfg, e.time)]
            assert max(tops) == pytest.approx(cfg.max_cumulative_rate, rel=1e-12)


def test_monotone_decay_within_lifetime():
    cfg = ChannelConfig()
    rng = random.Random(42)
    group = 20
    t0, t1 = group_start_time(cfg, group), group_quiescence_time(cfg, group)
    ts = sorted(rng.uniform(t0, t1 - 1e-6) for _ in range(50))
    rates = [cumulative_rate(cfg, group, t) for t in ts]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_quiescent_group_raises():
    cfg = ChannelConfig(tsd=4.0)
    with pytest.raises(QuiescentGroupError):
        cumulative_rate(cfg, 1, 4.0)  # quiesces exactly at 4 s
    with pytest.raises(QuiescentGroupError):
        cumulative_rate(cfg, 30, 0.0)  # not born yet
    with pytest.raises(QuiescentGroupError):
        group_rate(cfg, -3, 1.0)


def test_tile_order_within_interval_follows_group_age():
    # Sorting one interval's tiles by min cumulative rate lines the groups
    # up oldest (lowest id) first, with the base group at the very bottom.
    cfg = ChannelConfig()
    tiles = tiles_in_window(cfg, 8.0, 8.0 + cfg.sub_tsi)
    by_rate = sorted(tiles, key=lambda tb: tb.min_cum_rate)
    assert [tb.group for tb in by_rate] == sorted(tb.group for tb in tiles)


def test_tiles_are_deterministic():
    cfg = ChannelConfig()
    assert tiles_in_window(cfg, 3.0, 11.0) == tiles_in_window(cfg, 3.0, 11.0)


def test_interval_index_on_boundaries():
    cfg = ChannelConfig(tsd=4.0)
    assert interval_index(cfg, 0.0) == 0
    assert interval_index(cfg, 3.999999) == 0
    assert interval_index(cfg, 4.0) == 1
    assert interval_index(cfg, 8.0) == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(decay_ratio=0.0),
        dict(decay_ratio=1.0),
        dict(base_rate=5_000_000.0),  # base above max
        dict(groups_per_tsi=0),
        dict(group_count=1),
        dict(tsd=0.0),
        dict(packet_payload=0),
        dict(group_count=30),  # ladder bottom would sink below base_rate
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelConfig(**kwargs)


# ---------------------------------------------------------------------------
# Reference budgets: the per-call derivation tiles_in_window used before it
# evaluated each group's count inline.  Every TileBudget field must match it
# exactly, because budgets are floors and one ulp can move a floor.

def ref_sent_packets(cfg: ChannelConfig, group: int, t: float) -> float:
    """Fractional packet count sent by ``group`` from its start to ``t``."""
    bits_per_packet = 8.0 * cfg.packet_payload
    if group == BASE_GROUP:
        return cfg.base_rate * max(t, 0.0) / bits_per_packet
    start = group_start_time(cfg, group)
    if t <= start:
        return 0.0
    t = min(t, group_quiescence_time(cfg, group))
    own = cumulative_rate_integral(cfg, group, start, t)
    switch = group_quiescence_time(cfg, group - 1) if group - 1 >= 1 else start
    if group - 1 >= 1:
        own -= cumulative_rate_integral(cfg, group - 1, start, min(t, switch))
    if t > switch:
        own -= cfg.base_rate * (t - switch)
    return own / bits_per_packet


def ref_cum_at(cfg: ChannelConfig, group: int, t: float) -> float:
    if group == BASE_GROUP:
        return cfg.base_rate
    age = t / cfg.sub_tsi - (group - cfg.group_count + 1)
    return cfg.max_cumulative_rate * cfg.decay_ratio ** age


def ref_tiles_in_window(cfg: ChannelConfig, t_start: float, t_end: float) -> list[TileBudget]:
    s = cfg.sub_tsi
    tiles: list[TileBudget] = []
    i = interval_index(cfg, t_start)
    while i * s < t_end - 1e-9:
        span0 = max(t_start, i * s)
        span1 = min(t_end, (i + 1) * s)
        for group in [BASE_GROUP] + list(range(i + 1, i + cfg.group_count)):
            count = math.floor(ref_sent_packets(cfg, group, span1) + 1e-9) - math.floor(
                ref_sent_packets(cfg, group, span0) + 1e-9
            )
            tiles.append(
                TileBudget(
                    group=group,
                    interval=i,
                    packet_count=count,
                    min_cum_rate=ref_cum_at(cfg, group, span1),
                    max_cum_rate=ref_cum_at(cfg, group, span0),
                    start=span0,
                    end=span1,
                )
            )
        i += 1
    return tiles


@st.composite
def channel_configs(draw) -> ChannelConfig:
    """Valid ladders: the top rate decayed down the ladder still covers the base."""
    groups = draw(st.integers(2, 14))
    rho = draw(st.floats(0.3, 0.95))
    max_rate = draw(st.floats(1e5, 1e7))
    base = max_rate * rho ** (groups - 1) * draw(st.floats(0.05, 1.0))
    return ChannelConfig(
        base_rate=base,
        max_cumulative_rate=max_rate,
        decay_ratio=rho,
        tsd=draw(st.floats(0.25, 8.0)),
        groups_per_tsi=draw(st.integers(1, 4)),
        packet_payload=draw(st.sampled_from([64, 512, 1448])),
        group_count=groups,
    )


def assert_budgets_match_reference(cfg: ChannelConfig, t_start: float, t_end: float) -> None:
    got = tiles_in_window(cfg, t_start, t_end)
    want = ref_tiles_in_window(cfg, t_start, t_end)
    assert got == want, (cfg, t_start, t_end)


@st.composite
def sliced_windows(draw) -> tuple[ChannelConfig, list[float]]:
    """A ladder and the edges of 2 to 9 back-to-back windows from t in [0, 50] s.

    A window may span several sub slots, and about half of the edges sit
    within 2 ns of a sub-slot boundary, on either side of it.
    """
    cfg = draw(channel_configs())
    s = cfg.sub_tsi

    def near_boundary(t: float) -> float:
        return round(t / s) * s + draw(st.floats(-2e-9, 2e-9))

    start = draw(st.floats(0.0, 50.0))
    edges = [max(near_boundary(start), 0.0) if draw(st.booleans()) else start]
    for _ in range(draw(st.integers(2, 9))):
        edge = edges[-1] + draw(st.floats(1e-3, 3.0)) * s
        if draw(st.booleans()):
            edge = max(near_boundary(edge), edges[-1] + 1e-3 * s)
        edges.append(edge)
    return cfg, edges


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sliced_windows())
def test_partial_window_budgets_prorated_with_carry(case):
    # Slicing a window into ragged back-to-back windows conserves each
    # group's budget.
    cfg, edges = case

    def budgets(windows: list[float]) -> dict[int, int]:
        totals: dict[int, int] = {}
        for a, b in zip(windows, windows[1:]):
            for tb in tiles_in_window(cfg, a, b):
                totals[tb.group] = totals.get(tb.group, 0) + tb.packet_count
        return totals

    assert budgets(edges) == budgets([edges[0], edges[-1]]), (cfg, edges)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(channel_configs(), st.floats(0.0, 60.0), st.floats(0.005, 3.0), st.integers(1, 40))
def test_back_to_back_windows_match_reference(cfg, start, buffer_fraction, windows):
    # The windows CarouselSession.emissions hands the sequencer: buffer b
    # starts at start + b * buffer_time and ends buffer_time later.
    buffer_time = buffer_fraction * cfg.sub_tsi
    for b in range(windows):
        t0 = start + b * buffer_time
        assert_budgets_match_reference(cfg, t0, t0 + buffer_time)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    channel_configs(),
    st.floats(0.0, 300.0) | st.integers(0, 100).map(float),
    st.floats(1e-6, 5.0),
    st.booleans(),
)
def test_random_windows_match_reference(cfg, start, length, on_grid):
    # Starts on the sub-slot grid and lengths in whole sub slots hit the
    # edge cases where a cell's instants coincide with group lifetimes.
    t_start = start * cfg.sub_tsi if on_grid else start
    t_end = t_start + (length * cfg.sub_tsi if on_grid else length)
    if t_end > t_start:
        assert_budgets_match_reference(cfg, t_start, t_end)
