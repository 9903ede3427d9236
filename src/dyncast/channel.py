"""Deterministic rate model for a sender's dynamic multicast group ladder.

The sender transmits on a base group that never stops, plus a fixed number
of dynamic groups.  Every ``tsd / groups_per_tsi`` seconds (one *sub slot*)
a fresh dynamic group starts at the maximal cumulative rate while the
oldest one goes quiescent, so over a full slot of ``tsd`` seconds exactly
``groups_per_tsi`` groups start and as many stop.  A dynamic group's
cumulative rate decays geometrically with its age:

    cumulative(group, t) = max_cumulative_rate * decay_ratio ** age_in_sub_slots

and the group's own rate is the difference between its cumulative rate and
the cumulative rate of its next older neighbour (or the base group once it
is the oldest survivor).  Because every group walks down the same ladder,
the rate profile seen over any aligned sub slot is identical, merely
carried by younger group ids as time advances.

Time is measured in seconds from 0.  Group ids are global and increasing:
id 0 is the base group, dynamic group ``m`` (m >= 1) starts at
``(m - group_count + 1) * sub_tsi`` and goes quiescent exactly at
``m * sub_tsi``, so the ladder is already in steady state at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

BASE_GROUP = 0

# Slack used when snapping floating point instants onto the sub-slot grid.
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class ChannelConfig:
    """Static description of one sender's group ladder.

    Rates are bits per second of applicative payload; ``packet_payload``
    is the payload carried by one packet and is the unit used to turn
    rate integrals into packet budgets.
    """

    base_rate: float = 64_000.0
    max_cumulative_rate: float = 4_000_000.0
    decay_ratio: float = 0.7
    tsd: float = 4.0
    groups_per_tsi: int = 1
    packet_payload: int = 1448
    group_count: int = 12

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.max_cumulative_rate <= self.base_rate:
            raise ValueError("max_cumulative_rate must exceed base_rate")
        if not 0.0 < self.decay_ratio < 1.0:
            raise ValueError("decay_ratio must lie in (0, 1)")
        if self.tsd <= 0:
            raise ValueError("tsd must be positive")
        if self.groups_per_tsi < 1:
            raise ValueError("groups_per_tsi must be >= 1")
        if self.sub_tsi == 0:
            raise ValueError(f"tsd {self.tsd:g} / groups_per_tsi {self.groups_per_tsi} rounds to 0 s")
        if self.packet_payload < 1:
            raise ValueError("packet_payload must be >= 1 byte")
        if self.group_count < 2:
            raise ValueError("group_count must be >= 2 (base plus one dynamic)")
        # The most bits a dynamic group sends, whose floor tiles_in_window takes.
        if not math.isfinite(self.max_cumulative_rate * self.sub_tsi
                             / math.log(1.0 / self.decay_ratio)):
            raise ValueError("max_cumulative_rate * sub slot / ln(1/decay_ratio) is not finite")
        floor_rate = self.max_cumulative_rate * self.decay_ratio ** (self.group_count - 1)
        if floor_rate < self.base_rate * (1.0 - 1e-9):
            raise ValueError(
                "ladder does not reach down to base_rate: "
                "max_cumulative_rate * decay_ratio**(group_count-1) < base_rate"
            )

    @property
    def sub_tsi(self) -> float:
        """Seconds between two consecutive group starts."""
        return self.tsd / self.groups_per_tsi

    @property
    def mean_top_rate(self) -> float:
        """Time average of the top cumulative rate over one sub slot."""
        rho = self.decay_ratio
        return self.max_cumulative_rate * (rho - 1.0) / math.log(rho)


class TileBudget(NamedTuple):
    """Packet budget of one (group, sub slot) cell, possibly clipped."""

    group: int
    interval: int
    packet_count: int
    min_cum_rate: float
    max_cum_rate: float
    start: float
    end: float


def interval_index(cfg: ChannelConfig, t: float) -> int:
    """Index of the sub slot containing instant ``t`` (grid-snapped)."""
    return math.floor(t / cfg.sub_tsi + _GRID_EPS)


def group_start_time(cfg: ChannelConfig, group: int) -> float:
    if group == BASE_GROUP:
        return -math.inf
    return (group - cfg.group_count + 1) * cfg.sub_tsi


def group_quiescence_time(cfg: ChannelConfig, group: int) -> float:
    if group == BASE_GROUP:
        return math.inf
    return group * cfg.sub_tsi


def _age_slots(cfg: ChannelConfig, group: int, t: float) -> float:
    return t / cfg.sub_tsi - (group - cfg.group_count + 1)


def _cum_at(cfg: ChannelConfig, group: int, t: float) -> float:
    """Cumulative rate without lifetime checks (used at span edges)."""
    if group == BASE_GROUP:
        return cfg.base_rate
    return cfg.max_cumulative_rate * cfg.decay_ratio ** _age_slots(cfg, group, t)


def cumulative_rate_integral(cfg: ChannelConfig, group: int, t0: float, t1: float) -> float:
    """Integral of the cumulative rate over [t0, t1], clamped to the group lifetime.

    Returns bits.  For the base group this is simply base_rate * (t1 - t0).
    """
    if t1 <= t0:
        return 0.0
    if group == BASE_GROUP:
        return cfg.base_rate * (t1 - t0)
    t0 = max(t0, group_start_time(cfg, group))
    t1 = min(t1, group_quiescence_time(cfg, group))
    if t1 <= t0:
        return 0.0
    rho = cfg.decay_ratio
    a0 = _age_slots(cfg, group, t0)
    a1 = _age_slots(cfg, group, t1)
    slots = (rho ** a0 - rho ** a1) / math.log(1.0 / rho)
    return cfg.max_cumulative_rate * cfg.sub_tsi * slots


def tiles_in_window(cfg: ChannelConfig, t_start: float, t_end: float) -> list[TileBudget]:
    """Every (active group x sub slot) cell overlapping [t_start, t_end).

    Cells clipped by the window edges get pro-rated budgets.  Tiles are
    returned ordered by (interval, group).

    A cell's budget is the difference of the floors of the packets its
    group has sent since its start (t = 0 for the base group) at the two
    cell edges, which keeps per-group long-run counts within one packet
    of the rate integral no matter how windows are sliced.  A dynamic
    group's count is its cumulative rate integral minus that of the
    neighbour below it: the previous dynamic group until it quiesces, the
    base group afterwards, each taken from ``cumulative_rate_integral``;
    ``ref_tiles_in_window`` in tests/test_channel.py is the reference.
    """
    if t_start < 0:
        raise ValueError("window must start at t >= 0")
    if t_end <= t_start:
        raise ValueError("empty window")
    s = cfg.sub_tsi
    groups = cfg.group_count
    bits_per_packet = 8.0 * cfg.packet_payload

    def floored(group: int, t: float) -> int:
        if group == BASE_GROUP:
            sent = cumulative_rate_integral(cfg, BASE_GROUP, 0.0, t)
        else:
            start = group_start_time(cfg, group)
            t = min(t, group_quiescence_time(cfg, group))
            # The neighbour below is dynamic until it quiesces at switch (group
            # 1's is the base group throughout).  An integral over an empty
            # span is exactly 0.0, so its subtraction leaves ``sent`` as it is.
            switch = group_quiescence_time(cfg, group - 1) if group > 1 else start
            sent = (cumulative_rate_integral(cfg, group, start, t)
                    - cumulative_rate_integral(cfg, group - 1, start, min(t, switch))
                    - cumulative_rate_integral(cfg, BASE_GROUP, switch, t))
        return math.floor(sent / bits_per_packet + _GRID_EPS)

    tiles: list[TileBudget] = []
    i = interval_index(cfg, t_start)
    while i * s < t_end - _GRID_EPS:
        span0 = max(t_start, i * s)
        span1 = min(t_end, (i + 1) * s)
        for group in (BASE_GROUP, *range(i + 1, i + groups)):
            tiles.append(
                TileBudget(group, i, floored(group, span1) - floored(group, span0),
                           _cum_at(cfg, group, span1), _cum_at(cfg, group, span0), span0, span1)
            )
        i += 1
    return tiles
