"""Block carousel: spreads a ring of blocks over hierarchical levels.

Every buffer carries one block per level.  Level 1 walks the ring in
order (buffer b carries block b); each further level repeats the walk
shifted by a fixed offset chosen at the middle of the longest run of
ring positions not yet used by the lower levels.  Doubling the number of
levels a receiver listens to therefore roughly halves the number of
buffers needed to see every block, and blocks repeat as late as
possible for any prefix of levels.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class CarouselPlan:
    block_count: int
    level_offsets: tuple[int, ...]

    @property
    def level_count(self) -> int:
        return len(self.level_offsets)

    def block_for(self, buffer_index: int, level: int) -> int:
        """Block carried at 1-based ``level`` of buffer ``buffer_index``."""
        if not 1 <= level <= self.level_count:
            raise ValueError(f"level {level} not in 1..{self.level_count}")
        return (buffer_index + self.level_offsets[level - 1]) % self.block_count


def build_plan(block_count: int, level_count: int) -> CarouselPlan:
    """Choose the level offsets by repeated bisection of the ring.

    Each new offset halves the longest free run after a used position,
    ties going to the smallest start; a heap keyed (-length, start) holds
    the runs, so a plan costs O(L log L) for L levels.
    """
    if block_count < 1:
        raise ValueError("need at least one block")
    if level_count < 1:
        raise ValueError("need at least one level")
    if level_count > block_count:
        raise ValueError(f"{level_count} levels > {block_count} blocks")
    offsets = [0]
    gaps = [(-block_count, 0)]  # one run: the whole ring after offset 0
    for _ in range(level_count - 1):
        neg_length, start = heapq.heappop(gaps)
        half = -neg_length // 2
        mid = (start + half) % block_count
        offsets.append(mid)
        heapq.heappush(gaps, (-half, start))
        heapq.heappush(gaps, (neg_length + half, mid))
    return CarouselPlan(block_count, tuple(offsets))


def blocks_for_buffer(plan: CarouselPlan, buffer_index: int) -> list[int]:
    """Blocks carried by one buffer on every level of the plan, level 1 first."""
    return [(buffer_index + offset) % plan.block_count for offset in plan.level_offsets]


def completion_time(plan: CarouselPlan, levels: int) -> int:
    """Consecutive buffers a receiver of the first ``levels`` levels needs
    to see every block, from any start buffer.

    Level l sees the T blocks after its offset in T buffers, so the ring
    is covered once T reaches the longest free run between the first
    ``levels`` offsets.  The bisection leaves 2^j runs of floor(n / 2^j)
    or ceil(n / 2^j) blocks after 2^j levels, n mod 2^j of them the
    longer, and each further level halves one of the longest.
    ``ref_completion_time`` in tests/test_carousel.py, a per-buffer walk,
    is the reference.
    """
    if not 1 <= levels <= plan.level_count:
        raise ValueError(f"levels {levels} not in 1..{plan.level_count}")
    j = levels.bit_length() - 1
    q, r = divmod(plan.block_count, 1 << j)
    return q + (levels - (1 << j) < r)
