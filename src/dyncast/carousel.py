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

from dataclasses import dataclass


class TooManyLevelsError(ValueError):
    """More levels requested than blocks available."""


class LevelOutOfRangeError(ValueError):
    """A level index outside the plan was used."""


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
            raise LevelOutOfRangeError(f"level {level} not in 1..{self.level_count}")
        return (buffer_index + self.level_offsets[level - 1]) % self.block_count


def _longest_gap(block_count: int, offsets: list[int]) -> tuple[int, int]:
    """(start, length) of the longest free run after each used position.

    Ties are broken toward the smallest start position.
    """
    used = sorted(offsets)
    best_start, best_len = used[0], 0
    for i, a in enumerate(used):
        b = used[(i + 1) % len(used)]
        length = (b - a) % block_count
        if length == 0:
            length = block_count
        if length > best_len:
            best_start, best_len = a, length
    return best_start, best_len


def build_plan(block_count: int, level_count: int) -> CarouselPlan:
    """Choose the level offsets by repeated bisection of the ring."""
    if block_count < 1:
        raise ValueError("need at least one block")
    if level_count < 1:
        raise ValueError("need at least one level")
    if level_count > block_count:
        raise TooManyLevelsError(f"{level_count} levels > {block_count} blocks")
    offsets = [0]
    for _ in range(level_count - 1):
        start, length = _longest_gap(block_count, offsets)
        offsets.append((start + length // 2) % block_count)
    return CarouselPlan(block_count, tuple(offsets))


def blocks_for_buffer(plan: CarouselPlan, buffer_index: int, levels: int) -> list[int]:
    """Blocks carried by one buffer on the first ``levels`` levels, level 1 first."""
    if not 1 <= levels <= plan.level_count:
        raise LevelOutOfRangeError(f"levels {levels} not in 1..{plan.level_count}")
    return [plan.block_for(buffer_index, lv) for lv in range(1, levels + 1)]


def completion_time(
    plan: CarouselPlan,
    levels: int,
    start_buffer: int = 0,
    needed: int | None = None,
) -> int:
    """Consecutive buffers a receiver must consume to see enough blocks.

    ``needed`` defaults to the full ring; pass ``k + epsilon`` when the
    ring carries FEC symbols and only that many distinct ones matter.
    """
    target = plan.block_count if needed is None else needed
    if not 0 < target <= plan.block_count:
        raise ValueError("needed must be in 1..block_count")
    seen: set[int] = set()
    buffers = 0
    b = start_buffer
    while len(seen) < target:
        for level in range(1, levels + 1):
            seen.add(plan.block_for(b, level))
        buffers += 1
        b += 1
        if buffers > 2 * plan.block_count:  # defensive; level 1 alone finishes in B
            raise RuntimeError("carousel failed to complete")
    return buffers


def first_duplicate(
    plan: CarouselPlan, levels: int, start_buffer: int = 0
) -> tuple[int, int]:
    """(blocks_seen, blocks_missing) when the first repeated block arrives.

    Blocks are consumed buffer by buffer, level 1 first inside a buffer.
    ``blocks_seen`` counts distinct blocks delivered strictly before the
    first duplicate; ``blocks_missing`` is what the ring still owes.
    """
    seen: set[int] = set()
    b = start_buffer
    while True:
        for level in range(1, levels + 1):
            block = plan.block_for(b, level)
            if block in seen:
                return len(seen), plan.block_count - len(seen)
            seen.add(block)
        b += 1
