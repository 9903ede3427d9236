import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import first_duplicate

from dyncast.carousel import (
    CarouselPlan,
    blocks_for_buffer,
    build_plan,
    completion_time,
)


# ---------------------------------------------------------------------------
# Independent re-derivation of the plan: at each level, list every circular
# gap between already-placed offsets, pick the longest (ties: smallest
# start) and put the new offset at its floor midpoint.  Written against the
# placement rule, not against the implementation.

def oracle_offsets(block_count, level_count):
    offsets = [0]
    for _ in range(level_count - 1):
        placed = sorted(offsets)
        gaps = []
        for i, start in enumerate(placed):
            nxt = placed[(i + 1) % len(placed)]
            length = (nxt - start) % block_count
            if length == 0:  # single offset: the gap is the whole ring
                length = block_count
            gaps.append((length, start))
        length, start = max(gaps, key=lambda g: (g[0], -g[1]))
        offsets.append((start + length // 2) % block_count)
    return offsets


def ref_build_plan(block_count, level_count):
    """Reference bisection: every level sorts the offsets and scans all
    gaps for the longest (ties: smallest start), so a plan costs
    O(L^2 log L) where build_plan's heap costs O(L log L)."""
    offsets = [0]
    for _ in range(level_count - 1):
        used = sorted(offsets)
        best_start, best_len = used[0], 0
        for i, a in enumerate(used):
            length = (used[(i + 1) % len(used)] - a) % block_count or block_count
            if length > best_len:
                best_start, best_len = a, length
        offsets.append((best_start + best_len // 2) % block_count)
    return CarouselPlan(block_count, tuple(offsets))


def ref_completion_time(plan, levels, start_buffer=0, needed=None):
    """Reference walk: consume buffers from ``start_buffer``, one set-add
    per block, until ``needed`` distinct blocks (default: the whole ring)
    are seen.  Costs O(buffers * levels) where completion_time is O(1)."""
    if not 1 <= levels <= plan.level_count:
        raise ValueError(f"levels {levels} not in 1..{plan.level_count}")
    target = plan.block_count if needed is None else needed
    if not 0 < target <= plan.block_count:
        raise ValueError("needed must be in 1..block_count")
    seen = set()
    buffers = 0
    b = start_buffer
    while len(seen) < target:
        for level in range(1, levels + 1):
            seen.add(plan.block_for(b, level))
        buffers += 1
        b += 1
    return buffers


def max_circular_gap(points, ring):
    """Completion oracle: each level's coverage front sweeps the ring in
    parallel, so the last hole to close sits behind the widest gap among
    the subscribed offsets — buffers needed = that gap's width."""
    pts = sorted(set(p % ring for p in points))
    if len(pts) == 1:
        return ring
    gaps = [(pts[(i + 1) % len(pts)] - p) % ring for i, p in enumerate(pts)]
    return max(gaps)


def test_ten_block_worked_example():
    plan = build_plan(10, 3)
    assert plan.level_offsets == (0, 5, 2)


def test_hand_executed_b8():
    plan = build_plan(8, 3)
    assert plan.level_offsets == (0, 4, 2)


def test_single_level_is_identity():
    plan = build_plan(7, 1)
    assert [blocks_for_buffer(plan, b) for b in range(7)] == [[b] for b in range(7)]


def test_plan_matches_oracle_b12_n4():
    plan = build_plan(12, 4)
    assert list(plan.level_offsets) == oracle_offsets(12, 4)
    for b in range(12):
        for lv in range(1, 5):
            expect = [(b + x) % 12 for x in oracle_offsets(12, 4)[:lv]]
            assert blocks_for_buffer(plan, b)[:lv] == expect


def test_plan_matches_oracle_randomized():
    rng = random.Random(31)
    for _ in range(60):
        ring = rng.randint(2, 200)
        levels = rng.randint(1, min(ring, 16))
        assert list(build_plan(ring, levels).level_offsets) == oracle_offsets(ring, levels)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ring=st.one_of(st.integers(1, 64), st.integers(65, 3000)), data=st.data())
def test_plan_matches_bisection_reference(ring, data):
    levels = data.draw(st.integers(1, min(ring, 300)))
    assert build_plan(ring, levels) == ref_build_plan(ring, levels)


def test_plan_at_full_ring_is_a_permutation():
    # One level per block: every ring position is used exactly once, in
    # O(L log L) rather than the reference's quadratic time.
    ring = 1 << 16
    assert sorted(build_plan(ring, ring).level_offsets) == list(range(ring))


def test_offsets_distinct_and_first_zero():
    for ring, levels in [(16, 16), (37, 12), (101, 9)]:
        offs = build_plan(ring, levels).level_offsets
        assert offs[0] == 0
        assert len(set(offs)) == len(offs)


def test_blocks_for_buffer_examples():
    plan = build_plan(10, 3)
    assert blocks_for_buffer(plan, 0) == [0, 5, 2]
    assert blocks_for_buffer(plan, 7)[:1] == [7]
    assert blocks_for_buffer(plan, 13) == [3, 8, 5]  # wraps around the ring


def test_levels_beyond_plan_rejected():
    plan = build_plan(10, 3)
    with pytest.raises(ValueError, match=r"level 4 not in 1\.\.3"):
        plan.block_for(0, 4)
    with pytest.raises(ValueError, match=r"5 levels > 4 blocks"):
        build_plan(4, 5)
    # A walk over no level, or over levels the plan lacks, is refused
    # before it starts: with none it would never end.
    for walk in (completion_time, ref_completion_time, first_duplicate):
        for levels in (0, 4):
            with pytest.raises(ValueError, match=rf"levels {levels} not in 1\.\.3"):
                walk(plan, levels)
    with pytest.raises(ValueError):
        build_plan(0, 0)


def test_full_coverage_plan_completes_in_one_buffer():
    plan = build_plan(6, 6)
    assert completion_time(plan, 6) == 1
    for start in range(6):
        assert ref_completion_time(plan, 6, start) == 1


def test_completion_matches_max_gap_oracle_b64():
    plan = build_plan(64, 8)
    for levels in range(1, 9):
        expect = max_circular_gap(plan.level_offsets[:levels], 64)
        assert completion_time(plan, levels) == expect
        for start in range(64):
            assert ref_completion_time(plan, levels, start) == expect


def test_completion_start_independent():
    plan = build_plan(128, 8)
    for levels in (1, 2, 4, 8):
        counts = {ref_completion_time(plan, levels, s) for s in range(128)}
        assert counts == {completion_time(plan, levels)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ring=st.integers(1, 600), data=st.data())
def test_completion_matches_walk_and_max_gap(ring, data):
    levels = data.draw(st.integers(1, ring))
    start = data.draw(st.integers(0, 10 * ring))
    plan = build_plan(ring, levels)
    expect = completion_time(plan, levels)
    assert expect == ref_completion_time(plan, levels, start)
    assert expect == max_circular_gap(plan.level_offsets, ring)


def test_doubling_levels_halves_completion_b4000():
    plan = build_plan(4000, 8)
    times = {lv: completion_time(plan, lv) for lv in (1, 2, 4, 8)}
    assert times[1] == 4000
    for lv in (1, 2, 4):
        assert 0.4 <= times[2 * lv] / times[lv] <= 0.6


def test_minimal_gap_spacing_guarantee():
    # After planning, offsets stay spread: the smallest circular gap is at
    # least ring / 2^(ceil(log2 levels) + 1), floored.
    rng = random.Random(8)
    for _ in range(40):
        ring = rng.randint(8, 300)
        levels = rng.randint(2, min(ring, 12))
        offs = sorted(build_plan(ring, levels).level_offsets)
        gaps = [(offs[(i + 1) % levels] - o) % ring for i, o in enumerate(offs)]
        bound = ring // (2 ** ((levels - 1).bit_length() + 1))
        assert min(gaps) >= bound, (ring, levels, offs)


def test_first_duplicate_even_split():
    # Power-of-two level counts tile the ring perfectly: every block is
    # seen exactly once before any repeat.
    plan = build_plan(16, 2)
    seen, missing = first_duplicate(plan, 2)
    assert (seen, missing) == (16, 0)
    plan = build_plan(64, 4)
    seen, missing = first_duplicate(plan, 4)
    assert (seen, missing) == (64, 0)


def test_first_duplicate_odd_levels_documented():
    # With three levels the bisection offsets (0, 8, 4) on a 16-ring meet
    # their first repeat four buffers in, with 4 blocks still unseen.
    plan = build_plan(16, 3)
    assert plan.level_offsets == (0, 8, 4)
    seen, missing = first_duplicate(plan, 3)
    assert (seen, missing) == (12, 4)


def test_first_duplicate_start_shift():
    plan = build_plan(32, 4)
    base = first_duplicate(plan, 4, start_buffer=0)
    for start in range(1, 32):
        assert first_duplicate(plan, 4, start_buffer=start) == base
