import copy
import functools
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncast import fec
from dyncast.fec import (
    _GF_EXP,
    _GF_LOG,
    CodecSpec,
    DecodeFailureError,
    SymbolDecoder,
    _TABLE_MIN_ROWS,
    _eliminate,
    _gf_combine,
    _interpolation_coeffs,
    _peel,
    _support_layout,
    _times_x,
    decode,
    encode,
    repair_support,
)


def blocks_of(spec, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(spec.symbol_size) for _ in range(spec.k)]


def epsilon_overhead(spec, received_indices):
    """Reception overhead in percent for a symbol arrival order.

    Feeds the index trace to a decoder and reports 100 * epsilon / k
    measured at the first decodable prefix.  Every symbol carries the
    same all-zero payload: zero symbols are always consistent, so only
    the decodability structure decides where the decode closes.
    """
    dec = SymbolDecoder(spec)
    zeros = bytes(spec.symbol_size)
    for index in received_indices:
        dec.add(index, zeros)
        if dec.complete:
            return 100.0 * (dec.distinct - spec.k) / spec.k
    raise ValueError("trace never reaches a decodable set")


def test_null_codec_is_identity():
    spec = CodecSpec("null", 4, 4, 16)
    blocks = blocks_of(spec)
    symbols = encode(spec, blocks)
    assert symbols == blocks
    assert len(symbols) == spec.k  # every symbol a source
    assert decode(spec, enumerate(symbols)) == blocks


def test_null_closes_at_the_kth_distinct_source_past_k_255():
    # null shares the systematic mds solve, whose interpolation is
    # GF(256)-only: with every source present it must interpolate none.
    spec = CodecSpec("null", 300, 300, 1)
    blocks = blocks_of(spec, seed=8)
    rng = random.Random(9)
    last, *others = rng.sample(range(spec.k), spec.k)
    feed = others + rng.choices(others, k=40)  # 40 duplicates
    rng.shuffle(feed)
    dec = SymbolDecoder(spec)
    distinct = set()
    for i in feed + [last]:
        assert not dec.complete
        dec.add(i, blocks[i])
        distinct.add(i)
        assert dec.distinct == len(distinct)  # a duplicate is not counted
        assert dec.complete == (len(distinct) == spec.k)
    assert dec.distinct == spec.k
    assert dec.blocks() == blocks


def test_mds_k2_n4_every_pair_decodes():
    spec = CodecSpec("mds", 2, 4, 1)
    symbols = encode(spec, [b"\x01", b"\x02"])
    for pair in itertools.combinations(enumerate(symbols), 2):
        assert decode(spec, pair) == [b"\x01", b"\x02"]


def test_mds_recovers_from_repairs_only():
    spec = CodecSpec("mds", 2, 4, 3)
    blocks = [b"abc", b"xyz"]
    symbols = encode(spec, blocks)
    assert decode(spec, list(enumerate(symbols))[2:]) == blocks


def test_systematic_prefix_everywhere():
    for name, n_factor in (("null", 1), ("mds", 2), ("sparse_parity", 2)):
        spec = CodecSpec(name, 5, 5 * n_factor, 8, seed=3)
        blocks = blocks_of(spec, seed=1)
        symbols = encode(spec, blocks)
        assert len(symbols) == spec.n
        for i in range(spec.k):
            assert symbols[i] == blocks[i]


def test_all_sources_present_copies_out():
    spec = CodecSpec("mds", 6, 12, 32)
    blocks = blocks_of(spec, seed=2)
    dec = SymbolDecoder(spec)
    for index, data in enumerate(encode(spec, blocks)[: spec.k]):
        dec.add(index, data)
    assert dec.complete
    assert dec.distinct == spec.k
    assert dec.blocks() == blocks


def test_mds_exhaustive_small_and_sampled_large():
    # Exhaustive any-k-of-n for modest sizes; random subsets beyond.
    rng = random.Random(77)
    for k in (1, 2, 3, 4, 5, 6):
        spec = CodecSpec("mds", k, 2 * k, 4)
        blocks = blocks_of(spec, seed=k)
        symbols = encode(spec, blocks)
        for subset in itertools.combinations(enumerate(symbols), k):
            assert decode(spec, subset) == blocks
    for k in (9, 12):
        spec = CodecSpec("mds", k, 2 * k, 4)
        blocks = blocks_of(spec, seed=k)
        symbols = encode(spec, blocks)
        for _ in range(200):
            subset = rng.sample(list(enumerate(symbols)), k)
            assert decode(spec, subset) == blocks


def test_mds_epsilon_zero_always():
    spec = CodecSpec("mds", 8, 16, 8)
    symbols = encode(spec, blocks_of(spec))
    rng = random.Random(5)
    for _ in range(20):
        dec = SymbolDecoder(spec)
        order = rng.sample(list(enumerate(symbols)), len(symbols))
        fed = 0
        for index, data in order:
            fed += 1
            dec.add(index, data)
            if dec.complete:
                break
        assert fed == spec.k
        assert dec.distinct == spec.k


def test_sparse_roundtrip_and_determinism():
    spec = CodecSpec("sparse_parity", 60, 120, 16, seed=11)
    blocks = blocks_of(spec, seed=4)
    symbols = encode(spec, blocks)
    again = encode(spec, blocks)
    assert symbols == again
    other = encode(CodecSpec("sparse_parity", 60, 120, 16, seed=12), blocks)
    assert symbols[60:] != other[60:]
    rng = random.Random(6)
    received = rng.sample(list(enumerate(symbols)), 90)
    dec = SymbolDecoder(spec)
    for index, data in received:
        dec.add(index, data)
        if dec.complete:
            break
    assert dec.blocks() == blocks


def test_repair_support_shape_and_mean_degree():
    spec = CodecSpec("sparse_parity", 1000, 2000, 4, seed=9)
    degrees = []
    for r in range(spec.k, spec.n):
        support = repair_support(spec, r)
        assert 1 <= len(support) <= spec.k
        assert all(0 <= i < spec.k for i in support)
        assert list(support) == sorted(set(support))
        assert support == repair_support(spec, r)  # stable
        degrees.append(len(support))
    mean = sum(degrees) / len(degrees)
    assert 8.0 <= mean <= 24.0, mean  # sparse: a dozen-ish of k=1000, never dense
    assert max(degrees) <= 64, max(degrees)


def test_sparse_overhead_at_k1000():
    # Mean reception overhead across random arrival orders stays under the
    # 8.28 percent ceiling observed for sparse codes at this scale.
    spec = CodecSpec("sparse_parity", 1000, 2000, 2, seed=21)
    rng = random.Random(13)
    indices = list(range(spec.n))
    overheads = []
    for _ in range(6):
        rng.shuffle(indices)
        overheads.append(epsilon_overhead(spec, indices))
    mean = sum(overheads) / len(overheads)
    assert 0.0 <= mean <= 8.28, overheads


def test_epsilon_overhead_matches_hand_recount():
    spec = CodecSpec("sparse_parity", 100, 200, 4, seed=31)
    blocks = blocks_of(spec, seed=7)
    symbols = encode(spec, blocks)
    rng = random.Random(17)
    order = rng.sample(list(enumerate(symbols)), len(symbols))
    # hand recount: feed the full decoder, count distinct until it closes
    dec = SymbolDecoder(spec)
    distinct = set()
    for index, data in order:
        dec.add(index, data)
        distinct.add(index)
        if dec.complete:
            break
    expected = (len(distinct) - spec.k) / spec.k * 100.0
    got = epsilon_overhead(spec, [index for index, _ in order])
    assert got == pytest.approx(expected)
    assert dec.blocks() == blocks


def test_duplicates_and_conflicts():
    spec = CodecSpec("mds", 3, 6, 4)
    symbols = encode(spec, blocks_of(spec))
    dec = SymbolDecoder(spec)
    dec.add(0, symbols[0])
    dec.add(0, symbols[0])  # a duplicate: stored once
    assert dec.distinct == 1
    with pytest.raises(DecodeFailureError):
        dec.add(0, b"\xff\xff\xff\xff")
    with pytest.raises(ValueError):
        dec.add(6, symbols[0])
    with pytest.raises(DecodeFailureError):
        dec.add(1, b"short")


def test_insufficient_symbols_raise():
    spec = CodecSpec("mds", 4, 8, 4)
    symbols = encode(spec, blocks_of(spec))
    with pytest.raises(ValueError, match=r"decode needs more symbols \(have 3 distinct\)"):
        decode(spec, enumerate(symbols[:3]))
    dec = SymbolDecoder(spec)
    dec.add(0, symbols[0])
    assert not dec.complete
    with pytest.raises(ValueError, match=r"decode needs more symbols \(have 1 distinct\)"):
        dec.blocks()


def test_sparse_rank_deficit_then_closure():
    # Receiving k symbols whose equations are dependent is not enough; the
    # decoder closes only at full rank.
    spec = CodecSpec("sparse_parity", 30, 60, 4, seed=2)
    blocks = blocks_of(spec, seed=9)
    symbols = encode(spec, blocks)
    dec = SymbolDecoder(spec)
    fed = 0
    pairs = list(enumerate(symbols))
    for index, data in pairs[spec.k :] + pairs[: spec.k]:  # repairs first
        fed += 1
        dec.add(index, data)
        if dec.complete:
            break
    assert dec.complete
    assert dec.distinct >= spec.k
    assert dec.blocks() == blocks


def test_epsilon_overhead_never_decodable():
    spec = CodecSpec("sparse_parity", 10, 20, 4, seed=1)
    with pytest.raises(ValueError, match="trace never reaches a decodable set"):
        epsilon_overhead(spec, [0, 1, 2])


def test_spec_validation():
    with pytest.raises(ValueError):
        CodecSpec("null", 4, 8, 16)  # null must have n == k
    with pytest.raises(ValueError):
        CodecSpec("mds", 300, 600, 16)  # field limit
    with pytest.raises(ValueError):
        CodecSpec("mds", 4, 3, 16)  # n < k
    with pytest.raises(ValueError):
        CodecSpec("mds", 0, 4, 16)
    with pytest.raises(ValueError):
        CodecSpec("mds", 2, 4, 0)
    with pytest.raises(ValueError):
        CodecSpec("turbo", 2, 4, 16)  # unknown codec name


def test_block_padding_rules():
    spec = CodecSpec("mds", 3, 6, 4)
    symbols = encode(spec, [b"aaaa", b"bbbb", b"cc"])  # short tail is padded
    assert symbols[2] == b"cc\x00\x00"
    with pytest.raises(ValueError, match="only the last block may be short"):
        encode(spec, [b"aaaa", b"bb", b"cccc"])
    with pytest.raises(ValueError, match="block 2 longer than symbol_size"):
        encode(spec, [b"aaaa", b"bbbb", b"ccccc"])
    with pytest.raises(ValueError, match="expected 3 blocks, got 2"):
        encode(spec, [b"aaaa", b"bbbb"])


@pytest.mark.parametrize("name", fec.CODEC_NAMES)
def test_encode_copies_writable_blocks(name):
    # A bytearray, a writable view and a read-only view of a bytearray can
    # all change after encode returns; no symbol may change with them.
    spec = CodecSpec(name, 12, 12 if name == "null" else 24, 16, seed=4)
    blocks = blocks_of(spec, seed=6)
    want = encode(spec, blocks)
    arrays = [bytearray(b) for b in blocks]
    inputs = (arrays[:4] + [memoryview(a) for a in arrays[4:8]]
              + [memoryview(a).toreadonly() for a in arrays[8:]])
    symbols = encode(spec, inputs)
    for a in arrays:
        a[:] = bytes(x ^ 0xFF for x in a)
    assert symbols == want
    assert all(type(s) is bytes for s in symbols)
    assert decode(spec, enumerate(symbols)) == blocks


@pytest.mark.parametrize("name,repairs", [("null", 0), ("sparse_parity", 12),
                                          ("mds", _TABLE_MIN_ROWS - 1),
                                          ("mds", 2 * _TABLE_MIN_ROWS)])
def test_encode_keeps_read_only_views_of_bytes(name, repairs):
    # The sources are the caller's views, and every symbol is what bytes
    # blocks give; mds runs _gf_combine below and above _TABLE_MIN_ROWS.
    spec = CodecSpec(name, 12, 12 + repairs, 16, seed=4)
    blocks = blocks_of(spec, seed=6)
    data = b"".join(blocks)[:-5]  # a short last block is padded
    blocks[-1] = blocks[-1][:-5] + bytes(5)
    view = memoryview(data)
    symbols = encode(spec, [view[i * 16 : (i + 1) * 16] for i in range(spec.k)])
    assert symbols == encode(spec, blocks)
    assert all(s.obj is data for s in symbols[: spec.k - 1])
    assert type(symbols[spec.k - 1]) is bytes
    if name == "mds":
        coeffs = [_ref_lagrange_coeffs(range(spec.k), r) for r in range(spec.k, spec.n)]
        assert symbols[spec.k :] == _ref_combine(coeffs, blocks, 16)
    assert decode(spec, enumerate(symbols)) == blocks


# ---------------------------------------------------------------------------
# References: the earlier straightforward forms of the MDS coefficients, of
# the GF(256) multiply-accumulate and of the sparse decoder, kept to pin the
# faster ones down.


def _ref_gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _ref_gf_div(a, b):
    if a == 0:
        return 0
    return _GF_EXP[(_GF_LOG[a] - _GF_LOG[b]) % 255]


def _ref_lagrange_coeffs(points, point):
    """Lagrange coefficients mapping values at ``points`` to ``point``."""
    coeffs = []
    for i in points:
        num = 1
        den = 1
        for j in points:
            if j == i:
                continue
            num = _ref_gf_mul(num, point ^ j)
            den = _ref_gf_mul(den, i ^ j)
        coeffs.append(_ref_gf_div(num, den))
    return coeffs


@pytest.mark.parametrize("k,n", [(1, 2), (2, 4), (10, 20), (125, 250), (127, 255)])
def test_mds_coefficients_match_lagrange_reference(k, n):
    got = _interpolation_coeffs(range(k), range(k, n))
    assert got == [_ref_lagrange_coeffs(range(k), r) for r in range(k, n)]
    # The decode side: any k received points, some of the rest as targets.
    rng = random.Random(k)
    for _ in range(3):
        points = rng.sample(range(n), k)
        others = [x for x in range(n) if x not in points]
        targets = rng.sample(others, min(8, len(others)))
        got = _interpolation_coeffs(points, targets)
        assert got == [_ref_lagrange_coeffs(points, t) for t in targets]


def _ref_scaled(data, c):
    """c * data as a big integer (data interpreted byte-wise over GF(256))."""
    if c == 0:
        return 0
    if c == 1:
        return int.from_bytes(data, "big")
    return int.from_bytes(data.translate(bytes(_ref_gf_mul(c, v) for v in range(256))), "big")


def _ref_combine(rows, operands, size):
    out = []
    for coeffs in rows:
        acc = 0
        for v, c in zip(operands, coeffs):
            acc ^= _ref_scaled(v, c)
        out.append(acc.to_bytes(size, "big"))
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    size=st.sampled_from([1, 2, 37, 1448]),
    rows=st.integers(1, 2 * _TABLE_MIN_ROWS),
    operands=st.integers(1, 40),
    zero_one=st.sampled_from([0.0, 0.3, 1.0]),
    views=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_gf_combine_matches_per_product_reference(size, rows, operands, zero_one, views, seed):
    # Up to 40 operands: several groups of 8 and a partial last group.
    rng = random.Random(seed)
    data = [rng.randbytes(size) for _ in range(operands)]
    coeffs = [
        [rng.choice((0, 1)) if rng.random() < zero_one else rng.randrange(256)
         for _ in range(operands)]
        for _ in range(rows)
    ]
    if views:
        joined = memoryview(b"".join(data))
        args = [joined[j * size : (j + 1) * size] for j in range(operands)]
    else:
        args = data
    assert _gf_combine(coeffs, args, size) == _ref_combine(coeffs, data, size)


def test_gf_combine_at_the_mds_decode_shape():
    # The mds workload's decodes: 125 received points, about 60 missing
    # sources, 1448-byte symbols.
    rng = random.Random(60)
    points = rng.sample(range(250), 125)
    targets = rng.sample([x for x in range(250) if x not in points], 60)
    coeffs = _interpolation_coeffs(points, targets)
    data = [rng.randbytes(1448) for _ in points]
    assert _gf_combine(coeffs, data, 1448) == _ref_combine(coeffs, data, 1448)


@pytest.mark.parametrize("size", [1, 2, 3, 1448])
def test_times_x_multiplies_every_byte_lane(size):
    # Every byte value in the first, middle and last lane, beside lanes
    # of 0x00 and of 0xFF: a reduction that carries between lanes shows
    # where two neighbours both have bit 7 set.
    low = int.from_bytes(b"\x7f" * size, "big")
    ones = int.from_bytes(b"\x01" * size, "big")
    double = bytes(_ref_gf_mul(2, v) for v in range(256))
    for fill in (0x00, 0xFF):
        for lane in {0, size // 2, size - 1}:
            for v in range(256):
                data = bytearray([fill] * size)
                data[lane] = v
                got = _times_x(int.from_bytes(data, "big"), low, ones).to_bytes(size, "big")
                assert got == bytes(data).translate(double), (fill, lane, v)


class ReferenceSparseDecoder:
    """Sparse decoder that carries payloads through a top-bit elimination."""

    def __init__(self, spec):
        self.spec = spec
        self._received = {}
        self._done_at = None
        self._pivots = {}  # pivot column -> (mask over source indices, payload as int)

    def add(self, index, data):
        if index in self._received:
            if self._received[index] != data:
                raise DecodeFailureError(f"symbol {index} received twice with different data")
            return
        self._received[index] = bytes(data)
        if self._done_at is None:
            self._absorb(index, data)
            if len(self._pivots) == self.spec.k:
                self._done_at = len(self._received)

    def _absorb(self, index, data):
        spec = self.spec
        if index < spec.k:
            mask = 1 << index
        else:
            mask = 0
            for i in repair_support(spec, index):
                mask |= 1 << i
        const = int.from_bytes(data, "big")
        while mask:
            top = mask.bit_length() - 1
            pivot = self._pivots.get(top)
            if pivot is None:
                self._pivots[top] = (mask, const)
                return
            mask ^= pivot[0]
            const ^= pivot[1]
        if const != 0:
            raise DecodeFailureError("inconsistent repair equation")

    @property
    def complete(self):
        return self._done_at is not None

    @property
    def epsilon(self):
        return self._done_at - self.spec.k

    def blocks(self):
        solved = {}
        for col in sorted(self._pivots):
            mask, const = self._pivots[col]
            rest = mask & ~(1 << col)
            while rest:
                low = rest & -rest
                const ^= solved[low.bit_length() - 1]
                rest ^= low
            solved[col] = const
        return [solved[i].to_bytes(self.spec.symbol_size, "big") for i in range(self.spec.k)]


def assert_same_as_reference(spec, order, blocks):
    symbols = encode(spec, blocks)
    ref = ReferenceSparseDecoder(spec)
    dec = SymbolDecoder(spec)
    for index in order:
        data = symbols[index]
        if dec.complete:
            # The close is final: the decoder refuses what the reference still takes.
            with pytest.raises(ValueError, match="the decode has closed"):
                dec.add(index, data)
            ref.add(index, data)
            continue
        dec.add(index, data)
        ref.add(index, data)
        assert dec.distinct == len(ref._received)
        assert dec.complete == ref.complete
    if ref.complete:
        assert dec.distinct - spec.k == ref.epsilon
        assert dec.blocks() == ref.blocks() == blocks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    k=st.integers(1, 60),
    extra=st.integers(0, 60),
    code_seed=st.integers(0, 2**16),
    order_seed=st.integers(0, 2**16),
    repairs_first=st.booleans(),
    drop=st.sampled_from([0.0, 0.1, 0.3]),
    dup=st.sampled_from([0.0, 0.2]),
)
def test_sparse_decoder_matches_reference(k, extra, code_seed, order_seed, repairs_first, drop, dup):
    spec = CodecSpec("sparse_parity", k, k + extra, 3, seed=code_seed)
    rng = random.Random(order_seed)
    order = list(range(spec.n))
    rng.shuffle(order)
    if repairs_first:
        order.sort(key=lambda i: i < k)  # stable: repairs, then sources, each shuffled
    order = [i for i in order if rng.random() >= drop]
    for i in list(order):
        if rng.random() < dup:
            order.insert(rng.randrange(len(order) + 1), i)
    assert_same_as_reference(spec, order, blocks_of(spec, seed=order_seed))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    k=st.integers(200, 600),
    repair_share=st.sampled_from([0.5, 1.0]),
    code_seed=st.integers(0, 2**16),
    order_seed=st.integers(0, 2**16),
    drop=st.sampled_from([0.0, 0.1]),
    dup=st.sampled_from([0.0, 0.2]),
)
def test_sparse_decoder_matches_reference_with_an_inactive_core(k, repair_share, code_seed,
                                                                order_seed, drop, dup):
    # Repairs first: the k-th distinct symbol peels a batch with hundreds of
    # inactive columns, and the sources arriving after it land on pivots of
    # the renumbered columns.
    spec = CodecSpec("sparse_parity", k, k + int(repair_share * k), 3, seed=code_seed)
    rng = random.Random(order_seed)
    order = rng.sample(range(k, spec.n), spec.n - k) + rng.sample(range(k), k)
    order = [i for i in order if rng.random() >= drop]
    for i in list(order):
        if rng.random() < dup:
            order.insert(rng.randrange(len(order) + 1), i)
    assert_same_as_reference(spec, order, blocks_of(spec, seed=order_seed))


def test_sparse_decoder_matches_reference_at_k1000():
    spec = CodecSpec("sparse_parity", 1000, 2000, 8, seed=41)
    rng = random.Random(43)
    order = [i for i in rng.sample(range(spec.n), spec.n) if rng.random() >= 0.2]
    assert_same_as_reference(spec, order, blocks_of(spec, seed=5))


def test_corrupt_redundant_repair_fails_the_decode():
    # A repair whose sources all arrive before the close adds nothing to the
    # rank, so one flipped bit in it contradicts the sources.
    spec = CodecSpec("sparse_parity", 30, 60, 4, seed=2)
    symbols = encode(spec, blocks_of(spec, seed=3))
    last = 0
    repair = next(r for r in range(spec.k, spec.n) if last not in repair_support(spec, r))
    corrupt = bytes([symbols[repair][0] ^ 0x10]) + symbols[repair][1:]
    dec = SymbolDecoder(spec)
    with pytest.raises(DecodeFailureError):
        for index in range(1, spec.k):
            dec.add(index, symbols[index])
        dec.add(repair, corrupt)
        dec.add(last, symbols[last])
        assert dec.complete and dec.distinct == spec.k + 1
        dec.blocks()


def test_corrupt_redundant_repair_fails_a_peeled_decode():
    # Repairs first at k = 300, so the solve peels and eliminates an
    # inactive core.  The first repair is implied by the rest of the close
    # set, so one flipped bit in it must fail the decode.
    spec = CodecSpec("sparse_parity", 300, 600, 4, seed=7)
    symbols = encode(spec, blocks_of(spec, seed=8))
    rng = random.Random(9)
    order = rng.sample(range(spec.k, spec.n), spec.n - spec.k) + rng.sample(range(spec.k), spec.k)
    data = {i: symbols[i] for i in order}
    data[order[0]] = bytes([data[order[0]][0] ^ 0x10]) + data[order[0]][1:]
    dec = SymbolDecoder(spec)
    for i in order:
        dec.add(i, data[i])
        if dec.complete:
            break
    close = order[: dec.distinct]
    check = SymbolDecoder(spec)
    for i in close[1:]:
        check.add(i, symbols[i])
    assert check.complete and dec.distinct > spec.k
    with pytest.raises(DecodeFailureError):
        dec.blocks()


def test_corrupt_late_source_fails_the_decode():
    # The first symbol after the k-th is a source, and a repair arriving
    # after it also determines that source, so one flipped bit in the
    # source contradicts the close set.
    spec = CodecSpec("sparse_parity", 30, 60, 4, seed=7)
    symbols = encode(spec, blocks_of(spec, seed=8))
    order = random.Random(2).sample(range(spec.n), spec.n)
    late = order[spec.k]
    data = {i: symbols[i] for i in order}
    data[late] = bytes([data[late][0] ^ 0x10]) + data[late][1:]
    dec = SymbolDecoder(spec)
    for i in order:
        dec.add(i, data[i])
        if dec.complete:
            break
    close = order[: dec.distinct]
    check = SymbolDecoder(spec)
    for i in close:
        if i != late:
            check.add(i, symbols[i])
    assert late < spec.k and check.complete
    assert any(late in repair_support(spec, j) for j in close[spec.k + 1 :] if j >= spec.k)
    ref = ReferenceSparseDecoder(spec)
    with pytest.raises(DecodeFailureError):
        for i in close:
            ref.add(i, data[i])
    with pytest.raises(DecodeFailureError):
        dec.blocks()


def test_one_peel_per_sparse_decode(monkeypatch):
    # A hundred repairs lead, so the k-th distinct symbol peels them, and
    # both sources and repairs arrive after it before the close.
    spec = CodecSpec("sparse_parity", 200, 400, 4, seed=11)
    rng = random.Random(15)
    repairs = rng.sample(range(spec.k, spec.n), spec.n - spec.k)
    rest = list(range(spec.k)) + repairs[100:]
    order = repairs[:100] + rng.sample(rest, len(rest))
    blocks = blocks_of(spec, seed=13)
    symbols = encode(spec, blocks)
    calls = []

    def counted_peel(rows, columns):
        calls.append(len(columns))
        return _peel(rows, columns)

    monkeypatch.setattr(fec, "_peel", counted_peel)
    dec = SymbolDecoder(spec)
    for i in order:
        dec.add(i, symbols[i])
        if dec.complete:
            break
    after = order[spec.k : dec.distinct]
    assert min(after) < spec.k <= max(after)
    ref = ReferenceSparseDecoder(spec)
    for i in order[: dec.distinct]:
        ref.add(i, symbols[i])
    assert ref.complete and dec.blocks() == ref.blocks() == blocks
    assert len(calls) == 1


def test_sparse_blocks_are_the_received_sources():
    # Sources arrive both before and after the k-th symbol.  The solved
    # blocks are the objects received before the close, and the decoder
    # refuses every symbol fed after it, new, conflicting or a duplicate.
    spec = CodecSpec("sparse_parity", 200, 400, 4, seed=11)
    rng = random.Random(15)
    repairs = rng.sample(range(spec.k, spec.n), spec.n - spec.k)
    rest = list(range(spec.k)) + repairs[100:]
    order = repairs[:100] + rng.sample(rest, len(rest))
    blocks = blocks_of(spec, seed=13)
    symbols = encode(spec, blocks)
    dec = SymbolDecoder(spec)
    for i in order:
        dec.add(i, symbols[i])
        if dec.complete:
            break
    close = order[: dec.distinct]
    sources = [i for i in close if i < spec.k]
    assert min(close[: spec.k]) < spec.k and min(close[spec.k :]) < spec.k
    # A source missing at the close comes in corrupt before the solve.
    missing = next(i for i in range(spec.k) if i not in close)
    assert blocks[missing] != bytes(4)
    with pytest.raises(ValueError, match="the decode has closed"):
        dec.add(missing, bytes(4))
    ref = ReferenceSparseDecoder(spec)
    for i in close:
        ref.add(i, symbols[i])
    solved = dec.blocks()
    assert solved == ref.blocks() == blocks
    assert all(solved[i] is symbols[i] for i in sources)
    held = sources[0]
    for data in (bytes(x ^ 1 for x in blocks[held]), bytes(blocks[held])):
        with pytest.raises(ValueError, match="the decode has closed"):
            dec.add(held, data)
    assert dec.distinct == len(close)
    assert dec.blocks() is solved and solved == blocks


def test_mds_refuses_a_corrupt_source_after_the_close():
    # Repairs 3 and 2 close a k=2 decode.  A corrupt source 0 fed after
    # the close, before the first blocks() call, must not reach the solve.
    spec = CodecSpec("mds", 2, 4, 3)
    symbols = encode(spec, [b"abc", b"xyz"])
    dec = SymbolDecoder(spec)
    dec.add(3, symbols[3])
    dec.add(2, symbols[2])
    assert dec.complete
    with pytest.raises(ValueError, match="the decode has closed"):
        dec.add(0, b"\x00\x00\x00")
    assert dec.distinct == 2
    assert dec.blocks() == [b"abc", b"xyz"]


@pytest.mark.parametrize("name", fec.CODEC_NAMES)
def test_the_close_is_final(name):
    spec = CodecSpec(name, 20, 20 if name == "null" else 40, 4, seed=3)
    blocks = blocks_of(spec, seed=4)
    symbols = encode(spec, blocks)
    order = random.Random(5).sample(range(spec.n), spec.n)
    dec = SymbolDecoder(spec)
    for i in order:
        dec.add(i, symbols[i])
        if dec.complete:
            break
    distinct = dec.distinct
    assert dec.complete
    held = order[0]
    late = [(i, symbols[i]) for i in order[distinct:]]  # new, and intact
    late += [(i, bytes(4)) for i in order[distinct:]]  # new, and corrupt
    late += [(held, symbols[held]), (held, bytes(4))]  # a duplicate, and a conflict
    for _ in range(2):  # before the first blocks() call, then after it
        for i, data in late:
            with pytest.raises(ValueError, match="the decode has closed"):
                dec.add(i, data)
            assert dec.distinct == distinct
        assert dec.blocks() == blocks


def sparse_systems():
    """Rows of distinct columns, some rows empty and some columns in no row."""
    columns = st.lists(st.integers(-5, 10**9), unique=True, max_size=40)
    return columns.flatmap(lambda cols: st.tuples(
        st.lists(st.lists(st.sampled_from(cols), unique=True, max_size=8) if cols
                 else st.just([]), max_size=60),
        st.just(cols),
    ))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_systems())
def test_peel_partitions_the_columns_in_a_solvable_order(system):
    rows, columns = system
    peeled, inactive = _peel(rows, columns)
    assert sorted([c for c, _ in peeled] + inactive) == sorted(columns)
    assert len({r for _, r in peeled}) == len(peeled)
    known = set(inactive)
    for c, r in peeled:
        assert c in rows[r] and c not in known
        assert set(rows[r]) - {c} <= known
        known.add(c)
    assert _peel(copy.deepcopy(rows), list(columns)) == (peeled, inactive)


def ref_support_layout(k, n, seed):
    """The repair supports as drawn by one ``random.sample`` per column."""
    rows = n - k
    per_col = max(1, min(16, rows - 1)) if rows else 0
    rng = random.Random(seed ^ 0x5DEECE66D)
    supports = [[] for _ in range(rows)]
    for col in range(k):
        for row in rng.sample(range(rows), per_col):
            supports[row].append(col)
    for row in range(rows):
        if not supports[row]:
            supports[row].append(row % k)
    return tuple(tuple(sorted(s)) for s in supports)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    k=st.integers(1, 120),
    rows=st.one_of(st.integers(0, 40), st.integers(41, 3000)),
    seed=st.integers(0, 2**31),
)
@example(k=7, rows=85, seed=1)
@example(k=7, rows=86, seed=1)
@example(k=9, rows=256, seed=3)  # a power of two: getrandbits(9), not 8
def test_support_layout_matches_sample_reference(k, rows, seed):
    # Up to 85 rows random.sample shuffles a pool (up to 21 when it picks
    # at most 5); beyond, it redraws into a set, which _support_layout
    # inlines.  The examples sit on the threshold and on a power of two.
    assert _support_layout(k, k + rows, seed) == ref_support_layout(k, k + rows, seed)


def test_support_layout_matches_sample_reference_at_bench_size():
    assert _support_layout(5525, 11050, 3) == ref_support_layout(5525, 11050, 3)


def ref_solve_core(core, width):
    """Top-bit elimination of (mask, payload) rows, lightest first, then
    back-substitution; the values of columns 0 .. width - 1."""
    pivots = {}
    for mask, const in sorted(core, key=lambda row: row[0].bit_count()):
        while mask:
            top = mask.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (mask, const)
                break
            mask ^= pivot[0]
            const ^= pivot[1]
        else:
            if const:
                raise DecodeFailureError("repairs received before the close contradict each other")
    solved = []
    for col in range(width):
        if col not in pivots:
            raise DecodeFailureError("no pivot")
        mask, const = pivots[col]
        rest = mask ^ (1 << col)
        while rest:
            low = rest & -rest
            const ^= solved[low.bit_length() - 1]
            rest ^= low
        solved.append(const)
    return solved


def random_core(rng, width, extra, sparse, skip=None):
    """Rows (mask, payload) over ``width`` columns that encode random values.

    A basis of full rank (short of column ``skip`` when given), mixed by
    row additions, comes first, then ``extra`` rows dependent on it.
    Returns the rows and the values.
    """
    values = [rng.getrandbits(64) for _ in range(width)]
    masks = []
    for col in range(width):
        if col != skip:
            above = rng.getrandbits(width)
            if sparse:
                above &= rng.getrandbits(width)
            masks.append(1 << col | above & ~((2 << col) - 1))
    for _ in range(2 * len(masks)):
        a, b = rng.randrange(len(masks)), rng.randrange(len(masks))
        if a != b:
            masks[a] ^= masks[b]
    basis = list(masks)
    for _ in range(extra):
        masks.append(functools.reduce(operator.xor, (m for m in basis if rng.random() < 0.5), 0))

    def payload(mask):
        return functools.reduce(operator.xor, (v for col, v in enumerate(values) if mask >> col & 1), 0)

    return [(m, payload(m)) for m in masks], values


core_cases = dict(
    width=st.integers(0, 40),
    extra=st.integers(0, 6),
    sparse=st.booleans(),
    seed=st.integers(0, 2**31),
)


def solve_core(core, width):
    """The values of columns 0 .. width - 1 through ``_eliminate``, raising
    on a column left open or on a zero-mask row with a nonzero payload."""
    masks, payloads = [m for m, _ in core], [p for _, p in core]
    pivots = _eliminate(masks, payloads, width)
    if any(payloads[r] for r, mask in enumerate(masks) if not mask):
        raise DecodeFailureError("the rows contradict each other")
    if len(pivots) < width:
        raise DecodeFailureError(f"columns {sorted(set(range(width)) - set(pivots))} left open")
    return [payloads[pivots[c]] for c in range(width)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(**core_cases)
def test_solve_core_matches_reference(width, extra, sparse, seed):
    rng = random.Random(seed)
    core, values = random_core(rng, width, extra, sparse)
    rng.shuffle(core)
    assert solve_core(core, width) == ref_solve_core(core, width) == values


@settings(derandomize=True, max_examples=200, deadline=None)
@given(**core_cases)
def test_solve_core_fails_on_a_corrupt_dependent_row(width, extra, sparse, seed):
    rng = random.Random(seed)
    extra = max(extra, 1)
    core, _ = random_core(rng, width, extra, sparse)
    r = len(core) - 1 - rng.randrange(extra)
    mask, payload = core[r]
    core[r] = (mask, payload ^ 1 << rng.randrange(64))
    rng.shuffle(core)
    with pytest.raises(DecodeFailureError):
        ref_solve_core(core, width)
    with pytest.raises(DecodeFailureError):
        solve_core(core, width)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(**core_cases)
def test_solve_core_fails_on_a_rank_deficient_core(width, extra, sparse, seed):
    rng = random.Random(seed)
    width = max(width, 1)
    skip = rng.randrange(width)
    core, _ = random_core(rng, width, extra, sparse, skip=skip)
    rng.shuffle(core)
    with pytest.raises(DecodeFailureError):
        ref_solve_core(core, width)
    with pytest.raises(DecodeFailureError):
        solve_core(core, width)
    # Exactly the skipped column is open: each pivot row holds its own
    # column and at most that one, and every other row is eliminated.
    masks, payloads = [m for m, _ in core], [p for _, p in core]
    pivots = _eliminate(masks, payloads, width)
    assert sorted(pivots) == [c for c in range(width) if c != skip]
    for c, r in pivots.items():
        assert masks[r] & ~(1 << skip) == 1 << c
    assert not any(masks[r] for r in set(range(len(masks))) - set(pivots.values()))
