import itertools
import random

import pytest

from dyncast.fec import (
    BadSymbolSizeError,
    CodecSpec,
    DecodeFailureError,
    NeedMoreSymbols,
    NotDecodedError,
    SymbolDecoder,
    decode,
    encode,
    epsilon_overhead,
    repair_support,
)


def blocks_of(spec, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(spec.symbol_size) for _ in range(spec.k)]


def test_null_codec_is_identity():
    spec = CodecSpec("null", 4, 4, 16)
    blocks = blocks_of(spec)
    symbols = encode(spec, blocks)
    assert [s.data for s in symbols] == blocks
    assert all(s.kind == "source" for s in symbols)
    assert decode(spec, symbols) == blocks


def test_mds_k2_n4_every_pair_decodes():
    spec = CodecSpec("mds", 2, 4, 1)
    symbols = encode(spec, [b"\x01", b"\x02"])
    for pair in itertools.combinations(symbols, 2):
        assert decode(spec, pair) == [b"\x01", b"\x02"]


def test_mds_recovers_from_repairs_only():
    spec = CodecSpec("mds", 2, 4, 3)
    blocks = [b"abc", b"xyz"]
    symbols = encode(spec, blocks)
    assert decode(spec, symbols[2:]) == blocks


def test_systematic_prefix_everywhere():
    for name, n_factor in (("null", 1), ("mds", 2), ("sparse_parity", 2)):
        spec = CodecSpec(name, 5, 5 * n_factor, 8, seed=3)
        blocks = blocks_of(spec, seed=1)
        symbols = encode(spec, blocks)
        for i in range(spec.k):
            assert symbols[i].index == i
            assert symbols[i].data == blocks[i]


def test_all_sources_present_copies_out():
    spec = CodecSpec("mds", 6, 12, 32)
    blocks = blocks_of(spec, seed=2)
    dec = SymbolDecoder(spec)
    for sym in encode(spec, blocks)[: spec.k]:
        dec.add(sym.index, sym.data)
    assert dec.complete
    assert dec.epsilon == 0
    assert dec.blocks() == blocks


def test_mds_exhaustive_small_and_sampled_large():
    # Exhaustive any-k-of-n for modest sizes; random subsets beyond.
    rng = random.Random(77)
    for k in (1, 2, 3, 4, 5, 6):
        spec = CodecSpec("mds", k, 2 * k, 4)
        blocks = blocks_of(spec, seed=k)
        symbols = encode(spec, blocks)
        for subset in itertools.combinations(symbols, k):
            assert decode(spec, subset) == blocks
    for k in (9, 12):
        spec = CodecSpec("mds", k, 2 * k, 4)
        blocks = blocks_of(spec, seed=k)
        symbols = encode(spec, blocks)
        for _ in range(200):
            subset = rng.sample(symbols, k)
            assert decode(spec, subset) == blocks


def test_mds_epsilon_zero_always():
    spec = CodecSpec("mds", 8, 16, 8)
    symbols = encode(spec, blocks_of(spec))
    rng = random.Random(5)
    for _ in range(20):
        dec = SymbolDecoder(spec)
        order = rng.sample(symbols, len(symbols))
        fed = 0
        for sym in order:
            fed += 1
            dec.add(sym.index, sym.data)
            if dec.complete:
                break
        assert fed == spec.k
        assert dec.epsilon == 0


def test_sparse_roundtrip_and_determinism():
    spec = CodecSpec("sparse_parity", 60, 120, 16, seed=11)
    blocks = blocks_of(spec, seed=4)
    symbols = encode(spec, blocks)
    again = encode(spec, blocks)
    assert [s.data for s in symbols] == [s.data for s in again]
    other = encode(CodecSpec("sparse_parity", 60, 120, 16, seed=12), blocks)
    assert [s.data for s in symbols[60:]] != [s.data for s in other[60:]]
    rng = random.Random(6)
    received = rng.sample(symbols, 90)
    dec = SymbolDecoder(spec)
    for sym in received:
        dec.add(sym.index, sym.data)
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
    order = rng.sample(symbols, len(symbols))
    # hand recount: feed the full decoder, count distinct until it closes
    dec = SymbolDecoder(spec)
    distinct = 0
    for sym in order:
        if dec.add(sym.index, sym.data) == "new":
            distinct += 1
        if dec.complete:
            break
    expected = (distinct - spec.k) / spec.k * 100.0
    got = epsilon_overhead(spec, [s.index for s in order])
    assert got == pytest.approx(expected)
    assert dec.blocks() == blocks


def test_duplicates_and_conflicts():
    spec = CodecSpec("mds", 3, 6, 4)
    symbols = encode(spec, blocks_of(spec))
    dec = SymbolDecoder(spec)
    assert dec.add(0, symbols[0].data) == "new"
    assert dec.add(0, symbols[0].data) == "duplicate"
    with pytest.raises(DecodeFailureError):
        dec.add(0, b"\xff\xff\xff\xff")
    with pytest.raises(ValueError):
        dec.add(6, symbols[0].data)
    with pytest.raises(DecodeFailureError):
        dec.add(1, b"short")


def test_insufficient_symbols_raise():
    spec = CodecSpec("mds", 4, 8, 4)
    symbols = encode(spec, blocks_of(spec))
    with pytest.raises(NeedMoreSymbols):
        decode(spec, symbols[:3])
    dec = SymbolDecoder(spec)
    dec.add(0, symbols[0].data)
    assert not dec.complete
    with pytest.raises(NeedMoreSymbols):
        dec.blocks()
    with pytest.raises(NotDecodedError):
        _ = dec.epsilon


def test_sparse_rank_deficit_then_closure():
    # Receiving k symbols whose equations are dependent is not enough; the
    # decoder closes only at full rank and reports the surplus as epsilon.
    spec = CodecSpec("sparse_parity", 30, 60, 4, seed=2)
    blocks = blocks_of(spec, seed=9)
    symbols = encode(spec, blocks)
    dec = SymbolDecoder(spec)
    fed = 0
    for sym in symbols[spec.k :] + symbols[: spec.k]:  # repairs first
        fed += 1
        dec.add(sym.index, sym.data)
        if dec.complete:
            break
    assert dec.complete
    assert dec.epsilon == dec.distinct - spec.k >= 0
    assert dec.blocks() == blocks


def test_epsilon_overhead_never_decodable():
    spec = CodecSpec("sparse_parity", 10, 20, 4, seed=1)
    with pytest.raises(NotDecodedError):
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
    assert symbols[2].data == b"cc\x00\x00"
    with pytest.raises(BadSymbolSizeError):
        encode(spec, [b"aaaa", b"bb", b"cccc"])  # short block not last
    with pytest.raises(BadSymbolSizeError):
        encode(spec, [b"aaaa", b"bbbb", b"ccccc"])  # overlong block
    with pytest.raises(BadSymbolSizeError):
        encode(spec, [b"aaaa", b"bbbb"])  # wrong block count
