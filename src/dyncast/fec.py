"""Systematic erasure codes for the block carousel.

Three codecs share one interface:

* ``null`` sends the k source blocks unprotected (n == k): RFC 5445's
  Compact No-Code scheme, decoded as ``mds`` with no repairs.
* ``mds`` evaluates the degree-(k-1) polynomial through the source
  blocks at extra points of GF(256), so any k distinct symbols rebuild
  the file (zero reception overhead, k and n capped at 255).
* ``sparse_parity`` XORs pseudo-random subsets of the source blocks,
  balanced so every block feeds 16 repairs.  Its decoder
  eliminates once, ordered by peeling with inactivation (RFC 6330
  section 5.4; Shokrollahi, "Raptor Codes", 2006), ``_peel``: a repair
  with one unknown source left solves it, and when none has, the
  lightest repair's other unknowns are set aside as inactive.  The k-th
  distinct symbol peels the repairs received so far, once: every
  missing source becomes a payload plus a mask over the inactive
  columns, which are about a third of the missing sources at k = 5525.
  The repairs peeling did not use, and every symbol after the k-th,
  are rows of a dense core over the inactive columns alone, eliminated
  once, payloads and all: the k-th symbol's rows Gauss-Jordan, eight
  columns per table of pivot combinations (the method of four Russians,
  ``_eliminate``), and each later row against the pivots as it comes.
  The decode closes when every inactive column has a pivot, a few
  symbols past k; ``blocks()`` reads the core off the pivots and
  resolves the peeled sources forward (maximum-likelihood decoding in
  the sense of RFC 5170).  A core row eliminated to an empty mask but a
  nonzero payload, which means the symbols received before the close
  contradict each other, fails the decode rather than return wrong
  bytes.

The close is final for every codec: after it ``SymbolDecoder.add``
raises ValueError and stores nothing, so the decoder holds exactly the
symbols that closed the decode, and ``blocks()`` reads those alone.

Symbol data is treated as big integers for XOR work.  GF(256) work
(the ``mds`` encode and solve) goes through one multiply-accumulate
kernel, ``_gf_combine``, bit-sliced: the coefficients are split into
their 8 bits, every group of 8 operands gets one table of its 256 XOR
combinations (four Russians again), and each output sums one table
entry per group and bit, then multiplies by x over the bits by Horner's
rule on the whole integer.  So every product is one XOR and no operand
is ever translated.  That keeps the whole module dependency free and
fast enough for file-sized symbols.

No byte of the file is held twice without need.  ``encode`` keeps a
full-length source block that cannot change, ``bytes`` or a flat
read-only view of ``bytes``, as the source symbol's data itself, so a
sender that cuts its blocks as views of the file holds the file once;
anything writable is copied.  The decoder's blocks are the received
sources themselves, and only the missing ones are new ``bytes``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

CODEC_NAMES = ("null", "mds", "sparse_parity")

# Most symbols a code may have.  The sparse code lays out one support per
# repair and the carousel one slot per symbol, so n sets the memory a
# session or a trace header asks for; the benchmark's largest n is 11050.
MAX_N = 1 << 20

# Most bytes a code's n symbols may take.  Encoding holds all of them, and
# a buffer (levels <= n symbols) has a 32-bit length on the wire; the
# benchmark's largest code is 11050 symbols of 1448 bytes, 16,000,400 bytes.
MAX_CODE_BYTES = 1 << 28


class DecodeFailureError(Exception):
    """Received symbols are mutually inconsistent or corrupt."""


@dataclass(frozen=True)
class CodecSpec:
    name: str
    k: int
    n: int
    symbol_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in CODEC_NAMES:
            raise ValueError(f"unknown codec {self.name!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < self.k:
            raise ValueError("n must be >= k")
        if self.n > MAX_N:
            raise ValueError(f"n={self.n} is above {MAX_N}, the most symbols a code may have")
        if self.symbol_size < 1:
            raise ValueError("symbol_size must be >= 1")
        if self.n * self.symbol_size > MAX_CODE_BYTES:
            raise ValueError(f"n * symbol_size = {self.n * self.symbol_size} bytes is above "
                             f"{MAX_CODE_BYTES}, the most bytes a code may hold")
        if self.name == "null" and self.n != self.k:
            raise ValueError("null codec requires n == k")
        if self.name == "mds" and not (self.k <= 255 and self.n <= 255):
            raise ValueError(f"mds codec requires k <= 255 and n <= 255, "
                             f"got k={self.k} n={self.n}")


@dataclass(frozen=True)
class FecSymbol:
    """One encoded symbol: a source when ``index < k``, else a repair.

    ``data`` is ``bytes``, or for a full-length source the caller's own
    read-only view of ``bytes`` (see ``encode``): either way it is
    ``symbol_size`` bytes that cannot change.
    """

    index: int
    data: bytes | memoryview


# ---------------------------------------------------------------------------
# GF(256) arithmetic (primitive polynomial x^8+x^4+x^3+x^2+1).

_GF_PRIM = 0x11D
_GF_EXP = [0] * 510
_GF_LOG = [0] * 256


def _init_tables() -> None:
    x = 1
    for i in range(255):
        _GF_EXP[i] = x
        _GF_LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _GF_PRIM
    for i in range(255, 510):
        _GF_EXP[i] = _GF_EXP[i - 255]


_init_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


@lru_cache(maxsize=256)
def _scale_table(c: int) -> bytes:
    return bytes(_gf_mul(c, v) for v in range(256))


# Bit b of every byte value, one table per bit of a coefficient.
_BIT_TABLES = tuple(bytes(v >> b & 1 for v in range(256)) for b in range(8))

# Below this many rows one direct translate per product is cheaper than
# a table of 256 combinations per group of 8 operands.  The break-even
# moves with the shape: at 125 operands of 1448 bytes the tables win from
# 3 rows (2.8 times faster at 10), at 10 operands of 1 byte the direct
# form wins through 20 rows.  One threshold serves every symbol size, and
# at 10 the exhaustive small-code decodes (at most 10 rows) stay direct.
_TABLE_MIN_ROWS = 10


def _gf_combine(rows, operands, size: int) -> list[bytes]:
    """sum_j rows[r][j] * operands[j] over GF(256), one output per row.

    Multiplying by c is GF(2)-linear, so sum_j c_j * v_j is the sum over
    the bits b of x^b * A_b, where A_b is the XOR of the operands whose
    coefficient has bit b set.  The coefficients are split into bits:
    for each b, one translate of all rows at once marks the set bits, and
    three shift-or-mask steps fold every 8 marks into one byte, the index
    of a group of 8 operands.  Each group's 256 XOR combinations are
    tabulated once (the method of four Russians, as in ``_eliminate``),
    and each row's 8 accumulators take one table entry per group: one
    XOR per product, no operand translated.  Horner's rule over b = 7..0
    then finishes each row, multiplying by x on the whole integer, every
    byte lane at once.  With fewer than ``_TABLE_MIN_ROWS`` rows each
    product is one direct translate instead.  An operand may be a view.
    """
    if len(rows) < _TABLE_MIN_ROWS:
        out = []
        for coeffs in rows:
            acc = 0
            for v, c in zip(operands, coeffs):
                if c:
                    acc ^= int.from_bytes(bytes(v).translate(_scale_table(c)), "big")
            out.append(acc.to_bytes(size, "big"))
        return out
    groups = -(-len(operands) // 8)
    pad = bytes(8 * groups - len(operands))
    joined = b"".join(bytes(coeffs) + pad for coeffs in rows)
    n = len(joined)  # one 8-byte lane per row and group
    # A mark at byte j of a lane moves to bit j of the lane's low byte.
    folds = ((7, int.from_bytes(b"\x03\x00" * (n // 2), "little")),
             (14, int.from_bytes(b"\x0f\x00\x00\x00" * (n // 4), "little")),
             (28, int.from_bytes(b"\xff\x00\x00\x00\x00\x00\x00\x00" * (n // 8), "little")))
    index = []  # per bit: the index of each row's group, rows outer
    for bit in _BIT_TABLES:
        marks = int.from_bytes(joined.translate(bit), "little")
        for shift, mask in folds:
            marks = (marks | marks >> shift) & mask
        index.append(marks.to_bytes(n, "little")[::8])
    acc = [[0] * len(rows) for _ in range(8)]
    for g in range(groups):
        table = [0]
        for v in operands[8 * g : 8 * g + 8]:
            v = int.from_bytes(v, "big")
            table += [t ^ v for t in table]
        for b in range(8):
            acc[b] = [a ^ table[i] for a, i in zip(acc[b], index[b][g::groups])]
    low = int.from_bytes(b"\x7f" * size, "big")
    ones = int.from_bytes(b"\x01" * size, "big")
    out = []
    for sums in zip(*acc):
        s = sums[7]
        for b in range(6, -1, -1):
            s = _times_x(s, low, ones) ^ sums[b]
        out.append(s.to_bytes(size, "big"))
    return out


def _times_x(s: int, low: int, ones: int) -> int:
    """x times every byte of ``s`` over GF(256); ``low`` holds 0x7F and
    ``ones`` 0x01 in each byte.  Bit 7 of a byte leaves as the reduction
    0x1D of its own byte, never as a carry into the next."""
    return ((s & low) << 1) ^ ((s >> 7) & ones) * (_GF_PRIM & 0xFF)


# ---------------------------------------------------------------------------
# Codec internals.


def _frozen(block) -> bool:
    """``bytes``, or a flat view of ``bytes``: data nobody can change.  A
    read-only view of a bytearray still changes with the bytearray."""
    if isinstance(block, memoryview):
        return (isinstance(block.obj, bytes) and block.c_contiguous
                and block.format == "B" and block.ndim == 1)
    return isinstance(block, bytes)


def _padded_blocks(spec: CodecSpec, blocks) -> list[bytes | memoryview]:
    blocks = list(blocks)
    if len(blocks) != spec.k:
        raise ValueError(f"expected {spec.k} blocks, got {len(blocks)}")
    out = []
    for i, block in enumerate(blocks):
        if len(block) > spec.symbol_size:
            raise ValueError(f"block {i} longer than symbol_size")
        if len(block) < spec.symbol_size:
            if i != spec.k - 1:
                raise ValueError("only the last block may be short")
            block = bytes(block).ljust(spec.symbol_size, b"\x00")
        out.append(block if _frozen(block) else bytes(block))
    return out


_COL_REPAIRS = 16  # repair rows each source block feeds (capped by row count)


@lru_cache(maxsize=8)
def _support_layout(k: int, n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Repair supports for one spec, drawn column-first.

    Every source block lands in ``_COL_REPAIRS`` distinct repair rows
    (fewer when n - k <= 16).  A receiver holding only part of the
    repairs then still touches every missing block with overwhelming
    probability; row-first draws with the same mean degree leave a tail
    of never-covered blocks and the elimination stalls far beyond k.

    Each column's rows are ``rng.sample(range(rows), per_col)``.  Above
    ``sample``'s set-size threshold that call redraws ``getrandbits``
    until the row is in range and not yet picked; the loop below makes
    the same draws without the call.  Rows fill in column order, so
    every support is already sorted.
    """
    rows = n - k
    per_col = max(1, min(_COL_REPAIRS, rows - 1)) if rows else 0
    rng = random.Random(seed ^ 0x5DEECE66D)
    supports: list[list[int]] = [[] for _ in range(rows)]
    setsize = 21  # random.sample's threshold between its two branches
    if per_col > 5:
        setsize += 4 ** math.ceil(math.log(per_col * 3, 4))
    if rows <= setsize:
        for col in range(k):
            for row in rng.sample(range(rows), per_col):
                supports[row].append(col)
    else:
        getrandbits = rng.getrandbits
        bits = rows.bit_length()
        for col in range(k):
            picked: list[int] = []
            for _ in range(per_col):
                row = getrandbits(bits)
                while row >= rows or row in picked:
                    row = getrandbits(bits)
                picked.append(row)
                supports[row].append(col)
    for row in range(rows):
        if not supports[row]:
            supports[row].append(row % k)
    return tuple(map(tuple, supports))


def repair_support(spec: CodecSpec, index: int) -> tuple[int, ...]:
    """Source indices XORed into sparse repair symbol ``index`` (k <= index < n)."""
    if not spec.k <= index < spec.n:
        raise ValueError("not a repair index")
    return _support_layout(spec.k, spec.n, spec.seed)[index - spec.k]


@lru_cache(maxsize=256)
def _log_distance_table(x: int) -> bytes:
    """log(x XOR y) for every byte y, with log(0) read as 0."""
    return bytes(_GF_LOG[x ^ y] for y in range(256))


def _interpolation_coeffs(points, targets) -> list[list[int]]:
    """Lagrange coefficients from values at ``points`` to each of ``targets``.

    Row t holds c_i with p(t) = sum_i c_i * p(points[i]) over GF(256)
    for the polynomial p of degree < len(points) through the points; no
    target may be one of the points.  Barycentric form in the log
    domain: c_i = w_i * prod_j (t - x_j) / (t - x_i), with the weights
    w_i = 1 / prod_{j != i} (x_i - x_j) computed once for all targets.
    The log distances of a whole point set are one ``translate`` and
    their product one ``sum``; the j == i term reads log(0) = 0.
    """
    exp = _GF_EXP
    xs = bytes(points)
    weight_logs = [-sum(xs.translate(_log_distance_table(x))) % 255 for x in xs]
    rows = []
    for t in targets:
        dist_logs = xs.translate(_log_distance_table(t))
        num = sum(dist_logs) % 255
        # num + w - d lies in [-254, 508]; _GF_EXP has period 255 over 510
        # entries, so a negative index still reads the right power.
        rows.append([exp[num + w - d] for w, d in zip(weight_logs, dist_logs)])
    return rows


def encode(spec: CodecSpec, blocks) -> list[FecSymbol]:
    """Produce the n symbols for k source blocks (systematic: sources first).

    A block may be any bytes-like object.  A full-length block of
    ``bytes``, or a flat read-only view of ``bytes``, becomes its source
    symbol's data as it is; any other block is copied, so changing the
    input afterwards changes no symbol.
    """
    src = _padded_blocks(spec, blocks)
    symbols = [FecSymbol(i, src[i]) for i in range(spec.k)]
    if spec.name == "null":
        return symbols
    if spec.name == "mds":
        repairs = range(spec.k, spec.n)
        coeffs = _interpolation_coeffs(range(spec.k), repairs)
        for r, data in zip(repairs, _gf_combine(coeffs, src, spec.symbol_size)):
            symbols.append(FecSymbol(r, data))
        return symbols
    # sparse_parity
    ints = [int.from_bytes(b, "big") for b in src]
    for r in range(spec.k, spec.n):
        acc = 0
        for i in repair_support(spec, r):
            acc ^= ints[i]
        symbols.append(FecSymbol(r, acc.to_bytes(spec.symbol_size, "big")))
    return symbols


def _peel(rows, columns) -> tuple[list[tuple[int, int]], list[int]]:
    """Peeling order with inactivation for a sparse GF(2) system.

    ``rows`` holds each equation's distinct unknown columns, all drawn
    from ``columns``.  Returns ``(peeled, inactive)``, a partition of the
    columns: ``peeled`` lists (column, row) pairs in which every other
    column of the row is peeled earlier or inactive, so the row solves
    its column once the inactive columns are known.  A live row with
    exactly one unresolved column is peeled on it.  When none is left,
    the lightest live row keeps its most shared column and the rest of
    its columns become inactive, which peels it next.  Columns that no
    live row reaches become inactive last, in ``columns`` order.
    """
    rows_of: dict[int, list[int]] = {c: [] for c in columns}
    for r, row in enumerate(rows):
        for c in row:
            rows_of[c].append(r)
    weight = [len(row) for row in rows]  # unresolved columns per row
    # Rows by weight, last in first out; an entry whose row has lost
    # weight since is stale.
    buckets: list[list[int]] = [[] for _ in range(max(weight, default=0) + 2)]
    for r, w in enumerate(weight):
        buckets[w].append(r)
    ripple = buckets[1]
    resolved: set[int] = set()
    peeled: list[tuple[int, int]] = []
    inactive: list[int] = []

    def resolve(c: int) -> None:
        resolved.add(c)
        for r in rows_of[c]:
            weight[r] -= 1
            buckets[weight[r]].append(r)

    while True:
        while ripple:
            r = ripple.pop()
            if weight[r] == 1:
                c = next(c for c in rows[r] if c not in resolved)
                peeled.append((c, r))
                resolve(c)
        for w in range(2, len(buckets)):
            bucket = buckets[w]
            while bucket and weight[bucket[-1]] != w:
                bucket.pop()
            if bucket:
                r = bucket.pop()
                break
        else:
            break
        live = [c for c in rows[r] if c not in resolved]
        keep = max(live, key=lambda c: len(rows_of[c]))
        for c in live:
            if c != keep:
                inactive.append(c)
                resolve(c)
    inactive += [c for c in rows_of if c not in resolved]
    return peeled, inactive


_GROUP = 8  # pivot columns cleared per lookup table in _eliminate


def _eliminate(masks: list[int], payloads: list[int], width: int) -> dict[int, int]:
    """Reduce a dense GF(2) system in place; returns {column: pivot row}.

    Row r says that the XOR of the columns set in ``masks[r]`` equals
    ``payloads[r]``.  Gauss-Jordan elimination with the method of four
    Russians (Bard, 2006; Albrecht, Bard and Hart's M4RI, 2010): the
    columns go in groups of ``_GROUP``.  For each group the rows without
    a pivot yet give one pivot per column they reach (a column none
    reaches stays open), reduced against each other so each holds one of
    the group's pivot columns; the 2**_GROUP XOR combinations of those
    pivots, an open offset read as the zero row, are tabulated once, and
    every other row clears the group's pivot columns with one table
    lookup, one mask and one payload XOR.  Afterwards a pivot row holds
    its own column and open columns only, and every other row's mask is 0.
    """
    free = list(range(len(masks)))  # rows without a pivot
    pivots: dict[int, int] = {}
    for base in range(0, width, _GROUP):
        span = min(_GROUP, width - base)
        window = (1 << span) - 1
        group: dict[int, int] = {}  # offset -> pivot row
        for j in range(span):
            for pos, r in enumerate(free):
                bits = masks[r] >> base & window
                for g, p in group.items():
                    if bits >> g & 1:
                        bits ^= masks[p] >> base & window
                if bits >> j & 1:
                    break
            else:
                continue  # column base + j stays open
            del free[pos]
            mask, payload = masks[r], payloads[r]
            for g, p in group.items():
                if mask >> (base + g) & 1:
                    mask ^= masks[p]
                    payload ^= payloads[p]
            for p in group.values():
                if masks[p] >> (base + j) & 1:
                    masks[p] ^= mask
                    payloads[p] ^= payload
            masks[r], payloads[r] = mask, payload
            group[j] = r
        table_masks, table_payloads = [0], [0]
        for j in range(span):
            mask, payload = (masks[group[j]], payloads[group[j]]) if j in group else (0, 0)
            table_masks += [m ^ mask for m in table_masks]
            table_payloads += [t ^ payload for t in table_payloads]
        for rows in (free, pivots.values()):  # this group's pivots join after
            for r in rows:
                i = masks[r] >> base & window
                if i:
                    masks[r] ^= table_masks[i]
                    payloads[r] ^= table_payloads[i]
        pivots.update((base + j, p) for j, p in group.items())
    return pivots


class SymbolDecoder:
    """Incremental decoder fed one symbol at a time.

    For ``sparse_parity`` the rank cannot reach k before k distinct
    symbols, so nothing is reduced until then.  The k-th symbol
    (``_first_batch``) XORs the sources received so far out of every
    repair and peels the rest once: each peeled column becomes a *term*,
    a mask over the inactive columns plus a payload, and each repair
    peeling did not use becomes a *core row* over the inactive columns
    alone.  Every symbol after it adds one core row: a repair reduced
    through the terms, or a source as its column's term XOR its value.
    Each peeled column is fixed by its own row once the inactive columns
    are, so the rank of everything received is the sources received by
    the k-th symbol, plus the peeled columns, plus the rank of the core.
    The core is eliminated once, payloads and all: the k-th symbol's
    rows by ``_eliminate``, every later row as it comes (``_add_row``),
    and the decode closes when every inactive column has its pivot row.
    ``blocks()`` then reads the solution off them (see ``_solve_sparse``).

    The close is final: ``add`` refuses every symbol after it, so
    ``_received`` is exactly the set that closed the decode.
    """

    def __init__(self, spec: CodecSpec):
        self.spec = spec
        self._received: dict[int, bytes] = {}  # in arrival order
        self.complete = False  # True from the symbol that closes the decode on
        self._blocks: list[bytes] | None = None
        if spec.name == "sparse_parity":
            self._clear_solve_state()

    def _clear_solve_state(self) -> None:
        # The sparse solve state, set at the k-th distinct symbol: the
        # sources received by then as integers, the peeled columns' terms
        # and (column, repair) pairs in peel order, the inactive columns,
        # the core rows, and core column -> its pivot row.
        self._values: dict[int, int] = {}
        self._terms: dict[int, tuple[int, int]] = {}
        self._peeled: list[tuple[int, int]] = []
        self._inactive: list[int] = []
        self._masks: list[int] = []
        self._payloads: list[int] = []
        self._pivots: dict[int, int] = {}

    # -- feeding ---------------------------------------------------------

    def add(self, index: int, data: bytes) -> None:
        """Feed one symbol; a duplicate is checked and not stored.

        Raises ValueError once the decode has closed.
        """
        spec = self.spec
        if self.complete:
            raise ValueError("the decode has closed; it takes no more symbols")
        if not 0 <= index < spec.n:
            raise ValueError(f"symbol index {index} outside 0..{spec.n - 1}")
        if len(data) != spec.symbol_size:
            raise DecodeFailureError("symbol has the wrong size")
        if index in self._received:
            if self._received[index] != data:
                raise DecodeFailureError(f"symbol {index} received twice with different data")
            return
        self._received[index] = bytes(data)
        if spec.name == "sparse_parity":
            self._track_rank(index)
        self.complete = self._closed()

    def _track_rank(self, index: int) -> None:
        k = self.spec.k
        distinct = len(self._received)
        if distinct < k:
            return  # the rank cannot reach k before k distinct symbols
        if distinct == k:
            self._first_batch()
        elif index < k:
            mask, payload = self._terms[index]
            self._add_row(mask, payload ^ int.from_bytes(self._received[index], "big"))
        else:
            self._add_row(*self._reduced(index))

    def _first_batch(self) -> None:
        """Peel the repairs of the first k symbols into terms and core rows.

        The peel sees each repair's sources not yet received.  The terms
        follow in peel order, since a peeled row's other columns are
        inactive or peeled earlier.
        """
        k = self.spec.k
        received = self._received
        values = self._values = {i: int.from_bytes(data, "big")
                                 for i, data in received.items() if i < k}
        repairs = [j for j in received if j >= k]
        peeled, inactive = _peel(
            [[i for i in repair_support(self.spec, j) if i not in values] for j in repairs],
            [i for i in range(k) if i not in values],
        )
        self._inactive = inactive
        terms = self._terms = {i: (1 << b, 0) for b, i in enumerate(inactive)}
        self._peeled = [(c, repairs[r]) for c, r in peeled]
        for c, j in self._peeled:
            terms[c] = self._reduced(j, c)
        used = {j for _, j in self._peeled}
        core = [self._reduced(j) for j in repairs if j not in used]
        self._masks, self._payloads = [m for m, _ in core], [p for _, p in core]
        self._pivots = _eliminate(self._masks, self._payloads, len(inactive))

    def _reduced(self, index: int, own: int | None = None) -> tuple[int, int]:
        """Repair ``index`` as (mask over the inactive columns, payload).

        Every source of the repair but ``own`` moves to the payload side:
        a source received by the k-th symbol as its value, any other as
        its term.
        """
        values, terms = self._values, self._terms
        mask = 0
        const = int.from_bytes(self._received[index], "big")
        for i in repair_support(self.spec, index):
            value = values.get(i)
            if value is not None:
                const ^= value
            elif i != own:
                m, p = terms[i]
                mask ^= m
                const ^= p
        return mask, const

    def _add_row(self, mask: int, payload: int) -> None:
        """Store one core row reduced against the pivots; if open columns
        are left, it pivots on the lowest, cleared from every other pivot."""
        masks, payloads, pivots = self._masks, self._payloads, self._pivots
        for c, p in pivots.items():
            if mask >> c & 1:  # pivot rows hold no other pivot's column
                mask ^= masks[p]
                payload ^= payloads[p]
        r = len(masks)
        masks.append(mask)
        payloads.append(payload)
        if mask:
            low = mask & -mask
            for p in pivots.values():
                if masks[p] & low:
                    masks[p] ^= mask
                    payloads[p] ^= payload
            pivots[low.bit_length() - 1] = r

    def _closed(self) -> bool:
        # Any k distinct symbols of the systematic MDS codes (``null`` has
        # no others) rebuild the file; sparse ones must also reach full rank.
        if len(self._received) < self.spec.k:
            return False
        return self.spec.name != "sparse_parity" or len(self._pivots) == len(self._inactive)

    # -- results ---------------------------------------------------------

    @property
    def distinct(self) -> int:
        return len(self._received)

    def blocks(self) -> list[bytes]:
        if not self.complete:
            raise ValueError(f"decode needs more symbols (have {self.distinct} distinct)")
        if self._blocks is None:
            self._blocks = self._solve()
        return self._blocks

    def _solve(self) -> list[bytes]:
        if self.spec.name == "sparse_parity":
            return self._solve_sparse()
        return self._solve_mds()

    def _solve_sparse(self) -> list[bytes]:
        """Read the core's values off its pivot rows, then solve the peeled columns.

        At the close each pivot row is its column alone, so its payload
        is the column's value; each peeled column follows forward from
        its own repair.  Every other core row eliminated to the empty
        mask, so its payload must be zero too: this checks every repair
        and every late source against the solution.

        So each received source equals its solved value, and its block is
        the received ``bytes`` object itself; only the missing sources are
        turned back into bytes.
        """
        spec = self.spec
        values = self._values
        self._terms = {}  # the peeled payloads are no longer needed
        payloads = self._payloads
        if any(payloads[r] for r, mask in enumerate(self._masks) if not mask):
            raise DecodeFailureError("repairs received before the close contradict each other")
        values.update((c, payloads[self._pivots[b]]) for b, c in enumerate(self._inactive))
        for c, j in self._peeled:
            values[c] = self._reduced(j, c)[1]
        received = self._received
        blocks = [received[i] if i in received else values[i].to_bytes(spec.symbol_size, "big")
                  for i in range(spec.k)]
        self._clear_solve_state()
        return blocks

    def _solve_mds(self) -> list[bytes]:
        """The received sources, and the missing ones interpolated (``null`` misses none)."""
        spec = self.spec
        points = sorted(self._received)
        values = [self._received[x] for x in points]
        out: list[bytes | None] = [None] * spec.k
        for x, v in zip(points, values):
            if x < spec.k:
                out[x] = v
        missing = [t for t in range(spec.k) if out[t] is None]
        if missing:
            coeffs = _interpolation_coeffs(points, missing)
            for t, data in zip(missing, _gf_combine(coeffs, values, spec.symbol_size)):
                out[t] = data
        return out  # type: ignore[return-value]


def decode(spec: CodecSpec, received) -> list[bytes]:
    """Rebuild the k source blocks from an iterable of FecSymbols.

    Feeding stops at the close.  Raises ValueError when the set cannot
    close the decode and DecodeFailureError when symbols received before
    the close contradict each other.
    """
    dec = SymbolDecoder(spec)
    for sym in received:
        dec.add(sym.index, sym.data)
        if dec.complete:
            break
    return dec.blocks()
