"""Pure-Python BLAKE3 (hash mode only, 32-byte output), batched.

No binary wheel for BLAKE3 is available in this environment, so the
algorithm is implemented from the public specification. Only the plain
hash mode is provided (no keyed hashing, no key derivation, no XOF
beyond 32 bytes).

``blake3_many`` hashes many messages in one pass, running BLAKE3's
independent 1 KiB chunks side by side as the algorithm was designed to
run. Every chunk of every message is one lane. Lane k of a 32-bit word
sits at bit 64k of a Python int, with a 32-bit zero gap above it, so one
compression function, its rounds written out as straight-line code on
16 such ints, runs every lane at once: a sum of three words carries into
the gap and is masked off, and a rotation's spill-over lands in a
neighbour's gap and is masked off too.
Lanes are sorted by block count, so lanes whose chunk has ended drop off
the top of the ints. Then the parent nodes of every multi-chunk message
are merged, a tree level at a time, with the same function. With one
lane the packed ints are the plain words and the mask is 0xFFFFFFFF, so
the same function is also the scalar path: a message of one chunk is
hashed without any packing.
"""

from __future__ import annotations

import struct

import numpy as np

_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_PERM = (2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8)

# the (a, b, c, d) state words of the four column and four diagonal mixes
_G_WORDS = ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
            (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14))

_CHUNK_LEN = 1024
_BLOCK_LEN = 64
_BLOCKS_PER_CHUNK = _CHUNK_LEN // _BLOCK_LEN

_CHUNK_START = 1
_CHUNK_END = 2
_PARENT = 4
_ROOT = 8

_MASK = 0xFFFFFFFF
_LANE_BITS = 64
_LANE_ONES = (1 << _LANE_BITS) - 1


def _compress_source() -> str:
    """The compression function, written out: 7 rounds, each 8 G-mixes
    on 16 local variables followed by the message permutation. It
    returns the 8 output words that serve as a chaining value or as the
    root digest."""
    words = ", ".join(f"m{i}" for i in range(16))
    lines = [
        "def _compress(cv, m, t0, t1, block_len, flags, iv, M):",
        "    v0, v1, v2, v3, v4, v5, v6, v7 = cv",
        "    v8, v9, v10, v11 = iv",
        "    v12, v13, v14, v15 = t0, t1, block_len, flags",
        f"    {words} = m",
        "    for _ in range(7):",
    ]
    for g, (a, b, c, d) in enumerate(_G_WORDS):
        a, b, c, d = f"v{a}", f"v{b}", f"v{c}", f"v{d}"
        for mw, rd, rb in ((f"m{2 * g}", 16, 12), (f"m{2 * g + 1}", 8, 7)):
            lines += [
                f"        {a} = ({a} + {b} + {mw}) & M",
                f"        t = {d} ^ {a}",
                f"        {d} = ((t >> {rd}) | (t << {32 - rd})) & M",
                f"        {c} = ({c} + {d}) & M",
                f"        t = {b} ^ {c}",
                f"        {b} = ((t >> {rb}) | (t << {32 - rb})) & M",
            ]
    lines += [
        f"        {words} = " + ", ".join(f"m{p}" for p in _PERM),
        "    return (" + ", ".join(f"v{i} ^ v{i + 8}" for i in range(8)) + ")",
    ]
    return "\n".join(lines) + "\n"


_namespace: dict = {}
exec(compile(_compress_source(), "<blake3-compress>", "exec"), _namespace)
_compress = _namespace["_compress"]


def _column(values) -> int:
    """One 32-bit value per lane -> one int holding value k at bit 64k."""
    gapped = np.zeros((len(values), 2), "<u4")
    gapped[:, 0] = values
    return int.from_bytes(gapped, "little")


def _words(blocks: np.ndarray, gapped: np.ndarray | None = None) -> list[int]:
    """(lanes, 16) uint32 block words -> 16 packed ints, staged through
    ``gapped``, a zeroed (16, >= lanes, 2) uint32 scratch array."""
    lanes = len(blocks)
    if gapped is None:
        gapped = np.zeros((16, lanes, 2), "<u4")
    gapped[:, :lanes, 0] = blocks.T
    return [int.from_bytes(gapped[w, :lanes], "little") for w in range(16)]


def _unpack(ints, lanes: int) -> np.ndarray:
    """Packed ints -> (lanes, len(ints)) uint32 words."""
    out = np.empty((len(ints), lanes), "<u4")
    for w, x in enumerate(ints):
        out[w] = np.frombuffer(x.to_bytes(8 * lanes, "little"), "<u4")[0::2]
    return out.T


def _repunit(lanes: int) -> int:
    """sum(1 << 64k) over ``lanes`` lanes: a word times this int is that
    word in every lane, and 0xFFFFFFFF times it is the lane mask."""
    return ((1 << (_LANE_BITS * lanes)) - 1) // _LANE_ONES


def _single_chunk(data: bytes) -> bytes:
    """Digest of a message of at most one chunk: one lane, no packing."""
    cv = _IV
    iv = _IV[:4]
    n_blocks = max(1, -(-len(data) // _BLOCK_LEN))
    for b in range(n_blocks):
        block = data[b * _BLOCK_LEN:(b + 1) * _BLOCK_LEN]
        flags = _CHUNK_START if b == 0 else 0
        if b == n_blocks - 1:
            flags |= _CHUNK_END | _ROOT
        words = struct.unpack("<16I", block.ljust(_BLOCK_LEN, b"\x00"))
        cv = _compress(cv, words, 0, 0, len(block), flags, iv, _MASK)
    return struct.pack("<8I", *cv)


def _chunk_lanes(messages):
    """Lay out every chunk of every message as a lane: full chunks first,
    then the short last chunks by falling block count, so the lanes
    still running at any block are a prefix. Returns the lane bytes
    (1 KiB each, zero-padded), per-lane arrays (chunk counter, block
    count, length of the last block, end-of-chunk flags) and, per
    message, the lanes of its chunks in order."""
    n_full = [len(data) // _CHUNK_LEN for data in messages]
    tails = sorted(
        ((-(-(len(data) % _CHUNK_LEN) // _BLOCK_LEN) or 1, m)
         for m, data in enumerate(messages)
         if len(data) % _CHUNK_LEN or not data),
        key=lambda tail: -tail[0])
    n_lanes = sum(n_full) + len(tails)
    buf = bytearray(n_lanes * _CHUNK_LEN)
    counter = np.empty(n_lanes, np.uint64)
    n_blocks = np.full(n_lanes, _BLOCKS_PER_CHUNK, np.int64)
    last_len = np.full(n_lanes, _BLOCK_LEN, np.int64)
    lanes: list[list[int]] = []
    lane = 0
    for data, k in zip(messages, n_full):
        buf[lane * _CHUNK_LEN:(lane + k) * _CHUNK_LEN] = data[:k * _CHUNK_LEN]
        counter[lane:lane + k] = np.arange(k)
        lanes.append(list(range(lane, lane + k)))
        lane += k
    for nb, m in tails:
        tail = messages[m][n_full[m] * _CHUNK_LEN:]
        buf[lane * _CHUNK_LEN:lane * _CHUNK_LEN + len(tail)] = tail
        counter[lane] = n_full[m]
        n_blocks[lane] = nb
        last_len[lane] = len(tail) - (nb - 1) * _BLOCK_LEN
        lanes[m].append(lane)
        lane += 1
    end_flags = np.full(n_lanes, _CHUNK_END, np.int64)
    for chunks in lanes:
        if len(chunks) == 1:
            end_flags[chunks[0]] |= _ROOT
    return buf, counter, n_blocks, last_len, end_flags, lanes


def blake3_many(messages) -> list[bytes]:
    """32-byte BLAKE3 hashes of ``messages``, computed together."""
    messages = [bytes(m) for m in messages]
    if len(messages) == 1 and len(messages[0]) <= _CHUNK_LEN:
        return [_single_chunk(messages[0])]
    if not messages:
        return []
    buf, counter, n_blocks, last_len, end_flags, lanes = \
        _chunk_lanes(messages)
    n_lanes = len(counter)

    # chunks, a block at a time; a lane drops off after its last block
    words = np.frombuffer(buf, "<u4").reshape(n_lanes, _BLOCKS_PER_CHUNK, 16)
    gapped = np.zeros((16, n_lanes, 2), "<u4")
    active = n_lanes - np.cumsum(np.bincount(n_blocks,
                                             minlength=_BLOCKS_PER_CHUNK + 1))
    t0 = _column(counter & np.uint64(_MASK))
    t1 = _column(counter >> np.uint64(32))
    cvs = np.empty((n_lanes, 8), "<u4")
    every_lane = _repunit(n_lanes)
    cv = [x * every_lane for x in _IV]
    for b in range(int(n_blocks[0])):
        width, after = int(active[b]), int(active[b + 1])
        rep, keep = _repunit(width), (1 << (_LANE_BITS * width)) - 1
        shift = _LANE_BITS * after
        flags = _CHUNK_START * rep if b == 0 else 0
        block_len = _BLOCK_LEN * rep
        if after < width:  # lanes [after, width) end their chunk here
            flags += _column(end_flags[after:width]) << shift
            block_len = _BLOCK_LEN * _repunit(after) \
                + (_column(last_len[after:width]) << shift)
        cv = _compress([x & keep for x in cv], _words(words[:width, b], gapped),
                       t0 & keep, t1 & keep, block_len, flags,
                       [x * rep for x in _IV[:4]], _MASK * rep)
        if after < width:
            cvs[after:width] = _unpack([x >> shift for x in cv], width - after)

    # parent nodes: one tree level of every multi-chunk message at a time
    digests: list[bytes | None] = [None] * len(messages)
    pending: dict[int, np.ndarray] = {}
    for m, chunks in enumerate(lanes):
        if len(chunks) == 1:
            digests[m] = cvs[chunks[0]].tobytes()
        else:
            pending[m] = cvs[chunks]
    while pending:
        blocks = np.concatenate([nodes[:len(nodes) // 2 * 2].reshape(-1, 16)
                                 for nodes in pending.values()])
        flags = np.concatenate([
            np.full(len(nodes) // 2,
                    _PARENT | (_ROOT if len(nodes) == 2 else 0))
            for nodes in pending.values()])
        rep = _repunit(len(blocks))
        merged = _unpack(_compress(
            [x * rep for x in _IV], _words(blocks), 0, 0, _BLOCK_LEN * rep,
            _column(flags), [x * rep for x in _IV[:4]], _MASK * rep),
            len(blocks))
        done, off = {}, 0
        for m, nodes in pending.items():
            p = len(nodes) // 2
            if len(nodes) == 2:
                digests[m] = merged[off].tobytes()
            else:
                done[m] = np.concatenate([merged[off:off + p], nodes[2 * p:]])
            off += p
        pending = done
    return digests


def blake3_digest(data: bytes) -> bytes:
    """32-byte BLAKE3 hash of ``data``."""
    return blake3_many([data])[0]
