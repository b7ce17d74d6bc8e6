"""Map-reduce hashing: reference composition oracle, known digests,
schedule independence, and the batched BLAKE3 against a scalar one."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftune import _blake3
from aftune._blake3 import blake3_digest, blake3_many
from aftune.hashing import (ALGORITHMS, Digest, chunked_hash,
                            chunked_hash_many, hash_bytes, tensor_bytes)

# Published digests for the plain hash mode (empty input and b"abc").
BLAKE3_EMPTY = "af1349b9f5f9a1a6a0404dea36dcc9499bcb25c9adc112b7cc9a93cae41f3262"
BLAKE3_ABC = "6437b3ac38465133ffb63b75273a8db548c558465d79db03fd359c6cd5bd9d85"


def reference_chunked(data: bytes, chunk_size: int, algo: str) -> bytes:
    """Independent composition oracle: split, hash each chunk, hash the
    digest concatenation. Written directly against hashlib/blake3."""
    h = (lambda b: hashlib.sha256(b).digest()) if algo == "sha256" \
        else blake3_digest
    cb = chunk_size * 4
    m = max(1, -(-len(data) // cb))
    return h(b"".join(h(data[k * cb:(k + 1) * cb]) for k in range(m)))


def test_blake3_known_digests():
    assert blake3_digest(b"").hex() == BLAKE3_EMPTY
    assert blake3_digest(b"abc").hex() == BLAKE3_ABC


# -- scalar BLAKE3 oracle: one compression at a time, recursive tree ------

_IV = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
       0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)
_PERM = (2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8)
_M32 = 0xFFFFFFFF


def _g(v, a, b, c, d, mx, my):
    v[a] = (v[a] + v[b] + mx) & _M32
    v[d] ^= v[a]
    v[d] = ((v[d] >> 16) | (v[d] << 16)) & _M32
    v[c] = (v[c] + v[d]) & _M32
    v[b] ^= v[c]
    v[b] = ((v[b] >> 12) | (v[b] << 20)) & _M32
    v[a] = (v[a] + v[b] + my) & _M32
    v[d] ^= v[a]
    v[d] = ((v[d] >> 8) | (v[d] << 24)) & _M32
    v[c] = (v[c] + v[d]) & _M32
    v[b] ^= v[c]
    v[b] = ((v[b] >> 7) | (v[b] << 25)) & _M32


def _compress_py(cv, block_words, counter, block_len, flags):
    v = [*cv, *_IV[:4], counter & _M32, (counter >> 32) & _M32,
         block_len, flags]
    m = list(block_words)
    for r in range(7):
        _g(v, 0, 4, 8, 12, m[0], m[1])
        _g(v, 1, 5, 9, 13, m[2], m[3])
        _g(v, 2, 6, 10, 14, m[4], m[5])
        _g(v, 3, 7, 11, 15, m[6], m[7])
        _g(v, 0, 5, 10, 15, m[8], m[9])
        _g(v, 1, 6, 11, 12, m[10], m[11])
        _g(v, 2, 7, 8, 13, m[12], m[13])
        _g(v, 3, 4, 9, 14, m[14], m[15])
        if r < 6:
            m = [m[p] for p in _PERM]
    return [v[i] ^ v[i + 8] for i in range(8)]


def _words(block: bytes) -> list[int]:
    return list(struct.unpack("<16I", block.ljust(64, b"\x00")))


def _chunk_cv(chunk: bytes, index: int, root: bool) -> list[int]:
    cv = list(_IV)
    n_blocks = max(1, -(-len(chunk) // 64))
    for b in range(n_blocks):
        block = chunk[b * 64:(b + 1) * 64]
        flags = 1 if b == 0 else 0                       # CHUNK_START
        if b == n_blocks - 1:
            flags |= 2 | (8 if root else 0)              # CHUNK_END, ROOT
        cv = _compress_py(cv, _words(block), index, len(block), flags)
    return cv


def _subtree_cv(data: bytes, index: int, n_chunks: int, root: bool):
    if n_chunks == 1:
        return _chunk_cv(data, index, root)
    split = 1                        # largest power of two below n_chunks
    while split * 2 < n_chunks:
        split *= 2
    left = _subtree_cv(data[:split * 1024], index, split, False)
    right = _subtree_cv(data[split * 1024:], index + split, n_chunks - split,
                        False)
    return _compress_py(list(_IV), left + right, 0, 64,
                        4 | (8 if root else 0))  # PARENT, ROOT


def blake3_oracle(data: bytes) -> bytes:
    n_chunks = max(1, -(-len(data) // 1024))
    return struct.pack("<8I", *_subtree_cv(data, 0, n_chunks, True))


ORACLE_LENGTHS = [0, 1, 63, 64, 65, 1023, 1024, 1025, 2048, 2049, 3072, 4097,
                  9001, 41137]


def _message(n: int) -> bytes:
    return np.random.default_rng(n).integers(0, 256, size=n,
                                             dtype=np.uint8).tobytes()


def test_blake3_oracle_known_digests():
    assert blake3_oracle(b"").hex() == BLAKE3_EMPTY
    assert blake3_oracle(b"abc").hex() == BLAKE3_ABC


@pytest.mark.parametrize("n", ORACLE_LENGTHS)
def test_blake3_many_matches_scalar_oracle(n):
    data = _message(n)
    want = blake3_oracle(data)
    assert blake3_digest(data) == want
    assert blake3_many([data]) == [want]


def test_blake3_many_mixed_batches_match_scalar_oracle():
    msgs = [_message(n) for n in ORACLE_LENGTHS]
    want = [blake3_oracle(m) for m in msgs]
    assert blake3_many(msgs) == want
    assert blake3_many(msgs[::-1]) == want[::-1]
    # duplicates, and lengths interleaved so lane order differs from
    # message order
    order = [13, 0, 7, 7, 2, 12, 5, 1, 9, 3]
    assert blake3_many([msgs[k] for k in order]) == [want[k] for k in order]
    assert blake3_many([]) == []


def test_lane_packed_compress_runs_lanes_independently():
    # three lanes with distinct counters, both counter words included,
    # block lengths and flags, against one scalar compression each
    lanes = [(_words(_message(64)), 0, 64, 1),
             (_words(_message(65)[1:]), (1 << 32) + 5, 17, 2 | 8),
             (_words(_message(66)[2:]), (7 << 40) + 3, 0, 4)]
    cvs = [_compress_py(list(_IV), w, 0, 64, 0) for w, *_ in lanes]

    def pack(values):
        return sum(x << (64 * k) for k, x in enumerate(values))

    rep = pack([1] * len(lanes))
    got = _blake3._compress(
        [pack(col) for col in zip(*cvs)],
        [pack(col) for col in zip(*(w for w, *_ in lanes))],
        pack([c & _M32 for _, c, _, _ in lanes]),
        pack([c >> 32 for _, c, _, _ in lanes]),
        pack([n for _, _, n, _ in lanes]), pack([f for *_, f in lanes]),
        [x * rep for x in _IV[:4]], _M32 * rep)
    for k, (cv, (w, c, n, f)) in enumerate(zip(cvs, lanes)):
        assert [(x >> (64 * k)) & _M32 for x in got] == \
            _compress_py(cv, w, c, n, f)


_FLOAT_ARRAYS = st.builds(
    lambda n, seed: np.random.default_rng(seed).normal(size=n)
    .astype(np.float32), st.integers(0, 2000), st.integers(0, 99))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=300), _FLOAT_ARRAYS), max_size=6),
       st.integers(1, 600), st.sampled_from(ALGORITHMS))
def test_chunked_hash_many_matches_chunked_hash(items, chunk_size, algo):
    got = chunked_hash_many(items, chunk_size, algo)
    assert got == [chunked_hash(x, chunk_size, algo) for x in items]


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("n_bytes", [0, 4, 100, 4096 * 4 - 4, 4096 * 4,
                                     4096 * 4 + 4, 3 * 4096 * 4 + 40])
def test_matches_reference_composition(algo, n_bytes):
    rng = np.random.default_rng(n_bytes)
    data = rng.integers(0, 256, size=n_bytes, dtype=np.uint8).tobytes()
    got = chunked_hash(data, chunk_size=4096, algo=algo)
    assert got.value == reference_chunked(data, 4096, algo)
    assert got.algo == algo


def test_single_chunk_is_double_hash():
    # m = 1 still applies the reduce step: H(H(chunk))
    data = b"tiny"
    got = chunked_hash(data, chunk_size=4096, algo="sha256")
    assert got.value == hashlib.sha256(hashlib.sha256(data).digest()).digest()


def test_final_short_chunk_is_unpadded():
    # 9 elements with chunk_size 4: chunks of 4, 4, 1 elements
    data = bytes(range(36))
    expect = reference_chunked(data, 4, "sha256")
    assert chunked_hash(data, chunk_size=4, algo="sha256").value == expect
    # padding the tail would change the digest
    padded = hashlib.sha256(
        hashlib.sha256(data[:16]).digest()
        + hashlib.sha256(data[16:32]).digest()
        + hashlib.sha256(data[32:] + b"\x00" * 12).digest()).digest()
    assert chunked_hash(data, chunk_size=4, algo="sha256").value != padded


def test_tensor_serialization_is_row_major_le_f32():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    assert tensor_bytes(arr) == np.array([1, 2, 3, 4], "<f4").tobytes()
    # Fortran-ordered input is re-serialized row-major
    f_arr = np.asfortranarray(arr)
    assert tensor_bytes(f_arr) == tensor_bytes(arr)
    assert chunked_hash(f_arr).value == chunked_hash(arr).value


def test_array_and_bytes_inputs_agree():
    arr = np.random.default_rng(1).normal(size=(7, 5)).astype(np.float32)
    assert chunked_hash(arr).value == chunked_hash(tensor_bytes(arr)).value


def hashed_in_parts(items, cuts, chunk_size, algo):
    """``chunked_hash_many`` of ``items`` split into sub-batches at the
    sorted positions ``cuts`` (empty sub-batches included)."""
    ends = [0, *cuts, len(items)]
    return [d for a, b in zip(ends, ends[1:])
            for d in chunked_hash_many(items[a:b], chunk_size, algo)]


@pytest.mark.parametrize("workers", [2, 4, 8])
@pytest.mark.parametrize("n_elems", [1, 4095, 4096, 4097, 3 * 4096, 3 * 4096 + 1])
def test_worker_count_never_changes_digest(workers, n_elems):
    """However hashing work is shared out (each tensor alone, all in one
    batch, or ``workers`` random sub-batches), every digest is the
    same."""
    rng = np.random.default_rng(n_elems)
    items = [rng.normal(size=n).astype(np.float32)
             for n in (n_elems, 1, 4095, 4096, 4097, n_elems + 1)]
    for algo in ALGORITHMS:
        alone = [chunked_hash(x, algo=algo) for x in items]
        assert alone[0].value == \
            reference_chunked(tensor_bytes(items[0]), 4096, algo)
        assert chunked_hash_many(items, algo=algo) == alone
        for _ in range(3):
            cuts = sorted(rng.integers(0, len(items) + 1, workers - 1))
            assert hashed_in_parts(items, cuts, 4096, algo) == alone


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=2000), st.integers(1, 64),
       st.sampled_from(ALGORITHMS))
def test_reference_composition_property(data, chunk_size, algo):
    got = chunked_hash(data, chunk_size=chunk_size, algo=algo)
    assert got.value == reference_chunked(data, chunk_size, algo)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=4, max_size=400), st.data())
def test_single_bit_flip_changes_digest(data, draw):
    bit = draw.draw(st.integers(0, len(data) * 8 - 1))
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert chunked_hash(data, chunk_size=16).value \
        != chunked_hash(bytes(flipped), chunk_size=16).value


def test_chunk_size_changes_digest():
    data = bytes(range(200))
    assert chunked_hash(data, chunk_size=8).value \
        != chunked_hash(data, chunk_size=16).value


def test_digest_validation():
    d = Digest(b"\x00" * 32)
    assert Digest.from_hex(d.hex).value == d.value
    with pytest.raises(ValueError):
        Digest(b"\x00" * 31)
    with pytest.raises(ValueError):
        Digest(b"\x00" * 32, algo="md5")
    with pytest.raises(ValueError):
        chunked_hash(b"x", algo="md5")
    with pytest.raises(ValueError):
        chunked_hash(b"x", chunk_size=0)


def test_hash_bytes_plain():
    assert hash_bytes(b"abc", "sha256").value == hashlib.sha256(b"abc").digest()
    assert hash_bytes(b"abc", "blake3").hex == BLAKE3_ABC
