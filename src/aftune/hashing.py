"""Map-reduce chunked hashing of tensors.

Tensors are flattened row-major and serialized as 4-byte little-endian
IEEE-754 bit patterns, partitioned into fixed-size chunks (the final
chunk may be short and is hashed as-is, unpadded), every chunk hashed
independently, and the concatenation of the chunk digests hashed once
more into the commitment. The result is independent of how chunk work
is scheduled across workers.

``chunked_hash_many`` commits several tensors at once: the map pieces
of all of them go to the hash in one batch, then all their reduce
inputs in a second. For BLAKE3 a batch is one lane-packed pass over
every 1 KiB chunk of every piece (see ``aftune._blake3``); SHA-256
hashes each piece with hashlib.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blake3 import blake3_many

DEFAULT_CHUNK_SIZE = 4096  # elements
DEFAULT_ALGO = "blake3"
ELEMENT_BYTES = 4

ALGORITHMS = ("blake3", "sha256")


def _sha256_many(messages) -> list[bytes]:
    return [hashlib.sha256(m).digest() for m in messages]


# each hashes a list of messages; only BLAKE3 gains from hashing them together
_HASHERS = {"blake3": blake3_many, "sha256": _sha256_many}


@dataclass(frozen=True)
class Digest:
    """32-byte hash value plus the algorithm that produced it."""

    value: bytes
    algo: str = DEFAULT_ALGO

    def __post_init__(self):
        if len(self.value) != 32:
            raise ValueError(f"digest must be 32 bytes, got {len(self.value)}")
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown hash algorithm {self.algo!r}")

    @property
    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, s: str, algo: str = DEFAULT_ALGO) -> "Digest":
        return cls(bytes.fromhex(s), algo)

    def __repr__(self):
        return f"Digest({self.algo}:{self.hex[:12]}…)"


def tensor_bytes(arr: np.ndarray) -> bytes:
    """Canonical serialization: row-major little-endian binary32."""
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def label_bytes(labels) -> bytes:
    """Canonical serialization of a step's labels: little-endian int64."""
    return np.ascontiguousarray(labels, "<i8").tobytes()


def _pieces(data: bytes | np.ndarray, chunk_size: int) -> list[bytes]:
    """The map pieces of one tensor or byte string."""
    if isinstance(data, np.ndarray):
        data = tensor_bytes(data)
    chunk_bytes = chunk_size * ELEMENT_BYTES
    if len(data) <= chunk_bytes:
        return [data]
    return [data[k:k + chunk_bytes] for k in range(0, len(data), chunk_bytes)]


def _check_args(chunk_size: int, algo: str) -> None:
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if algo not in _HASHERS:
        raise ValueError(f"unknown hash algorithm {algo!r}")


def chunked_hash_many(
    items,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    algo: str = DEFAULT_ALGO,
) -> list[Digest]:
    """``[chunked_hash(x, chunk_size, algo) for x in items]``, with the
    map pieces of all items hashed in one call and the reduce inputs in
    a second."""
    _check_args(chunk_size, algo)
    many = _HASHERS[algo]
    pieces, ends = [], []
    for x in items:
        pieces += _pieces(x, chunk_size)
        ends.append(len(pieces))
    digests = many(pieces)
    reduce_inputs = [b"".join(digests[a:b]) for a, b in zip([0] + ends, ends)]
    return [Digest(d, algo) for d in many(reduce_inputs)]


def chunked_hash(
    data: bytes | np.ndarray,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    algo: str = DEFAULT_ALGO,
    workers: int = 1,
) -> Digest:
    """Hash a tensor (or raw byte string) with the map-reduce scheme.

    ``chunk_size`` is in elements (4 bytes each). ``workers`` only affects
    wall time; the digest is identical for any worker count.
    """
    if workers <= 1:
        return chunked_hash_many([data], chunk_size, algo)[0]
    _check_args(chunk_size, algo)
    many = _HASHERS[algo]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunk_digests = pool.map(lambda piece: many([piece])[0],
                                 _pieces(data, chunk_size))
        (reduced,) = many([b"".join(chunk_digests)])
    return Digest(reduced, algo)


def hash_bytes(data: bytes, algo: str = DEFAULT_ALGO) -> Digest:
    """Plain (non-chunked) hash, for manifests and ledger framing."""
    (value,) = _HASHERS[algo]([data])
    return Digest(value, algo)
