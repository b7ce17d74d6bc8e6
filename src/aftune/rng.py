"""Counter-based splittable randomness.

Every consumer derives its own Philox generator from (run seed, purpose
tag, step, layer), so random draws never depend on call order and any
sub-computation can be replayed in isolation bit-for-bit.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def is_seed(v) -> bool:
    """Whether ``v`` is a seed ``derive_key`` takes: a signed 64-bit int."""
    return type(v) is int and -2**63 <= v < 2**63


def derive_key(seed: int, purpose: str, step: int = 0, index: int = 0) -> tuple[int, ...]:
    raw = struct.pack("<qqq", seed, step, index) + purpose.encode()
    d = hashlib.sha256(raw).digest()
    return struct.unpack("<2Q", d[:16])


def rng_for(seed: int, purpose: str, step: int = 0, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(seed, purpose, step, index)))
