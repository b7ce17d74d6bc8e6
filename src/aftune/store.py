"""Content-addressable tensor store.

Blobs live at ``<root>/store/<hex-digest>`` so tensors shared between
adjacent blocks (or bit-identical across steps) are physically stored
once. The index maps boundary keys to (digest, length, shape); logical
byte accounting sums blob lengths per index entry, independent of
physical deduplication.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .grid import BoundaryKey
from .hashing import Digest, chunked_hash_many, tensor_bytes


class StoreError(Exception):
    pass


class EvidenceReleasedError(StoreError):
    """The blob for this key was pruned after verification."""


class TensorStore:
    def __init__(self, root):
        self.root = Path(root)
        self.blob_dir = self.root / "store"
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self.index: dict[str, dict] = {}
        if self.index_path.exists():
            self.index = json.loads(self.index_path.read_text())

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def save_index(self) -> None:
        self.index_path.write_text(json.dumps(self.index, sort_keys=True))

    def _blob_path(self, digest: Digest) -> Path:
        return self.blob_dir / digest.hex

    # -- writes ----------------------------------------------------------

    def put_tensor(self, key: BoundaryKey, arr: np.ndarray, digest: Digest) -> int:
        data = tensor_bytes(arr)
        return self._put(key, data, digest, shape=list(arr.shape))

    def put_bytes(self, key: BoundaryKey, data: bytes, digest: Digest) -> int:
        return self._put(key, data, digest, shape=None)

    def _put(self, key, data, digest, shape) -> int:
        path = self._blob_path(digest)
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        self.index[str(key)] = {
            "digest": digest.hex, "algo": digest.algo,
            "length": len(data), "shape": shape,
        }
        return len(data)

    # -- reads -----------------------------------------------------------

    def _entry(self, key: BoundaryKey) -> dict:
        ent = self.index.get(str(key))
        if ent is None:
            raise StoreError(f"no index entry for {key}")
        return ent

    def has_key(self, key: BoundaryKey) -> bool:
        return str(key) in self.index

    def has_blob(self, key: BoundaryKey) -> bool:
        ent = self.index.get(str(key))
        return ent is not None and self._blob_path(
            Digest.from_hex(ent["digest"], ent["algo"])).exists()

    def digest_of(self, key: BoundaryKey) -> Digest:
        ent = self._entry(key)
        return Digest.from_hex(ent["digest"], ent["algo"])

    def get_bytes(self, key: BoundaryKey) -> bytes:
        ent = self._entry(key)
        path = self._blob_path(Digest.from_hex(ent["digest"], ent["algo"]))
        if not path.exists():
            raise EvidenceReleasedError(f"evidence released for {key}")
        return path.read_bytes()

    def get_tensor(self, key: BoundaryKey) -> np.ndarray:
        ent = self._entry(key)
        data = self.get_bytes(key)
        if ent["shape"] is None:
            raise StoreError(f"{key} holds raw bytes, not a tensor")
        return np.frombuffer(data, dtype="<f4").reshape(ent["shape"]).copy()

    # -- accounting and maintenance --------------------------------------

    def logical_bytes(self) -> int:
        return sum(ent["length"] for ent in self.index.values())

    def physical_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.blob_dir.iterdir())

    def verify_integrity(self, chunk_size: int) -> list[str]:
        """Re-hash every reachable blob, each distinct blob once and all
        blobs of one algorithm in one batch; returns keys that fail."""
        blobs: dict[str, dict[str, bytes]] = {}
        for ent in self.index.values():
            path = self.blob_dir / ent["digest"]
            held = blobs.setdefault(ent["algo"], {})
            if ent["digest"] not in held and path.exists():
                held[ent["digest"]] = path.read_bytes()
        bad = set()
        for algo, held in blobs.items():
            got = chunked_hash_many(list(held.values()), chunk_size, algo)
            bad.update((algo, name) for name, d in zip(held, got)
                       if d.hex != name)
        return [key_s for key_s, ent in self.index.items()
                if (ent["algo"], ent["digest"]) in bad]

    def prune(self, keep_digests: set[str]) -> int:
        """Delete blobs whose digest is not in ``keep_digests``; index
        entries stay so pruned keys report 'evidence released'."""
        removed = 0
        for path in list(self.blob_dir.iterdir()):
            if path.name not in keep_digests:
                path.unlink()
                removed += 1
        return removed
