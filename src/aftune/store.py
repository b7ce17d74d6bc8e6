"""Content-addressable tensor store.

Blobs live at ``<root>/store/<hex-digest>`` so tensors shared between
adjacent blocks (or bit-identical across steps) are physically stored
once. A new blob is written whole to ``<hex-digest>.tmp``, through
``os`` calls on a string path, and renamed into place; a digest already
stored is not written again. Blobs are not fsynced, while ledger rows
are: after a crash the newest blobs may be lost, and the blocks that
read them do not verify. The index maps boundary keys to (digest,
length, shape); logical byte accounting sums blob lengths per index
entry, independent of physical deduplication.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import numpy as np

from .grid import BoundaryKey
from .hashing import ALGORITHMS, Digest, tensor_bytes


class StoreError(Exception):
    pass


class EvidenceReleasedError(StoreError):
    """The blob for this key was pruned after verification."""


class TensorStore:
    def __init__(self, root):
        self.root = Path(root)
        self.blob_dir = self.root / "store"
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self._blob_prefix = os.path.join(self.blob_dir, "")
        self.index: dict[str, dict] = {}
        if self.index_path.exists():
            try:
                self.index = json.loads(self.index_path.read_text())
            except ValueError as e:
                raise StoreError(f"{self.index_path} is not valid JSON: {e}") \
                    from None
            if not isinstance(self.index, dict):
                raise StoreError(f"{self.index_path} is not a JSON object")
            for key, ent in self.index.items():
                if not _well_formed(ent):
                    raise StoreError(f"{self.index_path}: malformed entry "
                                     f"for {key}")

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def save_index(self) -> None:
        self.index_path.write_text(json.dumps(self.index, sort_keys=True))

    def _blob_path(self, digest_hex: str) -> str:
        return self._blob_prefix + digest_hex

    # -- writes ----------------------------------------------------------

    def put_tensor(self, key: BoundaryKey, arr: np.ndarray, digest: Digest) -> int:
        data = tensor_bytes(arr)
        return self._put(key, data, digest, shape=list(arr.shape))

    def put_bytes(self, key: BoundaryKey, data: bytes, digest: Digest) -> int:
        return self._put(key, data, digest, shape=None)

    def _put(self, key, data, digest, shape) -> int:
        path = self._blob_path(digest.hex)
        if not os.path.exists(path):
            fd = os.open(path + ".tmp", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                         0o666)
            try:
                view = memoryview(data)
                while view:  # one write may take fewer bytes than given
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(path + ".tmp", path)
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

    def has_blob(self, key: BoundaryKey) -> bool:
        ent = self.index.get(str(key))
        return ent is not None \
            and os.path.exists(self._blob_path(ent["digest"]))

    def get_bytes(self, key: BoundaryKey) -> bytes:
        return self._read(key, self._entry(key))

    def _read(self, key: BoundaryKey, ent: dict) -> bytes:
        try:
            with open(self._blob_path(ent["digest"]), "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise EvidenceReleasedError(f"evidence released for {key}") \
                from None

    def get_tensor(self, key: BoundaryKey) -> np.ndarray:
        ent = self._entry(key)
        data = self._read(key, ent)
        if ent["shape"] is None:
            raise StoreError(f"{key} holds raw bytes, not a tensor")
        if len(data) != 4 * math.prod(ent["shape"]):
            raise StoreError(f"blob of {key} holds {len(data)} bytes, which "
                             f"do not fill shape {ent['shape']}")
        return np.frombuffer(data, dtype="<f4").reshape(ent["shape"]).copy()

    # -- accounting and maintenance --------------------------------------

    def logical_bytes(self) -> int:
        return sum(ent["length"] for ent in self.index.values())

    def prune(self, keep_digests: set[str]) -> int:
        """Delete blobs whose digest is not in ``keep_digests``; index
        entries stay so pruned keys report 'evidence released'."""
        removed = 0
        for path in list(self.blob_dir.iterdir()):
            if path.name not in keep_digests:
                path.unlink()
                removed += 1
        return removed


_DIGEST_HEX = re.compile("[0-9a-f]{64}")


def _well_formed(ent) -> bool:
    """Whether ``ent`` is an index entry: a lowercase hex digest of 32
    bytes, a known algorithm, a byte length, and a shape (None for raw
    bytes)."""
    def count(v):
        return type(v) is int and v >= 0
    try:
        return bool(_DIGEST_HEX.fullmatch(ent["digest"])) \
            and ent["algo"] in ALGORITHMS and count(ent["length"]) \
            and (ent["shape"] is None
                 or isinstance(ent["shape"], list)
                 and all(count(d) for d in ent["shape"]))
    except (KeyError, TypeError):
        return False
