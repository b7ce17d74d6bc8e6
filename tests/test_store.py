"""Content-addressed tensor store: dedup, accounting, pruning."""

from __future__ import annotations

import numpy as np
import pytest

from aftune.grid import BoundaryKey
from aftune.hashing import chunked_hash
from aftune.store import EvidenceReleasedError, StoreError, TensorStore


def _key(i, t=0, kind="activation"):
    return BoundaryKey(kind, i, t)


def _put(store, key, arr):
    store.put_tensor(key, arr, chunked_hash(arr))


def test_tensor_roundtrip(tmp_path):
    store = TensorStore(tmp_path)
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    _put(store, _key(0), arr)
    store.save_index()
    back = TensorStore(tmp_path).get_tensor(_key(0))
    assert back.shape == (3, 4)
    assert back.tobytes() == arr.tobytes()


def test_identical_tensors_share_one_blob(tmp_path):
    store = TensorStore(tmp_path)
    arr = np.ones((4, 4), np.float32)
    _put(store, _key(0), arr)
    _put(store, _key(1), arr)
    [blob] = store.blob_dir.iterdir()
    assert blob.stat().st_size == arr.nbytes
    assert store.logical_bytes() == 2 * arr.nbytes  # accounting is per key


def test_bytes_blob_and_type_guard(tmp_path):
    store = TensorStore(tmp_path)
    data = b"opaque checkpoint bytes"
    store.put_bytes(_key(0, kind="parameter"), data, chunked_hash(data))
    assert store.get_bytes(_key(0, kind="parameter")) == data
    with pytest.raises(StoreError):
        store.get_tensor(_key(0, kind="parameter"))
    with pytest.raises(StoreError):
        store.get_bytes(_key(9))  # never written


def test_prune_releases_evidence(tmp_path):
    store = TensorStore(tmp_path)
    keep = np.ones(8, np.float32)
    drop = np.zeros(8, np.float32)
    _put(store, _key(0), keep)
    _put(store, _key(1), drop)
    removed = store.prune({store.index[str(_key(0))]["digest"]})
    assert removed == 1
    assert store.get_tensor(_key(0)).tobytes() == keep.tobytes()
    assert str(_key(1)) in store.index and not store.has_blob(_key(1))
    with pytest.raises(EvidenceReleasedError):
        store.get_tensor(_key(1))
