"""Content-addressed tensor store: dedup, accounting, pruning."""

from __future__ import annotations

import numpy as np
import pytest

from aftune.grid import BoundaryKey
from aftune.hashing import chunked_hash
from aftune.store import EvidenceReleasedError, StoreError, TensorStore

from conftest import record_run


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


def test_a_stored_digest_is_not_rewritten(tmp_path):
    store = TensorStore(tmp_path)
    arr = np.arange(16, dtype=np.float32)
    _put(store, _key(0), arr)
    [blob] = store.blob_dir.iterdir()
    before = blob.stat()
    _put(store, _key(1), arr)
    after = blob.stat()
    assert (after.st_ino, after.st_mtime_ns) == \
        (before.st_ino, before.st_mtime_ns)
    assert [p.name for p in store.blob_dir.iterdir()] == [blob.name]


def test_a_blob_of_several_mb_round_trips(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 1 << 19), np.float32)
    store = TensorStore(tmp_path)
    _put(store, _key(0), arr)
    store.save_index()
    [blob] = store.blob_dir.iterdir()
    assert blob.stat().st_size == arr.nbytes == 6 << 20
    assert TensorStore(tmp_path).get_tensor(_key(0)).tobytes() \
        == arr.tobytes()


def test_a_recording_leaves_no_temporary_blob(tmp_path):
    _, result = record_run(tmp_path / "run", ic=1)
    names = [p.name for p in (tmp_path / "run" / "store").iterdir()]
    assert names and not [n for n in names if n.endswith(".tmp")]
    assert set(names) == {ent["digest"]
                          for ent in result.store.index.values()}
