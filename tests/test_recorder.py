"""Instrumented recording: non-interference, blob schedules, anchors,
storage accounting, zero-storage rematerialization, and pruning."""

from __future__ import annotations

import numpy as np
import pytest

from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig, \
    storage_estimate
from aftune.hashing import chunked_hash
from aftune.ledger import RunLedger
from aftune.model import build_model, forward_block, param_bytes
from aftune.presets import dataset_for, default_optimizer, grid_for, model_for
from aftune.recorder import (LEDGER_FILE, RunContext, build_inference_manifest,
                             build_manifest, materialize_block_tensors,
                             opt_state_bytes, prune_after_verification,
                             record_inference, record_training,
                             run_uninstrumented)
from aftune.store import TensorStore
from aftune.verifier import EVIDENCE_RELEASED

from conftest import make_manifest, record_run


def test_recording_does_not_perturb_training(tmp_path):
    manifest, result = record_run(tmp_path / "run")
    bare_state, bare_losses = run_uninstrumented(manifest)
    assert result.losses == bare_losses
    for rec, bare in zip(result.state.layers, bare_state.layers):
        assert param_bytes(rec) == param_bytes(bare)
    for l in range(len(bare_state.layers)):
        assert opt_state_bytes(result.state, l) == opt_state_bytes(bare_state, l)


def test_ledger_row_structure(tmp_path):
    manifest, result = record_run(tmp_path / "run", n_steps=8, bl=2, bs=2)
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    grid = ledger.grid
    blocks = [e.block for e in ledger.entries]
    assert blocks == grid.block_ids()  # row-major append order
    # every committed digest matches the in-memory recording
    assert ledger.encode() == result.ledger.encode()


def test_manifest_anchors_are_recomputable(tmp_path):
    manifest, _ = record_run(tmp_path / "run")
    ctx = RunContext(manifest)
    for t in range(ctx.config.n_steps):
        batch = ctx.batch(t)
        chunk = ctx.config.chunk_size
        assert manifest["input_anchors"][t] == \
            chunked_hash(batch.inputs, chunk, ctx.algo).hex
        labels = np.ascontiguousarray(batch.labels, "<i8").tobytes()
        assert manifest["label_anchors"][t] == \
            chunked_hash(labels, chunk, ctx.algo).hex


def test_checkpoint_blobs_follow_the_schedule(tmp_path):
    manifest, _ = record_run(tmp_path / "run", n_steps=8, bs=2, ic=2)
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    grid = ledger.grid
    store = TensorStore(tmp_path / "run")
    want = set(grid.checkpoint_steps(0))
    assert want == {0, 4, 8}
    for l in range(grid.config.n_layers):
        for t in range(grid.config.n_steps + 1):
            key = BoundaryKey("parameter", l, t)
            assert store.has_blob(key) == (t in want)


def test_stored_digests_match_ledger(tmp_path):
    _, result = record_run(tmp_path / "run")
    ledger = result.ledger
    store = TensorStore(tmp_path / "run")
    config = ledger.grid.config
    for key, digest in ledger.all_digests().items():
        if not store.has_key(key):
            continue  # parameters at non-checkpoint steps have no blob
        data = store.get_bytes(key)
        assert chunked_hash(data, config.chunk_size).value == digest.value
    assert store.verify_integrity(config.chunk_size) == []


@pytest.mark.parametrize("kw", [
    dict(n_steps=8, bl=2, bs=2, ic=2),
    dict(n_steps=6, bl=3, bs=3, ic=1),
    dict(n_steps=5, bl=1, bs=2, ic=None),
])
def test_bytes_written_match_storage_estimate(tmp_path, kw):
    manifest, result = record_run(tmp_path / "run", **kw)
    ctx = RunContext(manifest)
    state, _ = run_uninstrumented(manifest)
    p_total = sum(len(param_bytes(l)) for l in state.layers)
    o_total = sum(len(opt_state_bytes(state, l))
                  for l in range(len(state.layers)))
    batch = ctx.batch(0)
    acts, _ = forward_block(state.layers, batch.inputs, labels=batch.labels)
    sizes = [acts[ctx.grid.boundary_layer(b)].nbytes
             for b in range(ctx.grid.n_boundaries)]
    est = storage_estimate(ctx.config, p_total, o_total, sizes)
    assert result.bytes_written == est["total_bytes"]


def test_zero_storage_records_ledger_only(tmp_path):
    manifest, result = record_run(tmp_path / "run", ic=None,
                                  zero_storage=True)
    assert result.bytes_written == 0
    assert TensorStore(tmp_path / "run").logical_bytes() == 0
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    assert len(ledger.entries) == ledger.grid.n_blocks


def test_materialized_tensors_match_ledger_digests(tmp_path):
    manifest, _ = record_run(tmp_path / "run", ic=None, zero_storage=True)
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    grid = ledger.grid
    digests = ledger.all_digests()
    wanted = set(grid.commitment_keys(BlockId(1, 1)))
    mat = materialize_block_tensors(manifest, wanted)
    assert set(mat) == wanted
    for key, arr in mat.items():
        got = chunked_hash(np.ascontiguousarray(arr).tobytes()
                           if arr.dtype == np.uint8
                           else arr, grid.config.chunk_size)
        assert got.value == digests[key].value, str(key)


def test_record_inference_boundaries(tmp_path):
    config = GridConfig(n_layers=6, n_steps=1, bl=1, bs=1, ia=2)
    spec = model_for("mlp")
    spec["layers"] = spec["layers"][:-1]  # logits only, no loss head
    config = config.with_(n_layers=len(spec["layers"]))
    layers = build_model(spec)
    manifest = build_inference_manifest(spec, config)
    x = np.ones((2, 2), np.float32)
    result = record_inference(manifest, layers, x, tmp_path / "inf")
    grid = BlockGrid(config)
    store = TensorStore(tmp_path / "inf")
    assert grid.inference_boundaries() == [0, 2, 4, 5]
    for b in range(grid.n_boundaries):
        assert store.has_blob(BoundaryKey("activation", b, 0)) \
            == (b in grid.inference_boundaries())
    assert len(result.ledger.entries) == grid.n_layer_blocks


def test_prune_keeps_requested_block_verifiable(tmp_path):
    from aftune.orchestrate import run_verification
    record_run(tmp_path / "run", n_steps=8, bl=2, bs=2, ic=2)
    keep = BlockId(0, 1)
    removed = prune_after_verification(tmp_path / "run", [keep])
    assert removed > 0
    assert run_verification(tmp_path / "run", keep).verdict == "pass"
    dropped = run_verification(tmp_path / "run", BlockId(2, 3))
    assert dropped.verdict == EVIDENCE_RELEASED


def test_prune_rejects_uncommitted_block(tmp_path):
    record_run(tmp_path / "run")
    with pytest.raises(ValueError):
        prune_after_verification(tmp_path / "run", [BlockId(9, 9)])
