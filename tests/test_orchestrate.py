"""Sparse-checkpoint reconstruction and the cross-block trust chain."""

from __future__ import annotations

import pytest

from aftune.grid import BlockId, BoundaryKey
from aftune.ledger import RunLedger
from aftune.model import param_bytes
from aftune.orchestrate import ReconstructionError, Run, check_trust_chain
from aftune.recorder import LEDGER_FILE
from aftune.store import TensorStore
from aftune.verifier import PASS, REFUSED

from conftest import copy_run, record_run


@pytest.mark.parametrize("ic", [2, 4])
def test_sparse_reconstruction_is_bitwise(tmp_path, ic):
    kw = dict(n_steps=8, bl=2, bs=2)
    record_run(tmp_path / "sparse", ic=ic, **kw)
    record_run(tmp_path / "dense", ic=1, **kw)
    for step in (0, 2, 4, 6, 8):
        sparse = Run.open(tmp_path / "sparse").state_at(step)
        dense = Run.open(tmp_path / "dense").state_at(step)
        assert sparse.opt.step_count == step
        for a, b in zip(sparse.layers, dense.layers):
            assert param_bytes(a) == param_bytes(b)
        for l in range(len(dense.layers)):
            key = BoundaryKey("optimizer-state", l, step)
            assert sparse.blob(key) == dense.blob(key)


def test_reconstruction_requires_step_block_boundary(mlp_run):
    with pytest.raises(ReconstructionError):
        Run.open(mlp_run["dir"]).state_at(3)


def test_reconstruction_refuses_zero_storage(tmp_path):
    record_run(tmp_path / "zs", ic=None, zero_storage=True)
    with pytest.raises(ReconstructionError):
        Run.open(tmp_path / "zs").state_at(0)


def test_reconstruction_detects_tampered_checkpoint(mlp_run, tmp_path):
    run = copy_run(mlp_run["dir"], tmp_path / "tampered")
    store = TensorStore(run)
    key = BoundaryKey("parameter", 0, 4)
    blob = store.blob_dir / store.index[str(key)]["digest"]
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0x01
    blob.write_bytes(bytes(raw))
    with pytest.raises(ReconstructionError):
        Run.open(run).state_at(4)


def test_non_deterministic_layer_needs_isolation(tmp_path):
    # same unstable model, but without a singleton block for the
    # non-deterministic layer: a block whose entry is reached by replay
    # rather than a checkpoint must be refused, naming the layer, rather
    # than checked on unverifiable bits
    from aftune.grid import GridConfig
    from aftune.presets import dataset_for, default_optimizer, model_for
    from aftune.recorder import build_manifest, record_training
    spec = model_for("unstable")
    config = GridConfig(n_layers=len(spec["layers"]), n_steps=8, bl=2, bs=2,
                        ic=2)
    manifest = build_manifest(spec, default_optimizer(),
                              dataset_for("unstable"), config, 11, 8)
    record_training(manifest, tmp_path / "bad")
    report = Run.open(tmp_path / "bad").request(BlockId(1, 1))
    assert report.verdict == REFUSED and report.block == BlockId(1, 1)
    assert "layer 2 is non-deterministic" in report.note
    with pytest.raises(ReconstructionError, match="non-deterministic"):
        Run.open(tmp_path / "bad").state_at(2)


def test_isolated_unstable_preset_verifies(tmp_path):
    _, result = record_run(tmp_path / "iso", preset="unstable", n_steps=4)
    grid = result.ledger.grid
    assert any(grid.is_isolated(i) for i in range(grid.n_layer_blocks))
    for bid in grid.block_ids():
        assert Run.open(tmp_path / "iso").verify([bid])[0].verdict == PASS


def test_trust_chain_ok_on_honest_run(mlp_run):
    ledger = RunLedger.load(mlp_run["dir"] / LEDGER_FILE)
    report = check_trust_chain(ledger, TensorStore(mlp_run["dir"]),
                               ledger.grid.block_ids())
    assert report.ok
    assert report.problems == []
    assert report.checked == len(ledger.entries)
    assert report.bad_blocks == []
    config = ledger.grid.config
    assert report.anchored["input"] == config.n_steps
    assert report.anchored["label"] == config.n_steps
    # one base-model anchor per (layer, kind) pair in row 0
    assert report.anchored["base-model"] == 2 * config.n_layers


def test_trust_chain_catches_input_anchor_mismatch(mlp_run, tmp_path):
    run = copy_run(mlp_run["dir"], tmp_path / "anchored")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.manifest["input_anchors"][0] = "0" * 64
    ledger.save(run / LEDGER_FILE)
    report = check_trust_chain(RunLedger.load(run / LEDGER_FILE),
                               TensorStore(run), ledger.grid.block_ids())
    assert not report.ok
    assert "0,0" in report.bad_blocks


def test_trust_chain_catches_neighbor_digest_conflict(mlp_run, tmp_path):
    from aftune.hashing import Digest
    run = copy_run(mlp_run["dir"], tmp_path / "conflict")
    ledger = RunLedger.load(run / LEDGER_FILE)
    # block (1,0) silently disagrees with (0,0) about their shared boundary
    entry = ledger.entry_for(BlockId(1, 0))
    key = BoundaryKey("activation", 1, 0)
    entry.entries[key] = Digest(bytes(32))
    ledger.save(run / LEDGER_FILE)
    report = check_trust_chain(RunLedger.load(run / LEDGER_FILE), None,
                               ledger.grid.block_ids())
    assert not report.ok
    assert any("conflict" in p for p in report.problems)


def test_trust_chain_recomputes_base_model_anchor(mlp_run, tmp_path):
    run = copy_run(mlp_run["dir"], tmp_path / "base")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.manifest["base_model_digest"] = "f" * 64
    ledger.save(run / LEDGER_FILE)
    grid = ledger.grid
    report = check_trust_chain(RunLedger.load(run / LEDGER_FILE),
                               TensorStore(run), grid.block_ids())
    assert not report.ok
    assert report.bad_blocks == sorted(str(BlockId(i, 0))
                                       for i in range(grid.n_layer_blocks))
