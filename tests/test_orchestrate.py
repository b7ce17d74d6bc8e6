"""Sparse-checkpoint reconstruction, row replay, and the tensors the
client derives."""

from __future__ import annotations

import numpy as np
import pytest

from aftune.data import Dataset
from aftune.grid import BlockId, BoundaryKey
from aftune.ledger import RunLedger
from aftune.model import param_bytes
from aftune.orchestrate import ReconstructionError, Run
from aftune.recorder import LEDGER_FILE
from aftune.store import TensorStore
from aftune.verifier import FAIL, HASH_MISMATCH, PASS, REFUSED

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
    # the client ships what it derives, never reading it from the store:
    # layer block 0's inputs are the manifest's batches and row 0's entry
    # state is its base model with a zeroed optimizer; the verifier's
    # hash check of each against the ledger passes
    run = Run.open(mlp_run["dir"])
    fresh = run.ctx.fresh_state()
    shipped = 0
    for _, req in run.requests(run.grid.block_ids()):
        for key, tensor in req.tensors.items():
            if key.kind == "activation" and key.derived:
                assert np.array_equal(tensor, run.ctx.batch(key.step).inputs)
            elif key.derived:
                assert tensor == fresh.blob(key)
            shipped += key.derived
    config = run.config
    assert shipped == config.n_steps + 2 * config.n_layers
    assert all(r.passed for r in run.verify(run.grid.block_ids()))


def test_trust_chain_recomputes_base_model_anchor(mlp_run, tmp_path):
    # the step-0 state is built from the manifest's model spec: a claimed
    # seed the run was not recorded with fails every row-0 block at its
    # first step-0 key
    run = copy_run(mlp_run["dir"], tmp_path / "base")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.manifest["model"]["seed"] += 1
    ledger.save(run / LEDGER_FILE)
    opened = Run.open(run)
    row0 = [BlockId(i, 0) for i in range(opened.grid.n_layer_blocks)]
    assert [(r.verdict, r.cause, r.failed_key)
            for r in opened.verify(row0)] == \
        [(FAIL, HASH_MISMATCH, str(opened.grid.state_keys(b.i, 0)[0]))
         for b in row0]


def _count_calls(monkeypatch, cls, name: str) -> list:
    """Each call of method ``cls.name`` from now on, as it happens."""
    calls = []
    method = getattr(cls, name)

    def counted(*args, **kw):
        calls.append(args[1:])
        return method(*args, **kw)
    monkeypatch.setattr(cls, name, counted)
    return calls


def test_zero_storage_verify_derives_each_batch_once(tmp_path, monkeypatch):
    # the rerun runs on the Run's own context, so the loss blocks'
    # labels and the rerun's steps read the same derived batches
    record_run(tmp_path / "zs", n_steps=64, ic=None, zero_storage=True,
               algo="sha256")
    batches = _count_calls(monkeypatch, Dataset, "batch")
    run = Run.open(tmp_path / "zs")
    assert all(r.passed for r in run.verify(run.grid.block_ids()))
    assert len(batches) == 64


@pytest.mark.parametrize("zero_storage", [True, False])
def test_verify_formats_no_key_but_for_store_lookups(tmp_path, monkeypatch,
                                                     zero_storage):
    # requests and the verifier key tensors and digests by BoundaryKey;
    # a key's string is made only where the store's index is looked up
    record_run(tmp_path / "run", ic=None if zero_storage else 2,
               zero_storage=zero_storage, algo="sha256")
    formatted = _count_calls(monkeypatch, BoundaryKey, "__str__")
    reads = [_count_calls(monkeypatch, TensorStore, name)
             for name in ("get_bytes", "get_tensor", "has_blob")]
    run = Run.open(tmp_path / "run")
    assert all(r.passed for r in run.verify(run.grid.block_ids()))
    assert len(formatted) == sum(map(len, reads))
    assert bool(formatted) != zero_storage
