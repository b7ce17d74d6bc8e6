"""Instrumented recording: non-interference, blob schedules, the
manifest, storage accounting, zero-storage rematerialization, and
pruning."""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from aftune.adversary import apply_scenario
from aftune.cli import main
from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig, \
    storage_estimate
from aftune.hashing import chunked_hash
from aftune.ledger import RunLedger, ledger_digest
from aftune.model import build_model, forward_block, param_bytes, train_step
from aftune.data import make_dataset
from aftune.presets import dataset_for, default_optimizer, model_for
from aftune.orchestrate import Run
from aftune.recorder import (LEDGER_FILE, RunContext, build_inference_manifest,
                             build_manifest, record_inference, record_training, rerun_rows,
                             run_uninstrumented)
from aftune.store import TensorStore
from aftune.tensors import NonFiniteError
from aftune.verifier import EVIDENCE_RELEASED

from conftest import make_manifest, record_run


def test_recording_does_not_perturb_training(tmp_path):
    manifest, result = record_run(tmp_path / "run")
    bare_state, bare_losses = run_uninstrumented(manifest)
    assert result.losses == bare_losses
    for rec, bare in zip(result.state.layers, bare_state.layers):
        assert param_bytes(rec) == param_bytes(bare)
    for l in range(len(bare_state.layers)):
        key = BoundaryKey("optimizer-state", l, 0)
        assert result.state.blob(key) == bare_state.blob(key)


# ledger digests of fixed 4-step runs: any change to what the recorder
# commits, or in which order, shows here
GOLDEN_LEDGER_DIGESTS = [
    ("sha256", dict(algo="sha256"), None,
     "29d04884363acf29ccaa5fc96006581acf1cc69013729b5cb8f0282eb75f5b3b"),
    ("zero-storage", dict(algo="sha256", ic=None, zero_storage=True), None,
     "80910af570cc4d192c509ef90d1211180b479c67b5d8f342eb1355e81ec41fd1"),
    ("blake3", dict(algo="blake3"), None,
     "6fb547e9b16053223706434118ec22188389cd0f2da4ac8273aabf6a84c9a3e9"),
    ("under-train-sha256", dict(algo="sha256"), "under-train",
     "95a2d7ba844550b282c17577deac1f5f2109916b7bcc95bdcdef8230e59fc7a4"),
    ("under-train-blake3", dict(algo="blake3"), "under-train",
     "ecd3b4b89f9c1b93fd92dd396fb3abc55f59783956e0a38764d1b9d498e50015"),
]


@pytest.mark.parametrize("kw, scenario, want",
                         [g[1:] for g in GOLDEN_LEDGER_DIGESTS],
                         ids=[g[0] for g in GOLDEN_LEDGER_DIGESTS])
def test_ledger_digest_is_golden(tmp_path, kw, scenario, want):
    manifest = make_manifest(n_steps=4, **kw)
    if scenario is None:
        record_training(manifest, tmp_path / "run")
    else:
        apply_scenario(scenario, manifest, tmp_path / "run")
    assert ledger_digest(tmp_path / "run" / LEDGER_FILE,
                         manifest["hash_algo"]) == want


def test_ledger_format_is_the_key_schedule(tmp_path):
    # parsed with struct alone: the magic, the manifest frame, then per
    # step-block row one digest per key of its schedule, in order
    manifest = make_manifest(n_steps=4, algo="sha256")
    record_training(manifest, tmp_path / "run")
    data = (tmp_path / "run" / LEDGER_FILE).read_bytes()
    assert data[:6] == b"AFTL3\x00"
    (mlen,) = struct.unpack_from("<I", data, 6)
    assert json.loads(data[10:10 + mlen]) == manifest
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    store = TensorStore(tmp_path / "run")
    chunk = 4 * manifest["grid"]["chunk_size"]  # bytes per map piece
    off, hashed, committed = 10 + mlen, 0, set()
    for j in range(grid.n_step_blocks):
        keys = grid.row_keys(j, "training")
        (rlen,) = struct.unpack_from("<I", data, off)
        assert rlen == 32 * len(keys)
        for n, key in enumerate(keys):
            digest = data[off + 4 + 32 * n:off + 36 + 32 * n]
            if store.has_blob(key):
                blob = store.get_bytes(key)
                want = hashlib.sha256(b"".join(
                    hashlib.sha256(blob[a:a + chunk]).digest()
                    for a in range(0, max(len(blob), 1), chunk))).digest()
                assert digest == want, key
                hashed += 1
        committed.update(keys)
        off += 4 + rlen
    assert off == len(data)
    assert hashed > 0
    # each committed key once
    assert len(committed) == sum(grid.n_row_keys(j, "training")
                                 for j in range(grid.n_step_blocks))
    assert committed == {k for bid in grid.block_ids()
                         for k in grid.commitment_keys(bid)}


# sha256 over every block's verification request bytes of the fixed
# 4-step sha256 run: any change to what a request carries, or in which
# order, shows here (the grid's edge outputs are not carried: the
# verifier checks their replay by digest; the ledger digests travel as
# one raw row in the block's key schedule order)
GOLDEN_REQUESTS_DIGEST = \
    "e6c5280bf620abe22604663d960f4b4bbbf35cfd606d8f41e3ac02596f664ff0"


def test_request_bytes_are_golden(tmp_path):
    record_training(make_manifest(n_steps=4, algo="sha256"), tmp_path / "run")
    run = Run.open(tmp_path / "run")
    h = hashlib.sha256()
    for _, req in run.requests(run.grid.block_ids()):
        h.update(req.to_bytes())
    assert h.hexdigest() == GOLDEN_REQUESTS_DIGEST


class _Crash(Exception):
    pass


def _raise_crash(*args):
    raise _Crash


def _record_crashed(run, k, monkeypatch):
    """Record a 6-step sha256 run into ``run``, killed at the first step
    of row k or, past the last row, just before the store index is
    written. A killed process runs no cleanup, so the index is never
    written."""
    manifest = make_manifest(n_steps=6, algo="sha256")
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    first = grid.step_blocks[k][0] if k < grid.n_step_blocks else None
    calls = []

    def step(state, batch):
        if len(calls) == first:
            raise _Crash
        calls.append(None)
        return train_step(state, batch)

    with monkeypatch.context() as m, pytest.raises(_Crash):
        m.setattr(TensorStore, "save_index", _raise_crash)
        record_training(manifest, run, step=step)


def test_crashed_recording_leaves_a_ledger_prefix(tmp_path, monkeypatch):
    manifest = make_manifest(n_steps=6, algo="sha256")
    record_training(manifest, tmp_path / "full")
    full = (tmp_path / "full" / LEDGER_FILE).read_bytes()
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    rows, n_lb = grid.n_step_blocks, grid.n_layer_blocks
    for k in range(rows + 1):
        run = tmp_path / f"crash-{k}"
        _record_crashed(run, k, monkeypatch)
        data = (run / LEDGER_FILE).read_bytes()
        assert full.startswith(data)
        assert len(RunLedger.decode(data).entries) == k * n_lb
        if k == 0:
            assert data == RunLedger(manifest).encode()
        assert not (run / "index.json").exists()
        result = CliRunner().invoke(main, ["--root", str(tmp_path), "verify",
                                           run.name])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        # every grid block gets a verdict: a sealed one has no store
        # index to read, an unsealed one has nothing to check
        reports = json.loads((run / "verify_report.json").read_text())
        assert [r["block"] for r in reports["reports"]] == \
            [str(b) for b in grid.block_ids()]
        for r in reports["reports"]:
            sealed = BlockId.parse(r["block"]).j < k
            assert r["verdict"] == (EVIDENCE_RELEASED if sealed else "fail")
            if not sealed:
                assert r["note"] == "no sealed commitment"


@pytest.mark.parametrize("isolated", [False, True])
def test_audit_of_a_crashed_recording_ends_in_verdicts(tmp_path, monkeypatch,
                                                        isolated):
    # rows 0 and 1 sealed, row 2 never was; no store index was written
    run = tmp_path / "crash"
    _record_crashed(run, 2, monkeypatch)
    extra = ["--isolated"] if isolated else []
    for plan in (["--strategy", "explicit", "--block", "1,1", "--block",
                  "0,2"], ["--m", "9"]):
        result = CliRunner().invoke(main, ["--root", str(tmp_path), "audit",
                                           "crash", *plan, *extra])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "AUDIT FAIL" in result.output
        report = json.loads((run / "audit_report.json").read_text())
        for rep in report["reports"]:
            if BlockId.parse(rep["block"]).j == 2:
                assert rep["verdict"] == "fail"
                assert rep["note"] == "no sealed commitment"
            else:
                assert rep["verdict"] == EVIDENCE_RELEASED
        assert report["verdicts"] == {r["block"]: r["verdict"]
                                      for r in report["reports"]}
    assert report["verdicts"]["0,2"] == "fail"


def _record_stopped(manifest, run, t, error):
    """Record ``manifest`` into ``run`` with step ``t`` raising ``error``."""

    def step(state, batch):
        if batch.step == t:
            raise error
        return train_step(state, batch)

    record_training(manifest, run, step=step)


def _sealed_rows_pass(root, run, manifest, sealed):
    """``verify`` of ``run`` passes every block of the first ``sealed``
    rows and fails every other block as unsealed."""
    result = CliRunner().invoke(main, ["--root", str(root), "verify", run])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    reports = json.loads((root / run / "verify_report.json")
                         .read_text())["reports"]
    assert [r["block"] for r in reports] == [str(b) for b in grid.block_ids()]
    for r in reports:
        if BlockId.parse(r["block"]).j < sealed:
            assert r["verdict"] == "pass", r
        else:
            assert (r["verdict"], r["note"]) == ("fail", "no sealed commitment")


def test_diverging_recording_keeps_its_sealed_rows_verifiable(tmp_path):
    # step 4 opens row 2 of 4: rows 0 and 1 are sealed, and their blocks
    # pass; the store index is written although the run stopped
    manifest = make_manifest(n_steps=8, algo="sha256")
    with pytest.raises(NonFiniteError, match="^step 4: non-finite"):
        _record_stopped(manifest, tmp_path / "run", 4, NonFiniteError(
            "non-finite values in a diverging step"))
    assert (tmp_path / "run" / "index.json").exists()
    _sealed_rows_pass(tmp_path, "run", manifest, 2)


def test_interrupted_recording_keeps_its_sealed_rows_verifiable(tmp_path):
    # an interrupt is not an Exception, and the index is saved all the same
    manifest = make_manifest(n_steps=8, algo="sha256")
    with pytest.raises(KeyboardInterrupt):
        _record_stopped(manifest, tmp_path / "run", 4, KeyboardInterrupt())
    assert (tmp_path / "run" / "index.json").exists()
    _sealed_rows_pass(tmp_path, "run", manifest, 2)


@pytest.mark.parametrize("grid_kw", [dict(ic=2), dict(ic=None),
                                     dict(ic=None, zero_storage=True)],
                         ids=["ic2", "inf", "zero-storage"])
def test_recording_hashes_each_row_once(tmp_path, monkeypatch, grid_kw):
    batches = []
    hash_many = RunContext.hash_many

    def counted(self, items):
        batches.append(len(items))
        return hash_many(self, items)

    monkeypatch.setattr(RunContext, "hash_many", counted)
    manifest = make_manifest(n_steps=8, algo="sha256", **grid_kw)
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))

    def keys(rows):
        return {k for bid in grid.block_ids() if bid.j < rows
                for k in grid.committed_keys(bid, "training")}

    record_training(manifest, tmp_path / "full")
    assert len(batches) == grid.n_step_blocks == 4
    assert sum(batches) == len(keys(4))
    # step 5 is the second step of row 2: that row is never hashed, and
    # the index holds exactly what the full run stored for rows 0 and 1
    batches.clear()
    with pytest.raises(NonFiniteError, match="^step 5: "):
        _record_stopped(manifest, tmp_path / "stopped", 5,
                        NonFiniteError("non-finite values"))
    assert len(batches) == 2 and sum(batches) == len(keys(2))
    full = json.loads((tmp_path / "full" / "index.json").read_text())
    stopped = json.loads((tmp_path / "stopped" / "index.json").read_text())
    sealed = {str(k) for k in keys(2)}
    assert stopped == {k: v for k, v in full.items() if k in sealed}
    assert bool(stopped) != grid.config.zero_storage
    assert {p.name for p in (tmp_path / "stopped" / "store").iterdir()} \
        == {v["digest"] for v in stopped.values()}


def _count_row_encodes(monkeypatch) -> list:
    """The rows filed from digests while the test runs: each is encoded
    as it is filed, and none is encoded again."""
    encoded = []
    append = RunLedger.append

    def counted(self, digests):
        encoded.append(len(self.blocks) // self.grid.n_layer_blocks)
        return append(self, digests)

    def encoded_again(self, j):
        raise AssertionError(f"row {j} encoded again")

    monkeypatch.setattr(RunLedger, "append", counted)
    monkeypatch.setattr(RunLedger, "_row_bytes", encoded_again)
    return encoded


@pytest.mark.parametrize("n_steps", [16, 64])
def test_recording_encodes_each_entry_once(tmp_path, monkeypatch, n_steps):
    encoded = _count_row_encodes(monkeypatch)
    result = record_training(make_manifest(n_steps=n_steps, algo="sha256"),
                             tmp_path / "run")
    assert encoded == list(range(result.ledger.grid.n_step_blocks))


def test_record_train_command_encodes_each_entry_once(tmp_path, monkeypatch):
    encoded = _count_row_encodes(monkeypatch)
    result = CliRunner().invoke(main, ["--root", str(tmp_path), "record-train",
                                       "run", "--n-steps", "16", "--algo",
                                       "sha256", "--batch-size", "8"])
    assert result.exit_code == 0, result.output
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    assert encoded == list(range(ledger.grid.n_step_blocks))
    # the report's digest is that of the ledger the run wrote
    report = json.loads((tmp_path / "run" / "record_report.json").read_text())
    assert report["ledger_digest"] == ledger_digest(
        tmp_path / "run" / LEDGER_FILE, "sha256")


def test_ledger_row_structure(tmp_path):
    manifest, result = record_run(tmp_path / "run", n_steps=8, bl=2, bs=2)
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    grid = ledger.grid
    blocks = [e.block for e in ledger.entries]
    assert blocks == grid.block_ids()  # row-major append order
    # every committed digest matches the in-memory recording
    assert ledger.encode() == result.ledger.encode()


def test_manifest_holds_no_data_digests(tmp_path):
    # every batch is a pure function of the dataset spec, the run seed
    # and the batch size, and the step-0 state of the model and optimizer
    # specs, so a client derives both edges of the grid itself
    manifest, _ = record_run(tmp_path / "run", n_steps=4)
    assert RunLedger.load(tmp_path / "run" / LEDGER_FILE).manifest == manifest
    assert sorted(manifest) == [
        "batch_size", "dataset", "grid", "hash_algo", "mode", "model",
        "optimizer", "run_seed", "schema_version"]
    assert manifest["dataset"] == {"spec": dataset_for("mlp")}


def test_checkpoint_blobs_follow_the_schedule(tmp_path):
    manifest, _ = record_run(tmp_path / "run", n_steps=8, bs=2, ic=2)
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    grid = ledger.grid
    store = TensorStore(tmp_path / "run")
    want = set(grid.checkpoint_steps(0))
    assert want == {4, 8}  # the step-0 state is derived
    for l in range(grid.config.n_layers):
        for t in range(grid.config.n_steps + 1):
            key = BoundaryKey("parameter", l, t)
            assert store.has_blob(key) == (t in want)


@pytest.mark.parametrize("ic", [2, None], ids=["ic-2", "ic-inf"])
def test_derived_tensors_are_committed_but_never_stored(tmp_path, ic):
    # the client derives the model inputs and the step-0 state from the
    # manifest and ships them itself, so the provider stores neither
    record_training(make_manifest(n_steps=8, algo="sha256", ic=ic),
                    tmp_path / "run")
    run = Run.open(tmp_path / "run")
    derived = [k for k in run.ledger.all_digests()
               if (k.kind, k.index) == ("activation", 0)
               or (k.kind in ("parameter", "optimizer-state") and k.step == 0)]
    assert len(derived) == 8 + 2 * run.config.n_layers
    assert [str(k) for k in derived if str(k) in run.store.index] == []
    for isolated in (False, True):
        reports = run.verify(run.grid.block_ids(), isolated=isolated)
        assert [r.verdict for r in reports] == ["pass"] * len(reports)


def _storage_estimate(manifest) -> dict:
    """``storage_estimate`` of ``manifest``'s run, sized from its honest
    rerun's final state and step-0 activations."""
    ctx = RunContext(manifest)
    state, _ = run_uninstrumented(manifest)
    p_total = sum(len(param_bytes(l)) for l in state.layers)
    o_total = sum(len(state.blob(BoundaryKey("optimizer-state", l, 0)))
                  for l in range(len(state.layers)))
    acts, _ = forward_block(state.layers, ctx.batch(0).inputs,
                            labels=ctx.batch(0).labels)
    sizes = [acts[ctx.grid.boundary_layer(b)].nbytes
             for b in range(ctx.grid.n_boundaries)]
    return storage_estimate(ctx.config, p_total, o_total, sizes)


@pytest.mark.parametrize("ic", [1, 2, None], ids=["ic-1", "ic-2", "ic-inf"])
@pytest.mark.parametrize("bl", [1, 2, "n_layers"])
@pytest.mark.parametrize("preset", ["mlp", "attention", "unstable"])
def test_store_holds_the_interior_boundaries_and_the_checkpoints(
        tmp_path, preset, bl, ic):
    # a replay reads the interior boundaries alone: the grid's edge outputs
    # (the input gradient, the loss head's output and its seed) are
    # committed, and checked by the block producing them, but not stored
    n_layers = len(model_for(preset)["layers"])
    manifest = make_manifest(preset, n_steps=4, ic=ic, algo="sha256",
                             bl=n_layers if bl == "n_layers" else bl)
    result = record_training(manifest, tmp_path / "run")
    grid = result.ledger.grid
    n = grid.n_layer_blocks
    # one layer block has no interior boundary, unless a layer is isolated
    assert (n == 1) == (bl == "n_layers" and preset != "unstable")
    want = {f"{kind}:{b}@{t}" for t in range(4) for b in range(1, n)
            for kind in ("activation", "gradient")}
    want |= {str(k) for i in range(n) for t in grid.checkpoint_steps(i)
             for k in grid.state_keys(i, t)}
    assert set(result.store.index) == want
    if preset != "unstable":  # the estimate takes no per-layer sizes
        assert result.bytes_written == _storage_estimate(manifest)[
            "total_bytes"]
    reports = Run.open(tmp_path / "run").verify(grid.block_ids())
    assert [r.verdict for r in reports] == ["pass"] * len(reports)


def test_an_isolated_edge_block_stores_its_edge_output(tmp_path):
    # a layer that is not deterministic drifts in replay, so the input
    # gradient of an isolated first layer is stored and compared with the
    # stored bytes within its drift, not by digest
    model = {"seed": 7, "layers": [
        {"kind": "unstable-scale", "dim": 2},
        {"kind": "linear", "d_in": 2, "d_out": 3},
        {"kind": "softmax-cross-entropy-head", "n_classes": 3}]}
    config = GridConfig(n_layers=3, n_steps=4, bl=2, bs=2, ic=2,
                        isolate_layers=(0,))
    manifest = build_manifest(model, default_optimizer(), dataset_for("mlp"),
                              config, 11, 8, "sha256")
    result = record_training(manifest, tmp_path / "run")
    assert {k for k in result.store.index if k.startswith("gradient:")} == {
        f"gradient:{b}@{t}" for b in (0, 1) for t in range(4)}
    assert not [k for k in result.store.index if k.startswith("activation:2")]
    run = Run.open(tmp_path / "run")
    for isolated in (False, True):
        reports = run.verify(run.grid.block_ids(), isolated=isolated)
        assert [r.verdict for r in reports] == ["pass"] * len(reports)


def test_run_context_derives_each_batch_once_read_only():
    manifest = make_manifest(n_steps=4)
    ctx = RunContext(manifest)
    batch = ctx.batch(3)
    assert ctx.batch(3) is batch
    fresh = make_dataset(manifest["dataset"]["spec"]).batch(
        manifest["run_seed"], 3, manifest["batch_size"])
    for got, want in ((batch.inputs, fresh.inputs),
                      (batch.labels, fresh.labels)):
        assert (got.dtype, got.shape, got.tobytes()) == \
            (want.dtype, want.shape, want.tobytes())
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0


def test_stored_digests_match_ledger(tmp_path):
    _, result = record_run(tmp_path / "run")
    ledger = result.ledger
    store = TensorStore(tmp_path / "run")
    config = ledger.grid.config
    for key, digest in ledger.all_digests().items():
        if str(key) not in store.index:
            continue  # parameters at non-checkpoint steps have no blob
        data = store.get_bytes(key)
        assert chunked_hash(data, config.chunk_size).value == digest.value


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
    o_total = sum(len(state.blob(BoundaryKey("optimizer-state", l, 0)))
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
    mat = {}
    for _, row in rerun_rows(RunContext(manifest), wanted):
        mat.update(row)
    assert set(mat) == wanted
    for key, value in mat.items():
        got = chunked_hash(value, grid.config.chunk_size)
        assert got.value == digests[key].value, str(key)


def test_record_inference_boundaries(tmp_path):
    config = GridConfig(n_layers=6, n_steps=1, bl=1, bs=1, ia=2)
    spec = model_for("mlp")
    spec["layers"] = spec["layers"][:-1]  # logits only, no loss head
    config = replace(config, n_layers=len(spec["layers"]))
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
    record_run(tmp_path / "run", n_steps=8, bl=2, bs=2, ic=2)
    keep = BlockId(0, 1)
    removed = Run.open(tmp_path / "run").prune([keep])
    assert removed > 0
    assert Run.open(tmp_path / "run").verify([keep])[0].verdict == "pass"
    dropped = Run.open(tmp_path / "run").verify([BlockId(2, 3)])[0]
    assert dropped.verdict == EVIDENCE_RELEASED


def test_prune_rejects_uncommitted_block(tmp_path):
    record_run(tmp_path / "run")
    with pytest.raises(ValueError):
        Run.open(tmp_path / "run").prune([BlockId(9, 9)])
