"""Instrumented training/inference: capture boundary states, hash them,
write blobs and checkpoints, and seal the run ledger row by row."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, make_dataset
from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import Digest, chunked_hash_many, label_bytes
from .ledger import RunLedger, seal_block
from .model import (ModelState, build_model, build_state, forward_block,
                    param_bytes, params_digest, train_step)
from .store import TensorStore

LEDGER_FILE = "ledger.bin"


@dataclass
class RunResult:
    ledger: RunLedger
    store: TensorStore
    state: ModelState
    losses: list[float]
    bytes_written: int


class RunContext:
    """Everything needed to (re)execute a recorded training run."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.config = GridConfig.from_dict(manifest["grid"])
        self.grid = BlockGrid(self.config)
        self.dataset = make_dataset(manifest["dataset"]["spec"])
        self.run_seed = manifest["run_seed"]
        self.batch_size = manifest["batch_size"]
        self.algo = manifest["hash_algo"]

    def fresh_state(self) -> ModelState:
        return build_state(self.manifest["model"], self.manifest["optimizer"])

    def batch(self, t: int):
        return self.dataset.batch(self.run_seed, t, self.batch_size)

    def hash_many(self, items) -> list[Digest]:
        return chunked_hash_many(items, self.config.chunk_size, self.algo)

    def boundary_tensors(self, trace) -> tuple[list, list]:
        """Activation and gradient tensors at every grid boundary."""
        idx = [self.grid.boundary_layer(b) for b in range(self.grid.n_boundaries)]
        return [trace.acts[k] for k in idx], [trace.gacts[k] for k in idx]


def build_manifest(model_spec: dict, opt_spec: dict, dataset_spec: dict,
                   config: GridConfig, run_seed: int, batch_size: int,
                   algo: str = "blake3") -> dict:
    """Assemble the run manifest, including all trust anchors, before any
    training step executes."""
    dataset = make_dataset(dataset_spec)
    layers = build_model(model_spec)
    base_digest = params_digest(layers, config.chunk_size, algo)
    batches = [dataset.batch(run_seed, t, batch_size)
               for t in range(config.n_steps)]
    input_anchors = [d.hex for d in chunked_hash_many(
        [b.inputs for b in batches], config.chunk_size, algo)]
    label_anchors = [d.hex for d in chunked_hash_many(
        [label_bytes(b.labels) for b in batches], config.chunk_size, algo)]
    return {
        "mode": "training",
        "grid": config.to_dict(),
        "model": model_spec,
        "optimizer": opt_spec,
        "dataset": {"spec": dataset_spec,
                    "digest": dataset.digest(config.chunk_size, algo).hex},
        "run_seed": run_seed,
        "batch_size": batch_size,
        "hash_algo": algo,
        "base_model_digest": base_digest.hex,
        "input_anchors": input_anchors,
        "label_anchors": label_anchors,
    }


def opt_state_bytes(state: ModelState, layer_idx: int) -> bytes:
    return state.opt.state_bytes(layer_idx, state.layers[layer_idx])


def commit_params(ctx: RunContext, state: ModelState, t: int, table: dict,
                  store: TensorStore) -> None:
    """Hash every layer's parameters and optimizer state at step ``t``
    into ``table`` in one batch, and store the blobs of the layer blocks
    that checkpoint at ``t``."""
    grid = ctx.grid
    stored = {i for i in range(grid.n_layer_blocks)
              if t in grid.checkpoint_steps(i)}
    entries = [
        (BoundaryKey(kind, l, t), blob, i in stored)
        for i in range(grid.n_layer_blocks) for l in grid.block_layers(i)
        for kind, blob in (("parameter", param_bytes(state.layers[l])),
                           ("optimizer-state", opt_state_bytes(state, l)))]
    digests = ctx.hash_many([blob for _, blob, _ in entries])
    for (key, blob, checkpointed), digest in zip(entries, digests):
        table[key] = digest
        if checkpointed:
            store.put_bytes(key, blob, digest)


def commit_boundaries(ctx: RunContext, trace, t: int, table: dict,
                      store: TensorStore) -> None:
    """Hash the activation and gradient at every grid boundary of step
    ``t`` into ``table`` in one batch, and store them unless the run is
    zero-storage."""
    acts, gacts = ctx.boundary_tensors(trace)
    keys = [BoundaryKey(kind, b, t) for kind in ("activation", "gradient")
            for b in range(ctx.grid.n_boundaries)]
    tensors = acts + gacts
    for key, arr, digest in zip(keys, tensors, ctx.hash_many(tensors)):
        table[key] = digest
        if not ctx.config.zero_storage:
            store.put_tensor(key, arr, digest)


def record_training(manifest: dict, out_dir) -> RunResult:
    """Run instrumented training; produces ledger, store, checkpoints.

    Training results are bitwise identical to an uninstrumented run of
    the same manifest: instrumentation only reads state.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(manifest)
    grid, config = ctx.grid, ctx.config
    ledger = RunLedger(manifest)
    ledger.save(out_dir / LEDGER_FILE)  # anchors on disk before step 0
    store = TensorStore(out_dir)
    state = ctx.fresh_state()
    table: dict[BoundaryKey, Digest] = {}
    losses: list[float] = []
    block_starts = {a: j for j, (a, _) in enumerate(grid.step_blocks)}

    def seal_row(j: int) -> None:
        for i in range(grid.n_layer_blocks):
            ledger.append(seal_block(grid, BlockId(i, j), table))
        ledger.save(out_dir / LEDGER_FILE)

    for t in range(config.n_steps):
        j = block_starts.get(t)
        if j is not None:
            commit_params(ctx, state, t, table, store)
            if j > 0:
                seal_row(j - 1)
        trace = train_step(state, ctx.batch(t))
        losses.append(trace.loss)
        commit_boundaries(ctx, trace, t, table, store)

    commit_params(ctx, state, config.n_steps, table, store)
    seal_row(grid.n_step_blocks - 1)
    store.save_index()
    return RunResult(ledger, store, state, losses, store.logical_bytes())


def run_uninstrumented(manifest: dict) -> tuple[ModelState, list[float]]:
    """Same training loop with no recording; used as a non-interference
    oracle."""
    ctx = RunContext(manifest)
    state = ctx.fresh_state()
    losses = [train_step(state, ctx.batch(t)).loss
              for t in range(ctx.config.n_steps)]
    return state, losses


def materialize_block_tensors(manifest: dict,
                              wanted: set[BoundaryKey]) -> dict[BoundaryKey, np.ndarray]:
    """Deterministic rerun that captures only the requested boundary and
    checkpoint tensors (zero-storage verification path)."""
    out: dict[BoundaryKey, np.ndarray] = {}
    for _, row in rerun_rows(manifest, wanted):
        out.update(row)
    return out


def rerun_rows(manifest: dict, wanted: set[BoundaryKey]):
    """Deterministic rerun that yields ``(j, tensors)`` as soon as it has
    passed step-block row j: the wanted keys whose step lies in row j's
    span, its entry and exit parameter steps included. Parameters are
    float32 arrays, optimizer states uint8 arrays. Stop iterating to stop
    the rerun."""
    ctx = RunContext(manifest)
    grid, config = ctx.grid, ctx.config
    state = ctx.fresh_state()
    row: dict[BoundaryKey, np.ndarray] = {}
    param_steps = {k.step for k in wanted
                   if k.kind in ("parameter", "optimizer-state")}

    def capture_params(t: int) -> None:
        if t not in param_steps:
            return
        for l in range(config.n_layers):
            pk = BoundaryKey("parameter", l, t)
            ok = BoundaryKey("optimizer-state", l, t)
            if pk in wanted:
                row[pk] = np.frombuffer(param_bytes(state.layers[l]),
                                        dtype="<f4").copy()
            if ok in wanted:
                row[ok] = np.frombuffer(opt_state_bytes(state, l),
                                        dtype=np.uint8).copy()

    capture_params(0)
    for j, (a, b) in enumerate(grid.step_blocks):
        for t in range(a, b):
            trace = train_step(state, ctx.batch(t))
            acts, gacts = ctx.boundary_tensors(trace)
            for k in range(grid.n_boundaries):
                ak = BoundaryKey("activation", k, t)
                gk = BoundaryKey("gradient", k, t)
                if ak in wanted:
                    row[ak] = acts[k]
                if gk in wanted:
                    row[gk] = gacts[k]
            capture_params(t + 1)
        yield j, row
        # the exit parameters are the next row's entry
        row = {k: v for k, v in row.items() if k.step == b}


# -- inference ----------------------------------------------------------


def build_inference_manifest(model_spec: dict, config: GridConfig,
                             algo: str = "blake3", layers=None) -> dict:
    # layers may be a fine-tuned parameter set; default is the base init
    if layers is None:
        layers = build_model(model_spec)
    return {
        "mode": "inference",
        "grid": config.to_dict(),
        "model": model_spec,
        "hash_algo": algo,
        "model_digest": params_digest(layers, config.chunk_size, algo).hex,
    }


def record_inference(manifest: dict, layers, x: np.ndarray, out_dir) -> RunResult:
    """Forward-only recording: activations at every ia-th layer-block
    edge plus the model input and final output. One request = one step."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = GridConfig.from_dict(manifest["grid"])
    grid = BlockGrid(config)
    ledger = RunLedger(manifest)
    store = TensorStore(out_dir)
    acts, _ = forward_block(layers, x)
    keys = [BoundaryKey("activation", b, 0) for b in grid.inference_boundaries()]
    tensors = [acts[grid.boundary_layer(k.index)] for k in keys]
    table: dict[BoundaryKey, Digest] = {}
    for key, arr, digest in zip(keys, tensors, chunked_hash_many(
            tensors, config.chunk_size, manifest["hash_algo"])):
        table[key] = digest
        store.put_tensor(key, arr, digest)
    for i in range(grid.n_layer_blocks):
        ledger.append(seal_block(grid, BlockId(i, 0), table, mode="inference"))
    ledger.save(out_dir / LEDGER_FILE)
    store.save_index()
    return RunResult(ledger, store, None, [], store.logical_bytes())


# -- pruning ------------------------------------------------------------


def reference_closure(grid: BlockGrid, bids: list[BlockId]) -> set[BoundaryKey]:
    """Keys a later verification of ``bids`` may need: their commitment
    keys, the nearest prior checkpoints of their rows, and the boundary
    tensors required to replay intervening steps."""
    keep: set[BoundaryKey] = set()
    for bid in bids:
        keep.update(grid.commitment_keys(bid))
        ic = grid.checkpoint_interval(bid.i)
        if ic is None:
            continue
        j0 = (bid.j // ic) * ic
        t0 = grid.step_blocks[j0][0]
        t1 = grid.step_blocks[bid.j][0]
        for l in grid.block_layers(bid.i):
            keep.add(BoundaryKey("parameter", l, t0))
            keep.add(BoundaryKey("optimizer-state", l, t0))
        for t in range(t0, t1):
            keep.add(BoundaryKey("activation", bid.i, t))
            keep.add(BoundaryKey("gradient", bid.i + 1, t))
    return keep


def prune_after_verification(run_dir, requested: list[BlockId]) -> int:
    """Delete blobs not needed to verify the requested blocks. The ledger
    is untouched; pruned keys later report 'evidence released'."""
    from .orchestrate import Run
    return Run.open(run_dir).prune(requested)
