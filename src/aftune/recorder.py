"""Instrumented training/inference: capture boundary states, hash them,
write blobs and checkpoints, and seal the run ledger row by row."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import make_dataset
from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import Digest, chunked_hash_many, label_bytes
from .ledger import RunLedger, seal_block
from .model import (ModelState, build_model, forward_block, param_bytes,
                    params_digest, train_step)
from .store import TensorStore
from .tensors import NonFiniteError

LEDGER_FILE = "ledger.bin"
PARAMS_DIR = "params"  # an inference run's served parameters, one blob a layer


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
        self.batch(0)  # a dataset that yields no batch raises here

    def fresh_state(self) -> ModelState:
        return ModelState(self.manifest["model"], self.manifest["optimizer"])

    def batch(self, t: int):
        return self.dataset.batch(self.run_seed, t, self.batch_size)

    def hash_many(self, items) -> list[Digest]:
        return chunked_hash_many(items, self.config.chunk_size, self.algo)

    def boundary_tensors(self, trace, t: int) -> dict[BoundaryKey, np.ndarray]:
        """Step ``t``'s activation tensors at every grid boundary, then its
        gradient tensors."""
        idx = [self.grid.boundary_layer(b) for b in range(self.grid.n_boundaries)]
        return {BoundaryKey(kind, b, t): arrs[k]
                for kind, arrs in (("activation", trace.acts),
                                   ("gradient", trace.gacts))
                for b, k in enumerate(idx)}


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


def _run_rows(ctx: RunContext, state: ModelState, step, on_params, on_step):
    """The one training loop: run the schedule from ``state``, the fresh
    state, with ``step(state, batch)``. Calls ``on_params(state, t)`` at
    step 0 and at each step-block row's exit step, ``on_step(trace, t)``
    after each step, and yields row j once its exit parameters have been
    passed. A step that goes non-finite raises NonFiniteError naming
    it."""
    on_params(state, 0)
    for j, (a, b) in enumerate(ctx.grid.step_blocks):
        for t in range(a, b):
            try:
                trace = step(state, ctx.batch(t))
            except NonFiniteError as e:
                raise NonFiniteError(f"step {t}: {e}") from None
            on_step(trace, t)
        on_params(state, b)
        yield j


def record_training(manifest: dict, out_dir, step=train_step) -> RunResult:
    """Run instrumented training; produces ledger, store, checkpoints.

    Training results are bitwise identical to an uninstrumented run of
    the same manifest: instrumentation only reads state. ``step`` runs
    one training step (default: the honest ``train_step``). A step that
    goes non-finite ends the run with NonFiniteError after the store's
    index is saved, so the rows sealed before it stay verifiable.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(manifest)
    grid = ctx.grid
    ledger = RunLedger(manifest)
    ledger.save(out_dir / LEDGER_FILE)  # anchors on disk before step 0
    store = TensorStore(out_dir)
    state = ctx.fresh_state()
    table: dict[BoundaryKey, Digest] = {}
    losses: list[float] = []

    def commit_params(state: ModelState, t: int) -> None:
        """Hash every layer's parameters and optimizer state at step ``t``
        in one batch, and store the blobs of the layer blocks that
        checkpoint at ``t``."""
        stored = {i for i in range(grid.n_layer_blocks)
                  if t in grid.checkpoint_steps(i)}
        entries = [(key, state.blob(key), i in stored)
                   for i in range(grid.n_layer_blocks)
                   for key in grid.state_keys(i, t)]
        digests = ctx.hash_many([blob for _, blob, _ in entries])
        for (key, blob, checkpointed), digest in zip(entries, digests):
            table[key] = digest
            if checkpointed:
                store.put_bytes(key, blob, digest)

    def commit_boundaries(trace, t: int) -> None:
        """Hash the activation and gradient at every grid boundary of step
        ``t`` in one batch, and store them unless the run is
        zero-storage."""
        losses.append(trace.loss)
        tensors = ctx.boundary_tensors(trace, t)
        for (key, arr), digest in zip(tensors.items(),
                                      ctx.hash_many(list(tensors.values()))):
            table[key] = digest
            if not ctx.config.zero_storage:
                store.put_tensor(key, arr, digest)

    try:
        for j in _run_rows(ctx, state, step, commit_params,
                           commit_boundaries):
            ledger.append_row([seal_block(grid, BlockId(i, j), table)
                               for i in range(grid.n_layer_blocks)],
                              out_dir / LEDGER_FILE)
    except NonFiniteError:
        store.save_index()  # the rows sealed before it stay verifiable
        raise
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


def rerun_rows(manifest: dict, wanted: set[BoundaryKey]):
    """Deterministic rerun that yields ``(j, tensors)`` as soon as it has
    passed step-block row j: the wanted keys whose step lies in row j's
    span, its entry and exit parameter steps included. Parameters and
    optimizer states are checkpoint blobs (bytes). Stop iterating to stop
    the rerun."""
    ctx = RunContext(manifest)
    grid = ctx.grid
    row: dict[BoundaryKey, np.ndarray | bytes] = {}

    def capture_params(state: ModelState, t: int) -> None:
        for i in range(grid.n_layer_blocks):
            for key in grid.state_keys(i, t):
                if key in wanted:
                    row[key] = state.blob(key)

    def capture_boundaries(trace, t: int) -> None:
        for key, arr in ctx.boundary_tensors(trace, t).items():
            if key in wanted:
                row[key] = arr

    for j in _run_rows(ctx, ctx.fresh_state(), train_step, capture_params,
                       capture_boundaries):
        yield j, row
        # the exit parameters are the next row's entry
        b = grid.step_blocks[j][1]
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
    """Forward-only recording of ``layers``, the served parameter set, on
    ``x``: activations at every ia-th layer-block edge plus the model
    input and final output. One request = one step. The served
    parameters are saved too, so verification requests can carry them."""
    out_dir = Path(out_dir)
    (out_dir / PARAMS_DIR).mkdir(parents=True, exist_ok=True)
    for l, layer in enumerate(layers):
        (out_dir / PARAMS_DIR / f"{l}.bin").write_bytes(param_bytes(layer))
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
    keys, the checkpoints their rows' replays start from, and the
    boundary tensors those replays consume up to each block's entry."""
    keep: set[BoundaryKey] = set()
    for bid in bids:
        keep.update(grid.commitment_keys(bid))
        target = grid.step_blocks[bid.j][0]
        t0 = grid.replay_origin(bid.i, target)
        if t0 is not None:
            keep.update(grid.state_keys(bid.i, t0))
        for t in range(t0 or 0, target):
            keep.update(grid.replay_inputs(bid.i, t))
    return keep
