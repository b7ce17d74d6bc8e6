"""Instrumented training/inference: capture boundary states, hash them,
write blobs and checkpoints, and seal the run ledger row by row."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import make_dataset
from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import Digest, chunked_hash_many
from .ledger import RunLedger
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
    """Assemble the run manifest before any training step executes. It
    holds no digest: the step-0 state is a pure function of the model and
    optimizer specs, and every batch of the dataset spec, ``run_seed``
    and ``batch_size``, so a client derives both edges of the grid."""
    return {
        "mode": "training",
        "grid": config.to_dict(),
        "model": model_spec,
        "optimizer": opt_spec,
        "dataset": {"spec": dataset_spec},
        "run_seed": run_seed,
        "batch_size": batch_size,
        "hash_algo": algo,
    }


def _new_run_dir(out_dir) -> Path:
    """``out_dir``, made if missing. One that already holds a recorded
    run raises FileExistsError before anything is written: the second
    run's evidence would mix with the first's."""
    out_dir = Path(out_dir)
    if (out_dir / LEDGER_FILE).exists():
        raise FileExistsError(f"{out_dir} already holds a recorded run; "
                              f"record into a new directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


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
    one training step (default: the honest ``train_step``). Every
    tensor a step-block row commits is hashed in one batch once the
    row's last step has run, then stored (but for the model inputs and
    the step-0 state, which a client derives), then the row is sealed.
    However the run stops (a non-finite step raises NonFiniteError
    naming it), the store's index is saved, so the sealed rows stay
    verifiable; an unsealed row leaves no blob and no index record.
    ``out_dir`` must not hold a recorded run (FileExistsError).
    """
    out_dir = _new_run_dir(out_dir)
    ctx = RunContext(manifest)
    grid = ctx.grid
    ledger = RunLedger(manifest)
    ledger.save(out_dir / LEDGER_FILE)  # the manifest on disk before step 0
    store = TensorStore(out_dir)
    state = ctx.fresh_state()
    losses: list[float] = []
    # the open row's (key, tensor or blob, store write or None)
    pending: list[tuple] = []

    def commit_params(state: ModelState, t: int) -> None:
        """Queue every layer's parameters and optimizer state at step
        ``t``, to be stored for the layer blocks that checkpoint at
        ``t``."""
        stored = {i for i in range(grid.n_layer_blocks)
                  if t in grid.checkpoint_steps(i)}
        pending.extend((key, state.blob(key),
                        store.put_bytes if i in stored else None)
                       for i in range(grid.n_layer_blocks)
                       for key in grid.state_keys(i, t))

    def commit_boundaries(trace, t: int) -> None:
        """Queue the activation and gradient at every grid boundary of
        step ``t``, to be stored unless the run is zero-storage or the
        tensor is the derived model input."""
        losses.append(trace.loss)
        put = None if ctx.config.zero_storage else store.put_tensor
        pending.extend((key, arr, None if key.derived else put)
                       for key, arr in ctx.boundary_tensors(trace, t).items())

    try:
        for _ in _run_rows(ctx, state, step, commit_params,
                           commit_boundaries):
            row = dict(zip((key for key, _, _ in pending),
                           ctx.hash_many([data for _, data, _ in pending])))
            for key, data, put in pending:
                if put:
                    put(key, data, row[key])
            pending.clear()
            ledger.append_row(row, out_dir / LEDGER_FILE)
    finally:
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
    parameters are saved too, so verification requests can carry them.
    ``out_dir`` must not hold a recorded run (FileExistsError)."""
    out_dir = _new_run_dir(out_dir)
    (out_dir / PARAMS_DIR).mkdir(exist_ok=True)
    for l, layer in enumerate(layers):
        (out_dir / PARAMS_DIR / f"{l}.bin").write_bytes(param_bytes(layer))
    config = GridConfig.from_dict(manifest["grid"])
    grid = BlockGrid(config)
    ledger = RunLedger(manifest)
    store = TensorStore(out_dir)
    acts, _ = forward_block(layers, x)
    keys = grid.row_keys(0, "inference")
    tensors = [acts[grid.boundary_layer(k.index)] for k in keys]
    row = dict(zip(keys, chunked_hash_many(tensors, config.chunk_size,
                                           manifest["hash_algo"])))
    for key, arr in zip(keys, tensors):
        store.put_tensor(key, arr, row[key])
    ledger.append(row)
    ledger.save(out_dir / LEDGER_FILE)
    store.save_index()
    return RunResult(ledger, store, None, [], store.logical_bytes())


# -- pruning ------------------------------------------------------------


def reference_closure(grid: BlockGrid, bids: list[BlockId],
                      mode: str) -> set[BoundaryKey]:
    """Keys a later verification of ``bids`` of a ``mode`` run may need:
    their committed keys, the checkpoints their rows' replays start from,
    and the boundary tensors those replays consume up to each block's
    entry."""
    keep: set[BoundaryKey] = set()
    for bid in bids:
        keep.update(grid.committed_keys(bid, mode))
        target = grid.step_blocks[bid.j][0]
        t0 = grid.replay_origin(bid.i, target)
        if t0 is not None:
            keep.update(grid.state_keys(bid.i, t0))
        for t in range(t0 or 0, target):
            keep.update(grid.replay_reads(bid.i, t))
    return keep
