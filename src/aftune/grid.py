"""Two-dimensional (layer x step) block partitioning and recording schedules.

Block ids and boundary keys are named tuples: they are hashed, compared
and ordered as the tuple of their fields, in C, and their ``str`` is the
form every report, request and index entry uses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple


class BlockId(NamedTuple):
    i: int  # layer-block index
    j: int  # step-block index

    def __str__(self):
        return f"{self.i},{self.j}"

    @classmethod
    def parse(cls, s: str) -> "BlockId":
        i, j = s.split(",")
        return cls(int(i), int(j))


class BoundaryKey(NamedTuple):
    """Unique name of one recordable tensor.

    ``index`` is a boundary position for activations/gradients (0 is the
    model input, the last one is the final output) and a layer index for
    parameters/optimizer state. Adjacent blocks sharing a boundary map
    to the same key, which is what deduplicates storage and hashing.
    """

    kind: str   # activation | gradient | parameter | optimizer-state
    index: int
    step: int

    def __str__(self):
        return f"{self.kind}:{self.index}@{self.step}"

    @classmethod
    def parse(cls, s: str) -> "BoundaryKey":
        kind, rest = s.split(":")
        index, step = rest.split("@")
        return cls(kind, int(index), int(step))

    @property
    def derived(self) -> bool:
        """Whether a training run's client derives this tensor from the
        manifest: a model input (its step's batch) or the step-0 state."""
        if self.kind == "activation":
            return self.index == 0
        return self.kind != "gradient" and self.step == 0


@dataclass(frozen=True)
class GridConfig:
    n_layers: int
    n_steps: int
    bl: int                      # layer-block size
    bs: int                      # step-block size
    ic: int | None = 1           # checkpoint interval; None means infinity
    ia: int = 1                  # activation interval (inference only)
    chunk_size: int = 4096
    zero_storage: bool = False   # ledger-only: no blobs at all
    isolate_layers: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not all(type(v) is int for v in (
                self.n_layers, self.n_steps, self.bl, self.bs, self.ia,
                self.chunk_size, self.ic or 1, *self.isolate_layers)):
            raise TypeError("grid sizes and layer indices must be integers")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (1 <= self.bl <= self.n_layers):
            raise ValueError(f"bl must be in [1, {self.n_layers}]")
        if not (1 <= self.bs <= self.n_steps):
            raise ValueError(f"bs must be in [1, {self.n_steps}]")
        if self.ic is not None and self.ic < 1:
            raise ValueError("ic must be >= 1 (or None for infinity)")
        if self.ia < 1:
            raise ValueError("ia must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if len({l for l in self.isolate_layers if 0 <= l < self.n_layers}) \
                < len(self.isolate_layers):
            raise ValueError("isolate_layers must be distinct layer indices")

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers, "n_steps": self.n_steps,
            "bl": self.bl, "bs": self.bs, "ic": self.ic, "ia": self.ia,
            "chunk_size": self.chunk_size, "zero_storage": self.zero_storage,
            "isolate_layers": list(self.isolate_layers),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        d = dict(d)
        d["isolate_layers"] = tuple(d.get("isolate_layers", ()))
        return cls(**d)


class BlockGrid:
    """Partition of the (layer, step) plane into block cells."""

    def __init__(self, config: GridConfig):
        self.config = config
        self.layer_blocks = self._layer_partition(config)
        self._checkpoints: dict[int, tuple[int, ...]] = {}

    @cached_property
    def step_blocks(self) -> list[tuple[int, int]]:
        """Every step block's (entry, exit) steps, listed on first use."""
        return [self.commitment_boundary_steps(j)
                for j in range(self.n_step_blocks)]

    @staticmethod
    def _layer_partition(config: GridConfig):
        """Uniform blocks of bl layers (ragged tail), except that layers
        flagged for isolation become singleton blocks."""
        blocks, cur = [], []
        isolated = set(config.isolate_layers)
        for l in range(config.n_layers):
            if l in isolated:
                if cur:
                    blocks.append((cur[0], cur[-1] + 1))
                    cur = []
                blocks.append((l, l + 1))
            else:
                cur.append(l)
                if len(cur) == config.bl:
                    blocks.append((cur[0], cur[-1] + 1))
                    cur = []
        if cur:
            blocks.append((cur[0], cur[-1] + 1))
        return blocks

    # -- shape -----------------------------------------------------------

    @property
    def n_layer_blocks(self) -> int:
        return len(self.layer_blocks)

    @property
    def n_step_blocks(self) -> int:
        return -(-self.config.n_steps // self.config.bs)

    @property
    def n_blocks(self) -> int:
        return self.n_layer_blocks * self.n_step_blocks

    @property
    def n_boundaries(self) -> int:
        """Activation boundaries per step: between-block edges plus the
        model input and the final output."""
        return self.n_layer_blocks + 1

    def block_ids(self) -> list[BlockId]:
        return [BlockId(i, j) for j in range(self.n_step_blocks)
                for i in range(self.n_layer_blocks)]

    def contains(self, bid: BlockId) -> bool:
        return (0 <= bid.i < self.n_layer_blocks
                and 0 <= bid.j < self.n_step_blocks)

    def block_layers(self, i: int) -> range:
        a, b = self.layer_blocks[i]
        return range(a, b)

    def block_steps(self, j: int) -> range:
        return range(*self.commitment_boundary_steps(j))

    def boundary_layer(self, b: int) -> int:
        """Activation index (position in the per-step activation list)
        that boundary ``b`` refers to."""
        if b == self.n_layer_blocks:
            return self.config.n_layers
        return self.layer_blocks[b][0]

    def block_of(self, layer: int, step: int) -> BlockId:
        i = next(k for k, (a, b) in enumerate(self.layer_blocks) if a <= layer < b)
        j = next(k for k, (a, b) in enumerate(self.step_blocks) if a <= step < b)
        return BlockId(i, j)

    def is_isolated(self, i: int) -> bool:
        a, b = self.layer_blocks[i]
        return b - a == 1 and a in self.config.isolate_layers

    def checkpoint_interval(self, i: int) -> int | None:
        """Isolated (non-deterministic) layer blocks checkpoint at every
        step block regardless of the configured interval."""
        return 1 if self.is_isolated(i) else self.config.ic

    # -- schedules -------------------------------------------------------

    def checkpoint_steps(self, i: int) -> list[int]:
        """Steps at which layer block i's parameters/optimizer state are
        stored as checkpoint blobs: the entry of every ic-th step block
        but the first, and the delivered final state. Step 0 never is:
        the manifest derives it."""
        return list(self._checkpoint_schedule(i))

    def _checkpoint_schedule(self, i: int) -> tuple[int, ...]:
        """``checkpoint_steps(i)``, computed on first use."""
        steps = self._checkpoints.get(i)
        if steps is None:
            ic = self.checkpoint_interval(i)
            if self.config.zero_storage:
                steps = ()
            else:
                starts = [] if ic is None else \
                    [a for a, _ in self.step_blocks[ic::ic]]
                steps = tuple(sorted({*starts, self.config.n_steps}))
            self._checkpoints[i] = steps
        return steps

    def commitment_boundary_steps(self, j: int) -> tuple[int, int]:
        """Entry and exit steps of step block j (parameters are committed
        at both, whether or not a checkpoint blob is stored)."""
        bs = self.config.bs
        return j * bs, min((j + 1) * bs, self.config.n_steps)

    def inference_boundaries(self) -> list[int]:
        """Recorded boundaries for forward-only runs: every ia-th block
        edge, plus the model input and the final output."""
        sel = {0, self.n_layer_blocks}
        for b in range(self.n_layer_blocks):
            if b % self.config.ia == 0:
                sel.add(b)
        return sorted(sel)

    # -- the key schedule of a training block ------------------------------

    def state_keys(self, i: int, t: int) -> list[BoundaryKey]:
        """Parameter and optimizer-state keys of layer block i at step t,
        layer by layer."""
        return [BoundaryKey(kind, l, t) for l in self.block_layers(i)
                for kind in ("parameter", "optimizer-state")]

    def replay_inputs(self, i: int, t: int) -> tuple[BoundaryKey, BoundaryKey]:
        """The inputs of a step-t replay of layer block i: its input
        activation and the gradient flowing back into it."""
        return BoundaryKey("activation", i, t), BoundaryKey("gradient", i + 1, t)

    def replay_reads(self, i: int, t: int) -> tuple[BoundaryKey, ...]:
        """The replay inputs a step-t replay of layer block i reads: the
        last layer block backpropagates the seed its loss derives."""
        x, upstream = self.replay_inputs(i, t)
        return (x,) if i == self.n_layer_blocks - 1 else (x, upstream)

    def replay_outputs(self, i: int, t: int) -> tuple[BoundaryKey, BoundaryKey]:
        """What a step-t replay of layer block i produces: its output
        activation and the gradient it passes back."""
        return BoundaryKey("activation", i + 1, t), BoundaryKey("gradient", i, t)

    def replay_origin(self, i: int, target: int) -> int | None:
        """The stored checkpoint step a replay of layer block i to step
        ``target`` starts from; None before the first one, where the
        replay starts from the step-0 state the manifest derives."""
        steps = self._checkpoint_schedule(i)
        k = bisect.bisect_right(steps, target)
        return steps[k - 1] if k else None

    def boundary_keys(self, bid: BlockId) -> list[BoundaryKey]:
        """Activations and gradients at both edges of block (i, j), step
        by step."""
        return [BoundaryKey(kind, b, t) for t in self.block_steps(bid.j)
                for b in (bid.i, bid.i + 1)
                for kind in ("activation", "gradient")]

    def commitment_keys(self, bid: BlockId) -> list[BoundaryKey]:
        """The keys hashed into block (i, j)'s commitment set."""
        entry, exit_ = self.commitment_boundary_steps(bid.j)
        return (self.boundary_keys(bid) + self.state_keys(bid.i, entry)
                + self.state_keys(bid.i, exit_))

    def inference_commitment_keys(self, bid: BlockId) -> list[BoundaryKey]:
        bounds = self.inference_boundaries()
        lo = max(b for b in bounds if b <= bid.i)
        hi = min(b for b in bounds if b > bid.i)
        return [BoundaryKey("activation", b, 0) for b in (lo, hi)]

    def committed_keys(self, bid: BlockId, mode: str) -> list[BoundaryKey]:
        """The key schedule of a ``mode`` run: the keys block (i, j)
        commits, in the order its ledger entry holds their digests."""
        if mode == "training":
            return self.commitment_keys(bid)
        return self.inference_commitment_keys(bid)

    def row_keys(self, j: int, mode: str) -> list[BoundaryKey]:
        """The keys step-block row j of a ``mode`` run commits first, in
        the order its ledger row holds their digests. Training: row 0's
        step-0 state, then each step's activation and gradient at every
        boundary, then every layer's state at the row's exit step.
        Inference (one row): the recorded activations."""
        if mode != "training":
            return [BoundaryKey("activation", b, 0)
                    for b in self.inference_boundaries()]
        entry, exit_ = self.commitment_boundary_steps(j)
        layer_blocks = range(self.n_layer_blocks)
        return ([k for i in layer_blocks for k in self.state_keys(i, 0)]
                if j == 0 else []) \
            + [BoundaryKey(kind, b, t) for t in range(entry, exit_)
               for kind in ("activation", "gradient")
               for b in range(self.n_boundaries)] \
            + [k for i in layer_blocks for k in self.state_keys(i, exit_)]

    def n_row_keys(self, j: int, mode: str) -> int:
        """``len(row_keys(j, mode))``, counted without building the
        keys."""
        if mode != "training":
            return len(self.inference_boundaries())
        entry, exit_ = self.commitment_boundary_steps(j)
        return 2 * (self.n_boundaries * (exit_ - entry)
                    + self.config.n_layers * (2 if j == 0 else 1))


def storage_estimate(config: GridConfig, param_bytes: int, opt_bytes: int,
                     boundary_bytes) -> dict:
    """Predicted logical bytes the recorder will persist.

    ``boundary_bytes`` is either a per-boundary list of activation sizes
    or a single uniform size. Gradients mirror activation sizes; the
    model input is derived, never stored. The returned checkpoint term
    reflects the actual schedule: blobs at every ic-th step block but the
    first plus the final state, or nothing in zero-storage mode.
    """
    grid = BlockGrid(config)
    if config.zero_storage:
        return {"checkpoint_bytes": 0, "boundary_bytes": 0, "total_bytes": 0}
    # param/opt sizes are whole-model totals; without isolation every layer
    # block checkpoints at the same steps, so the count is uniform
    if config.isolate_layers:
        raise ValueError(
            "storage_estimate with isolated layers needs per-layer sizes")
    ckpt = len(grid.checkpoint_steps(0)) * (param_bytes + opt_bytes)
    if isinstance(boundary_bytes, (int, float)):
        per_boundary = [int(boundary_bytes)] * grid.n_boundaries
    else:
        per_boundary = [int(b) for b in boundary_bytes]
        if len(per_boundary) != grid.n_boundaries:
            raise ValueError("need one size per boundary")
    # activations but the model input, and gradients
    bound = config.n_steps * (2 * sum(per_boundary) - per_boundary[0])
    return {"checkpoint_bytes": ckpt, "boundary_bytes": bound,
            "total_bytes": ckpt + bound}
