"""Two-dimensional (layer x step) block partitioning and recording schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

# trust anchor markers returned by ``neighbors`` at grid edges
INPUT_ANCHOR = "input-anchor"
LABEL_ANCHOR = "label-anchor"
BASE_MODEL_ANCHOR = "base-model-anchor"


def label_anchor_key(step: int) -> str:
    """Name of step ``step``'s label-anchor digest in a verification
    request."""
    return f"{LABEL_ANCHOR}@{step}"


@dataclass(frozen=True, order=True)
class BlockId:
    i: int  # layer-block index
    j: int  # step-block index

    def __str__(self):
        return f"{self.i},{self.j}"

    @classmethod
    def parse(cls, s: str) -> "BlockId":
        i, j = s.split(",")
        return cls(int(i), int(j))


@dataclass(frozen=True, order=True)
class BoundaryKey:
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


@dataclass(frozen=True)
class GridConfig:
    n_layers: int
    n_steps: int
    bl: int                      # layer-block size
    bs: int                      # step-block size
    ic: int | None = 1           # checkpoint interval; None means infinity
    ia: int = 1                  # activation interval (inference only)
    chunk_size: int = 4096
    tau: float = 1e-5
    precision: str = "f32"
    zero_storage: bool = False   # ledger-only: no blobs at all
    isolate_layers: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (1 <= self.bl <= self.n_layers):
            raise ValueError(f"bl must be in [1, {self.n_layers}]")
        if not (1 <= self.bs <= max(1, self.n_steps)):
            raise ValueError(f"bs must be in [1, {self.n_steps}]")
        if self.ic is not None and self.ic < 1:
            raise ValueError("ic must be >= 1 (or None for infinity)")
        if self.ia < 1:
            raise ValueError("ia must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be f32 or f64")

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers, "n_steps": self.n_steps,
            "bl": self.bl, "bs": self.bs, "ic": self.ic, "ia": self.ia,
            "chunk_size": self.chunk_size, "tau": self.tau,
            "precision": self.precision, "zero_storage": self.zero_storage,
            "isolate_layers": list(self.isolate_layers),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        d = dict(d)
        d["isolate_layers"] = tuple(d.get("isolate_layers", ()))
        return cls(**d)

    def with_(self, **kw) -> "GridConfig":
        return replace(self, **kw)


class BlockGrid:
    """Partition of the (layer, step) plane into block cells."""

    def __init__(self, config: GridConfig):
        self.config = config
        self.layer_blocks = self._layer_partition(config)
        t = config.n_steps
        self.step_blocks = [
            (j * config.bs, min((j + 1) * config.bs, t))
            for j in range(math.ceil(t / config.bs))
        ]

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
        return len(self.step_blocks)

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

    def block_layers(self, i: int) -> range:
        a, b = self.layer_blocks[i]
        return range(a, b)

    def block_steps(self, j: int) -> range:
        a, b = self.step_blocks[j]
        return range(a, b)

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
        stored as checkpoint blobs. The delivered final state is always
        checkpointed."""
        ic = self.checkpoint_interval(i)
        if self.config.zero_storage:
            return []
        steps = set()
        if ic is not None:
            for j in range(self.n_step_blocks):
                if j % ic == 0:
                    steps.add(self.step_blocks[j][0])
        steps.add(self.config.n_steps)
        return sorted(steps)

    def commitment_boundary_steps(self, j: int) -> tuple[int, int]:
        """Entry and exit steps of step block j (parameters are committed
        at both, whether or not a checkpoint blob is stored)."""
        a, b = self.step_blocks[j]
        return a, b

    def boundary_schedule(self, mode: str = "training") -> list[BoundaryKey]:
        """All keys whose tensors are stored (blob schedule)."""
        keys: list[BoundaryKey] = []
        if mode == "training":
            if not self.config.zero_storage:
                for t in range(self.config.n_steps):
                    for b in range(self.n_boundaries):
                        keys.append(BoundaryKey("activation", b, t))
                        keys.append(BoundaryKey("gradient", b, t))
            for i in range(self.n_layer_blocks):
                for t in self.checkpoint_steps(i):
                    for l in self.block_layers(i):
                        keys.append(BoundaryKey("parameter", l, t))
                        keys.append(BoundaryKey("optimizer-state", l, t))
            return keys
        if mode == "inference":
            for b in self.inference_boundaries():
                keys.append(BoundaryKey("activation", b, 0))
            return keys
        raise ValueError(f"unknown mode {mode!r}")

    def inference_boundaries(self) -> list[int]:
        """Recorded boundaries for forward-only runs: every ia-th block
        edge, plus the model input and the final output."""
        sel = {0, self.n_layer_blocks}
        for b in range(self.n_layer_blocks):
            if b % self.config.ia == 0:
                sel.add(b)
        return sorted(sel)

    def commitment_keys(self, bid: BlockId) -> list[BoundaryKey]:
        """The keys hashed into block (i, j)'s commitment set."""
        i, j = bid.i, bid.j
        keys = []
        entry, exit_ = self.commitment_boundary_steps(j)
        for t in self.block_steps(j):
            for b in (i, i + 1):
                keys.append(BoundaryKey("activation", b, t))
                keys.append(BoundaryKey("gradient", b, t))
        for t in (entry, exit_):
            for l in self.block_layers(i):
                keys.append(BoundaryKey("parameter", l, t))
                keys.append(BoundaryKey("optimizer-state", l, t))
        return keys

    def inference_commitment_keys(self, bid: BlockId) -> list[BoundaryKey]:
        bounds = self.inference_boundaries()
        lo = max(b for b in bounds if b <= bid.i)
        hi = min(b for b in bounds if b > bid.i)
        return [BoundaryKey("activation", b, 0) for b in (lo, hi)]

    def neighbors(self, bid: BlockId) -> dict:
        """Provenance neighbors: left vouches for inputs, right for
        gradients, above for parameters; edges point at trust anchors."""
        i, j = bid.i, bid.j
        return {
            "left": BlockId(i - 1, j) if i > 0 else INPUT_ANCHOR,
            "right": (BlockId(i + 1, j) if i < self.n_layer_blocks - 1
                      else LABEL_ANCHOR),
            "above": BlockId(i, j - 1) if j > 0 else BASE_MODEL_ANCHOR,
        }


def partition(config: GridConfig) -> BlockGrid:
    return BlockGrid(config)


def storage_estimate(config: GridConfig, param_bytes: int, opt_bytes: int,
                     boundary_bytes) -> dict:
    """Predicted logical bytes the recorder will persist.

    ``boundary_bytes`` is either a per-boundary list of activation sizes
    or a single uniform size. Gradients mirror activation sizes. The
    returned checkpoint term reflects the actual schedule: blobs at every
    ic-th step block plus the final state, or nothing in zero-storage
    mode.
    """
    grid = BlockGrid(config)
    ckpt = 0
    # param/opt sizes are whole-model totals; without isolation every layer
    # block checkpoints at the same steps, so the count is uniform
    if not config.zero_storage:
        if config.isolate_layers:
            raise ValueError(
                "storage_estimate with isolated layers needs per-layer sizes")
        ckpt = len(grid.checkpoint_steps(0)) * (param_bytes + opt_bytes)
    if config.zero_storage:
        bound = 0
    else:
        if isinstance(boundary_bytes, (int, float)):
            per_boundary = [int(boundary_bytes)] * grid.n_boundaries
        else:
            per_boundary = [int(b) for b in boundary_bytes]
            if len(per_boundary) != grid.n_boundaries:
                raise ValueError("need one size per boundary")
        bound = 2 * config.n_steps * sum(per_boundary)  # activations + gradients
    return {"checkpoint_bytes": ckpt, "boundary_bytes": bound,
            "total_bytes": ckpt + bound}
