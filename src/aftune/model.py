"""Model state, block-scoped forward/backward, and the training step."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hashing import Digest, chunked_hash, chunked_hash_many, tensor_bytes
from .layers import SEEDED_KINDS, Layer, build_layer
from .optim import Optimizer, build_optimizer
from .rng import rng_for
from .tensors import BlobError, ShapeError, check_finite


@dataclass
class Batch:
    inputs: np.ndarray
    labels: np.ndarray
    step: int


def build_model(spec: dict, blobs: dict[int, bytes] | None = None,
                indices=None) -> list[Layer]:
    """Instantiate the layers of ``indices`` in that order, by default
    all of them. A layer with a parameter blob in ``blobs`` (by layer
    index) takes its parameters from it; every other layer takes the init
    derived from the model seed, drawn only for a seeded kind. Raises
    BlobError for a blob that names no layer of the model or does not
    have its layer's exact length."""
    seed = spec["seed"]
    blobs = blobs or {}
    n = len(spec["layers"])
    stray = set(blobs) - set(range(n))
    if stray:
        raise BlobError(f"parameter blobs for layers {sorted(stray)} the "
                        f"model does not have")
    layers = []
    for i in range(n) if indices is None else indices:
        lspec = spec["layers"][i]
        draws = i not in blobs and lspec["kind"] in SEEDED_KINDS
        layer = build_layer(
            lspec, rng=rng_for(seed, "init", index=i) if draws else None)
        if i in blobs:
            load_param_bytes(layer, blobs[i])
        layers.append(layer)
    return layers


def param_items(layers: list[Layer]):
    """Canonical traversal order of all parameters."""
    for li, layer in enumerate(layers):
        for pname, p in layer.params.items():
            yield li, pname, p


def params_digest(layers, chunk_size, algo) -> Digest:
    """Digest binding the full parameter set (hash of per-tensor hashes)."""
    parts = chunked_hash_many([p for _, _, p in param_items(layers)],
                              chunk_size, algo)
    return chunked_hash(b"".join(d.value for d in parts), chunk_size, algo)


def param_bytes(layer: Layer) -> bytes:
    return b"".join(tensor_bytes(p) for p in layer.params.values())


def load_param_bytes(layer: Layer, data: bytes) -> None:
    """Inverse of ``param_bytes``: set ``layer``'s parameters from a blob.
    Raises BlobError unless the blob has exactly their length."""
    params = layer.params
    want = sum(4 * p.size for p in params.values())
    if not isinstance(data, bytes) or len(data) != want:
        raise BlobError(f"parameter blob for a {layer.kind} layer is "
                        f"{len(data)} bytes, not {want}")
    off = 0
    for name, p in params.items():
        params[name] = np.frombuffer(data, "<f4", p.size, off) \
            .reshape(p.shape).copy()
        off += 4 * p.size


def forward_block(layers: list[Layer], x: np.ndarray, labels=None):
    """Run a contiguous sub-list of layers; returns all activations
    (input included, so len(layers)+1 entries) and the backward caches."""
    acts = [x]
    caches = []
    for idx, layer in enumerate(layers):
        try:
            y, cache = layer.forward(acts[-1], labels=labels)
        except ShapeError as e:
            raise ShapeError(f"layer {idx} ({layer.kind}): {e}") from None
        check_finite(y, f"output of layer {idx} ({layer.kind})")
        acts.append(y)
        caches.append(cache)
    return acts, caches


def backward_block(layers: list[Layer], caches, upstream: np.ndarray, labels=None):
    """Backpropagate through a block; returns gradients w.r.t. every
    activation (len(layers)+1 entries, last one is ``upstream``) and the
    per-layer parameter gradients."""
    if len(caches) != len(layers):
        raise ValueError("cached forward state does not match layer list")
    gacts = [None] * (len(layers) + 1)
    gacts[-1] = upstream
    pgrads = [None] * len(layers)
    for idx in range(len(layers) - 1, -1, -1):
        dx, dp = layers[idx].backward(caches[idx], gacts[idx + 1], labels=labels)
        check_finite(dx, f"input gradient of layer {idx} ({layers[idx].kind})")
        gacts[idx] = dx
        pgrads[idx] = dp
    return gacts, pgrads


class ModelState:
    """The engine's one state: layers ``indices`` of a model (default:
    all of them), in that order, with their optimizer. It is the
    recorder's training state, the verifier's block replayer and the
    orchestrator's row state.

    Each layer takes its parameters from its parameter blob in
    ``blobs``, keyed by BoundaryKey, or else the seeded init. The
    optimizer takes every layer's state from its optimizer-state blob,
    all of which must hold one step counter; with no optimizer-state
    blob at all it starts at zero. Without ``opt_spec`` the state is
    forward-only and also keeps ``model``, the whole model with every
    parameter blob loaded. A blob that cannot be decoded raises
    BlobError; a bad spec a KeyError, TypeError or ValueError."""

    def __init__(self, model_spec: dict, opt_spec: dict | None = None,
                 indices=None, blobs: dict | None = None):
        split: dict[str, dict[int, bytes]] = {"parameter": {},
                                              "optimizer-state": {}}
        for key, blob in (blobs or {}).items():
            split[key.kind][key.index] = blob
        params, states = split.values()
        self.indices = list(range(len(model_spec["layers"]))
                            if indices is None else indices)
        self.opt: Optimizer | None = None
        if opt_spec is None:
            self.model = build_model(model_spec, params)
            self.layers = [self.model[l] for l in self.indices]
            return
        self.layers = build_model(model_spec, params, self.indices)
        self.opt = build_optimizer(opt_spec, self.layers)
        if not states:
            return
        if set(states) != set(self.indices):
            raise BlobError(f"optimizer-state blobs for layers "
                            f"{sorted(states)}, not {self.indices}")
        counters = {self.opt.load_state_bytes(li, layer, states[l])
                    for li, (l, layer) in enumerate(zip(self.indices,
                                                        self.layers))}
        if len(counters) != 1:
            raise BlobError(f"inconsistent optimizer counters {counters}")
        self.opt.step_count = counters.pop()

    def forward(self, x, labels=None):
        return forward_block(self.layers, x, labels=labels)

    def replay_step(self, x, upstream=None, labels=None):
        """One training step of the layers: forward, backward from
        ``upstream`` (None: the gradient of the mean of the last layer's
        output, the loss) and, with an optimizer, the update. Returns
        every activation and activation gradient."""
        acts, caches = self.forward(x, labels=labels)
        if upstream is None:
            out = acts[-1]
            upstream = np.full(out.shape, 1.0 / out.size, dtype=out.dtype)
        gacts, pgrads = backward_block(self.layers, caches, upstream,
                                       labels=labels)
        if self.opt is not None:
            self.opt.step(self.layers, pgrads)
        return acts, gacts

    def blob(self, key) -> bytes:
        """The checkpoint blob of the parameter or optimizer-state
        BoundaryKey ``key``."""
        li = self.indices.index(key.index)
        if key.kind == "parameter":
            return param_bytes(self.layers[li])
        return self.opt.state_bytes(li, self.layers[li])


@dataclass
class StepTrace:
    """Everything the recorder needs from one training step."""

    acts: list = field(repr=False)
    gacts: list = field(repr=False)
    loss: float = 0.0


def train_step(state: ModelState, batch: Batch) -> StepTrace:
    """One full step: forward over all layers, loss, backward, update.

    Exposes every activation and activation-gradient for the recorder.
    The final layer is expected to be a loss head emitting per-sample
    losses; the scalar loss is their mean.
    """
    acts, gacts = state.replay_step(batch.inputs, labels=batch.labels)
    return StepTrace(acts, gacts, float(acts[-1].astype(np.float64).mean()))
