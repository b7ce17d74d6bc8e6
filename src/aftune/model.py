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


@dataclass
class ModelState:
    layers: list[Layer]
    opt: Optimizer
    t: int = 0

    @property
    def n_layers(self) -> int:
        return len(self.layers)


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


@dataclass
class StepTrace:
    """Everything the recorder needs from one training step."""

    step: int
    acts: list = field(repr=False)
    gacts: list = field(repr=False)
    param_grads: list = field(repr=False)
    loss: float = 0.0


def optimizer_step(state: ModelState, param_grads: list[dict]) -> None:
    state.opt.step(state.layers, param_grads)
    state.t += 1


def train_step(state: ModelState, batch: Batch) -> StepTrace:
    """One full step: forward over all layers, loss, backward, update.

    Exposes every activation and activation-gradient for the recorder.
    The final layer is expected to be a loss head emitting per-sample
    losses; the scalar loss is their mean.
    """
    acts, caches = forward_block(state.layers, batch.inputs, labels=batch.labels)
    loss_vec = acts[-1]
    loss = float(loss_vec.astype(np.float64).mean())
    upstream = np.full(loss_vec.shape, 1.0 / loss_vec.size, dtype=loss_vec.dtype)
    gacts, pgrads = backward_block(state.layers, caches, upstream, labels=batch.labels)
    t = state.t
    optimizer_step(state, pgrads)
    return StepTrace(step=t, acts=acts, gacts=gacts, param_grads=pgrads, loss=loss)


def build_state(mspec: dict, ospec: dict) -> ModelState:
    layers = build_model(mspec)
    opt = build_optimizer(ospec, layers)
    return ModelState(layers=layers, opt=opt, t=0)
