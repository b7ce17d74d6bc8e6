"""Layer zoo for the deterministic training engine.

Each layer is a pure function of (input, params): forward returns the
output plus a cache, backward consumes that cache and the upstream
gradient. All float32 reductions go through numpy single-threaded
kernels with a fixed traversal order, so repeat executions on the same
platform are bitwise identical.
"""

from __future__ import annotations

import numpy as np

from .tensors import ShapeError

# kinds whose initial parameters are a random draw; the rest start constant
SEEDED_KINDS = ("linear", "attention-head")


class Layer:
    kind: str = "?"
    deterministic: bool = True

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, labels=None):
        raise NotImplementedError

    def backward(self, cache, dy: np.ndarray, labels=None):
        raise NotImplementedError

    def _p(self, name: str, dtype) -> np.ndarray:
        w = self.params[name]
        return w if w.dtype == dtype else w.astype(dtype)


class Linear(Layer):
    kind = "linear"

    def __init__(self, d_in: int, d_out: int, rng=None):
        super().__init__()
        self.d_in, self.d_out = d_in, d_out
        if rng is None:
            w = np.zeros((d_in, d_out))
            b = np.zeros(d_out)
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))
            b = np.zeros(d_out)
        self.params = {"w": w.astype(np.float32), "b": b.astype(np.float32)}

    def forward(self, x, labels=None):
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"linear expects last dim {self.d_in}, got {x.shape}")
        w, b = self._p("w", x.dtype), self._p("b", x.dtype)
        return x @ w + b, {"x": x}

    def backward(self, cache, dy, labels=None):
        x = cache["x"]
        w = self._p("w", x.dtype)
        dx = dy @ w.T
        xf = x.reshape(-1, self.d_in)
        dyf = dy.reshape(-1, self.d_out)
        return dx, {"w": xf.T @ dyf, "b": dyf.sum(axis=0)}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, labels=None):
        return np.maximum(x, 0), {"mask": x > 0}

    def backward(self, cache, dy, labels=None):
        return dy * cache["mask"], {}


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)`` by numpy's own steps (a sum, then
    a division by the item count as an intp), so its bits are the same,
    without the Python wrapper around them."""
    s = np.add.reduce(x, -1, keepdims=True)
    return np.true_divide(s, np.intp(x.shape[-1]), out=s, casting="unsafe")


class LayerNorm(Layer):
    kind = "layer-norm"
    EPS = 1e-5

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.params = {
            "gain": np.ones(dim, dtype=np.float32),
            "bias": np.zeros(dim, dtype=np.float32),
        }

    def forward(self, x, labels=None):
        if x.shape[-1] != self.dim:
            raise ShapeError(f"layer-norm expects last dim {self.dim}, got {x.shape}")
        g, b = self._p("gain", x.dtype), self._p("bias", x.dtype)
        mu = _mean_last(x)
        var = _mean_last((x - mu) ** 2)
        inv = 1.0 / np.sqrt(var + x.dtype.type(self.EPS))
        xhat = (x - mu) * inv
        return g * xhat + b, {"xhat": xhat, "inv": inv}

    def backward(self, cache, dy, labels=None):
        xhat, inv = cache["xhat"], cache["inv"]
        g = self._p("gain", dy.dtype)
        dxhat = dy * g
        dx = (dxhat - _mean_last(dxhat)
              - xhat * _mean_last(dxhat * xhat)) * inv
        lead = tuple(range(dy.ndim - 1))
        return dx, {"gain": (dy * xhat).sum(axis=lead), "bias": dy.sum(axis=lead)}


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class AttentionHead(Layer):
    """Single-head self-attention over (batch, seq, dim) inputs."""

    kind = "attention-head"

    def __init__(self, dim: int, rng=None):
        super().__init__()
        self.dim = dim
        scale = 1.0 / np.sqrt(dim)
        init = (lambda: rng.normal(0.0, scale, size=(dim, dim))) if rng is not None \
            else (lambda: np.eye(dim))
        self.params = {name: init().astype(np.float32)
                       for name in ("wq", "wk", "wv", "wo")}

    def forward(self, x, labels=None):
        if x.ndim != 3 or x.shape[-1] != self.dim:
            raise ShapeError(f"attention expects (batch, seq, {self.dim}), got {x.shape}")
        wq, wk, wv, wo = (self._p(n, x.dtype) for n in ("wq", "wk", "wv", "wo"))
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = (q @ k.transpose(0, 2, 1)) / np.sqrt(x.dtype.type(self.dim))
        attn = _softmax(scores)
        o = attn @ v
        return o @ wo, {"x": x, "q": q, "k": k, "v": v, "attn": attn, "o": o}

    def backward(self, cache, dy, labels=None):
        x, q, k, v, attn, o = (cache[n] for n in ("x", "q", "k", "v", "attn", "o"))
        wq, wk, wv, wo = (self._p(n, dy.dtype) for n in ("wq", "wk", "wv", "wo"))
        scale = 1.0 / np.sqrt(dy.dtype.type(self.dim))
        do = dy @ wo.T
        dwo = np.einsum("bsd,bse->de", o, dy)
        dattn = do @ v.transpose(0, 2, 1)
        dv = attn.transpose(0, 2, 1) @ do
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = (dscores @ k) * scale
        dk = (dscores.transpose(0, 2, 1) @ q) * scale
        dx = dq @ wq.T + dk @ wk.T + dv @ wv.T
        grads = {
            "wq": np.einsum("bsd,bse->de", x, dq),
            "wk": np.einsum("bsd,bse->de", x, dk),
            "wv": np.einsum("bsd,bse->de", x, dv),
            "wo": dwo,
        }
        return dx, grads


class SoftmaxCrossEntropyHead(Layer):
    """Loss head: maps logits (..., K) to per-sample losses (...,).

    The per-sample loss vector is the model's final boundary tensor; the
    scalar training loss is its mean. Labels ride along with the batch,
    they are not parameters.
    """

    kind = "softmax-cross-entropy-head"

    def __init__(self, n_classes: int):
        super().__init__()
        self.n_classes = n_classes

    def forward(self, x, labels=None):
        if labels is None:
            raise ValueError("cross-entropy head needs labels")
        if x.shape[-1] != self.n_classes:
            raise ShapeError(f"head expects {self.n_classes} logits, got {x.shape}")
        labels = np.asarray(labels)
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=-1, keepdims=True)
        lse = np.log(total[..., 0])
        picked = shifted[_label_index(labels)]
        loss = lse - picked
        return loss.astype(x.dtype), {"probs": e / total, "n": loss.size}

    def backward(self, cache, dy, labels=None):
        # probs minus the one-hot labels, scaled by the upstream gradient
        d = cache["probs"].copy()
        d[_label_index(np.asarray(labels))] -= 1
        d *= dy[..., None]
        return d, {}


def _label_index(labels):
    """Index of the logit of each label in an array of logits of shape
    ``labels.shape + (n_classes,)``: ``x[_label_index(labels)]`` is
    ``np.take_along_axis(x, labels[..., None], axis=-1)[..., 0]``."""
    return (*np.indices(labels.shape, sparse=True), labels)


class UnstableScale(Layer):
    """Elementwise scale whose forward mixes in a call-order-dependent
    jitter — a stand-in for layers without deterministic kernels.

    Backward is consistent with the cached forward, so training is
    self-consistent, but recomputing the forward yields different bits
    unless ``force_deterministic`` is set.
    """

    kind = "unstable-scale"
    deterministic = False
    JITTER = 1e-7

    _calls = 0  # process-global execution-order counter

    def __init__(self, dim: int, force_deterministic: bool = False):
        super().__init__()
        self.dim = dim
        self.force_deterministic = force_deterministic
        self.params = {"scale": np.ones(dim, dtype=np.float32)}

    def forward(self, x, labels=None):
        s = self._p("scale", x.dtype)
        if self.force_deterministic:
            eps = 0.0
        else:
            UnstableScale._calls += 1
            eps = self.JITTER * ((UnstableScale._calls % 7) - 3)
        factor = s * x.dtype.type(1.0 + eps)
        return x * factor, {"x": x, "factor": factor, "eps": eps}

    def backward(self, cache, dy, labels=None):
        x, factor = cache["x"], cache["factor"]
        lead = tuple(range(dy.ndim - 1))
        scale_of_factor = dy.dtype.type(1.0 + cache["eps"])
        return dy * factor, {"scale": (dy * x * scale_of_factor).sum(axis=lead)}


def build_layer(spec: dict, rng=None) -> Layer:
    kind = spec["kind"]
    if kind == "linear":
        return Linear(spec["d_in"], spec["d_out"], rng=rng)
    if kind == "relu":
        return ReLU()
    if kind == "layer-norm":
        return LayerNorm(spec["dim"])
    if kind == "attention-head":
        return AttentionHead(spec["dim"], rng=rng)
    if kind == "softmax-cross-entropy-head":
        return SoftmaxCrossEntropyHead(spec["n_classes"])
    if kind == "unstable-scale":
        return UnstableScale(spec["dim"], spec.get("force_deterministic", False))
    raise ValueError(f"unknown layer kind {kind!r}")
