"""Optimizers with explicit, hashable state."""

from __future__ import annotations

import inspect
import math
import struct

import numpy as np

from .tensors import BlobError, NonFiniteError

OPTIMIZER_KINDS = ("sgd-momentum", "adamw")


class Optimizer:
    """Base: per-parameter state tensors keyed by (layer index, param
    name). Each state lives in one flat float32 buffer in parameter
    traversal order, and every slot is a view of it, so one step updates
    all parameters with one pass of the update rule."""

    kind: str = "?"
    state_names: tuple[str, ...] = ()

    def __init__(self, layers, **hyper):
        self.hyper = hyper
        self.step_count = 0
        n = sum(p.size for layer in layers for p in layer.params.values())
        self.flat = {s: np.zeros(n, np.float32) for s in self.state_names}
        self._params = np.zeros(n, np.float32)
        self._grads = np.zeros(n, np.float32)
        self.slots: dict[tuple[int, str], dict[str, np.ndarray]] = {}
        self._views: list[np.ndarray] = []
        off = 0
        for li, layer in enumerate(layers):
            for pname, p in layer.params.items():
                end = off + p.size
                self.slots[(li, pname)] = {
                    s: buf[off:end].reshape(p.shape)
                    for s, buf in self.flat.items()}
                self._views.append(self._params[off:end].reshape(p.shape))
                off = end

    def step(self, layers, param_grads: list[dict]) -> None:
        """Update every parameter of ``layers`` in place from its gradient
        in ``param_grads`` (cast to float32). A gradient whose shape is
        not its parameter's raises ValueError, a non-finite one
        NonFiniteError naming the first in traversal order; either is
        raised before any parameter, state or the step counter changes."""
        params, grads = [], []
        for li, layer in enumerate(layers):
            for pname, p in layer.params.items():
                g = param_grads[li][pname]
                if g.shape != p.shape:
                    raise ValueError(
                        f"gradient of shape {g.shape} for layer {li} param "
                        f"{pname!r} of shape {p.shape}")
                params.append(p)
                grads.append(g)
        if grads:
            g = np.concatenate(grads, axis=None, out=self._grads)
            if not np.isfinite(g).all():
                li, pname = next(
                    (li, pname) for li, layer in enumerate(layers)
                    for pname in layer.params
                    if not np.isfinite(
                        np.asarray(param_grads[li][pname], np.float32)).all())
                raise NonFiniteError(
                    f"non-finite gradient for layer {li} param {pname!r}")
        self.step_count += 1
        if not params:
            return
        p = np.concatenate(params, axis=None, out=self._params)
        self._update(p, g)
        for param, view in zip(params, self._views):
            param[...] = view

    def _update(self, p, g):
        """Apply the update rule to the flat parameters ``p`` in place,
        with ``g`` their flat gradients and ``self.flat`` their state."""
        raise NotImplementedError

    # -- serialization ----------------------------------------------------

    def state_bytes(self, layer_idx: int, layer) -> bytes:
        """Canonical byte serialization of one layer's optimizer state."""
        parts = [struct.pack("<I", self.step_count)]
        for pname in layer.params:
            for sname in self.state_names:
                parts.append(self.slots[(layer_idx, pname)][sname]
                             .astype("<f4").tobytes())
        return b"".join(parts)

    def load_state_bytes(self, layer_idx: int, layer, data: bytes) -> int:
        """Inverse of ``state_bytes``: set one layer's optimizer state from
        a blob and return the step counter it holds. Raises BlobError
        unless the blob has exactly the state's length."""
        want = 4 + sum(4 * p.size for p in layer.params.values()) \
            * len(self.state_names)
        if not isinstance(data, bytes) or len(data) != want:
            raise BlobError(f"optimizer state blob for a {layer.kind} layer "
                            f"is {len(data)} bytes, not {want}")
        (counter,) = struct.unpack_from("<I", data)
        off = 4
        for pname, p in layer.params.items():
            for sname in self.state_names:
                self.slots[(layer_idx, pname)][sname][...] = np.frombuffer(
                    data, "<f4", p.size, off).reshape(p.shape)
                off += 4 * p.size
        return counter


class SGDMomentum(Optimizer):
    kind = "sgd-momentum"
    state_names = ("velocity",)

    def __init__(self, layers, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(layers, lr=lr, momentum=momentum, weight_decay=weight_decay)
        self._lr, self._mu, self._wd = (np.float32(x) for x in
                                        (lr, momentum, weight_decay))

    def _update(self, p, g):
        lr, mu, wd = self._lr, self._mu, self._wd
        if wd != 0:
            g = g + wd * p
        v = self.flat["velocity"]
        v *= mu
        v += g
        p -= lr * v


class AdamW(Optimizer):
    kind = "adamw"
    state_names = ("m", "v")

    def __init__(self, layers, lr=0.001, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=0.0):
        super().__init__(layers, lr=lr, beta1=beta1, beta2=beta2,
                         eps=eps, weight_decay=weight_decay)
        self._lr, self._b1, self._b2, self._eps, self._wd = (
            np.float32(x) for x in (lr, beta1, beta2, eps, weight_decay))
        self._beta1, self._beta2 = float(beta1), float(beta2)

    def _update(self, p, g):
        lr, b1, b2, eps, wd = self._lr, self._b1, self._b2, self._eps, self._wd
        t = self.step_count
        m, v = self.flat["m"], self.flat["v"]
        m *= b1
        m += (np.float32(1) - b1) * g
        v *= b2
        v += (np.float32(1) - b2) * g * g
        mhat = m / np.float32(1.0 - self._beta1 ** t)
        vhat = v / np.float32(1.0 - self._beta2 ** t)
        if wd != 0:
            p -= lr * wd * p
        p -= lr * mhat / (np.sqrt(vhat) + eps)


_OPTIMIZERS = {cls.kind: cls for cls in (SGDMomentum, AdamW)}
# the hyperparameters each kind's constructor takes
_HYPERPARAMETERS = {kind: set(inspect.signature(cls).parameters) - {"layers"}
                    for kind, cls in _OPTIMIZERS.items()}


def _is_finite_number(x) -> bool:
    """A finite int or float, not a bool, that float32 holds finitely."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        with np.errstate(over="ignore"):
            return math.isfinite(float(x)) and bool(np.isfinite(np.float32(x)))
    except OverflowError:
        return False


def check_optimizer_spec(spec) -> None:
    """Raise ValueError unless ``spec`` names a kind of OPTIMIZER_KINDS and
    only hyperparameters its constructor takes, each a finite int or
    float (not a bool) that stays finite in float32."""
    if not isinstance(spec, dict):
        raise ValueError("optimizer is missing or malformed")
    kind = spec.get("kind")
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"optimizer kind {kind!r} is not one of "
                         f"{OPTIMIZER_KINDS}")
    for name, value in spec.items():
        if name == "kind":
            continue
        if name not in _HYPERPARAMETERS[kind]:
            raise ValueError(f"optimizer {kind!r} takes no hyperparameter "
                             f"{name!r}")
        if not _is_finite_number(value):
            raise ValueError(f"optimizer hyperparameter {name!r} must be a "
                             f"finite number, got {value!r}")


def build_optimizer(spec: dict, layers) -> Optimizer:
    kind = spec["kind"]
    hyper = {k: v for k, v in spec.items() if k != "kind"}
    if kind in _OPTIMIZERS:
        return _OPTIMIZERS[kind](layers, **hyper)
    raise ValueError(f"unknown optimizer kind {kind!r}")
