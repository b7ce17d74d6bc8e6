"""Optimizers with explicit, hashable state."""

from __future__ import annotations

import struct

import numpy as np

from .tensors import BlobError, NonFiniteError

OPTIMIZER_KINDS = ("sgd-momentum", "adamw")


class Optimizer:
    """Base: per-parameter state tensors keyed by (layer index, param name)."""

    kind: str = "?"
    state_names: tuple[str, ...] = ()

    def __init__(self, layers, **hyper):
        self.hyper = hyper
        self.step_count = 0
        self.slots: dict[tuple[int, str], dict[str, np.ndarray]] = {}
        for li, layer in enumerate(layers):
            for pname, p in layer.params.items():
                self.slots[(li, pname)] = {
                    s: np.zeros_like(p) for s in self.state_names
                }

    def step(self, layers, param_grads: list[dict]) -> None:
        self.step_count += 1
        for li, layer in enumerate(layers):
            for pname in layer.params:
                g = np.asarray(param_grads[li][pname], dtype=np.float32)
                if not np.all(np.isfinite(g)):
                    raise NonFiniteError(
                        f"non-finite gradient for layer {li} param {pname!r}")
                self._update(layer.params[pname], g, self.slots[(li, pname)])

    def _update(self, p, g, slot):
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind, **self.hyper}

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
                self.slots[(layer_idx, pname)][sname] = np.frombuffer(
                    data, "<f4", p.size, off).reshape(p.shape).copy()
                off += 4 * p.size
        return counter


class SGDMomentum(Optimizer):
    kind = "sgd-momentum"
    state_names = ("velocity",)

    def __init__(self, layers, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(layers, lr=lr, momentum=momentum, weight_decay=weight_decay)

    def _update(self, p, g, slot):
        lr = np.float32(self.hyper["lr"])
        mu = np.float32(self.hyper["momentum"])
        wd = np.float32(self.hyper["weight_decay"])
        if wd != 0:
            g = g + wd * p
        v = slot["velocity"]
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

    def _update(self, p, g, slot):
        h = self.hyper
        lr, b1, b2 = np.float32(h["lr"]), np.float32(h["beta1"]), np.float32(h["beta2"])
        eps, wd = np.float32(h["eps"]), np.float32(h["weight_decay"])
        t = self.step_count
        m, v = slot["m"], slot["v"]
        m *= b1
        m += (np.float32(1) - b1) * g
        v *= b2
        v += (np.float32(1) - b2) * g * g
        mhat = m / np.float32(1.0 - float(h["beta1"]) ** t)
        vhat = v / np.float32(1.0 - float(h["beta2"]) ** t)
        if wd != 0:
            p -= lr * wd * p
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def build_optimizer(spec: dict, layers) -> Optimizer:
    kind = spec["kind"]
    hyper = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "sgd-momentum":
        return SGDMomentum(layers, **hyper)
    if kind == "adamw":
        return AdamW(layers, **hyper)
    raise ValueError(f"unknown optimizer kind {kind!r}")
