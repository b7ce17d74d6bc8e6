"""Synthetic desk-scale datasets with reproducible batch composition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch
from .rng import rng_for


@dataclass
class Dataset:
    spec: dict
    inputs: np.ndarray   # float32, (n, ...) feature tensors
    labels: np.ndarray   # int64 class ids, leading dim n

    @property
    def n(self) -> int:
        return len(self.inputs)

    def batch(self, data_seed: int, t: int, batch_size: int) -> Batch:
        """Batch composition is a pure function of (dataset, seed, t)."""
        idx = rng_for(data_seed, "batch-order", step=t).integers(0, self.n,
                                                                 size=batch_size)
        return Batch(inputs=self.inputs[idx], labels=self.labels[idx], step=t)


def make_dataset(spec: dict) -> Dataset:
    kind = spec["kind"]
    rng = rng_for(spec["seed"], f"dataset:{kind}")
    n = spec["n"]
    if kind == "circles":
        # concentric class bands in the plane
        k = spec.get("n_classes", 2)
        labels = rng.integers(0, k, size=n)
        radius = 0.6 + labels + 0.08 * rng.normal(size=n)
        angle = rng.uniform(0, 2 * np.pi, size=n)
        pts = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        return Dataset(spec, pts.astype(np.float32), labels.astype(np.int64))
    if kind == "tokens":
        # sequence data for attention models: per-position class labels
        k = spec.get("n_classes", 2)
        d = spec.get("dim", 4)
        s = spec.get("seq", 3)
        x = rng.normal(size=(n, s, d))
        labels = rng.integers(0, k, size=(n, s))
        return Dataset(spec, x.astype(np.float32), labels.astype(np.int64))
    raise ValueError(f"unknown dataset kind {kind!r}")
