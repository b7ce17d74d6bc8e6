"""Small helpers shared by the engine and the verifier."""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """A tensor produced by the engine contains NaN or Inf."""


class ShapeError(ValueError):
    """Tensor shape does not match what a layer expects."""


class BlobError(ValueError):
    """A checkpoint blob does not have the exact length of the parameters
    or optimizer state it is decoded into."""


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


def rel_l2_error(replayed: np.ndarray, recorded: np.ndarray) -> float:
    """Relative L2 error ||a - b|| / ||b||.

    Falls back to the absolute error when the recorded tensor has zero
    norm (the relative form is undefined there).
    """
    a = np.asarray(replayed, dtype=np.float64).ravel()
    b = np.asarray(recorded, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = float(np.linalg.norm(a - b))
    denom = float(np.linalg.norm(b))
    return diff / denom if denom > 0.0 else diff
