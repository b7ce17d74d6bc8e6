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
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError(f"non-finite values in {what}")
    return arr

