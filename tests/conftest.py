"""Shared fixtures: recorded runs that read-only tests can reuse."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from aftune.presets import (dataset_for, default_optimizer, grid_for,
                            model_for)
from aftune.recorder import build_manifest, record_training

# worker processes the tests start themselves import aftune from this
# checkout, as pytest's own ``pythonpath`` setting does for the tests
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

RUN_SEED = 11
BATCH_SIZE = 8


def make_manifest(preset: str = "mlp", n_steps: int = 8, bl: int = 2,
                  bs: int = 2, ic=2, opt: str = "adamw", algo: str = "blake3",
                  **grid_kw) -> dict:
    config = grid_for(preset, n_steps=n_steps, bl=bl, bs=bs, ic=ic, **grid_kw)
    return build_manifest(model_for(preset), default_optimizer(opt),
                          dataset_for(preset), config, RUN_SEED, BATCH_SIZE,
                          algo)


def record_run(out_dir, **kw):
    manifest = make_manifest(**kw)
    result = record_training(manifest, out_dir)
    return manifest, result


@pytest.fixture(scope="session")
def mlp_run(tmp_path_factory):
    """Honest recorded mlp run (8 steps, 2x2 blocks, ic=2). Read-only:
    tests that tamper must copy it first."""
    run_dir = tmp_path_factory.mktemp("runs") / "mlp"
    manifest, result = record_run(run_dir)
    return {"dir": run_dir, "manifest": manifest, "result": result}


def copy_run(src_dir, dst_dir) -> Path:
    shutil.copytree(src_dir, dst_dir)
    return Path(dst_dir)
