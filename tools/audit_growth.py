"""How spot checks and full verification grow with run length.

Records one sha256 run per length (``--bl 2 --bs 2 --ic 2``, mlp) and
prints, per length, the user CPU time of ``aftune audit --m 3`` and of
``aftune verify --block 1,1`` run in this process through the CLI, the
number of ledger rows each decodes, the user CPU time of loading
the store's ``index.json`` alone, the size of the run's ``ledger.bin``,
and the user CPU time of one ``RunLedger.load`` of it (the mean of
LEDGER_LOADS loads, as one load is near the timer's resolution). It
also records the same run at ``--ic inf`` and prints the user CPU time
per block of a full ``aftune verify`` of it, and the training steps the
orchestrator replayed for it (``Run._replay_step``, not the verifier's
replays). It records the run once more with ``--zero-storage`` and
prints the user CPU time of ``aftune audit --m 3`` on it, where every
check re-runs training from step 0. It prints the user CPU time per
step of ``aftune record-train`` for the ``--ic 2``, ``--ic inf`` and
``--zero-storage`` recordings and for one more recording with the CLI
defaults (blake3 in pure Python, ``--ic 2``). Before the table it prints
the user CPU time of one ``train_step`` of the mlp preset (batch 16, the
default optimizer), in microseconds. Every time is the minimum over
``--repeat`` runs (audits use seeds 0, 1, ...; each timed recording but
the first is deleted once timed). The aftune on ``sys.path`` is the one
measured, so the same script times any checkout:

    PYTHONPATH=src python tools/audit_growth.py --steps 96,384,1536
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import tempfile
from pathlib import Path

import aftune
from aftune.cli import main
from aftune.data import make_dataset
from aftune.ledger import RunLedger
from aftune.model import ModelState, train_step
from aftune.orchestrate import Run
from aftune.presets import dataset_for, default_optimizer, model_for
from aftune.store import TensorStore

TRAIN_STEPS = 500  # steps per timed train_step run
LEDGER_LOADS = 10  # loads per timed RunLedger.load run
# the sha256 recordings the checks run on: 2x2 blocks, batch 8
SHA256 = ["--bl", "2", "--bs", "2", "--algo", "sha256", "--batch-size", "8"]


def _user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class _DecodeCounter:
    """Counts the ledger rows decoded (``RunLedger._decode_row`` calls)
    while installed."""

    def __init__(self):
        self.calls = 0
        self._decode = RunLedger._decode_row

    def __enter__(self):
        original = self._decode

        def counted(ledger, *args):
            self.calls += 1
            return original(ledger, *args)

        RunLedger._decode_row = counted
        return self

    def __exit__(self, *exc):
        RunLedger._decode_row = self._decode


class _ReplayCounter:
    """Counts the training steps the orchestrator replays itself
    (``Run._replay_step`` calls) while installed."""

    def __init__(self):
        self.calls = 0
        self._replay = Run._replay_step

    def __enter__(self):
        original = self._replay

        def counted(run, *args):
            self.calls += 1
            return original(run, *args)

        Run._replay_step = counted
        return self

    def __exit__(self, *exc):
        Run._replay_step = self._replay


def _cli(args: list[str]) -> int:
    """Exit code of one aftune command, its output discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(args, standalone_mode=False)
    except SystemExit as e:
        return e.code
    return 0


def _timed(args: list[str]) -> tuple[float, int, int, int]:
    """User CPU ms, ledger rows decoded, steps the orchestrator replayed and
    exit code of one CLI command."""
    with _DecodeCounter() as decoded, _ReplayCounter() as replayed:
        t0 = _user_cpu()
        code = _cli(args)
        ms = (_user_cpu() - t0) * 1e3
    return ms, decoded.calls, replayed.calls, code


def _record(run: str, steps: int, repeat: int, *args: str) -> float:
    """User CPU ms per step of ``record-train`` of ``steps`` steps, the
    minimum over ``repeat`` recordings. The first stays at ``run``."""
    runs = []
    for r in range(repeat):
        out = f"{run}-{r}" if r else run
        t0 = _user_cpu()
        code = _cli(["record-train", out, "--n-steps", str(steps), *args])
        runs.append((_user_cpu() - t0) * 1e3 / steps)
        if code != 0:
            raise SystemExit(f"record-train of {steps} steps exited {code}")
        if r:
            shutil.rmtree(out)
    return min(runs)


def train_step_us(repeat: int) -> float:
    """User CPU microseconds of one ``train_step`` of the mlp preset with
    batch 16 and the default optimizer, the minimum over ``repeat`` runs
    of TRAIN_STEPS steps."""
    ds = make_dataset(dataset_for("mlp"))
    batches = [ds.batch(11, t, 16) for t in range(TRAIN_STEPS)]
    runs = []
    for _ in range(repeat):
        state = ModelState(model_for("mlp"), default_optimizer())
        t0 = _user_cpu()
        for batch in batches:
            train_step(state, batch)
        runs.append((_user_cpu() - t0) / TRAIN_STEPS * 1e6)
    return round(min(runs), 1)


def measure(root: Path, steps: int, repeat: int) -> dict:
    run, full = str(root / f"run{steps}"), str(root / f"inf{steps}")
    zero, blake3 = str(root / f"zero{steps}"), str(root / f"blake3{steps}")
    record_ms = _record(run, steps, repeat, *SHA256, "--ic", "2")
    inf_record_ms = _record(full, steps, repeat, *SHA256, "--ic", "inf")
    zero_record_ms = _record(zero, steps, repeat, *SHA256, "--zero-storage")
    blake3_record_ms = _record(blake3, steps, repeat)
    audits = [_timed(["audit", run, "--m", "3", "--seed", str(s)])
              for s in range(repeat)]
    zero_audits = [_timed(["audit", zero, "--m", "3", "--seed", str(s)])
                   for s in range(repeat)]
    verifies = [_timed(["verify", run, "--block", "1,1"])
                for _ in range(repeat)]
    verify_alls = [_timed(["verify", full]) for _ in range(repeat)]
    index, ledger = [], []
    for _ in range(repeat):
        t0 = _user_cpu()
        TensorStore(run)
        index.append((_user_cpu() - t0) * 1e3)
        t0 = _user_cpu()
        for _ in range(LEDGER_LOADS):
            RunLedger.load(Path(run) / "ledger.bin")
        ledger.append((_user_cpu() - t0) / LEDGER_LOADS * 1e3)
    bad = [c for *_, c in audits + zero_audits + verifies + verify_alls
           if c != 0]
    if bad:
        raise SystemExit(f"{steps} steps: a check exited {bad[0]}")
    blocks = len(Run.open(full).grid.block_ids())
    return {
        "steps": steps,
        "record_ms_per_step": round(record_ms, 3),
        "inf_record_ms_per_step": round(inf_record_ms, 3),
        "zero_record_ms_per_step": round(zero_record_ms, 3),
        "blake3_record_ms_per_step": round(blake3_record_ms, 3),
        "audit_ms": round(min(ms for ms, *_ in audits), 1),
        "audit_decoded": max(n for _, n, _, _ in audits),
        "verify_block_ms": round(min(ms for ms, *_ in verifies), 1),
        "verify_block_decoded": max(n for _, n, _, _ in verifies),
        "index_load_ms": round(min(index), 1),
        "ledger_bytes": (Path(run) / "ledger.bin").stat().st_size,
        "ledger_load_ms": round(min(ledger), 1),
        "verify_all_ms_per_block":
            round(min(ms for ms, *_ in verify_alls) / blocks, 2),
        "verify_all_replayed": max(n for _, _, n, _ in verify_alls),
        "zero_storage_audit_ms": round(min(ms for ms, *_ in zero_audits), 1),
    }


def report() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", default="96,384,1536",
                    help="Run lengths, comma-separated.")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true",
                    help="Print the rows as JSON instead of a table.")
    args = ap.parse_args()
    step_us = train_step_us(args.repeat)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for steps in (int(s) for s in args.steps.split(",")):
            rows.append(measure(Path(tmp), steps, args.repeat))
    if args.json:
        print(json.dumps({"aftune": str(Path(aftune.__file__).parent),
                          "train_step_us": step_us, "rows": rows}, indent=2))
        return
    print(f"aftune from {Path(aftune.__file__).parent}")
    print(f"train_step (mlp, batch 16): {step_us} us")
    widths = {c: max(20, len(c)) for c in rows[0]}
    print(" ".join(f"{c:>{w}}" for c, w in widths.items()))
    for r in rows:
        print(" ".join(f"{r[c]:>{w}}" for c, w in widths.items()))


if __name__ == "__main__":
    report()
