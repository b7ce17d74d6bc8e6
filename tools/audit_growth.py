"""How spot checks grow with run length.

Records one sha256 run per length (``--bl 2 --bs 2 --ic 2``, mlp) and
prints, per length, the user CPU time of ``aftune audit --m 3`` and of
``aftune verify --block 1,1`` run in this process through the CLI, the
number of ledger entries each decodes, and the user CPU time of loading
the store's ``index.json`` alone. Times are the minimum over ``--repeat``
runs (audits use seeds 0, 1, ...). The aftune on ``sys.path`` is the one
measured, so the same script times any checkout:

    PYTHONPATH=src python tools/audit_growth.py --steps 96,384,1536
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import tempfile
from pathlib import Path

import aftune
from aftune.cli import main
from aftune.ledger import CommitmentSet
from aftune.store import TensorStore


def _user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class _DecodeCounter:
    """Counts ``CommitmentSet.decode`` calls while installed."""

    def __init__(self):
        self.calls = 0
        self._decode = CommitmentSet.decode

    def __enter__(self):
        original = self._decode.__func__

        def counted(cls, data):
            self.calls += 1
            return original(cls, data)

        CommitmentSet.decode = classmethod(counted)
        return self

    def __exit__(self, *exc):
        CommitmentSet.decode = self._decode


def _cli(args: list[str]) -> int:
    """Exit code of one aftune command, its output discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(args, standalone_mode=False)
    except SystemExit as e:
        return e.code
    return 0


def _timed(args: list[str]) -> tuple[float, int, int]:
    """User CPU ms, entries decoded and exit code of one CLI command."""
    with _DecodeCounter() as counter:
        t0 = _user_cpu()
        code = _cli(args)
        ms = (_user_cpu() - t0) * 1e3
    return ms, counter.calls, code


def measure(root: Path, steps: int, repeat: int) -> dict:
    run = str(root / f"run{steps}")
    code = _cli(["record-train", run, "--n-steps", str(steps), "--bl", "2",
                 "--bs", "2", "--ic", "2", "--algo", "sha256",
                 "--batch-size", "8"])
    if code != 0:
        raise SystemExit(f"record-train of {steps} steps exited {code}")
    audits = [_timed(["audit", run, "--m", "3", "--seed", str(s)])
              for s in range(repeat)]
    verifies = [_timed(["verify", run, "--block", "1,1"])
                for _ in range(repeat)]
    index = []
    for _ in range(repeat):
        t0 = _user_cpu()
        TensorStore(run)
        index.append((_user_cpu() - t0) * 1e3)
    bad = [c for _, _, c in audits + verifies if c != 0]
    if bad:
        raise SystemExit(f"{steps} steps: a check exited {bad[0]}")
    return {
        "steps": steps,
        "audit_ms": round(min(ms for ms, _, _ in audits), 1),
        "audit_decoded": max(n for _, n, _ in audits),
        "verify_block_ms": round(min(ms for ms, _, _ in verifies), 1),
        "verify_block_decoded": max(n for _, n, _ in verifies),
        "index_load_ms": round(min(index), 1),
    }


def report() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", default="96,384,1536",
                    help="Run lengths, comma-separated.")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true",
                    help="Print the rows as JSON instead of a table.")
    args = ap.parse_args()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for steps in (int(s) for s in args.steps.split(",")):
            rows.append(measure(Path(tmp), steps, args.repeat))
    if args.json:
        print(json.dumps({"aftune": str(Path(aftune.__file__).parent),
                          "rows": rows}, indent=2))
        return
    print(f"aftune from {Path(aftune.__file__).parent}")
    cols = list(rows[0])
    print(" ".join(f"{c:>20}" for c in cols))
    for r in rows:
        print(" ".join(f"{r[c]:>20}" for c in cols))


if __name__ == "__main__":
    report()
