"""The outcomes of a fixed set of commands on a fixed set of runs.

Records into ROOT, through the CLI:

- an honest run and each training attack of ``adversary.SCENARIOS``, in
  sha256 and blake3, at ``--ic 2`` and ``--ic inf``
- one sha256 ``--zero-storage`` run
- one honest sha256 run of the ``unstable`` preset at ``--ic 2``, whose
  isolated layer runs a kernel that is not deterministic
- one ``record-infer`` run and each inference attack

Every run uses the CLI defaults otherwise (the mlp preset unless named,
8 steps, ``--bl 2 --bs 2``). The tool then runs each command group on
each run: ``verify``, ``verify --isolated``, ``verify --full-scan``,
``audit --m 3`` and ``audit --m 3 --isolated``, plus one group per
``--group``. It prints
one JSON object: per run, the SHA-256 and byte length of its
``ledger.bin`` and, per group, the exit code, stdout, and the JSON
report the command wrote, without its ``wall_time`` fields. Two
checkouts that reach the same verdicts by the same path print the same
JSON, so a diff of two outputs shows every outcome a change moved. The
aftune on ``sys.path`` is the one run:

    PYTHONPATH=src python tools/outcomes.py /tmp/outcomes > outcomes.json
    PYTHONPATH=src python tools/outcomes.py ROOT --group "verify --jobs 2"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
from pathlib import Path

from click.testing import CliRunner

from aftune.adversary import SCENARIOS
from aftune.cli import main
from aftune.recorder import LEDGER_FILE

INFERENCE_SCENARIOS = ("serve-wrong-model", "fabricate-output")
GROUPS = ("verify", "verify --isolated", "verify --full-scan",
          "audit --m 3", "audit --m 3 --isolated")
REPORTS = {"verify": "verify_report.json", "audit": "audit_report.json"}


def _runs():
    """``(name, record command)`` of every run, in a fixed order."""
    for algo in ("sha256", "blake3"):
        for ic in ("2", "inf"):
            grid = ["--algo", algo, "--ic", ic]
            yield f"{algo}-ic{ic}-honest", ["record-train", *grid]
            for s in SCENARIOS:
                if s not in INFERENCE_SCENARIOS:
                    yield f"{algo}-ic{ic}-{s}", ["attack", "--scenario", s,
                                                 *grid]
    yield "sha256-zero-storage", ["record-train", "--algo", "sha256",
                                  "--zero-storage"]
    yield "sha256-ic2-unstable-honest", ["record-train", "--algo", "sha256",
                                         "--ic", "2", "--preset", "unstable"]
    yield "infer-honest", ["record-infer", "--algo", "sha256"]
    for s in INFERENCE_SCENARIOS:
        yield f"infer-{s}", ["attack", "--scenario", s, "--algo", "sha256"]


def _without_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_time(v) for k, v in obj.items()
                if k != "wall_time"}
    if isinstance(obj, list):
        return [_without_wall_time(v) for v in obj]
    return obj


def _invoke(runner: CliRunner, args: list[str]):
    result = runner.invoke(main, args, prog_name="aftune")
    if result.exception is not None and \
            not isinstance(result.exception, SystemExit):
        raise RuntimeError(f"aftune {shlex.join(args)} raised "
                           f"{result.exception!r}") from result.exception
    return result


def _outcome(runner: CliRunner, run_dir: Path, group: str) -> dict:
    command, *opts = shlex.split(group)
    report = run_dir / REPORTS[command]
    report.unlink(missing_ok=True)
    result = _invoke(runner, [command, str(run_dir), *opts])
    return {"exit": result.exit_code, "stdout": result.output,
            "report": _without_wall_time(json.loads(report.read_text()))
            if report.exists() else None}


def outcomes(root: Path, groups) -> dict:
    runner = CliRunner()
    out = {}
    for name, record in _runs():
        run_dir = root / name
        result = _invoke(runner, [record[0], str(run_dir), *record[1:]])
        if result.exit_code != 0:
            raise RuntimeError(f"recording {name} exited {result.exit_code}: "
                               f"{result.output}")
        ledger = (run_dir / LEDGER_FILE).read_bytes()
        out[name] = {
            "ledger_bytes": len(ledger),
            "ledger_sha256": hashlib.sha256(ledger).hexdigest(),
            "groups": {g: _outcome(runner, run_dir, g) for g in groups},
        }
    return out


def main_cli() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path, help="empty directory to record into")
    p.add_argument("--group", action="append", default=[],
                   help="one more command group, e.g. 'verify --jobs 2'")
    args = p.parse_args()
    args.root.mkdir(parents=True, exist_ok=True)
    if any(args.root.iterdir()):
        p.error(f"{args.root} is not empty")
    print(json.dumps(outcomes(args.root, GROUPS + tuple(args.group)),
                     indent=1, sort_keys=True))


if __name__ == "__main__":
    main_cli()
