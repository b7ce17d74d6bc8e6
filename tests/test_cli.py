"""Command-line surface: exit codes, reports on disk, happy paths."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import aftune
from aftune.adversary import rewrite_key
from aftune.cli import main
from aftune.grid import BoundaryKey
from aftune.store import TensorStore


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, root, *args):
    result = runner.invoke(main, ["--root", str(root), *args])
    return result


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    result = CliRunner().invoke(main, [
        "--root", str(root), "record-train", "run",
        "--n-steps", "4", "--bl", "2", "--bs", "2", "--ic", "1",
        "--batch-size", "8"])
    assert result.exit_code == 0, result.output
    return root


def test_record_train_writes_report(cli_run):
    report = json.loads((cli_run / "run" / "record_report.json").read_text())
    assert report["mode"] == "training"
    assert report["blocks"] == 6
    assert report["bytes_written"] > 0
    assert "ledger digest" in \
        CliRunner().invoke(main, ["--root", str(cli_run), "record-train",
                                  "run2", "--n-steps", "2", "--ic", "1",
                                  "--batch-size", "4"]).output


def test_verify_all_exit_zero(cli_run, runner):
    result = _invoke(runner, cli_run, "verify", "run")
    assert result.exit_code == 0, result.output
    assert "trust chain: ok" in result.output
    assert result.output.strip().endswith("PASS")
    report = json.loads((cli_run / "run" / "verify_report.json").read_text())
    assert report["ok"] and len(report["reports"]) == 6


def test_verify_single_block(cli_run, runner):
    result = _invoke(runner, cli_run, "verify", "run", "--block", "1,1")
    assert result.exit_code == 0, result.output
    assert "block 1,1: pass" in result.output


def test_verify_usage_errors(cli_run, runner):
    assert _invoke(runner, cli_run, "verify", "run", "--block",
                   "nonsense").exit_code == 2
    assert _invoke(runner, cli_run, "verify", "run", "--block",
                   "9,9").exit_code == 2
    assert _invoke(runner, cli_run, "verify", "missing-run").exit_code == 2


def test_audit_honest_run(cli_run, runner):
    result = _invoke(runner, cli_run, "audit", "run", "--m", "2", "--seed", "4")
    assert result.exit_code == 0, result.output
    assert "plan commitment" in result.output
    assert "AUDIT PASS" in result.output


def test_attack_then_audit_detects(tmp_path, runner):
    result = _invoke(runner, tmp_path, "attack", "atk",
                     "--scenario", "under-train", "--n-steps", "4",
                     "--ic", "1")
    assert result.exit_code == 0, result.output
    scenario = json.loads((tmp_path / "atk" / "scenario.json").read_text())
    assert scenario["tampered_blocks"]
    verify = _invoke(runner, tmp_path, "verify", "atk")
    assert verify.exit_code == 1
    assert "FAIL" in verify.output
    audit = _invoke(runner, tmp_path, "audit", "atk", "--strategy",
                    "explicit", "--block", scenario["tampered_blocks"][0],
                    "--m", "1")
    assert audit.exit_code == 1
    assert "AUDIT FAIL" in audit.output


def test_audit_campaign_output(tmp_path, runner):
    _invoke(runner, tmp_path, "attack", "atk", "--scenario",
            "activation-perturbation", "--n-steps", "4", "--ic", "1")
    result = _invoke(runner, tmp_path, "audit", "atk", "--m", "2",
                     "--trials", "200")
    assert result.exit_code == 0, result.output
    assert "empirical detection" in result.output
    report = json.loads((tmp_path / "atk" / "audit_report.json").read_text())
    assert report["trials"] == 200
    assert report["failing_blocks"]


def test_record_infer_and_verify(tmp_path, runner):
    result = _invoke(runner, tmp_path, "record-infer", "inf", "--bl", "2",
                     "--ia", "2")
    assert result.exit_code == 0, result.output
    verify = _invoke(runner, tmp_path, "verify", "inf")
    assert verify.exit_code == 0, verify.output


def test_prune_command(tmp_path, runner):
    _invoke(runner, tmp_path, "record-train", "run", "--n-steps", "4",
            "--ic", "1", "--batch-size", "8")
    result = _invoke(runner, tmp_path, "prune", "run", "--keep", "0,0")
    assert result.exit_code == 0, result.output
    assert "released" in result.output
    ok = _invoke(runner, tmp_path, "verify", "run", "--block", "0,0")
    assert ok.exit_code == 0
    gone = _invoke(runner, tmp_path, "verify", "run", "--block", "2,1")
    assert gone.exit_code == 1
    assert "evidence-released" in gone.output
    bad = _invoke(runner, tmp_path, "prune", "run", "--keep", "oops")
    assert bad.exit_code == 2


def test_zero_storage_record_and_verify(tmp_path, runner):
    result = _invoke(runner, tmp_path, "record-train", "zs", "--n-steps", "4",
                     "--zero-storage", "--batch-size", "8")
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "zs" / "record_report.json").read_text())
    assert report["bytes_written"] == 0
    verify = _invoke(runner, tmp_path, "verify", "zs", "--block", "0,0")
    assert verify.exit_code == 0, verify.output


def test_detection_odds_output(runner, tmp_path):
    result = _invoke(runner, tmp_path, "detection-odds")
    assert result.exit_code == 0
    assert "0.653072" in result.output


def test_bench_hash_schedule_check(runner, tmp_path):
    result = _invoke(runner, tmp_path, "bench-hash", "--sizes", "4096",
                     "--chunk-sizes", "1024,4096", "--workers", "1,4",
                     "--algos", "sha256")
    assert result.exit_code == 0, result.output
    assert "MB/s" in result.output


def test_verify_isolated_jobs(cli_run, runner):
    result = _invoke(runner, cli_run, "verify", "run", "--jobs", "2")
    assert result.exit_code == 0, result.output


def test_isolated_verify_from_a_source_checkout(cli_run, tmp_path):
    # the package is importable only through sys.path, not PYTHONPATH
    src = str(Path(aftune.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from aftune.cli import main; main(sys.argv[2:])")
    proc = subprocess.run(
        [sys.executable, "-c", code, src, "--root", str(cli_run), "verify",
         "run", "--block", "0,1", "--isolated"],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((cli_run / "run" / "verify_report.json").read_text())
    assert [r["verdict"] for r in report["reports"]] == ["pass"]


@pytest.fixture(scope="module")
def sha_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sha")
    result = CliRunner().invoke(main, [
        "--root", str(root), "record-train", "run", "--n-steps", "4",
        "--algo", "sha256", "--batch-size", "8"])
    assert result.exit_code == 0, result.output
    return root / "run"


@pytest.mark.parametrize("cut", [7, 100, 5000])
def test_truncated_ledger_is_a_usage_error(sha_run, tmp_path, runner, cut):
    run = tmp_path / "cut"
    shutil.copytree(sha_run, run)
    ledger = run / "ledger.bin"
    ledger.write_bytes(ledger.read_bytes()[:-cut])
    result = _invoke(runner, tmp_path, "verify", "cut")
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "ledger" in result.output


def test_reports_are_strict_json(sha_run, tmp_path, runner):
    run = tmp_path / "nan"
    shutil.copytree(sha_run, run)
    key = BoundaryKey("activation", 1, 2)
    shape = TensorStore(run).get_tensor(key).shape
    rewrite_key(run, key, np.full(shape, np.nan, np.float32))
    result = _invoke(runner, tmp_path, "verify", "nan")
    assert result.exit_code == 1, result.output

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (run / "verify_report.json").read_text()
    payload = json.loads(text, parse_constant=reject)
    failing = [r for r in payload["reports"] if r["failed_key"] == str(key)
               and r["cause"] == "numerical-mismatch"]
    assert failing
    for r in failing:
        assert r["errors"][str(key)] is None
        assert r["measured_error"] is None


@pytest.mark.parametrize("field", ["mode", "grid", "model", "hash_algo",
                                   "dataset", "run_seed", "label_anchors"])
def test_garbled_manifest_field_is_a_usage_error(sha_run, tmp_path, runner,
                                                 field):
    # one byte of the key's name flipped: well-formed ledger bytes whose
    # manifest lacks a field the run session reads
    run = tmp_path / "garbled"
    shutil.copytree(sha_run, run)
    ledger = run / "ledger.bin"
    data = ledger.read_bytes()
    key = f'"{field}"'.encode()
    assert data.count(key) == 1
    ledger.write_bytes(data.replace(key, key[:-2] + b'X"'))
    for args in (["verify", "garbled"], ["audit", "garbled", "--m", "1"]):
        result = _invoke(runner, tmp_path, *args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


def test_zeroed_label_anchors_fail_verify(sha_run, tmp_path, runner):
    from aftune.ledger import RunLedger
    run = tmp_path / "zeroed"
    shutil.copytree(sha_run, run)
    ledger = RunLedger.load(run / "ledger.bin")
    anchors = ledger.manifest["label_anchors"]
    ledger.manifest["label_anchors"] = ["0" * 64] * len(anchors)
    ledger.save(run / "ledger.bin")
    result = _invoke(runner, tmp_path, "verify", "zeroed")
    assert result.exit_code == 1, result.output
    assert "fail (hash-mismatch" in result.output
