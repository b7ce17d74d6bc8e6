"""Command-line surface: exit codes, reports on disk, happy paths."""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import aftune
from aftune.adversary import rewrite_key
from aftune.cli import main
from aftune.grid import BlockId, BoundaryKey
from aftune.ledger import RunLedger, ledger_digest
from aftune.orchestrate import ReconstructionError, Run
from aftune.model import StepTrace
from aftune.recorder import LEDGER_FILE, record_training, reference_closure
from aftune.store import TensorStore
from aftune.verifier import REFUSED

from conftest import make_manifest


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
    assert result.output.strip().endswith("PASS")
    report = json.loads((cli_run / "run" / "verify_report.json").read_text())
    assert report["ok"] and len(report["reports"]) == 6
    assert report["trust_chain"] == {"ok": True, "problems": []}


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
    report = json.loads((tmp_path / "inf" / "record_report.json").read_text())
    assert report["ledger_digest"] == \
        ledger_digest(tmp_path / "inf" / LEDGER_FILE, "blake3")


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


# every command and its options; a knob added or removed shows up here
CLI_SURFACE = {
    "attack": ["--algo", "--bl", "--bs", "--chunk-size", "--ia", "--ic",
               "--n-steps", "--preset", "--scenario", "--seed", "out_dir"],
    "attack-stats": ["--bl-values", "--out", "--seed", "--steps"],
    "audit": ["--block", "--isolated", "--m", "--seed", "--strategy",
              "--trials", "run_dir"],
    "detection-odds": ["--k", "--m", "--n"],
    "prune": ["--keep", "run_dir"],
    "record-infer": ["--algo", "--bl", "--chunk-size", "--ia",
                     "--input-seed", "--model-seed", "--preset", "out_dir"],
    "record-train": ["--algo", "--batch-size", "--bl", "--bs",
                     "--chunk-size", "--ic", "--lr", "--model-seed",
                     "--n-steps", "--optimizer", "--preset", "--seed",
                     "--zero-storage", "out_dir"],
    "verify": ["--block", "--full-scan", "--isolated", "--jobs", "run_dir"],
}


def _names(command) -> list[str]:
    return sorted(o for p in command.params for o in p.opts + p.secondary_opts)


def test_cli_surface_is_pinned():
    assert _names(main) == ["--root", "--version"]
    assert {name: _names(c) for name, c in main.commands.items()} \
        == CLI_SURFACE


# Each row's id is explicit, so a row keeps its name wherever it moves.
# The rows of the first two tables that predate explicit ids keep the
# positional names pytest gave them.
REMOVED_KNOBS = {
    "args0": ["bench-hash"],
    "args1": ["verify", "run", "--all"],
    "args2": ["verify", "run", "--no-trust-chain"],
    "args3": ["verify", "run", "--trust-chain"],
    "args4": ["verify", "run", "--precision", "f64"],
    "args5": ["record-train", "out", "--ia", "2"],
    "args6": ["record-infer", "out", "--ic", "2"],
    # no command takes a tolerance: a replay must reproduce the committed
    # bytes, so neither the provider nor the auditor can loosen it
    "args7": ["record-train", "out", "--tau", "0"],
    "args8": ["record-train", "out", "--tau", "-1"],
    "args9": ["record-train", "out", "--tau", "nan"],
    "args10": ["record-train", "out", "--tau", "inf"],
    "args11": ["record-infer", "out", "--tau", "nan"],
    "args12": ["attack", "out", "--scenario", "under-train", "--tau", "1e-5"],
    "verify-tau-0": ["verify", "run", "--tau", "0"],
    "verify-tau-nan": ["verify", "run", "--tau", "nan"],
    "verify-tau-negative": ["verify", "run", "--tau", "-1"],
    "verify-tau-inf": ["verify", "run", "--tau", "inf"],
    "verify-tau-loose": ["verify", "run", "--tau", "0.5"],
}


@pytest.mark.parametrize("args", list(REMOVED_KNOBS.values()),
                         ids=list(REMOVED_KNOBS))
def test_removed_knobs_are_usage_errors(cli_run, runner, args):
    _exits_cleanly(_invoke(runner, cli_run, *args), 2)


# a count of workers or trials must mean something, and a seed must fit
# in signed 64 bits
VERIFY_AND_AUDIT_BAD_VALUES = {
    "verify-jobs-0": ["verify", "out", "--jobs", "0"],
    "verify-jobs-negative": ["verify", "out", "--jobs", "-3"],
    "audit-trials-negative": ["audit", "out", "--trials", "-4"],
    "audit-seed-2**76": ["audit", "out", "--seed", "99999999999999999999999"],
    "audit-seed-2**76-trials": ["audit", "out", "--seed",
                                "99999999999999999999999", "--trials", "3"],
}

BAD_OPTION_VALUES = {
    "args0": ["record-train", "out", "--bl", "0"],
    "args1": ["record-train", "out", "--ic", "0"],
    # --ic is a checkpoint interval: zero-storage is --zero-storage
    "ic-none": ["record-train", "out", "--ic", "none"],
    "ic-zero-storage": ["record-train", "out", "--ic", "zero-storage"],
    # --zero-storage stores no checkpoint, yet its --ic is checked alike
    "zero-storage-ic-banana": ["record-train", "out", "--zero-storage",
                               "--ic", "banana"],
    "zero-storage-ic-0": ["record-train", "out", "--zero-storage", "--ic",
                          "0"],
    "args2": ["record-train", "out", "--lr", "nan"],
    "args3": ["record-train", "out", "--lr", "inf"],
    "args4": ["record-train", "out", "--lr", "-inf"],
    "args5": ["record-train", "out", "--chunk-size", "0"],
    "args6": ["record-train", "out", "--batch-size", "0"],
    "args7": ["record-train", "out", "--n-steps", "0", "--bs", "1"],
    "args8": ["record-infer", "out", "--bl", "99"],
    "args9": ["record-infer", "out", "--ia", "0"],
    "args10": ["attack", "out", "--scenario", "under-train", "--bs", "0"],
    "args11": ["attack", "out", "--scenario", "fabricate-output", "--ia",
               "0"],
    "args12": ["detection-odds", "--k", "2000"],
    "args13": ["detection-odds", "--m", "-1"],
    "args14": ["detection-odds", "--n", "0", "--k", "0"],
    "args15": ["attack-stats", "--bl-values", "2,0", "--steps", "1"],
    "args16": ["attack-stats", "--bl-values", "a", "--steps", "1"],
    "args17": ["record-train", "out", "--seed", "99999999999999999999999"],
    "args18": ["record-train", "out", "--model-seed",
               "-99999999999999999999999"],
    "args19": ["record-infer", "out", "--model-seed",
               "99999999999999999999999"],
    **VERIFY_AND_AUDIT_BAD_VALUES,
    # the tampering draws from np.random.default_rng(seed), which takes no
    # negative seed: refused before any run is recorded
    "args29": ["attack", "out", "--scenario", "activation-perturbation",
               "--n-steps", "4", "--seed", "-1"],
    "args30": ["attack", "out", "--scenario", "serve-wrong-model", "--seed",
               "-1"],
    "args31": ["attack-stats", "--steps", "1", "--seed", "-1"],
}


@pytest.mark.parametrize("args", list(BAD_OPTION_VALUES.values()),
                         ids=list(BAD_OPTION_VALUES))
def test_bad_option_value_is_a_usage_error(tmp_path, runner, args):
    result = _invoke(runner, tmp_path, *args)
    _exits_cleanly(result, 2)
    assert "Error:" in result.output
    assert not (tmp_path / "out").exists()


def test_zero_storage_records_no_checkpoint_interval(tmp_path, runner):
    # a valid --ic beside --zero-storage is checked, then dropped
    assert _invoke(runner, tmp_path, "record-train", "run", "--zero-storage",
                   "--ic", "3", "--n-steps", "2").exit_code == 0
    grid = RunLedger.load(tmp_path / "run" / LEDGER_FILE).manifest["grid"]
    assert grid["zero_storage"] and grid["ic"] is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_record_train_is_a_usage_error(tmp_path, runner):
    # --lr 1e30 is finite in float32, so the run starts; step 0's update
    # makes the parameters huge and step 1's forward overflows
    result = _invoke(runner, tmp_path, "record-train", "r", "--lr", "1e30",
                     "--n-steps", "4")
    _exits_cleanly(result, 2)
    assert "Error: training diverged at step 1: non-finite values" \
        in result.output
    assert not (tmp_path / "r" / "record_report.json").exists()


@pytest.mark.parametrize("args", list(VERIFY_AND_AUDIT_BAD_VALUES.values()),
                         ids=list(VERIFY_AND_AUDIT_BAD_VALUES))
def test_bad_value_is_refused_before_the_run_is_opened(tmp_path, runner,
                                                       args):
    assert _invoke(runner, tmp_path, "record-train", "out", "--n-steps", "2",
                   "--batch-size", "4").exit_code == 0
    before = sorted(p.name for p in (tmp_path / "out").iterdir())
    result = _invoke(runner, tmp_path, *args)
    _exits_cleanly(result, 2)
    assert "Invalid value for" in result.output
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == before


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


def _record_sha_run(tmp_path_factory, *storage) -> Path:
    """A 4-step sha256 training run recorded with ``storage`` options."""
    root = tmp_path_factory.mktemp("sha")
    result = CliRunner().invoke(main, [
        "--root", str(root), "record-train", "run", "--n-steps", "4",
        "--algo", "sha256", "--batch-size", "8", *storage])
    assert result.exit_code == 0, result.output
    return root / "run"


@pytest.fixture(scope="module")
def sha_run(tmp_path_factory):
    return _record_sha_run(tmp_path_factory)


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


@pytest.mark.parametrize("field", ["mode", "grid", "model", "hash_algo",
                                   "dataset", "run_seed", "batch_size"])
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


# model specs a manifest may not carry; every one is a usage error
MALFORMED_MODELS = {
    "seed-2**70": lambda model: model.update(seed=2**70),
    "string-seed": lambda model: model.update(seed="7"),
    "no-layers": lambda model: model.pop("layers"),
    "unknown-layer-kind":
        lambda model: model["layers"][0].update(kind="no-such-layer"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_manifest_model_is_a_usage_error(sha_run, tmp_path, runner,
                                                   case):
    run = tmp_path / "bad-model"
    shutil.copytree(sha_run, run)
    ledger = RunLedger.load(run / LEDGER_FILE)
    MALFORMED_MODELS[case](ledger.manifest["model"])
    ledger.save(run / LEDGER_FILE)
    for args in (["verify", "bad-model"], ["audit", "bad-model", "--m", "1"],
                 ["verify", "bad-model", "--isolated"]):
        _exits_cleanly(_invoke(runner, tmp_path, *args), 2)


# training seeds a manifest may not carry: RunContext derives from both
MALFORMED_SEEDS = {
    "run-seed-2**70": lambda manifest: manifest.update(run_seed=2**70),
    "dataset-seed-2**70":
        lambda manifest: manifest["dataset"]["spec"].update(seed=2**70),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SEEDS))
def test_malformed_manifest_seed_is_a_usage_error(sha_run, tmp_path, runner,
                                                  case):
    run = tmp_path / "bad-seed"
    shutil.copytree(sha_run, run)
    ledger = RunLedger.load(run / LEDGER_FILE)
    MALFORMED_SEEDS[case](ledger.manifest)
    ledger.save(run / LEDGER_FILE)
    for args in (["verify", "bad-seed"], ["audit", "bad-seed", "--m", "1"],
                 ["verify", "bad-seed", "--isolated"]):
        _exits_cleanly(_invoke(runner, tmp_path, *args), 2)


@pytest.fixture(scope="module")
def sha_inf_run(tmp_path_factory):
    return _record_sha_run(tmp_path_factory, "--ic", "inf")


# optimizer specs a manifest may not carry: a kind outside OPTIMIZER_KINDS,
# a hyperparameter its constructor does not take, or a value that is not
# a finite number
MALFORMED_OPTIMIZERS = {
    "lr-string": lambda opt: opt.update(lr="abc"),
    "beta1-null": lambda opt: opt.update(beta1=None),
    "unknown-kind": lambda opt: opt.update(kind="lion"),
    "extra-key": lambda opt: opt.update(foo=1),
    "lr-list": lambda opt: opt.update(lr=[1]),
    "lr-nan": lambda opt: opt.update(lr=float("nan")),
    "lr-bool": lambda opt: opt.update(lr=True),
    "no-kind": lambda opt: opt.pop("kind"),
}


@pytest.mark.parametrize("ic", ["2", "inf"])
@pytest.mark.parametrize("case", sorted(MALFORMED_OPTIMIZERS))
def test_malformed_manifest_optimizer_is_a_usage_error(
        sha_run, sha_inf_run, tmp_path, runner, case, ic):
    run = tmp_path / "bad-opt"
    shutil.copytree(sha_run if ic == "2" else sha_inf_run, run)
    ledger = RunLedger.load(run / LEDGER_FILE)
    MALFORMED_OPTIMIZERS[case](ledger.manifest["optimizer"])
    ledger.save(run / LEDGER_FILE)
    for args in (["verify", "bad-opt"], ["audit", "bad-opt", "--m", "2"],
                 ["verify", "bad-opt", "--isolated"]):
        result = _invoke(runner, tmp_path, *args)
        _exits_cleanly(result, 2)
        assert "optimizer" in result.output


def _exits_cleanly(result, code):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_forged_optimizer_counter_is_refused(mlp_run, tmp_path, runner):
    # a self-consistent checkpoint whose layers disagree on the step count
    run = tmp_path / "counter"
    shutil.copytree(mlp_run["dir"], run)
    key = BoundaryKey("optimizer-state", 0, 4)
    blob = TensorStore(run).get_bytes(key)
    rewrite_key(run, key, struct.pack("<I", 99) + blob[4:])
    # 0,2 loads the checkpoint in the verifier, 0,3 replays from it in
    # the orchestrator; both alone and in one walk
    bids = [BlockId(0, 2), BlockId(0, 3)]
    in_proc = Run.open(run).verify(bids) + \
        [Run.open(run).verify([b])[0] for b in bids]
    isolated = Run.open(run).verify(bids, isolated=True) + \
        [Run.open(run).verify([b], isolated=True)[0] for b in bids]
    assert [r.verdict for r in in_proc] == [REFUSED] * 4
    assert all("inconsistent optimizer counters" in r.note for r in in_proc)
    assert [r.to_json() for r in isolated] == [r.to_json() for r in in_proc]
    for args in (["verify", "counter"], ["verify", "counter", "--isolated"],
                 ["verify", "counter", "--block", "0,3"],
                 ["audit", "counter", "--strategy", "explicit",
                  "--block", "0,2", "--block", "0,3"]):
        _exits_cleanly(_invoke(runner, tmp_path, *args), 1)
    with pytest.raises(ReconstructionError, match="optimizer counters"):
        Run.open(run).state_at(4)


def test_missing_index_is_evidence_released(sha_run, tmp_path, runner):
    # what a recording that crashed before its end leaves behind
    run = tmp_path / "noindex"
    shutil.copytree(sha_run, run)
    (run / "index.json").unlink()
    for args in (["verify", "noindex"], ["verify", "noindex", "--isolated"],
                 ["audit", "noindex", "--m", "3"]):
        _exits_cleanly(_invoke(runner, tmp_path, *args), 1)
    reports = json.loads((run / "verify_report.json").read_text())["reports"]
    assert {r["verdict"] for r in reports} == {"evidence-released"}
    assert all(r["note"].startswith("no index entry for ") for r in reports)

    with pytest.raises(ReconstructionError, match="no index entry"):
        Run.open(run).state_at(2)

    assert _invoke(runner, tmp_path, "record-infer", "infer").exit_code == 0
    (tmp_path / "infer" / "index.json").unlink()
    _exits_cleanly(_invoke(runner, tmp_path, "verify", "infer"), 1)


@pytest.mark.parametrize("text", ['{"activation:0@0": ', "[]",
                                  '{"activation:1@0": {"digest": "zz"}}'],
                         ids=["truncated", "not-an-object", "malformed-entry"])
def test_garbled_index_is_a_usage_error(sha_run, tmp_path, runner, text):
    run = tmp_path / "badindex"
    shutil.copytree(sha_run, run)
    (run / "index.json").write_text(text)
    for args in (["verify", "badindex"], ["audit", "badindex", "--m", "1"],
                 ["prune", "badindex", "--keep", "0,0"]):
        result = _invoke(runner, tmp_path, *args)
        _exits_cleanly(result, 2)
        assert "index.json" in result.output


@pytest.mark.parametrize("kind,keep", [("parameter", -4),
                                       ("optimizer-state", 2)],
                         ids=["parameter-4-bytes-short",
                              "optimizer-state-without-counter"])
def test_short_checkpoint_blob_is_refused(cli_run, tmp_path, runner, kind,
                                          keep):
    # a self-consistently rewritten checkpoint blob that does not decode:
    # the --ic 1 run stores the step-2 state, which block 0,1 starts from
    run = tmp_path / "short"
    shutil.copytree(cli_run / "run", run)
    key = BoundaryKey(kind, 0, 2)
    rewrite_key(run, key, TensorStore(run).get_bytes(key)[:keep])
    for args in (["verify", "short"], ["verify", "short", "--block", "0,1"],
                 ["verify", "short", "--block", "0,1", "--isolated"],
                 ["audit", "short", "--strategy", "explicit", "--block",
                  "0,1"]):
        result = _invoke(runner, tmp_path, *args)
        _exits_cleanly(result, 1)
        assert "block 0,1: refused" in result.output


@pytest.mark.parametrize("scenario", ["serve-wrong-model", "fabricate-output"])
def test_inference_attack_records_what_record_infer_does(tmp_path, runner,
                                                         scenario):
    opts = ["--preset", "attention", "--algo", "sha256", "--bl", "1"]
    assert _invoke(runner, tmp_path, "record-infer", "honest",
                   *opts).exit_code == 0
    assert _invoke(runner, tmp_path, "attack", "atk", "--scenario", scenario,
                   *opts).exit_code == 0
    honest, attacked = Run.open(tmp_path / "honest"), Run.open(tmp_path / "atk")
    assert attacked.manifest == honest.manifest
    assert attacked.manifest["hash_algo"] == "sha256"
    assert _invoke(runner, tmp_path, "verify", "honest").exit_code == 0
    _exits_cleanly(_invoke(runner, tmp_path, "verify", "atk"), 1)


# -- forged or pruned commitments -----------------------------------------


def _forge_block_1_0(run, forge):
    """Apply ``forge`` to block 1,0's sealed commitment and save it."""
    from aftune.ledger import RunLedger
    ledger = RunLedger.load(run / "ledger.bin")
    forge(ledger.entry_for(BlockId(1, 0)).entries)
    ledger.save(run / "ledger.bin")


def test_out_of_grid_entry_is_a_usage_error(sha_run, tmp_path, runner):
    # the last row's frame filed again, as a third row of a 2-row grid
    run = tmp_path / "outside"
    shutil.copytree(sha_run, run)
    _, rows = _ledger_frames((run / "ledger.bin").read_bytes())
    with open(run / "ledger.bin", "ab") as f:
        f.write(struct.pack("<I", len(rows[-1])) + rows[-1])
    for args in (["verify", "outside"], ["verify", "outside", "--isolated"],
                 ["audit", "outside", "--m", "3"],
                 ["audit", "outside", "--m", "3", "--isolated"]):
        result = _invoke(runner, tmp_path, *args)
        _exits_cleanly(result, 2)
        assert "ledger row 2 lies outside the manifest's grid of 2 rows" \
            in result.output


def _ledger_frames(data: bytes) -> tuple[bytes, list[bytes]]:
    """The header (magic and manifest frame) and the rows of ledger
    bytes."""
    off = 10 + struct.unpack_from("<I", data, 6)[0]
    head, rows = data[:off], []
    while off < len(data):
        (n,) = struct.unpack_from("<I", data, off)
        rows.append(data[off + 4:off + 4 + n])
        off += 4 + n
    return head, rows


def _aftl1(ledger: RunLedger) -> bytes:
    """``ledger`` in the AFTL1 format: each entry framed as its block and
    key count, then per key its kind, index, step and algorithm codes and
    its digest, then a 65-byte signature slot."""
    kinds = ("activation", "gradient", "parameter", "optimizer-state")
    frames = [json.dumps(ledger.manifest, sort_keys=True,
                         separators=(",", ":")).encode()]
    for e in ledger.entries:
        frames.append(
            struct.pack("<IIH", e.block.i, e.block.j, len(e.entries))
            + b"".join(struct.pack("<BIIB", kinds.index(k.kind), k.index,
                                   k.step, ("blake3", "sha256").index(d.algo))
                       + d.value for k, d in sorted(e.entries.items()))
            + bytes(65))
    return b"AFTL1\x00" + b"".join(struct.pack("<I", len(f)) + f
                                    for f in frames)


def _aftl2(ledger: RunLedger) -> bytes:
    """``ledger`` in the AFTL2 format: one entry per block, framed as its
    block and then the digest of each key of its schedule, so a key two
    blocks share is committed twice."""
    frames = [json.dumps(ledger.manifest, sort_keys=True,
                         separators=(",", ":")).encode()]
    frames += [struct.pack("<II", e.block.i, e.block.j)
               + b"".join(d.value for d in e.entries.values())
               for e in ledger.entries]
    return b"AFTL2\x00" + b"".join(struct.pack("<I", len(f)) + f
                                    for f in frames)


def _misfiled(head: bytes, rows: list[bytes], case: str) -> bytes:
    """The ledger of ``head`` and ``rows`` (a 2-row grid's, in order)
    broken as ``case`` says."""
    rows = list(rows)
    if case == "one-digest-short":
        rows[-1] = rows[-1][:-32]
    elif case == "one-digest-long":
        rows[-1] += rows[-1][-32:]
    elif case == "duplicate-block":
        rows.append(rows[-1])
    else:  # row 1 before row 0
        rows.reverse()
    return head + b"".join(struct.pack("<I", len(r)) + r for r in rows)


MALFORMED_LEDGERS = {
    "one-digest-short": "ledger row 1 is 864 bytes, not its 28 digests",
    "one-digest-long": "ledger row 1 is 928 bytes, not its 28 digests",
    "duplicate-block": "ledger row 2 lies outside the manifest's grid of 2 "
                       "rows",
    "row-before-earlier-complete": "ledger row 0 is 896 bytes, not its 40 "
                                   "digests",
    "aftl1": "bad ledger magic: not an AFTL3 ledger",
    "aftl2": "bad ledger magic: not an AFTL3 ledger",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
def test_malformed_ledger_is_a_usage_error(sha_run, tmp_path, runner, case):
    run = tmp_path / "malformed"
    shutil.copytree(sha_run, run)
    path = run / "ledger.bin"
    if case in ("aftl1", "aftl2"):
        encode = {"aftl1": _aftl1, "aftl2": _aftl2}[case]
        path.write_bytes(encode(RunLedger.load(path)))
    else:
        path.write_bytes(_misfiled(*_ledger_frames(path.read_bytes()), case))
    for args in (["verify"], ["verify", "--isolated"], ["audit", "--m", "3"],
                 ["audit", "--m", "3", "--isolated"]):
        result = _invoke(runner, tmp_path, args[0], "malformed", *args[1:])
        _exits_cleanly(result, 2)
        assert MALFORMED_LEDGERS[case] in result.output


def _damaged_ledgers(data: bytes, rng) -> dict[str, bytes]:
    """``data``, a ledger's bytes, cut at every frame boundary and inside
    every frame (in its length prefix and in its body), and with one bit
    flipped in every length prefix and at 64 byte offsets past the
    manifest frame drawn from ``rng``."""
    frames, off = [], 6  # (start, end) of each frame, its prefix included
    while off < len(data):
        end = off + 4 + struct.unpack_from("<I", data, off)[0]
        frames.append((off, end))
        off = end
    damaged = {}
    for start, end in frames:
        for n in (start, start + 2, (start + 4 + end) // 2):
            damaged[f"cut-{n}"] = data[:n]
    past_manifest = range(frames[0][1], len(data))
    for n in sorted({p + k for p, _ in frames for k in range(4)}
                    | set(rng.sample(past_manifest, 64))):
        flipped = bytearray(data)
        flipped[n] ^= 1 << rng.randrange(8)
        damaged[f"flip-{n}"] = bytes(flipped)
    return damaged


def test_damaged_ledger_never_verifies(sha_run, tmp_path, runner):
    # a ledger cut short or with one bit flipped anywhere past its
    # manifest fails (exit 1) or is refused (exit 2); it never passes
    import random
    data = (sha_run / "ledger.bin").read_bytes()
    run = tmp_path / "damaged"
    shutil.copytree(sha_run, run)
    damaged = _damaged_ledgers(data, random.Random(28))
    assert sum(k.startswith("cut-") for k in damaged) == 3 * 3
    assert sum(k.startswith("flip-") for k in damaged) >= 64
    for case, ledger in damaged.items():
        (run / "ledger.bin").write_bytes(ledger)
        result = _invoke(runner, tmp_path, "verify", "damaged")
        assert result.exit_code in (1, 2), (case, result.output)
        assert isinstance(result.exception, SystemExit), case


@pytest.mark.parametrize("edit", ["omitted", "extra", "other-algorithm"])
def test_commitment_set_off_its_schedule_cannot_be_saved(sha_run, tmp_path,
                                                         edit):
    # an entry is its key schedule's digests, so a set that drops a key,
    # adds one, or holds a digest in another algorithm cannot be written
    from aftune.hashing import Digest
    from aftune.ledger import LedgerError, RunLedger
    run = tmp_path / "off-schedule"
    shutil.copytree(sha_run, run)
    before = (run / "ledger.bin").read_bytes()
    key = BoundaryKey("activation", 1, 0)
    forge = {"omitted": lambda e: e.pop(key),
             "extra": lambda e: e.update(
                 {BoundaryKey("activation", 9, 0): e[key]}),
             "other-algorithm": lambda e: e.update(
                 {key: Digest(e[key].value, "blake3")})}[edit]
    with pytest.raises(LedgerError, match="block 1,0 does not hold its key "
                                          "schedule's 16 sha256 digests"):
        _forge_block_1_0(run, forge)
    assert (run / "ledger.bin").read_bytes() == before


def test_prune_at_infinite_interval_keeps_the_replay_inputs(tmp_path, runner):
    # with no mid-run checkpoint, block 0,2's row replays from the init
    assert _invoke(runner, tmp_path, "record-train", "run", "--ic", "inf",
                   "--algo", "sha256", "--batch-size", "8").exit_code == 0
    assert _invoke(runner, tmp_path, "prune", "run", "--keep",
                   "0,2").exit_code == 0
    result = _invoke(runner, tmp_path, "verify", "run")
    _exits_cleanly(result, 1)
    assert "block 0,2: pass" in result.output
    assert "block 1,2: evidence-released" in result.output
    assert _invoke(runner, tmp_path, "verify", "run", "--block",
                   "0,2").exit_code == 0


def test_the_loss_block_row_replay_reads_no_seed_gradient(tmp_path, runner):
    # the loss block backpropagates the seed its loss derives, so neither
    # replaying its row to block 2,3's entry nor the block itself reads a
    # gradient:3@t: the recorder stores none, and the block verifies
    assert _invoke(runner, tmp_path, "record-train", "run", "--n-steps", "8",
                   "--bl", "2", "--bs", "2", "--ic", "inf",
                   "--algo", "sha256").exit_code == 0
    index = json.loads((tmp_path / "run" / "index.json").read_text())
    assert not [k for k in index if k.startswith("gradient:3@")]
    for args in ([], ["--isolated"]):
        result = _invoke(runner, tmp_path, "verify", "run", "--block", "2,3",
                         *args)
        assert result.exit_code == 0, result.output
    grid = Run.open(tmp_path / "run").grid
    keep = {str(k) for k in reference_closure(grid, [BlockId(2, 3)],
                                              "training")}
    assert not {f"gradient:3@{t}" for t in range(8)} & keep
    assert {f"activation:2@{t}" for t in range(8)} <= keep


def test_reports_hold_blocks_and_keys_as_strings(tmp_path, runner):
    # blocks and keys are tuples in memory; a JSON report holds each as
    # its "i,j" or "kind:index@step" string, never as a list
    assert _invoke(runner, tmp_path, "attack", "atk", "--scenario",
                   "activation-perturbation", "--n-steps", "4",
                   "--ic", "1").exit_code == 0
    assert _invoke(runner, tmp_path, "record-infer", "inf",
                   "--bl", "2").exit_code == 0
    atk, inf = tmp_path / "atk", tmp_path / "inf"
    reports = [json.loads((atk / "scenario.json").read_text()),
               json.loads((inf / "record_report.json").read_text())]
    for run, args, name in (
            (atk, ["verify", "--full-scan"], "verify_report.json"),
            (atk, ["audit", "--m", "3"], "audit_report.json"),
            (atk, ["audit", "--trials", "5"], "audit_report.json"),
            (inf, ["verify"], "verify_report.json")):
        _invoke(runner, tmp_path, args[0], run.name, *args[1:])
        reports.append(json.loads((run / name).read_text()))
    named = []

    def walk(v, name=None):
        if isinstance(v, dict):
            if name == "verdicts":
                named.extend(v)
            for k, x in v.items():
                walk(x, k)
        elif isinstance(v, list):
            assert not (len(v) in (2, 3)
                        and all(type(x) is int for x in v[-2:])), v
            for x in v:
                walk(x, name)
        elif name in ("block", "failed_key", "key", "sampled",
                      "failing_blocks", "tampered_blocks") and v is not None:
            named.append(v)

    for report in reports:
        walk(report)
    assert {type(s) for s in named} == {str}
    keys = [s for s in named if ":" in s]
    assert keys and all(str(BoundaryKey.parse(s)) == s for s in keys)
    assert all(str(BlockId.parse(s)) == s for s in named if ":" not in s)


def test_prune_of_an_inference_run_keeps_what_its_schedule_commits(
        tmp_path, runner):
    # at --ia 2 block 1,0 commits activation:0@0 and activation:2@0,
    # where the training schedule would name activation:1@0 and :2@0
    assert _invoke(runner, tmp_path, "record-infer", "inf", "--bl", "1",
                   "--ia", "2", "--algo", "sha256").exit_code == 0
    assert _invoke(runner, tmp_path, "prune", "inf", "--keep",
                   "1,0").exit_code == 0
    for args in ([], ["--isolated"]):
        result = _invoke(runner, tmp_path, "verify", "inf", "--block", "1,0",
                         *args)
        assert result.exit_code == 0, result.output
    result = _invoke(runner, tmp_path, "verify", "inf")
    _exits_cleanly(result, 1)
    assert "block 3,0: evidence-released" in result.output


@pytest.mark.parametrize("second", [
    ["record-train", "--n-steps", "8", "--ic", "4", "--seed", "6"],
    ["record-infer"],
    ["attack", "--scenario", "under-train"],
    ["attack", "--scenario", "fabricate-output"],
])
def test_recording_into_a_recorded_run_is_a_usage_error(tmp_path, runner,
                                                        second):
    # the second run's evidence would mix with the first's and fail it
    assert _invoke(runner, tmp_path, "record-train", "run", "--n-steps", "8",
                   "--ic", "1", "--algo", "sha256",
                   "--seed", "5").exit_code == 0

    def files():
        return {p: p.read_bytes() for p in (tmp_path / "run").rglob("*")
                if p.is_file()}

    before = files()
    result = _invoke(runner, tmp_path, second[0], "run", *second[1:],
                     "--algo", "sha256")
    _exits_cleanly(result, 2)
    assert "already holds a recorded run" in result.output
    assert files() == before
    result = _invoke(runner, tmp_path, "verify", "run")
    assert result.exit_code == 0, result.output
    assert result.output.endswith("PASS\n")


def test_short_boundary_blob_is_evidence_released(sha_run, tmp_path, runner):
    # a blob file cut on disk, behind the index's back
    run = tmp_path / "cutblob"
    shutil.copytree(sha_run, run)
    key = BoundaryKey("activation", 1, 0)
    blob = run / "store" / TensorStore(run).index[str(key)]["digest"]
    blob.write_bytes(blob.read_bytes()[:-3])
    for args in (["verify", "cutblob"], ["verify", "cutblob", "--isolated"],
                 ["audit", "cutblob", "--strategy", "explicit",
                  "--block", "1,0"]):
        _exits_cleanly(_invoke(runner, tmp_path, *args), 1)
    reports = json.loads((run / "verify_report.json").read_text())["reports"]
    released = {r["block"] for r in reports
                if r["verdict"] == "evidence-released"}
    assert {"0,0", "1,0"} <= released
    assert all("do not fill shape" in r["note"] for r in reports
               if r["block"] in ("0,0", "1,0"))
    with pytest.raises(ReconstructionError, match="do not fill shape"):
        Run.open(run).state_at(2)


@pytest.mark.parametrize("plan", [["--m", "0"], ["--m", "1000"],
                                  ["--m", "1000", "--trials", "5"],
                                  ["--strategy", "explicit", "--block", "99,99"],
                                  ["--strategy", "explicit", "--block", "1"],
                                  ["--strategy", "explicit"]])
def test_unservable_audit_plan_is_a_usage_error(sha_run, runner, plan):
    for extra in ([], ["--isolated"]):
        result = _invoke(runner, sha_run.parent, "audit", "run", *plan,
                         *extra)
        _exits_cleanly(result, 2)
        assert "Error:" in result.output


def _count_decodes(monkeypatch) -> list:
    """The rows the ledger decodes while the test runs, in order."""
    decoded = []
    decode = RunLedger._decode_row

    def counted(self, j):
        decoded.append(j)
        return decode(self, j)

    monkeypatch.setattr(RunLedger, "_decode_row", counted)
    return decoded


def test_spot_checks_decode_only_the_entries_they_read(tmp_path, runner,
                                                        monkeypatch):
    assert _invoke(runner, tmp_path, "record-train", "run", "--n-steps",
                   "384", "--ic", "2", "--algo", "sha256",
                   "--batch-size", "8").exit_code == 0
    decoded = _count_decodes(monkeypatch)
    # a checked block's own row and the row above it
    for args, checked in ((["audit", "run", "--m", "3", "--seed", "1"], 3),
                          (["audit", "run", "--strategy", "explicit",
                            "--block", "0,0", "--block", "2,191"], 2),
                          (["verify", "run", "--block", "1,100"], 1)):
        decoded.clear()
        result = _invoke(runner, tmp_path, *args)
        assert result.exit_code == 0, result.output
        assert 0 < len(decoded) <= 2 * checked, (args, decoded)


def test_full_verify_decodes_each_entry_once(sha_run, runner, monkeypatch):
    rows = RunLedger.load(sha_run / "ledger.bin").grid.n_step_blocks
    decoded = _count_decodes(monkeypatch)
    result = _invoke(runner, sha_run.parent, "verify", "run")
    assert result.exit_code == 0, result.output
    assert sorted(decoded) == list(range(rows))


@pytest.mark.parametrize("scenario, block, key", [
    ("model-substitution", "0,0", "parameter:0@0"),
    ("backdoor-poison", "0,1", "parameter:0@2")],
    ids=["model-substitution-0,0", "backdoor-poison-0,1"])
def test_one_block_verify_walks_the_trust_chain(tmp_path, runner, scenario,
                                                block, key):
    # verified alone, the block fails the hash check of the step-0 state
    # the client derives, or of the entry state it replays from derived
    # inputs; the trust_chain lists only a failure at a derived key
    assert _invoke(runner, tmp_path, "attack", "run", "--scenario", scenario,
                   "--algo", "sha256").exit_code == 0
    result = _invoke(runner, tmp_path, "verify", "run", "--block", block)
    _exits_cleanly(result, 1)
    assert f"block {block}: fail (hash-mismatch at {key})\n" in result.output
    report = json.loads((tmp_path / "run" / "verify_report.json").read_text())
    derived = BoundaryKey.parse(key).derived
    assert report["trust_chain"] == {
        "ok": not derived,
        "problems": [f"block {block}: hash-mismatch at {key}"] * derived}
    _exits_cleanly(_invoke(runner, tmp_path, "audit", "run", "--strategy",
                           "explicit", "--block", block), 1)


@pytest.mark.parametrize("storage", [["--ic", "2"], ["--zero-storage"]])
def test_ledger_cut_short_fails_its_unsealed_blocks(tmp_path, runner,
                                                    storage):
    # an 8-step run whose ledger holds only its first 2 of 4 rows, as a
    # provider that billed 8 steps but ran 4 would leave it
    from aftune.ledger import RunLedger
    assert _invoke(runner, tmp_path, "record-train", "run", "--n-steps", "8",
                   "--algo", "sha256", "--batch-size", "8",
                   *storage).exit_code == 0
    path = tmp_path / "run" / "ledger.bin"
    ledger = RunLedger.load(path)
    committed = ledger.all_digests()
    cut = RunLedger(ledger.manifest)
    for j in range(2):
        cut.append({k: committed[k]
                    for k in ledger.grid.row_keys(j, "training")})
    data = cut.encode()
    assert path.read_bytes().startswith(data)  # cut at a frame boundary
    path.write_bytes(data)
    unsealed = [str(b) for b in ledger.grid.block_ids() if b.j >= 2]

    result = _invoke(runner, tmp_path, "verify", "run")
    _exits_cleanly(result, 1)
    for b in ledger.grid.block_ids():
        verdict = "fail" if str(b) in unsealed else "pass"
        assert f"block {b}: {verdict}\n" in result.output
    assert result.output.endswith("FAIL\n")
    report = json.loads((tmp_path / "run" / "verify_report.json").read_text())
    assert {r["block"]: r["note"] for r in report["reports"]
            if r["verdict"] != "pass"} == \
        dict.fromkeys(unsealed, "no sealed commitment")
    assert report["trust_chain"]["ok"]

    result = _invoke(runner, tmp_path, "audit", "run", "--trials", "50")
    assert result.exit_code == 0, result.output
    campaign = json.loads((tmp_path / "run" / "audit_report.json").read_text())
    assert campaign["failing_blocks"] == sorted(unsealed)
    assert campaign["exact_rate"] > 0 and campaign["detections"] > 0


def test_isolated_campaign_checks_in_workers(sha_run, runner, monkeypatch):
    from aftune import orchestrate
    started = []
    init = orchestrate._Worker.__init__

    def counted(self):
        started.append(self)
        init(self)

    monkeypatch.setattr(orchestrate._Worker, "__init__", counted)
    result = _invoke(runner, sha_run.parent, "audit", "run", "--trials", "5",
                     "--isolated")
    assert result.exit_code == 0, result.output
    assert "tampered blocks found: none" in result.output
    assert len(started) >= 1


@pytest.fixture(scope="module")
def sha_zs_run(tmp_path_factory):
    return _record_sha_run(tmp_path_factory, "--zero-storage")


def _edited_copy(run, tmp_path, edit) -> Path:
    """A copy of ``run`` at ``tmp_path / 'edited'`` whose manifest went
    through ``edit``, which changes it in place."""
    out = tmp_path / "edited"
    shutil.copytree(run, out)
    ledger = RunLedger.load(out / LEDGER_FILE)
    edit(ledger.manifest)
    ledger.save(out / LEDGER_FILE)
    return out


def _verify_report(run) -> dict:
    """``verify_report.json`` of ``run`` without its wall times."""
    report = json.loads((run / "verify_report.json").read_text())
    for r in report["reports"]:
        del r["wall_time"]
    return report


def _verify_both_ways(runner, run) -> dict:
    """Run ``verify`` in process and ``--isolated`` on ``run``; each must
    exit 1 with no traceback, and both must write the same report,
    which is returned."""
    reports = []
    for extra in ([], ["--isolated"]):
        _exits_cleanly(_invoke(runner, run.parent, "verify", run.name,
                               *extra), 1)
        reports.append(_verify_report(run))
    assert reports[0] == reports[1]
    return reports[0]


# manifest fields a provider may rewrite; each edit must end in exit 0, 1
# or 2 with no traceback, in process as under --isolated
MANIFEST_EDITS = {
    "batch-size-0": lambda m: m.update(batch_size=0),
    "batch-size-negative": lambda m: m.update(batch_size=-1),
    "batch-size-true": lambda m: m.update(batch_size=True),
    "dataset-n-0": lambda m: m["dataset"]["spec"].update(n=0),
    "dataset-kind-blobs": lambda m: m["dataset"]["spec"].update(kind="blobs"),
    "dataset-n-classes-99":
        lambda m: m["dataset"]["spec"].update(n_classes=99),
    "layer-0-d-in-3": lambda m: m["model"]["layers"][0].update(d_in=3),
    "layer-3-dim-5": lambda m: m["model"]["layers"][3].update(dim=5),
    "head-n-classes-2":
        lambda m: m["model"]["layers"][-1].update(n_classes=2),
    "grid-bl-1": lambda m: m["grid"].update(bl=1),
    "grid-isolate-layers-1": lambda m: m["grid"].update(isolate_layers=[1]),
    "grid-precision-f64": lambda m: m["grid"].update(precision="f64"),
    "grid-tau-loosened": lambda m: m["grid"].update(tau=0.5),
    "optimizer-lr-1e30": lambda m: m["optimizer"].update(lr=1e30),
    "grid-ic-null": lambda m: m["grid"].update(ic=None),
    "grid-zero-storage-on": lambda m: m["grid"].update(zero_storage=True),
}
# facts Run.open checks: a usage error before any block is read
EDITS_REFUSED_AT_OPEN = {"batch-size-0", "batch-size-negative",
                         "batch-size-true", "dataset-n-0",
                         "dataset-kind-blobs", "grid-precision-f64",
                         "grid-tau-loosened"}
# edits that describe the same run: it must still verify
EDITS_KEEPING_PASS = {"grid-ic-null", "grid-zero-storage-on"}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("storage", ["ic-2", "ic-inf", "zero-storage"])
@pytest.mark.parametrize("case", sorted(MANIFEST_EDITS))
def test_edited_manifest_field_ends_in_a_verdict(
        sha_run, sha_inf_run, sha_zs_run, tmp_path, runner, case, storage):
    source = {"ic-2": sha_run, "ic-inf": sha_inf_run,
              "zero-storage": sha_zs_run}[storage]
    run = _edited_copy(source, tmp_path, MANIFEST_EDITS[case])
    want = 2 if case in EDITS_REFUSED_AT_OPEN \
        else 0 if case in EDITS_KEEPING_PASS else None
    reports = []
    for args in (["verify"], ["verify", "--isolated"], ["audit", "--m", "2"]):
        result = _invoke(runner, tmp_path, args[0], "edited", *args[1:])
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None \
            or isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert want is None or result.exit_code == want, result.output
        if args[0] == "verify" and result.exit_code != 2:
            reports.append(_verify_report(run))
    assert len(reports) in (0, 2)
    assert reports[:1] == reports[1:]


# manifest edits that claim another base model: a model seed the run was
# not recorded with
BASE_MODEL_EDITS = {
    "model-seed-8": lambda m: m["model"].update(seed=8),
}


@pytest.mark.parametrize("storage", ["ic-2", "ic-inf", "zero-storage"])
@pytest.mark.parametrize("case", sorted(BASE_MODEL_EDITS))
def test_a_claimed_base_model_fails_row_0(sha_run, sha_inf_run, sha_zs_run,
                                          tmp_path, runner, case, storage):
    source = {"ic-2": sha_run, "ic-inf": sha_inf_run,
              "zero-storage": sha_zs_run}[storage]
    _edited_copy(source, tmp_path, BASE_MODEL_EDITS[case])
    for args in (["verify"], ["verify", "--isolated"],
                 ["audit", "--strategy", "explicit", "--block", "0,0"]):
        result = _invoke(runner, tmp_path, args[0], "edited", *args[1:])
        _exits_cleanly(result, 1)
        assert "block 0,0: fail" in result.output
        if args[0] == "verify":
            # the client derives the step-0 state from the claimed spec
            assert "block 0,0: fail (hash-mismatch at parameter:0@0)\n" \
                in result.output


# manifest edits that claim other batches: every step's batch is derived
# from the dataset spec, the run seed and the batch size, and the client
# derives the digests of layer block 0's inputs from them
DATA_EDITS = {
    "dataset-seed+1": lambda m: m["dataset"]["spec"].update(
        seed=m["dataset"]["spec"]["seed"] + 1),
    "run-seed+1": lambda m: m.update(run_seed=m["run_seed"] + 1),
    "batch-size-4": lambda m: m.update(batch_size=4),
}


@pytest.mark.parametrize("storage", ["ic-2", "ic-inf", "zero-storage"])
@pytest.mark.parametrize("case", sorted(DATA_EDITS))
def test_claimed_batches_fail_layer_block_0(sha_run, sha_inf_run, sha_zs_run,
                                            tmp_path, runner, case, storage):
    source = {"ic-2": sha_run, "ic-inf": sha_inf_run,
              "zero-storage": sha_zs_run}[storage]
    run = _edited_copy(source, tmp_path, DATA_EDITS[case])
    report = _verify_both_ways(runner, run)
    grid = RunLedger.load(run / LEDGER_FILE).grid
    row = [str(BlockId(0, j)) for j in range(grid.n_step_blocks)]
    chain = report["trust_chain"]
    assert not chain["ok"]
    assert chain["problems"][0] == "block 0,0: hash-mismatch at activation:0@0"
    verdicts = {r["block"]: r["verdict"] for r in report["reports"]}
    assert [verdicts[b] for b in row] == ["fail"] * len(row)
    for b in row:
        _exits_cleanly(_invoke(runner, tmp_path, "audit", "edited",
                               "--strategy", "explicit", "--block", b), 1)


def _zero_seed_step(state, batch):
    """A provider's training step that backpropagates a zero loss seed
    instead of the loss's own: it never learns from the data, yet every
    tensor it records is consistent with the seed it recorded. The loss
    head's output holds one loss per label."""
    acts, gacts = state.replay_step(
        batch.inputs, np.zeros(batch.labels.shape, np.float32),
        labels=batch.labels)
    return StepTrace(acts, gacts, float(acts[-1].mean()))


@pytest.mark.parametrize("ic", [2, None], ids=["ic-2", "ic-inf"])
def test_a_zero_loss_seed_fails_the_loss_row(tmp_path, runner, ic):
    # the loss block replays from the seed its loss derives, and the
    # recorded final-boundary gradient must be that seed
    run = tmp_path / "run"
    record_training(make_manifest(n_steps=8, algo="sha256", ic=ic), run,
                    step=_zero_seed_step)
    report = _verify_both_ways(runner, run)
    grid = Run.open(run).grid
    loss = grid.n_layer_blocks - 1
    failed = {r["block"]: (r["cause"], r["failed_key"])
              for r in report["reports"] if r["verdict"] != "pass"}
    assert sorted(failed) == [f"{loss},{j}" for j in range(grid.n_step_blocks)]
    assert failed[f"{loss},0"] == ("numerical-mismatch",
                                   f"gradient:{loss + 1}@0")
    assert report["trust_chain"]["ok"]


def _schema_3(manifest):
    # schema 3 manifests carried the base model's digest
    manifest["base_model_digest"] = "0" * 64


def _schema_2(manifest):
    # schema 2 manifests also carried the data edge: per-step input and
    # label anchors and the dataset's digest
    _schema_3(manifest)
    manifest.update(input_anchors=["0" * 64] * 4, label_anchors=["0" * 64] * 4)
    manifest["dataset"]["digest"] = "0" * 64


def _schema_1(manifest):
    # schema 1 manifests also carried grid.tau and grid.precision
    _schema_2(manifest)
    manifest["grid"].update(tau=1e-5, precision="f32")


OLD_SCHEMAS = {1: _schema_1, 2: _schema_2, 3: _schema_3}


def test_a_ledger_of_the_old_schema_names_its_version(sha_run, tmp_path,
                                                      runner):
    for version, older in OLD_SCHEMAS.items():
        run = tmp_path / f"old-{version}"
        shutil.copytree(sha_run, run)
        data = (run / LEDGER_FILE).read_bytes()
        (n,) = struct.unpack_from("<I", data, 6)
        manifest = json.loads(data[10:10 + n])
        manifest["schema_version"] = version
        older(manifest)
        head = json.dumps(manifest, sort_keys=True,
                          separators=(",", ":")).encode()
        (run / LEDGER_FILE).write_bytes(data[:6] + struct.pack("<I", len(head))
                                        + head + data[10 + n:])
        for args in (["verify"], ["verify", "--isolated"], ["audit"]):
            result = _invoke(runner, tmp_path, args[0], run.name, *args[1:])
            _exits_cleanly(result, 2)
            assert f"ledger schema version {version} is not the supported 4" \
                in result.output


def test_unisolated_unstable_layer_is_refused_by_name(tmp_path, runner):
    # at --bl 1 every layer block is one layer, isolated or not, so the
    # edit keeps the key schedule and only the checkpoint interval moves
    assert _invoke(runner, tmp_path, "record-train", "edited", "--preset",
                   "unstable", "--n-steps", "4", "--bl", "1", "--algo",
                   "sha256", "--batch-size", "8").exit_code == 0
    run = _edited_copy(tmp_path / "edited", tmp_path / "copy",
                       lambda m: m["grid"].update(isolate_layers=[]))
    # the layer's jitter depends on the process that replays it, so the
    # blocks that pass do not pass with equal errors; compare refusals
    refusals = []
    for extra in ([], ["--isolated"]):
        _exits_cleanly(_invoke(runner, run.parent, "verify", run.name,
                               *extra), 1)
        refusals.append({r["block"]: r["note"]
                         for r in _verify_report(run)["reports"]
                         if r["verdict"] == REFUSED})
    assert refusals[0] == refusals[1]
    assert list(refusals[0]) == ["2,1"]
    assert "layer 2 is non-deterministic" in refusals[0]["2,1"]
    _exits_cleanly(_invoke(runner, run.parent, "audit", run.name,
                           "--strategy", "explicit", "--block", "2,1"), 1)


def test_index_shape_that_refits_the_bytes_is_refused(sha_run, tmp_path,
                                                      runner):
    # the blob's bytes still hash right, but reshaped to a flat vector
    # the replay cannot consume them
    run = tmp_path / "reshaped"
    shutil.copytree(sha_run, run)
    index = json.loads((run / "index.json").read_text())
    entry = index["activation:1@2"]
    entry["shape"] = [int(np.prod(entry["shape"]))]
    (run / "index.json").write_text(json.dumps(index))
    report = _verify_both_ways(runner, run)
    [refused] = [r for r in report["reports"] if r["verdict"] != "pass"]
    assert refused["block"] == "1,1" and refused["verdict"] == REFUSED
    assert "ShapeError" in refused["note"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_zero_storage_rerun_fails_every_block(sha_zs_run, tmp_path,
                                                        runner):
    # lr 1e30 is finite in float32, so the manifest opens; the rerun's
    # first update makes the parameters non-finite and step 1 stops it
    run = _edited_copy(sha_zs_run, tmp_path,
                       lambda m: m["optimizer"].update(lr=1e30))
    report = _verify_both_ways(runner, run)
    assert len(report["reports"]) == 6
    for r in report["reports"]:
        assert (r["verdict"], r["cause"]) == ("fail", "non-finite")
        assert r["note"].startswith("zero-storage rerun: step 1: ")
    result = _invoke(runner, tmp_path, "verify", "edited")
    assert "block 0,0: fail (non-finite)\n" in result.output
    assert "None" not in result.output
    _exits_cleanly(_invoke(runner, tmp_path, "audit", "edited", "--m", "2"), 1)
