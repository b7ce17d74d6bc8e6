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
from aftune.ledger import RunLedger
from aftune.orchestrate import ReconstructionError, Run
from aftune.recorder import LEDGER_FILE
from aftune.store import TensorStore
from aftune.verifier import REFUSED


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
    report = json.loads((tmp_path / "inf" / "record_report.json").read_text())
    assert report["ledger_digest"] == \
        RunLedger.load(tmp_path / "inf" / LEDGER_FILE).digest().hex


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
               "--n-steps", "--preset", "--scenario", "--seed", "--tau",
               "out_dir"],
    "attack-stats": ["--bl-values", "--out", "--seed", "--steps"],
    "audit": ["--block", "--isolated", "--m", "--seed", "--strategy",
              "--trials", "run_dir"],
    "detection-odds": ["--k", "--m", "--n"],
    "prune": ["--keep", "run_dir"],
    "record-infer": ["--algo", "--bl", "--chunk-size", "--ia",
                     "--input-seed", "--model-seed", "--preset", "--tau",
                     "out_dir"],
    "record-train": ["--algo", "--batch-size", "--bl", "--bs",
                     "--chunk-size", "--ic", "--lr", "--model-seed",
                     "--n-steps", "--optimizer", "--preset", "--seed",
                     "--tau", "--zero-storage", "out_dir"],
    "verify": ["--block", "--full-scan", "--isolated", "--jobs",
               "--precision", "--tau", "run_dir"],
}


def _names(command) -> list[str]:
    return sorted(o for p in command.params for o in p.opts + p.secondary_opts)


def test_cli_surface_is_pinned():
    assert _names(main) == ["--root", "--version"]
    assert {name: _names(c) for name, c in main.commands.items()} \
        == CLI_SURFACE


@pytest.mark.parametrize("args", [
    ["bench-hash"],
    ["verify", "run", "--all"],
    ["verify", "run", "--no-trust-chain"],
    ["verify", "run", "--trust-chain"],
    ["record-train", "out", "--ia", "2"],
    ["record-infer", "out", "--ic", "2"],
])
def test_removed_knobs_are_usage_errors(cli_run, runner, args):
    _exits_cleanly(_invoke(runner, cli_run, *args), 2)


# a tolerance must be positive and finite; a count of workers or trials
# must mean something
VERIFY_AND_AUDIT_BAD_VALUES = [
    ["verify", "out", "--tau", "nan"],
    ["verify", "out", "--tau", "-1"],
    ["verify", "out", "--tau", "inf"],
    ["verify", "out", "--jobs", "0"],
    ["verify", "out", "--jobs", "-3"],
    ["audit", "out", "--trials", "-4"],
]


@pytest.mark.parametrize("args", [
    ["record-train", "out", "--bl", "0"],
    ["record-train", "out", "--ic", "0"],
    ["record-train", "out", "--tau", "0"],
    ["record-train", "out", "--tau", "-1"],
    ["record-train", "out", "--tau", "nan"],
    ["record-train", "out", "--tau", "inf"],
    ["record-train", "out", "--lr", "nan"],
    ["record-train", "out", "--lr", "inf"],
    ["record-train", "out", "--lr", "-inf"],
    ["record-infer", "out", "--tau", "nan"],
    ["record-train", "out", "--chunk-size", "0"],
    ["record-train", "out", "--batch-size", "0"],
    ["record-train", "out", "--n-steps", "0", "--bs", "1"],
    ["record-infer", "out", "--bl", "99"],
    ["record-infer", "out", "--ia", "0"],
    ["attack", "out", "--scenario", "under-train", "--bs", "0"],
    ["attack", "out", "--scenario", "fabricate-output", "--ia", "0"],
    ["detection-odds", "--k", "2000"],
    ["detection-odds", "--m", "-1"],
    ["detection-odds", "--n", "0", "--k", "0"],
    ["attack-stats", "--bl-values", "2,0", "--steps", "1"],
    *VERIFY_AND_AUDIT_BAD_VALUES,
])
def test_bad_option_value_is_a_usage_error(tmp_path, runner, args):
    result = _invoke(runner, tmp_path, *args)
    _exits_cleanly(result, 2)
    assert "Error:" in result.output
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("args", VERIFY_AND_AUDIT_BAD_VALUES)
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


@pytest.mark.parametrize("kind,keep,chain", [
    ("parameter", -4, "BROKEN — stored step-0 parameters do not match"),
    ("optimizer-state", 2, "ok")],
    ids=["parameter-4-bytes-short", "optimizer-state-without-counter"])
def test_short_checkpoint_blob_is_refused(sha_run, tmp_path, runner, kind,
                                          keep, chain):
    # a self-consistently rewritten step-0 blob that does not decode
    run = tmp_path / "short"
    shutil.copytree(sha_run, run)
    key = BoundaryKey(kind, 0, 0)
    rewrite_key(run, key, TensorStore(run).get_bytes(key)[:keep])
    for args in (["verify", "short"], ["verify", "short", "--block", "0,0"],
                 ["verify", "short", "--block", "0,0", "--isolated"],
                 ["audit", "short", "--m", "3"]):
        result = _invoke(runner, tmp_path, *args)
        _exits_cleanly(result, 1)
        assert "block 0,0: refused" in result.output
        if args == ["verify", "short"]:
            assert f"trust chain: {chain}" in result.output


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
    # a sealed copy of the last entry filed as block 9,9 of a 3x2 grid
    from aftune.ledger import CommitmentSet, RunLedger
    run = tmp_path / "outside"
    shutil.copytree(sha_run, run)
    last = RunLedger.load(run / "ledger.bin").entries[-1]
    blob = CommitmentSet(BlockId(9, 9), last.entries, sealed=True).encode()
    with open(run / "ledger.bin", "ab") as f:
        f.write(struct.pack("<I", len(blob)) + blob)
    for args in (["verify", "outside"], ["verify", "outside", "--isolated"],
                 ["audit", "outside", "--m", "3"],
                 ["audit", "outside", "--m", "3", "--isolated"]):
        result = _invoke(runner, tmp_path, *args)
        _exits_cleanly(result, 2)
        assert "block 9,9 lies outside the manifest's grid" in result.output


def test_conflicting_neighbor_commitment_fails_the_block(sha_run, tmp_path,
                                                          runner):
    # block 1,0 commits another activation:1@0 than block 0,0 does
    from aftune.hashing import Digest
    run = tmp_path / "conflict"
    shutil.copytree(sha_run, run)
    key = BoundaryKey("activation", 1, 0)
    _forge_block_1_0(run, lambda e: e.update({key: Digest(bytes(32),
                                                           "sha256")}))
    result = _invoke(runner, tmp_path, "verify", "conflict")
    _exits_cleanly(result, 1)
    assert "block 0,0: pass" in result.output
    assert f"block 1,0: fail (hash-mismatch at {key})" in result.output
    assert "trust chain: BROKEN — digest conflict with neighbor 0,0 on " \
        f"{key}" in result.output
    for args in (["verify", "conflict", "--isolated"],
                 ["audit", "conflict", "--strategy", "explicit",
                  "--block", "1,0"]):
        _exits_cleanly(_invoke(runner, tmp_path, *args), 1)


def test_omitted_commitment_key_is_refused(sha_run, tmp_path, runner):
    run = tmp_path / "omitted"
    shutil.copytree(sha_run, run)
    key = BoundaryKey("activation", 1, 0)
    _forge_block_1_0(run, lambda e: e.pop(key))
    result = _invoke(runner, tmp_path, "verify", "omitted")
    _exits_cleanly(result, 1)
    assert "block 0,0: pass" in result.output
    assert "block 1,0: refused" in result.output
    assert f"trust chain: BROKEN — block 1,0 does not commit {key}" \
        in result.output
    report = json.loads((run / "verify_report.json").read_text())
    assert report["trust_chain"]["bad_blocks"] == ["1,0"]
    assert f"missing ledger digest for {key}" in report["reports"][1]["note"]
    _exits_cleanly(_invoke(runner, tmp_path, "audit", "omitted", "--strategy",
                           "explicit", "--block", "1,0"), 1)


def test_short_input_anchors_break_the_chain(sha_run, tmp_path, runner):
    from aftune.ledger import RunLedger
    run = tmp_path / "short-anchors"
    shutil.copytree(sha_run, run)
    ledger = RunLedger.load(run / "ledger.bin")
    ledger.manifest["input_anchors"] = ledger.manifest["input_anchors"][:2]
    ledger.save(run / "ledger.bin")
    result = _invoke(runner, tmp_path, "verify", "short-anchors")
    _exits_cleanly(result, 1)
    assert "trust chain: BROKEN — no input anchor for step 2 backing " \
        "activation:0@2" in result.output
    report = json.loads((run / "verify_report.json").read_text())
    assert report["trust_chain"]["bad_blocks"] == ["0,1"]
    _exits_cleanly(_invoke(runner, tmp_path, "audit", "short-anchors",
                           "--strategy", "explicit", "--block", "0,1"), 1)


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
    from aftune.ledger import CommitmentSet
    decoded = []
    decode = CommitmentSet.decode.__func__

    def counted(cls, data):
        cs = decode(cls, data)
        decoded.append(cs.block)
        return cs

    monkeypatch.setattr(CommitmentSet, "decode", classmethod(counted))
    return decoded


def test_spot_checks_decode_only_the_entries_they_read(tmp_path, runner,
                                                        monkeypatch):
    assert _invoke(runner, tmp_path, "record-train", "run", "--n-steps",
                   "384", "--ic", "2", "--algo", "sha256",
                   "--batch-size", "8").exit_code == 0
    decoded = _count_decodes(monkeypatch)
    # a checked block's own entry and its left, right and above neighbors'
    for args, checked in ((["audit", "run", "--m", "3", "--seed", "1"], 3),
                          (["audit", "run", "--strategy", "explicit",
                            "--block", "0,0", "--block", "2,191"], 2),
                          (["verify", "run", "--block", "1,100"], 1)):
        decoded.clear()
        result = _invoke(runner, tmp_path, *args)
        assert result.exit_code == 0, result.output
        assert 0 < len(decoded) <= 4 * checked, (args, decoded)


def test_full_verify_decodes_each_entry_once(sha_run, runner, monkeypatch):
    from aftune.ledger import RunLedger
    blocks = RunLedger.load(sha_run / "ledger.bin").blocks
    decoded = _count_decodes(monkeypatch)
    result = _invoke(runner, sha_run.parent, "verify", "run")
    assert result.exit_code == 0, result.output
    assert sorted(decoded) == sorted(blocks)


@pytest.mark.parametrize("scenario, block", [("model-substitution", "0,0"),
                                             ("backdoor-poison", "0,1")])
def test_one_block_verify_walks_the_trust_chain(tmp_path, runner, scenario,
                                                block):
    # the block replays cleanly; only its commitment provenance is broken
    assert _invoke(runner, tmp_path, "attack", "run", "--scenario", scenario,
                   "--algo", "sha256").exit_code == 0
    result = _invoke(runner, tmp_path, "verify", "run", "--block", block)
    _exits_cleanly(result, 1)
    assert f"block {block}: fail" in result.output
    assert "trust chain: BROKEN" in result.output
    report = json.loads((tmp_path / "run" / "verify_report.json").read_text())
    assert report["trust_chain"]["bad_blocks"] == [block]
    assert report["reports"][0]["note"] == \
        "commitment provenance broken (trust chain)"
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
    cut = RunLedger(ledger.manifest)
    for e in ledger.entries:
        if e.block.j < 2:
            cut.append(e)
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
    "optimizer-lr-1e30": lambda m: m["optimizer"].update(lr=1e30),
    "grid-ic-null": lambda m: m["grid"].update(ic=None),
    "grid-zero-storage-on": lambda m: m["grid"].update(zero_storage=True),
}
# facts Run.open checks: a usage error before any block is read
EDITS_REFUSED_AT_OPEN = {"batch-size-0", "batch-size-negative",
                         "batch-size-true", "dataset-n-0",
                         "dataset-kind-blobs"}
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


def test_unisolated_unstable_layer_is_refused_by_name(tmp_path, runner):
    assert _invoke(runner, tmp_path, "record-train", "edited", "--preset",
                   "unstable", "--n-steps", "4", "--algo", "sha256",
                   "--batch-size", "8").exit_code == 0
    run = _edited_copy(tmp_path / "edited", tmp_path / "copy",
                       lambda m: m["grid"].update(isolate_layers=[]))
    report = _verify_both_ways(runner, run)
    notes = {r["block"]: r["note"] for r in report["reports"]
             if r["verdict"] == REFUSED}
    assert "layer 2 is non-deterministic" in notes["1,1"]
    _exits_cleanly(_invoke(runner, run.parent, "audit", run.name, "--m", "2"),
                   1)


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
