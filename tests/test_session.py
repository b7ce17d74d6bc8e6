"""The Run session: one open per command, one forward walk per row.

Requests built by one walk over many blocks must be byte-identical to
requests built one block at a time, also when the walk takes entry
states from the verifier's own replays; a command must load the ledger
and the store once; and a verify-all must replay each layer-block row
at most once over the run's steps, in process not at all.
"""

from __future__ import annotations

import subprocess
import sys

import pytest
from click.testing import CliRunner

from aftune import orchestrate
from aftune.adversary import (SCENARIOS, apply_inference_scenario,
                              apply_scenario)
from aftune.cli import main
from aftune.data import make_dataset
from aftune.grid import BlockId, GridConfig
from aftune.hashing import hash_bytes
from aftune.ledger import RunLedger, ledger_digest
from aftune.model import ModelState, build_model
from aftune.orchestrate import Run
from aftune.presets import attack_mlp_model, dataset_for
from aftune.recorder import LEDGER_FILE, build_inference_manifest
from aftune.store import TensorStore
from aftune.verifier import VerificationRequest

from conftest import make_manifest, record_run


def _wire(req):
    return req.to_bytes() if isinstance(req, VerificationRequest) \
        else req.to_json()


def _assert_walk_matches_per_block(run_dir):
    blocks = [e.block for e in Run.open(run_dir).ledger.entries]
    walked = dict(Run.open(run_dir).requests(blocks))
    assert list(walked) == sorted(blocks, key=lambda b: (b.j, b.i))
    for bid in blocks:
        single = Run.open(run_dir).request(bid)
        assert _wire(walked[bid]) == _wire(single), (str(run_dir), str(bid))


@pytest.mark.parametrize("kw", [dict(ic=2), dict(ic=None),
                                dict(ic=None, zero_storage=True)],
                         ids=["ic2", "ic-inf", "zero-storage"])
def test_walk_requests_equal_per_block_requests(tmp_path, kw):
    record_run(tmp_path / "run", n_steps=8, algo="sha256", **kw)
    _assert_walk_matches_per_block(tmp_path / "run")


@pytest.mark.parametrize("ic", [None, 2], ids=["ic-inf", "ic2"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_walk_requests_equal_per_block_requests_under_attack(tmp_path,
                                                             scenario, ic):
    run = tmp_path / scenario
    if scenario in ("serve-wrong-model", "fabricate-output"):
        spec = attack_mlp_model()
        config = GridConfig(n_layers=len(spec["layers"]), n_steps=1, bl=2,
                            bs=1)
        x = make_dataset(dataset_for("mlp")).inputs[:1]
        layers = build_model(spec)
        apply_inference_scenario(
            scenario, build_inference_manifest(spec, config, layers=layers),
            layers, x, run)
    else:
        apply_scenario(scenario, make_manifest(ic=ic, algo="sha256"), run)
    _assert_walk_matches_per_block(run)


def test_walk_skips_a_missing_block_without_losing_the_row(tmp_path):
    # every second block of row 0: the carried state crosses the gaps
    _, result = record_run(tmp_path / "run", n_steps=12, ic=None,
                           algo="sha256")
    grid = result.ledger.grid
    wanted = [BlockId(0, j) for j in range(0, grid.n_step_blocks, 2)]
    walked = dict(Run.open(tmp_path / "run").requests(wanted))
    for bid in wanted:
        assert _wire(walked[bid]) == \
            _wire(Run.open(tmp_path / "run").request(bid))


def test_reports_come_back_in_the_order_asked(mlp_run):
    asked = [BlockId(2, 1), BlockId(0, 3), BlockId(2, 1), BlockId(1, 0)]
    reports = Run.open(mlp_run["dir"]).verify(asked)
    assert [r.block for r in reports] == asked
    assert all(r.passed for r in reports)


@pytest.fixture
def counted(monkeypatch):
    counts = {"load": 0, "store": 0}
    load, init = RunLedger.load.__func__, TensorStore.__init__

    def counting_load(cls, path):
        counts["load"] += 1
        return load(cls, path)

    def counting_init(self, root):
        counts["store"] += 1
        init(self, root)

    monkeypatch.setattr(RunLedger, "load", classmethod(counting_load))
    monkeypatch.setattr(TensorStore, "__init__", counting_init)
    return counts


@pytest.mark.parametrize("kw", [dict(ic=None), dict(ic=None,
                                                    zero_storage=True)],
                         ids=["stored", "zero-storage"])
@pytest.mark.parametrize("args", [["verify"], ["verify", "--isolated"],
                                  ["audit", "--m", "4"],
                                  ["audit", "--m", "2", "--isolated"],
                                  ["audit", "--trials", "5"]],
                         ids=["verify", "verify-isolated", "audit",
                              "audit-isolated", "campaign"])
def test_one_ledger_load_and_one_store_per_command(tmp_path, counted, kw,
                                                   args):
    record_run(tmp_path / "run", n_steps=4, algo="sha256", **kw)
    counted.update(load=0, store=0)
    result = CliRunner().invoke(main, [args[0], str(tmp_path / "run"),
                                       *args[1:]])
    assert result.exit_code == 0, result.output
    assert counted["load"] == 1
    assert counted["store"] <= 1


@pytest.fixture
def orchestrator_replays(monkeypatch):
    """Training steps the orchestrator (not the verifier) replays, by the
    replayed row's layers."""
    calls: dict[tuple, int] = {}
    replay = ModelState.replay_step

    def counting(self, x, upstream=None, labels=None):
        if sys._getframe(1).f_globals["__name__"] == orchestrate.__name__:
            row = tuple(self.indices)
            calls[row] = calls.get(row, 0) + 1
        return replay(self, x, upstream, labels=labels)

    monkeypatch.setattr(ModelState, "replay_step", counting)
    return calls


@pytest.mark.parametrize("ic", [None, 2])
def test_verify_all_replays_each_row_at_most_once(tmp_path,
                                                  orchestrator_replays, ic):
    # isolated workers hand nothing back: the walk replays entry states
    _, result = record_run(tmp_path / "run", n_steps=16, ic=ic,
                           algo="sha256")
    grid = result.ledger.grid
    run = Run.open(tmp_path / "run")
    reports = run.verify([e.block for e in run.ledger.entries],
                         isolated=True)
    assert all(r.passed for r in reports)
    calls = orchestrator_replays
    assert calls  # the walk does replay entry states
    assert len(calls) <= grid.n_layer_blocks
    assert all(n <= grid.config.n_steps for n in calls.values())


@pytest.mark.parametrize("ic", [None, 2])
def test_in_process_verify_all_replays_each_step_once(tmp_path,
                                                      orchestrator_replays,
                                                      ic):
    # every next entry state comes from the verifier's passed replay
    record_run(tmp_path / "run", n_steps=16, ic=ic, algo="sha256")
    run = Run.open(tmp_path / "run")
    reports = run.verify([e.block for e in run.ledger.entries])
    assert all(r.passed for r in reports)
    assert orchestrator_replays == {}


def _assert_verified_bytes_match_per_block(monkeypatch, run_dir, **kw):
    """The request bytes ``Run.verify`` of every block hands the verifier
    equal those of requests built one block at a time; the verdicts are
    therefore those of per-block checks."""
    seen: dict[BlockId, bytes] = {}
    check = orchestrate.verify_or_refuse

    def spying(req, memo=None):
        seen[req.block] = req.to_bytes()
        return check(req, memo)

    monkeypatch.setattr(orchestrate, "verify_or_refuse", spying)
    run = Run.open(run_dir)
    run.verify([e.block for e in run.ledger.entries], **kw)
    assert seen
    for bid, data in seen.items():
        assert data == Run.open(run_dir).request(bid, **kw).to_bytes(), \
            (str(run_dir), str(bid), kw)


@pytest.mark.parametrize("ic", [None, 2], ids=["ic-inf", "ic2"])
def test_verified_request_bytes_equal_per_block_requests(tmp_path,
                                                         monkeypatch, ic):
    record_run(tmp_path / "run", n_steps=8, ic=ic, algo="sha256")
    _assert_verified_bytes_match_per_block(monkeypatch, tmp_path / "run")


TRAINING_SCENARIOS = [s for s in SCENARIOS
                      if s not in ("serve-wrong-model", "fabricate-output")]


@pytest.mark.parametrize("full_scan", [False, True],
                         ids=["quick", "full-scan"])
@pytest.mark.parametrize("scenario", TRAINING_SCENARIOS)
def test_verified_request_bytes_equal_per_block_requests_under_attack(
        tmp_path, monkeypatch, scenario, full_scan):
    # failed and non-finite blocks hand nothing on: the walk replays
    apply_scenario(scenario, make_manifest(ic=None, algo="sha256"),
                   tmp_path / scenario)
    _assert_verified_bytes_match_per_block(
        monkeypatch, tmp_path / scenario, full_scan=full_scan)


def test_index_does_not_change_ledger_bytes(tmp_path):
    _, result = record_run(tmp_path / "run", n_steps=4, algo="sha256")
    loaded = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    committed = loaded.all_digests()
    rebuilt = RunLedger(loaded.manifest)
    for j in range(loaded.grid.n_step_blocks):
        rebuilt.append({k: committed[k]
                        for k in loaded.grid.row_keys(j, "training")})
    assert rebuilt.encode() == loaded.encode() == result.ledger.encode()
    assert [(e.block, e.entries) for e in rebuilt.entries] == \
        [(e.block, e.entries) for e in loaded.entries]


@pytest.mark.parametrize("scenario", TRAINING_SCENARIOS)
def test_ledger_digest_hashes_the_encoded_ledger_under_attack(tmp_path,
                                                              scenario):
    # the digest hashes the file's bytes; an attacked run's file must still
    # be what encode() gives, or the digest would name another ledger
    apply_scenario(scenario, make_manifest(algo="sha256"), tmp_path / scenario)
    path = tmp_path / scenario / LEDGER_FILE
    assert ledger_digest(path, "sha256") == \
        hash_bytes(RunLedger.load(path).encode(), "sha256").hex


@pytest.fixture
def spawned(monkeypatch):
    """Every process started through subprocess.Popen, in order."""
    procs: list[subprocess.Popen] = []

    class Counting(subprocess.Popen):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Counting)
    return procs


@pytest.mark.parametrize("args, most", [
    (["audit", "--m", "3", "--isolated"], 1),
    (["verify", "--isolated"], 1),
    (["verify", "--jobs", "2"], 2),
    (["verify", "--jobs", "3"], 3),
    (["verify", "--block", "1,1", "--jobs", "2"], 1),
], ids=["audit-isolated", "verify-isolated", "jobs-2", "jobs-3",
        "block-jobs-2"])
def test_one_worker_per_concurrent_check(tmp_path, spawned, args, most):
    record_run(tmp_path / "run", n_steps=4, algo="sha256")
    result = CliRunner().invoke(main, [args[0], str(tmp_path / "run"),
                                       *args[1:]])
    assert result.exit_code == 0, result.output
    assert 1 <= len(spawned) <= most
    assert all(p.poll() is not None for p in spawned)


def test_blocks_answered_without_the_verifier_start_no_worker(tmp_path,
                                                              spawned):
    record_run(tmp_path / "run", n_steps=4, ic=1, algo="sha256")
    run = Run.open(tmp_path / "run")
    run.prune([BlockId(0, 0)])
    [report] = run.verify([BlockId(1, 1)], isolated=True)
    assert report.verdict == "evidence-released"
    assert spawned == []
