"""Cheating-provider scenarios and minimum-perturbation attacks."""

from __future__ import annotations

import numpy as np
import pytest

from aftune.adversary import (SCENARIOS, AdversaryError,
                              apply_inference_scenario,
                              apply_scenario, boundary_attack_profile,
                              parameter_poison_attack, pgd_activation_attack,
                              rewrite_key)
from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from aftune.ledger import RunLedger
from aftune.orchestrate import Run, check_trust_chain
from aftune.presets import (ATTACK_SAMPLE, attack_mlp_model,
                            trained_attack_classifier)
from aftune.recorder import LEDGER_FILE, build_inference_manifest
from aftune.store import TensorStore
from aftune.verifier import (FAIL, HASH_MISMATCH, NUMERICAL_MISMATCH, PASS)

from conftest import copy_run, make_manifest


@pytest.fixture(scope="module")
def attack_subject():
    layers, ds = trained_attack_classifier(train_steps=250)
    return layers, ds.inputs[ATTACK_SAMPLE:ATTACK_SAMPLE + 1]


def _verdicts(run_dir):
    ledger = RunLedger.load(f"{run_dir}/{LEDGER_FILE}")
    return {str(e.block): Run.open(run_dir).verify([e.block])[0]
            for e in ledger.entries}


def test_rewrite_key_is_self_consistent(mlp_run, tmp_path):
    run = copy_run(mlp_run["dir"], tmp_path / "forged")
    key = BoundaryKey("activation", 1, 3)
    store = TensorStore(run)
    forged = store.get_tensor(key) + np.float32(0.5)
    rewrite_key(run, key, forged)
    # the forgery passes every static integrity check
    ledger = RunLedger.load(run / LEDGER_FILE)
    store = TensorStore(run)
    assert store.get_tensor(key).tobytes() == forged.tobytes()
    assert ledger.all_digests()[key].hex == store.index[str(key)]["digest"]
    # only recomputation exposes it
    report = Run.open(run).verify([BlockId(0, 1)])[0]
    assert report.verdict == FAIL
    assert report.cause == NUMERICAL_MISMATCH


def test_rewrite_key_requires_a_committed_key(mlp_run, tmp_path):
    run = copy_run(mlp_run["dir"], tmp_path / "nokey")
    with pytest.raises(AdversaryError):
        rewrite_key(run, BoundaryKey("activation", 0, 99),
                    np.zeros(4, np.float32))


def test_under_train_detected_by_replay(tmp_path):
    manifest = make_manifest(n_steps=8, bl=2, bs=2, ic=2)
    result = apply_scenario("under-train", manifest, tmp_path / "ut")
    verdicts = _verdicts(tmp_path / "ut")
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    assert result.tampered_blocks == [str(BlockId(i, j))
                                      for i in range(grid.n_layer_blocks)
                                      for j in (2, 3)]
    for bid, report in verdicts.items():
        if bid in result.tampered_blocks:
            # frozen rows fail replay directly; later rows can already
            # fail the entry hash because honest replay from the last
            # checkpoint contradicts the frozen commitments
            assert report.verdict == FAIL, bid
            assert report.cause in (NUMERICAL_MISMATCH, HASH_MISMATCH)
        else:
            assert report.verdict == PASS, bid


CHAIN_NOTE = "commitment provenance broken (trust chain)"


def _full_chain(run_dir):
    ledger = RunLedger.load(run_dir / LEDGER_FILE)
    return check_trust_chain(ledger, TensorStore(run_dir),
                             ledger.grid.block_ids())


def test_model_substitution_detected_by_trust_chain(tmp_path):
    manifest = make_manifest()
    result = apply_scenario("model-substitution", manifest, tmp_path / "ms")
    assert result.detectable_by == "trust-chain"
    chain = _full_chain(tmp_path / "ms")
    assert not chain.ok
    assert set(result.tampered_blocks) <= set(chain.bad_blocks)
    # block replay is self-consistent, so replay finds no fault; the
    # trust chain fails exactly the blocks it marks
    for bid, report in _verdicts(tmp_path / "ms").items():
        assert report.cause is None, bid
        if bid in chain.bad_blocks:
            assert (report.verdict, report.note) == (FAIL, CHAIN_NOTE), bid
        else:
            assert report.verdict == PASS, bid


def test_backdoor_poison_detected_by_input_anchors(tmp_path):
    manifest = make_manifest()
    result = apply_scenario("backdoor-poison", manifest, tmp_path / "bp")
    assert result.detectable_by == "trust-chain"
    chain = _full_chain(tmp_path / "bp")
    assert not chain.ok
    assert set(result.tampered_blocks) <= set(chain.bad_blocks)
    # the client derives the input anchors from the clean spec, so the
    # trust chain fails the layer-block-0 blocks it marks; interior rows
    # replay cleanly, and the loss-head row fails replay too because
    # verification feeds it the labels the clean spec derives
    verdicts = _verdicts(tmp_path / "bp")
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    head_row = grid.n_layer_blocks - 1
    for bid, report in verdicts.items():
        if BlockId.parse(bid).i == head_row:
            assert report.verdict == FAIL, bid
        elif bid in chain.bad_blocks:
            assert (report.verdict, report.cause, report.note) == \
                (FAIL, None, CHAIN_NOTE), bid
        else:
            assert (report.verdict, report.cause) == (PASS, None), bid


@pytest.mark.parametrize("scenario", ["activation-perturbation",
                                      "parameter-poison"])
def test_forgery_scenarios_fail_replay(tmp_path, scenario):
    # ic=1 keeps every block entry checkpointed, so the forgery's blast
    # radius is exactly the blocks the scenario reports
    manifest = make_manifest(ic=1)
    result = apply_scenario(scenario, manifest, tmp_path / "sc")
    assert result.detectable_by == "verify"
    verdicts = _verdicts(tmp_path / "sc")
    assert result.tampered_blocks
    for bid in result.tampered_blocks:
        assert verdicts[bid].verdict == FAIL, bid
    for bid, report in verdicts.items():
        if bid not in result.tampered_blocks:
            assert report.verdict == PASS, bid


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(AdversaryError):
        apply_scenario("time-travel", make_manifest(), tmp_path / "x")


def test_serve_wrong_model_detected(tmp_path, attack_subject):
    layers, x = attack_subject
    spec = attack_mlp_model()
    config = GridConfig(n_layers=len(spec["layers"]), n_steps=1, bl=2, bs=1)
    manifest = build_inference_manifest(spec, config, layers=layers)
    result = apply_inference_scenario("serve-wrong-model", manifest, layers, x,
                                      tmp_path / "swm")
    report = Run.open(tmp_path / "swm").verify([BlockId(0, 0)])[0]
    assert report.verdict == FAIL
    assert report.cause == HASH_MISMATCH
    assert report.failed_key == "model-parameters"
    assert result.tampered_blocks


def test_fabricate_output_detected(tmp_path, attack_subject):
    layers, x = attack_subject
    spec = attack_mlp_model()
    config = GridConfig(n_layers=len(spec["layers"]), n_steps=1, bl=2, bs=1)
    manifest = build_inference_manifest(spec, config, layers=layers)
    result = apply_inference_scenario("fabricate-output", manifest, layers, x,
                                      tmp_path / "fo")
    bad = BlockId.parse(result.tampered_blocks[0])
    report = Run.open(tmp_path / "fo").verify([bad])[0]
    assert report.verdict == FAIL
    assert report.cause == NUMERICAL_MISMATCH
    # untouched prefix blocks still pass
    assert Run.open(tmp_path / "fo").verify([BlockId(0, 0)])[0].verdict == PASS


def test_pgd_attack_flips_the_prediction(attack_subject):
    layers, x = attack_subject
    config = GridConfig(n_layers=len(layers), n_steps=1, bl=2, bs=1)
    res = pgd_activation_attack(layers, config, x, steps=200)
    assert res.success
    assert res.final_class != res.original_class
    assert 0 < res.min_rel_norm <= res.max_rel_norm == res.eps
    assert set(res.boundary_rel_norms) == {1, 2, 3}  # interior boundaries


def test_pgd_attack_zero_budget_cannot_flip(attack_subject):
    layers, x = attack_subject
    config = GridConfig(n_layers=len(layers), n_steps=1, bl=2, bs=1)
    res = pgd_activation_attack(layers, config, x, steps=60, budget=0.0)
    assert not res.success
    assert res.final_class == res.original_class
    assert res.max_rel_norm == 0.0


def test_boundary_profile_single_boundary_attacks(attack_subject):
    layers, x = attack_subject
    config = GridConfig(n_layers=len(layers), n_steps=1, bl=1, bs=1)
    profile = boundary_attack_profile(layers, config, x, steps=200)
    assert set(profile) == set(range(1, len(layers)))
    assert all(0 < v < np.inf for v in profile.values())


def test_parameter_poison_attack(attack_subject):
    import copy

    from aftune.adversary import _logits
    layers, x = attack_subject
    work = copy.deepcopy(layers)
    from aftune.presets import dataset_for
    from aftune.data import make_dataset
    clean_x = make_dataset(dataset_for("mlp", n=256)).inputs[:64]
    clean_y = np.argmax(_logits(layers, clean_x), axis=-1)
    target = (int(np.argmax(_logits(layers, x).ravel())) + 1) % 3
    res = parameter_poison_attack(work, x, target, clean_x, clean_y,
                                  steps=300)
    assert res.success
    assert res.target == target and res.trigger_class != target
    assert res.rel_delta_norm > 0
    # stealth: clean behavior mostly preserved, edit far above tolerance
    assert res.clean_accuracy_after >= res.clean_accuracy_before - 0.2
    assert res.rel_delta_norm > 100 * 1e-5


# the trust chain's problems with row 0's anchor: the anchor is not the
# seeded model's digest, or a stored step-0 blob is not that model's
BASE_ANCHOR_PROBLEMS = (
    "the base-model anchor is not the digest of the model the manifest's "
    "spec seeds",
    "stored step-0 parameters do not match the base-model anchor",
)


def _assert_scoped_chain_agrees(run_dir):
    """Walking one block gives it exactly the problems and bad-block mark
    that the walk of every grid block gives it; returns the full walk."""
    def load():
        return RunLedger.load(run_dir / LEDGER_FILE)

    store = TensorStore(run_dir)
    ledger = load()
    full = check_trust_chain(ledger, store, ledger.grid.block_ids())
    base = [p for p in full.problems if p in BASE_ANCHOR_PROBLEMS]
    walked = []
    # the full walk lists each entry's problems in file order, then the
    # base-model anchor's
    for bid in dict.fromkeys(ledger.blocks):
        scoped = check_trust_chain(load(), store, [bid])
        assert scoped.bad_blocks == \
            ([str(bid)] if str(bid) in full.bad_blocks else []), bid
        assert [p for p in scoped.problems if p in BASE_ANCHOR_PROBLEMS] \
            == (base if bid.j == 0 else []), bid
        walked += [p for p in scoped.problems if p not in BASE_ANCHOR_PROBLEMS]
    assert walked == [p for p in full.problems
                      if p not in BASE_ANCHOR_PROBLEMS]
    return full


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scoped_trust_chain_matches_the_full_walk(tmp_path, scenario):
    from click.testing import CliRunner
    from aftune.cli import main
    result = CliRunner().invoke(main, ["--root", str(tmp_path), "attack",
                                       "run", "--scenario", scenario,
                                       "--n-steps", "4", "--algo", "sha256"])
    assert result.exit_code == 0, result.output
    _assert_scoped_chain_agrees(tmp_path / "run")


def test_trust_chain_finds_a_base_anchor_beside_another_break(mlp_run,
                                                             tmp_path):
    # block 0,2 commits another input at step 4 than the batch the
    # manifest's spec gives, which does not hide the base-model check:
    # every walk over a row-0 block recomputes it
    from aftune.hashing import Digest
    run = copy_run(mlp_run["dir"], tmp_path / "base")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.manifest["base_model_digest"] = "f" * 64
    ledger.entry_for(BlockId(0, 2)).entries[
        BoundaryKey("activation", 0, 4)] = Digest(bytes(32))
    ledger.save(run / LEDGER_FILE)
    full = _assert_scoped_chain_agrees(run)
    row0 = [str(BlockId(i, 0)) for i in range(ledger.grid.n_layer_blocks)]
    assert full.bad_blocks == sorted(row0 + ["0,2"])
    assert full.problems[0] == \
        "activation:0@4 does not match the input anchor for step 4"
    assert full.problems[-1] == BASE_ANCHOR_PROBLEMS[0]
    store = TensorStore(run)

    def scoped(*bids):
        return check_trust_chain(RunLedger.load(run / LEDGER_FILE), store,
                                 list(bids)).bad_blocks

    assert scoped(BlockId(0, 0)) == ["0,0"]
    assert scoped(BlockId(1, 0), BlockId(1, 1)) == ["1,0"]
    assert scoped(BlockId(0, 0), BlockId(0, 2)) == ["0,0", "0,2"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_command_gives_a_block_the_same_verdict(tmp_path, scenario):
    # one block alone, every block, an explicit audit of the block, and
    # the campaign's failing set all agree on each grid block
    import json
    from click.testing import CliRunner
    from aftune.cli import main

    def invoke(*args):
        result = CliRunner().invoke(main, ["--root", str(tmp_path), *args])
        assert result.exception is None or \
            isinstance(result.exception, SystemExit), result.output
        return result

    invoke("attack", "run", "--scenario", scenario, "--n-steps", "4",
           "--algo", "sha256")
    run = tmp_path / "run"

    def report(name):
        return json.loads((run / name).read_text())

    invoke("verify", "run")
    full = {r["block"]: r["verdict"]
            for r in report("verify_report.json")["reports"]}
    grid = Run.open(run).grid
    assert list(full) == [str(b) for b in grid.block_ids()]
    invoke("audit", "run", "--trials", "3")
    failing = set(report("audit_report.json")["failing_blocks"])
    assert failing == {b for b, v in full.items() if v != PASS}
    assert failing  # every scenario is caught
    for b, verdict in full.items():
        alone = invoke("verify", "run", "--block", b)
        assert alone.exit_code == (verdict != PASS), (b, alone.output)
        assert report("verify_report.json")["reports"][0]["verdict"] \
            == verdict, b
        audited = invoke("audit", "run", "--strategy", "explicit",
                         "--block", b)
        assert audited.exit_code == (verdict != PASS), (b, audited.output)
        assert report("audit_report.json")["verdicts"] == {b: verdict}
