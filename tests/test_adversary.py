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
    assert store.verify_integrity(ledger.grid.config.chunk_size) == []
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


def test_model_substitution_detected_by_trust_chain(tmp_path):
    manifest = make_manifest()
    result = apply_scenario("model-substitution", manifest, tmp_path / "ms")
    assert result.detectable_by == "trust-chain"
    # block replay is self-consistent, so plain verification passes
    assert all(r.verdict == PASS for r in _verdicts(tmp_path / "ms").values())
    ledger = RunLedger.load(tmp_path / "ms" / LEDGER_FILE)
    chain = check_trust_chain(ledger, TensorStore(tmp_path / "ms"))
    assert not chain.ok
    assert set(result.tampered_blocks) <= set(chain.bad_blocks)


def test_backdoor_poison_detected_by_input_anchors(tmp_path):
    manifest = make_manifest()
    result = apply_scenario("backdoor-poison", manifest, tmp_path / "bp")
    assert result.detectable_by == "trust-chain"
    # interior rows replay cleanly; the loss-head row can fail replay too
    # because verification feeds it the committed (clean) labels
    verdicts = _verdicts(tmp_path / "bp")
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    head_row = grid.n_layer_blocks - 1
    assert all(r.verdict == PASS for b, r in verdicts.items()
               if BlockId.parse(b).i < head_row)
    assert all(r.verdict == FAIL for b, r in verdicts.items()
               if BlockId.parse(b).i == head_row)
    ledger = RunLedger.load(tmp_path / "bp" / LEDGER_FILE)
    chain = check_trust_chain(ledger, TensorStore(tmp_path / "bp"))
    assert not chain.ok
    assert set(result.tampered_blocks) <= set(chain.bad_blocks)


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


BASE_ANCHOR_PROBLEM = \
    "stored step-0 parameters do not match the base-model anchor"


def _assert_scoped_chain_agrees(run_dir):
    """Walking one block at a time gives each block what the walk of
    every entry gives it; walking every block gives the whole report."""
    def load():
        return RunLedger.load(run_dir / LEDGER_FILE)

    store = TensorStore(run_dir)
    full = check_trust_chain(load(), store)
    blocks = list(dict.fromkeys(load().blocks))
    assert check_trust_chain(load(), store, blocks).to_json() == \
        full.to_json()
    walked = []
    for bid in blocks:
        scoped = check_trust_chain(load(), store, [bid])
        assert set(scoped.bad_blocks) <= {str(bid)}
        walked += [p for p in scoped.problems if p != BASE_ANCHOR_PROBLEM]
        if str(bid) in full.bad_blocks:
            assert scoped.bad_blocks == [str(bid)]
        elif scoped.bad_blocks:  # only ever stricter, on the base anchor
            assert bid.j == 0 and not full.ok
            assert scoped.problems == [BASE_ANCHOR_PROBLEM]
        if BASE_ANCHOR_PROBLEM in full.problems and bid.j == 0:
            assert scoped.problems == [BASE_ANCHOR_PROBLEM]
    assert walked == [p for p in full.problems if p != BASE_ANCHOR_PROBLEM]
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


def test_scoped_trust_chain_on_a_neighbor_conflict(mlp_run, tmp_path):
    from aftune.hashing import Digest
    run = copy_run(mlp_run["dir"], tmp_path / "conflict")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.entry_for(BlockId(1, 0)).entries[
        BoundaryKey("activation", 1, 0)] = Digest(bytes(32))
    ledger.save(run / LEDGER_FILE)
    full = _assert_scoped_chain_agrees(run)
    assert full.bad_blocks == ["1,0"]


def test_scoped_trust_chain_finds_a_base_anchor_a_full_walk_hides(mlp_run,
                                                                  tmp_path):
    # a broken input anchor at step 4 stops the full walk short of the
    # base-model check; a walk of row-0 blocks alone still makes it
    run = copy_run(mlp_run["dir"], tmp_path / "base")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.manifest["base_model_digest"] = "f" * 64
    ledger.manifest["input_anchors"][4] = "0" * 64
    ledger.save(run / LEDGER_FILE)
    full = _assert_scoped_chain_agrees(run)
    assert full.bad_blocks == ["0,2"]
    assert BASE_ANCHOR_PROBLEM not in full.problems
    store = TensorStore(run)

    def scoped(*bids):
        return check_trust_chain(RunLedger.load(run / LEDGER_FILE), store,
                                 list(bids)).bad_blocks

    assert scoped(BlockId(0, 0)) == ["0,0"]
    assert scoped(BlockId(1, 0), BlockId(1, 1)) == ["1,0"]
    # as in the full walk, a problem among the walked blocks skips it
    assert scoped(BlockId(0, 0), BlockId(0, 2)) == ["0,2"]
