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
from aftune.orchestrate import Run
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


def _failed(run_dir, bids=None):
    """``{block: failed key}`` of every block of ``bids`` (by default the
    whole grid) that one verification of them all does not pass."""
    run = Run.open(run_dir)
    reports = run.verify(bids or run.grid.block_ids())
    assert all(r.cause in (None, HASH_MISMATCH, NUMERICAL_MISMATCH)
               for r in reports)
    return {str(r.block): r.failed_key for r in reports if not r.passed}


def test_model_substitution_detected_by_trust_chain(tmp_path):
    # the client derives row 0's entry state from the claimed model spec,
    # and the ledger commits the substituted model's: every row-0 block
    # fails the hash check of its first state key. Row 1 replays its
    # entry from that state; rows 2 and 3 start from the step-4
    # checkpoint the provider stored, and replay consistently from it
    result = apply_scenario("model-substitution", make_manifest(),
                            tmp_path / "ms")
    grid = Run.open(tmp_path / "ms").grid
    assert result.tampered_blocks == [str(BlockId(i, 0))
                                      for i in range(grid.n_layer_blocks)]
    failed = _failed(tmp_path / "ms")
    assert failed == {str(BlockId(i, j)): str(grid.state_keys(i, 2 * j)[0])
                      for j in (0, 1) for i in range(grid.n_layer_blocks)}
    assert all(BoundaryKey.parse(failed[b]).derived
               for b in result.tampered_blocks)


def test_backdoor_poison_detected_by_input_anchors(tmp_path):
    # the client derives layer block 0's inputs from the clean spec: a
    # row that starts from a derived state fails at its first input, a
    # row whose entry is replayed from derived inputs at its entry state.
    # The loss-head row fails too, because verification feeds it the
    # labels the clean spec derives; interior rows replay cleanly
    result = apply_scenario("backdoor-poison", make_manifest(),
                            tmp_path / "bp")
    grid = Run.open(tmp_path / "bp").grid
    head = grid.n_layer_blocks - 1
    failed = _failed(tmp_path / "bp")
    assert {b: k for b, k in failed.items() if BlockId.parse(b).i == 0} \
        == {"0,0": "activation:0@0", "0,1": "parameter:0@2",
            "0,2": "activation:0@4", "0,3": "parameter:0@6"}
    assert set(result.tampered_blocks) < set(failed)
    assert set(failed) == set(result.tampered_blocks) | {
        str(BlockId(head, j)) for j in range(grid.n_step_blocks)}


@pytest.mark.parametrize("scenario, ic", [
    pytest.param("activation-perturbation", 1, id="activation-perturbation"),
    pytest.param("parameter-poison", 1, id="parameter-poison"),
    pytest.param("parameter-poison", None, id="parameter-poison-ic-inf")])
def test_forgery_scenarios_fail_replay(tmp_path, scenario, ic):
    # ic=1 keeps every block entry checkpointed, so the forgery's blast
    # radius is exactly the blocks the scenario reports; at ic=inf the
    # poisoned tensor is the final state, which only the last row commits
    manifest = make_manifest(ic=ic)
    result = apply_scenario(scenario, manifest, tmp_path / "sc")
    verdicts = _verdicts(tmp_path / "sc")
    assert result.tampered_blocks
    for bid in result.tampered_blocks:
        assert verdicts[bid].verdict == FAIL, bid
    for bid, report in verdicts.items():
        if bid not in result.tampered_blocks:
            assert report.verdict == PASS, bid


TRAINING_STORAGE = {"ic-2": dict(ic=2), "ic-inf": dict(ic=None),
                    "zero-storage": dict(ic=None, zero_storage=True)}
# a forgery of a stored tensor has nothing to rewrite in a zero-storage run
FORGERIES = ("activation-perturbation", "parameter-poison")


@pytest.mark.parametrize("scenario, storage", [
    (scenario, storage) for scenario in SCENARIOS
    if scenario not in ("serve-wrong-model", "fabricate-output")
    for storage in TRAINING_STORAGE
    if not (storage == "zero-storage" and scenario in FORGERIES)])
def test_every_training_scenario_fails_its_tampered_blocks(tmp_path,
                                                           scenario,
                                                           storage):
    # in process and in the isolated worker alike
    manifest = make_manifest(algo="sha256", **TRAINING_STORAGE[storage])
    result = apply_scenario(scenario, manifest, tmp_path / "run")
    run = Run.open(tmp_path / "run")
    bids = [BlockId.parse(b) for b in result.tampered_blocks]
    assert bids
    for isolated in (False, True):
        reports = run.verify(bids, isolated=isolated)
        assert [r.verdict for r in reports] == [FAIL] * len(bids), isolated


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


def _invoke(tmp_path, *args):
    """One CLI command with ``--root tmp_path``, which must not raise."""
    from click.testing import CliRunner
    from aftune.cli import main
    result = CliRunner().invoke(main, ["--root", str(tmp_path), *args])
    assert result.exception is None or \
        isinstance(result.exception, SystemExit), result.output
    return result


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scoped_trust_chain_matches_the_full_walk(tmp_path, scenario):
    # a verify report's trust_chain lists each failure at a key the
    # client derives; verifying one block lists exactly that block's
    # problems of the full walk
    import json
    _invoke(tmp_path, "attack", "run", "--scenario", scenario,
            "--n-steps", "4", "--algo", "sha256")
    path = tmp_path / "run" / "verify_report.json"
    _invoke(tmp_path, "verify", "run")
    full = json.loads(path.read_text())["trust_chain"]
    grid = Run.open(tmp_path / "run").grid
    if scenario in ("serve-wrong-model", "fabricate-output"):
        assert full is None
        return
    assert full["ok"] == (scenario not in ("model-substitution",
                                           "backdoor-poison"))
    for bid in grid.block_ids():
        _invoke(tmp_path, "verify", "run", "--block", str(bid))
        own = [p for p in full["problems"] if p.startswith(f"block {bid}:")]
        assert json.loads(path.read_text())["trust_chain"] == \
            {"ok": not own, "problems": own}, bid


def test_trust_chain_finds_a_base_anchor_beside_another_break(mlp_run,
                                                             tmp_path):
    # a claimed model seed the run was not recorded with fails rows 0 and
    # 1 (row 1 replays its entry from the derived step-0 state); block
    # 0,2 also commits another input at step 4 than the batch the
    # manifest's spec gives. Each block fails alike in any walk
    from aftune.hashing import Digest
    run = copy_run(mlp_run["dir"], tmp_path / "base")
    ledger = RunLedger.load(run / LEDGER_FILE)
    ledger.manifest["model"]["seed"] += 1
    ledger.entry_for(BlockId(0, 2)).entries[
        BoundaryKey("activation", 0, 4)] = Digest(bytes(32))
    ledger.save(run / LEDGER_FILE)
    grid = ledger.grid
    full = _failed(run)
    assert full == {
        "0,2": "activation:0@4",
        **{str(BlockId(i, j)): str(grid.state_keys(i, 2 * j)[0])
           for j in (0, 1) for i in range(grid.n_layer_blocks)}}
    for bids in ([BlockId(0, 0)], [BlockId(1, 0), BlockId(1, 1)],
                 [BlockId(0, 0), BlockId(0, 2)], [BlockId(0, 2)]):
        assert _failed(run, bids) == {str(b): full[str(b)] for b in bids}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_command_gives_a_block_the_same_verdict(tmp_path, scenario):
    # one block alone, every block in process and isolated, an explicit
    # audit of the block, and the campaign's failing set all agree on
    # each grid block
    import json

    def invoke(*args):
        return _invoke(tmp_path, *args)

    invoke("attack", "run", "--scenario", scenario, "--n-steps", "4",
           "--algo", "sha256")
    run = tmp_path / "run"

    def report(name):
        return json.loads((run / name).read_text())

    def outcomes():
        return {r["block"]: (r["verdict"], r["cause"], r["failed_key"])
                for r in report("verify_report.json")["reports"]}

    invoke("verify", "run")
    in_process = outcomes()
    full = {b: verdict for b, (verdict, _, _) in in_process.items()}
    # the isolated worker hashes what the client derives just as well
    invoke("verify", "run", "--isolated")
    assert outcomes() == in_process
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
