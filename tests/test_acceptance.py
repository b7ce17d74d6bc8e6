"""Acceptance suite: one test per shipped guarantee.

Each test is a self-contained end-to-end check of one property the
package promises — detection odds, honest-run completeness, tamper
soundness, boundary dedup, bitwise sparse reconstruction, exact storage
accounting, hash schedule independence, gradient correctness, attack
separation, scenario detection, the failure of non-finite forgeries,
and labels bound to their anchors. Run with ``pytest -v
tests/test_acceptance.py`` for one pass/fail line per guarantee.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from aftune.adversary import apply_inference_scenario, apply_scenario, \
    boundary_attack_profile, parameter_poison_attack, rewrite_key
from aftune.auditor import AuditPlan, p_detect_exact, run_campaign
from aftune.data import make_dataset
from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig, \
    storage_estimate
from aftune.hashing import chunked_hash, chunked_hash_many
from aftune.ledger import RunLedger
from aftune.model import build_model, forward_block, param_bytes
from aftune.orchestrate import Run
from aftune.presets import attack_mlp_model, dataset_for, default_optimizer, \
    trained_attack_classifier
from aftune.recorder import (LEDGER_FILE, RunContext,
                             build_inference_manifest, build_manifest,
                             record_inference,
                             record_training, run_uninstrumented)
from aftune.store import TensorStore
from aftune.verifier import (FAIL, HASH_MISMATCH, NON_FINITE,
                             NUMERICAL_MISMATCH, PASS)

from conftest import committed_tensor, make_manifest, record_run
from test_engine import _fd_check, _layer_instance


# -- helpers ---------------------------------------------------------------


def _random_model(rng, n_layers: int, width: int = 8, n_classes: int = 3):
    """A random stack ending in a loss head, d_in=2 circles data."""
    body = [{"kind": "linear", "d_in": 2, "d_out": width}]
    fillers = ([{"kind": "relu"}, {"kind": "layer-norm", "dim": width},
                {"kind": "linear", "d_in": width, "d_out": width}])
    while len(body) < n_layers - 2:
        body.append(fillers[int(rng.integers(len(fillers)))])
    body.append({"kind": "linear", "d_in": width, "d_out": n_classes})
    body.append({"kind": "softmax-cross-entropy-head",
                 "n_classes": n_classes})
    return {"seed": int(rng.integers(1 << 30)), "layers": body}


def _random_manifest(rng):
    n_layers = int(rng.integers(3, 13))      # L <= 12
    n_steps = int(rng.integers(1, 25))       # T <= 24
    spec = _random_model(rng, n_layers)
    config = GridConfig(
        n_layers=len(spec["layers"]),
        n_steps=n_steps,
        bl=int(rng.integers(1, len(spec["layers"]) + 1)),
        bs=int(rng.integers(1, n_steps + 1)),
        ic=[None, 1, 2, 4][int(rng.integers(4))])
    opt = default_optimizer(("adamw", "sgd-momentum")[int(rng.integers(2))])
    return build_manifest(spec, opt, dataset_for("mlp"), config,
                          int(rng.integers(1 << 30)), 8)


@pytest.fixture(scope="module")
def random_runs(tmp_path_factory):
    """Twenty recorded runs over randomly drawn configurations, shared by
    the completeness, dedup, and storage-accounting criteria."""
    root = tmp_path_factory.mktemp("random-runs")
    rng = np.random.default_rng(2024)
    runs = []
    for n in range(18):
        manifest = _random_manifest(rng)
        result = record_training(manifest, root / f"r{n}")
        runs.append((manifest, result, root / f"r{n}"))
    # always include the two storage extremes
    for n, kw in ((18, dict(n_steps=6, ic=None)),
                  (19, dict(n_steps=6, ic=None, zero_storage=True))):
        manifest, result = record_run(root / f"r{n}", **kw)
        runs.append((manifest, result, root / f"r{n}"))
    return runs


@pytest.fixture(scope="module")
def attack_subject():
    layers, ds = trained_attack_classifier(train_steps=250)
    return layers, ds


def _all_verdicts(run_dir):
    ledger = RunLedger.load(Path(run_dir) / LEDGER_FILE)
    return {str(e.block): Run.open(run_dir).verify([e.block])[0]
            for e in ledger.entries}


# -- 1. detection probability ----------------------------------------------


def test_acceptance_detection_probability(tmp_path):
    # closed form at scale: 1000 blocks, 100 tampered, 10 samples
    assert p_detect_exact(1000, 100, 10) == \
        pytest.approx(0.653072285207994, abs=1e-12)
    # Monte-Carlo campaign on a 9-block grid with exactly one bad block:
    # sampling m=3 of 9 must detect at exactly 1/3
    manifest = make_manifest(n_steps=6, bl=2, bs=2, ic=1)
    record_training(manifest, tmp_path / "run")
    # an edge output, committed but not stored: only its producing block
    # (0,1) checks it, by hashing its replay
    key = BoundaryKey("gradient", 0, 2)
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    for e in ledger.entries:
        if key in e.entries:
            d = e.entries[key]
            e.entries[key] = type(d)(bytes([d.value[0] ^ 1]) + d.value[1:],
                                     d.algo)
    ledger.save(tmp_path / "run" / LEDGER_FILE)
    plan = AuditPlan(m=3, strategy="uniform", seed=2)
    result = run_campaign(Run.open(tmp_path / "run"), plan, trials=10_000)
    assert result.failing_blocks == ["0,1"]
    assert result.exact_rate == pytest.approx(1 / 3, rel=1e-12)
    assert abs(result.empirical_rate - 1 / 3) < 0.03


# -- 2. honest-run completeness --------------------------------------------


def test_acceptance_honest_runs_verify_completely(random_runs):
    assert len(random_runs) == 20
    for manifest, result, run_dir in random_runs:
        for block, report in _all_verdicts(run_dir).items():
            assert report.verdict == PASS, (run_dir, block, report.cause)


# -- 3. tamper soundness ----------------------------------------------------


def test_acceptance_bit_flips_fail_hash_check(tmp_path):
    manifest = make_manifest(n_steps=4, bl=2, bs=2, ic=1)
    record_training(manifest, tmp_path / "run")
    ledger = RunLedger.load(tmp_path / "run" / LEDGER_FILE)
    store = TensorStore(tmp_path / "run")
    targets = [
        (e.block, k) for e in ledger.entries for k in e.entries
        if store.has_blob(k)
        and (store.blob_dir / store.index[str(k)]["digest"]).stat().st_size
        # parameter-free layers commit empty blobs; nothing to flip there
    ]
    rng = np.random.default_rng(3)
    for _ in range(200):
        block, key = targets[int(rng.integers(len(targets)))]
        blob = store.blob_dir / store.index[str(key)]["digest"]
        raw = bytearray(blob.read_bytes())
        bit = int(rng.integers(len(raw) * 8))
        raw[bit // 8] ^= 1 << (bit % 8)
        blob.write_bytes(bytes(raw))
        report = Run.open(tmp_path / "run").verify([block])[0]
        assert report.verdict == FAIL, (str(block), str(key), bit)
        assert report.cause == HASH_MISMATCH, (str(block), str(key))
        raw[bit // 8] ^= 1 << (bit % 8)
        blob.write_bytes(bytes(raw))


def test_acceptance_small_forgeries_fail_numerically(tmp_path):
    manifest = make_manifest(n_steps=4, bl=2, bs=2, ic=1)
    record_training(manifest, tmp_path / "base")
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    rng = np.random.default_rng(7)
    cases = [(b, t) for b in range(1, grid.n_layer_blocks + 1)
             for t in range(grid.config.n_steps)]
    for n, (b, t) in enumerate(cases):
        run = tmp_path / f"forged{n}"
        shutil.copytree(tmp_path / "base", run)
        key = BoundaryKey("activation", b, t)
        x = committed_tensor(manifest, key)
        noise = rng.normal(size=x.shape).astype(np.float32)
        # relative L2 of the forgery, log-uniform in [1e-6, 1e-3]
        rel = float(10 ** rng.uniform(-6, -3))
        noise *= rel * np.linalg.norm(x) / np.linalg.norm(noise)
        rewrite_key(run, key, (x + noise).astype(np.float32))
        report = Run.open(run).verify([BlockId(b - 1, t // grid.config.bs)])[0]
        assert report.verdict == FAIL, (b, t, rel)
        assert report.cause == NUMERICAL_MISMATCH, (b, t, rel)


# -- 4. boundary dedup ------------------------------------------------------


def test_acceptance_boundary_count_is_deduplicated(random_runs):
    for manifest, result, run_dir in random_runs:
        config = GridConfig.from_dict(manifest["grid"])
        want = -(-config.n_layers // config.bl) + 1
        digests = result.ledger.all_digests()
        for t in range(config.n_steps):
            got = sum(1 for k in digests
                      if k.kind == "activation" and k.step == t)
            assert got == want, (run_dir, t)


# -- 5. sparse reconstruction ----------------------------------------------


@pytest.mark.parametrize("ic", [2, 4, 8])
def test_acceptance_sparse_reconstruction_is_bitwise(tmp_path, ic):
    kw = dict(n_steps=16, bl=2, bs=2)
    record_run(tmp_path / "sparse", ic=ic, **kw)
    record_run(tmp_path / "dense", ic=1, **kw)
    for step in range(0, 17, 2):
        sparse = Run.open(tmp_path / "sparse").state_at(step)
        dense = Run.open(tmp_path / "dense").state_at(step)
        for a, b in zip(sparse.layers, dense.layers):
            assert param_bytes(a) == param_bytes(b)
        for l in range(len(dense.layers)):
            key = BoundaryKey("optimizer-state", l, step)
            assert sparse.blob(key) == dense.blob(key)


# -- 6. storage formula ------------------------------------------------------


def test_acceptance_bytes_written_equal_storage_estimate(random_runs):
    for manifest, result, run_dir in random_runs:
        ctx = RunContext(manifest)
        state, _ = run_uninstrumented(manifest)
        p_total = sum(len(param_bytes(l)) for l in state.layers)
        o_total = sum(len(state.blob(BoundaryKey("optimizer-state", l, 0)))
                      for l in range(len(state.layers)))
        batch = ctx.batch(0)
        acts, _ = forward_block(state.layers, batch.inputs,
                                labels=batch.labels)
        sizes = [acts[ctx.grid.boundary_layer(b)].nbytes
                 for b in range(ctx.grid.n_boundaries)]
        est = storage_estimate(ctx.config, p_total, o_total, sizes)
        assert result.bytes_written == est["total_bytes"], run_dir


# -- 7. hash schedule independence -------------------------------------------


def test_acceptance_chunked_hash_is_schedule_independent():
    """Each tensor hashed alone, all 500 in one batch, or the batch split
    at random into 2, 4 or 8 sub-batches: the digests agree."""
    rng = np.random.default_rng(5)
    chunk = 64  # elements
    edge_sizes = [1, chunk - 1, chunk, chunk + 1, 3 * chunk, 3 * chunk + 1]
    arrays = []
    for n in range(500):
        size = edge_sizes[n % len(edge_sizes)] if n < 120 \
            else int(rng.integers(1, 8 * chunk))
        arrays.append(rng.normal(size=size).astype(np.float32))
    for algo in ("blake3", "sha256"):
        alone = [chunked_hash(arr, chunk, algo) for arr in arrays]
        assert chunked_hash_many(arrays, chunk, algo) == alone, algo
        for parts in (2, 4, 8):
            ends = [0, *sorted(rng.integers(0, len(arrays) + 1, parts - 1)),
                    len(arrays)]
            got = [d for a, b in zip(ends, ends[1:])
                   for d in chunked_hash_many(arrays[a:b], chunk, algo)]
            assert got == alone, (algo, ends)


# -- 8. gradient correctness -------------------------------------------------


@pytest.mark.parametrize("kind", ["linear", "relu", "layer-norm",
                                  "attention-head",
                                  "softmax-cross-entropy-head",
                                  "unstable-scale"])
def test_acceptance_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(hash(kind) % (1 << 32))
    for _ in range(100):
        _fd_check(_layer_instance(kind, rng), rng)


# -- 9. attack separation ----------------------------------------------------


def test_acceptance_attack_separation(tmp_path, attack_subject):
    layers, ds = attack_subject
    x = ds.inputs[2:3]
    spec = attack_mlp_model()
    # an honest replay of the same served model passes, which it does
    # only by reproducing every committed byte
    config = GridConfig(n_layers=len(layers), n_steps=1, bl=1, bs=1)
    manifest = build_inference_manifest(spec, config, layers=layers)
    record_inference(manifest, layers, x, tmp_path / "honest")
    for i in range(BlockGrid(config).n_layer_blocks):
        report = Run.open(tmp_path / "honest").verify([BlockId(i, 0)])[0]
        assert report.verdict == PASS
    # minimal successful forgeries sit far above one f32 ulp; exact
    # replay rejects them whatever their size
    profiles = {}
    for bl in (1, 2, 4):
        cfg = GridConfig(n_layers=len(layers), n_steps=1, bl=bl, bs=1)
        profiles[bl] = boundary_attack_profile(layers, cfg, x, steps=200)
    floor = float(np.finfo(np.float32).eps)
    min_forge = min(min(p.values()) for p in profiles.values())
    assert min_forge >= 1e4 * floor
    target = (int(ds.labels[2]) + 1) % 3
    poison = parameter_poison_attack(layers, x, target, ds.inputs[:32],
                                     ds.labels[:32], steps=300)
    assert poison.success
    assert poison.rel_delta_norm >= 100 * floor
    # growing layer blocks trim the extreme boundaries: the hardest
    # boundary gets easier and the easiest gets harder
    maxes = [max(profiles[bl].values()) for bl in (1, 2, 4)]
    mins = [min(profiles[bl].values()) for bl in (1, 2, 4)]
    assert maxes[0] > maxes[1] > maxes[2]
    assert mins[0] < mins[1] < mins[2]


# -- 10. end-to-end scenario detection ---------------------------------------


def test_acceptance_scenarios_detected_by_documented_strategy(tmp_path,
                                                              attack_subject):
    layers, ds = attack_subject
    spec = attack_mlp_model()
    infer_config = GridConfig(n_layers=len(spec["layers"]), n_steps=1,
                              bl=2, bs=1)

    # replay-detectable forgeries: uniform sampling campaign, empirical
    # rate must bracket the exact without-replacement prediction
    for scenario in ("under-train", "activation-perturbation",
                     "parameter-poison"):
        run = tmp_path / scenario
        result = apply_scenario(scenario, make_manifest(ic=1), run)
        plan = AuditPlan(m=3, strategy="uniform", seed=9)
        campaign = run_campaign(Run.open(run), plan, trials=3000)
        grid = BlockGrid(GridConfig.from_dict(
            RunLedger.load(run / LEDGER_FILE).manifest["grid"]))
        k = len(campaign.failing_blocks)
        assert set(result.tampered_blocks) <= set(campaign.failing_blocks)
        assert campaign.exact_rate == \
            pytest.approx(p_detect_exact(grid.n_blocks, k, 3), rel=1e-12)
        lo, hi = campaign.ci95
        assert lo <= campaign.exact_rate <= hi, scenario
        assert campaign.detections > 0, scenario

    # provenance scenarios: trained from another base model or on other
    # batches than the manifest claims, each tampered block fails the
    # hash check of the step-0 state or model inputs the client derives,
    # or of an entry state replayed from them
    for scenario in ("model-substitution", "backdoor-poison"):
        run = tmp_path / scenario
        result = apply_scenario(scenario, make_manifest(), run)
        opened = Run.open(run)
        bids = [BlockId.parse(b) for b in result.tampered_blocks]
        for bid, report in zip(bids, opened.verify(bids)):
            assert (report.verdict, report.cause) == (FAIL, HASH_MISMATCH)
            key = BoundaryKey.parse(report.failed_key)
            entry = opened.grid.block_steps(bid.j)[0]
            assert key.derived or key in opened.grid.state_keys(bid.i, entry)

    # inference scenarios: direct verification of the tampered block
    x = make_dataset(dataset_for("mlp")).inputs[:1]
    served = build_model(spec)
    for scenario, cause in (("serve-wrong-model", HASH_MISMATCH),
                            ("fabricate-output", NUMERICAL_MISMATCH)):
        run = tmp_path / scenario
        result = apply_inference_scenario(
            scenario, build_inference_manifest(spec, infer_config,
                                               layers=served),
            served, x, run)
        bad = BlockId.parse(result.tampered_blocks[0])
        report = Run.open(run).verify([bad])[0]
        assert report.verdict == FAIL, scenario
        assert report.cause == cause, scenario


# -- 11. non-finite forgeries ------------------------------------------------


def test_acceptance_nan_forgeries_fail(tmp_path):
    # a training boundary rewritten to all-NaN and committed consistently:
    # its producer fails the comparison, its consumer cannot replay, and
    # with ic=inf the consumer row's later entry states replay through it
    record_run(tmp_path / "train", n_steps=6, ic=None)
    key = BoundaryKey("activation", 1, 2)  # made by (0,1), used by (1,1)
    shape = TensorStore(tmp_path / "train").get_tensor(key).shape
    rewrite_key(tmp_path / "train", key, np.full(shape, np.nan, np.float32))
    verdicts = _all_verdicts(tmp_path / "train")
    producer = verdicts["0,1"]
    assert (producer.verdict, producer.cause, producer.failed_key) == \
        (FAIL, NUMERICAL_MISMATCH, str(key))
    for consumer in ("1,1", "1,2"):
        report = verdicts[consumer]
        assert (report.verdict, report.cause, report.failed_key) == \
            (FAIL, NON_FINITE, str(key)), consumer
    assert {b for b, r in verdicts.items() if r.verdict != PASS} == \
        {"0,1", "1,1", "1,2"}
    campaign = run_campaign(Run.open(tmp_path / "train"), AuditPlan(m=1),
                            trials=10)
    assert campaign.failing_blocks == ["0,1", "1,1", "1,2"]

    # the served inference output rewritten to all-NaN
    spec = attack_mlp_model()
    config = GridConfig(n_layers=len(spec["layers"]), n_steps=1, bl=2, bs=1)
    layers = build_model(spec)
    x = make_dataset(dataset_for("mlp")).inputs[:1]
    run = tmp_path / "infer"
    record_inference(build_inference_manifest(spec, config, layers=layers),
                     layers, x, run)
    last = BlockGrid(config).n_layer_blocks
    out_key = BoundaryKey("activation", last, 0)
    shape = TensorStore(run).get_tensor(out_key).shape
    rewrite_key(run, out_key, np.full(shape, np.nan, np.float32))
    verdicts = _all_verdicts(run)
    report = verdicts[str(BlockId(last - 1, 0))]
    assert (report.verdict, report.cause, report.failed_key) == \
        (FAIL, NUMERICAL_MISMATCH, str(out_key))
    assert all(r.verdict == PASS for b, r in verdicts.items()
               if b != str(BlockId(last - 1, 0)))


def _loss_block_failures(run: Run, isolated: bool) -> dict:
    """Verify every block; the failing ones, each with its cause and
    failed key."""
    bids = [e.block for e in run.ledger.entries]
    return {r.block: (r.cause, r.failed_key)
            for r in run.verify(bids, isolated=isolated)
            if r.verdict != PASS}


def test_acceptance_flipped_labels_fail_the_loss_block(tmp_path):
    """The loss block replays the labels its request carries, which the
    client derives from the manifest's dataset spec: labels that an
    orchestrator flips for an honest run fail the replay of every loss
    block at its first step's loss, in process and isolated."""
    manifest, result = record_run(tmp_path / "run", n_steps=4)
    grid = result.ledger.grid
    last = grid.n_layer_blocks - 1
    want = {BlockId(last, j): (NUMERICAL_MISMATCH, str(BoundaryKey(
                "activation", last + 1, grid.block_steps(j)[0])))
            for j in range(grid.n_step_blocks)}
    n_classes = manifest["dataset"]["spec"].get("n_classes", 2)

    run = Run.open(tmp_path / "run")
    honest = run.requests

    def flipped(bids, **kw):
        for bid, req in honest(bids, **kw):
            req.labels = {t: (y + 1) % n_classes for t, y in req.labels.items()}
            yield bid, req

    run.requests = flipped
    for isolated in (False, True):
        assert _loss_block_failures(run, isolated) == want
