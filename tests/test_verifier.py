"""Block verification: request wire format, honest-pass behavior,
tolerance window, refusal, full scan, and the isolated worker."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aftune import verifier_worker
from aftune.grid import BlockId, BoundaryKey, label_anchor_key
from aftune.hashing import Digest
from aftune.orchestrate import Run, gather_request, run_verification
from aftune.verifier import (EVIDENCE_RELEASED, FAIL, HASH_MISMATCH,
                             NUMERICAL_MISMATCH, PASS, REFUSED,
                             VerificationReport, VerificationRequest,
                             VerifierError, verify_block)

from conftest import copy_run


def _request(run, bid=BlockId(0, 0), **kw):
    req = gather_request(run["dir"], bid, **kw)
    assert isinstance(req, VerificationRequest)
    return req


def test_request_wire_roundtrip(mlp_run):
    req = _request(mlp_run, BlockId(1, 1))
    back = VerificationRequest.from_bytes(req.to_bytes())
    assert back.block == req.block
    assert back.tau == req.tau
    assert set(back.tensors) == set(req.tensors)
    for k, v in req.tensors.items():
        got = back.tensors[k]
        if isinstance(v, np.ndarray):
            assert got.shape == v.shape
            assert got.tobytes() == np.ascontiguousarray(v, "<f4").tobytes()
        else:
            assert got == v
    assert back.ledger_digests == req.ledger_digests
    for t, labels in req.labels.items():
        assert back.labels[t].tolist() == labels.tolist()


def test_honest_blocks_pass_with_zero_error(mlp_run):
    grid = mlp_run["result"].ledger.grid
    for bid in grid.block_ids():
        report = run_verification(mlp_run["dir"], bid)
        assert report.verdict == PASS, report.to_json()
        # same-platform replay is bitwise: every measured error is 0
        assert all(v == 0.0 for v in report.errors.values())


def test_report_json_roundtrip(mlp_run):
    report = run_verification(mlp_run["dir"], BlockId(0, 0))
    back = VerificationReport.from_json(json.loads(json.dumps(report.to_json())))
    assert back.block == report.block
    assert back.verdict == report.verdict
    assert back.passed
    assert back.errors == report.errors


def test_memory_budget_refusal(mlp_run):
    report = run_verification(mlp_run["dir"], BlockId(0, 0), memory_budget=64)
    assert report.verdict == REFUSED
    assert "budget" in report.note


def test_replay_noise_within_tolerance_passes(mlp_run):
    req = _request(mlp_run, BlockId(1, 1))
    req.replay_noise = 1e-6  # visible in f32, but under tau = 1e-5
    report = verify_block(req)
    assert report.verdict == PASS
    assert any(v > 0 for v in report.errors.values())


def test_replay_noise_beyond_tolerance_fails(mlp_run):
    req = _request(mlp_run, BlockId(1, 1))
    req.replay_noise = 1e-3
    report = verify_block(req)
    assert report.verdict == FAIL
    assert report.cause == NUMERICAL_MISMATCH
    assert report.measured_error > report.tau


def test_f64_shadow_replay_stays_close_to_f32_recording(mlp_run):
    report = run_verification(mlp_run["dir"], BlockId(1, 1), precision="f64",
                              tau=1e-5)
    assert report.verdict == PASS
    # replaying in f64 against f32 recordings leaves rounding-level drift
    assert 0 < max(report.errors.values()) < 1e-5


def test_tampered_digest_is_hash_mismatch(mlp_run):
    req = _request(mlp_run, BlockId(0, 0))
    key = str(BoundaryKey("activation", 0, 0))
    old = req.ledger_digests[key]
    req.ledger_digests[key] = Digest(bytes(32), old.algo)
    report = verify_block(req)
    assert report.verdict == FAIL
    assert report.cause == HASH_MISMATCH
    assert report.failed_key == key


def test_first_failure_stops_unless_full_scan(mlp_run):
    def tampered(full_scan):
        req = _request(mlp_run, BlockId(0, 0), full_scan=full_scan)
        for key in (str(BoundaryKey("activation", 0, 0)),
                    str(BoundaryKey("gradient", 1, 1))):
            req.ledger_digests[key] = Digest(bytes(32))
        return verify_block(req)

    quick = tampered(False)
    assert quick.verdict == FAIL and len(quick.failures) == 1
    full = tampered(True)
    assert full.verdict == FAIL and len(full.failures) == 2
    assert quick.failed_key == full.failed_key  # first failure is canonical


def test_missing_tensor_is_an_error(mlp_run):
    req = _request(mlp_run, BlockId(0, 0))
    del req.tensors[str(BoundaryKey("activation", 0, 0))]
    with pytest.raises(VerifierError):
        verify_block(req)


def test_mismatch_before_a_missing_tensor_stays_a_failure(mlp_run):
    # a forged tensor stops a quick check before it reaches the missing
    # one; a full scan walks on and finds the request malformed
    forged = str(BoundaryKey("activation", 0, 0))
    missing = str(BoundaryKey("gradient", 1, 1))
    for full_scan in (False, True):
        req = _request(mlp_run, BlockId(0, 0), full_scan=full_scan)
        keys = list(req.tensors)
        assert keys.index(forged) < keys.index(missing)
        req.tensors[forged] = req.tensors[forged] + np.float32(1.0)
        del req.tensors[missing]
        if full_scan:
            with pytest.raises(VerifierError, match=missing):
                verify_block(req)
            continue
        report = verify_block(req)
        assert report.verdict == FAIL
        assert report.cause == HASH_MISMATCH
        assert report.failed_key == forged


def test_loss_block_labels_are_hash_checked(mlp_run):
    bid = BlockId(mlp_run["result"].ledger.grid.n_layer_blocks - 1, 1)
    req = _request(mlp_run, bid)
    assert set(req.labels) == {2, 3}
    assert {label_anchor_key(t) for t in (2, 3)} <= set(req.ledger_digests)
    assert verify_block(req).verdict == PASS
    req.labels[3] = (req.labels[3] + 1) % 2
    report = verify_block(req)
    assert (report.verdict, report.cause, report.failed_key) == \
        (FAIL, HASH_MISMATCH, label_anchor_key(3))
    assert not report.errors  # caught before any replay
    # a request that leaves the labels or their digest out is refused
    req = _request(mlp_run, bid)
    del req.labels[2]
    with pytest.raises(VerifierError, match="missing labels label-anchor@2"):
        verify_block(req)
    req = _request(mlp_run, bid)
    del req.ledger_digests[label_anchor_key(2)]
    with pytest.raises(VerifierError, match="digest for label-anchor@2"):
        verify_block(req)


def test_unknown_mode_rejected(mlp_run):
    req = _request(mlp_run, BlockId(0, 0))
    req.mode = "streaming"
    with pytest.raises(VerifierError):
        verify_block(req)


def test_isolated_worker_matches_in_process(mlp_run):
    in_proc = run_verification(mlp_run["dir"], BlockId(1, 0))
    isolated = run_verification(mlp_run["dir"], BlockId(1, 0), isolated=True)
    assert isolated.verdict == in_proc.verdict == PASS
    assert isolated.errors == in_proc.errors


def test_worker_reads_request_bytes_only(mlp_run):
    req = _request(mlp_run, BlockId(0, 1))
    proc = subprocess.run([sys.executable, "-m", "aftune.verifier_worker"],
                          input=verifier_worker.frame(req.to_bytes()),
                          stdout=subprocess.PIPE, check=True)
    report = VerificationReport.from_json(json.loads(proc.stdout))
    assert report.verdict == PASS


def test_exit_params_checked_via_hash_fallback(mlp_run):
    # with ic=2 the checkpoints land at steps 0, 4, 8; row 0 exits at
    # step 2 where no blob exists, forcing the hash-fallback path
    req = _request(mlp_run, BlockId(0, 0))
    exit_param = str(BoundaryKey("parameter", 0, 2))
    assert exit_param not in req.tensors
    assert exit_param in req.ledger_digests
    report = verify_block(req)
    assert report.verdict == PASS
    assert report.errors[exit_param] == 0.0


def test_zero_storage_blocks_verify_by_rematerialization(tmp_path):
    from conftest import record_run
    record_run(tmp_path / "zs", ic=None, zero_storage=True)
    for bid in (BlockId(0, 0), BlockId(2, 3)):
        report = run_verification(tmp_path / "zs", bid)
        assert report.verdict == PASS, report.to_json()


def test_inference_run_verifies_and_binds_model_digest(tmp_path):
    import shutil

    from aftune.grid import BlockGrid, GridConfig
    from aftune.model import build_model
    from aftune.orchestrate import save_inference_params
    from aftune.presets import model_for
    from aftune.recorder import build_inference_manifest, record_inference

    spec = model_for("mlp")
    spec["layers"] = spec["layers"][:-1]
    config = GridConfig(n_layers=len(spec["layers"]), n_steps=1, bl=2, bs=1,
                        ia=2)
    layers = build_model(spec)
    manifest = build_inference_manifest(spec, config)
    x = np.array([[0.5, -1.0], [2.0, 0.25]], np.float32)
    record_inference(manifest, layers, x, tmp_path / "inf")
    save_inference_params(tmp_path / "inf", layers)
    for bid in BlockGrid(config).block_ids():
        assert run_verification(tmp_path / "inf", bid).verdict == PASS

    # swap the served parameters: the manifest digest binding must catch it
    tampered = copy_run(tmp_path / "inf", tmp_path / "inf2")
    blob = tampered / "params" / "0.bin"
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0x40
    blob.write_bytes(bytes(raw))
    report = run_verification(tampered, BlockId(0, 0))
    assert report.verdict == FAIL
    assert report.cause == HASH_MISMATCH
    assert report.failed_key == "model-parameters"


# -- malformed requests ----------------------------------------------------


@pytest.fixture(scope="module")
def request_bytes(mlp_run):
    return _request(mlp_run, BlockId(2, 1)).to_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_request_bytes_parse_or_raise_verifier_error(request_bytes,
                                                             data):
    raw = bytearray(request_bytes)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1),
                                      min_size=1, max_size=8), label="bits"):
            raw[bit // 8] ^= 1 << (bit % 8)
    try:
        req = VerificationRequest.from_bytes(bytes(raw))
    except VerifierError:
        return
    assert isinstance(req, VerificationRequest)


@pytest.mark.parametrize("cut", [0, 3, 40, -1])
def test_truncated_request_is_refused_by_worker(request_bytes, cut):
    proc = subprocess.run([sys.executable, "-m", "aftune.verifier_worker"],
                          input=verifier_worker.frame(request_bytes[:cut]),
                          stdout=subprocess.PIPE, check=True)
    report = VerificationReport.from_json(json.loads(proc.stdout))
    assert report.verdict == REFUSED
    assert report.note


def test_crashed_worker_becomes_a_refused_report(mlp_run, monkeypatch):
    # a request the worker parses but cannot replay: the model spec names
    # a layer kind that does not exist, so the worker dies with a traceback
    to_bytes = VerificationRequest.to_bytes

    def broken(self):
        self.model = {"seed": 0, "layers": [{"kind": "no-such-layer"}]}
        return to_bytes(self)

    monkeypatch.setattr(VerificationRequest, "to_bytes", broken)
    [report] = Run.open(mlp_run["dir"]).verify([BlockId(0, 0)],
                                               isolated=True)
    assert report.block == BlockId(0, 0)
    assert report.verdict == REFUSED
    assert "exited with" in report.note


# -- the worker stream -----------------------------------------------------


def _stream(data: bytes) -> tuple[list[VerificationReport], bytes]:
    """Feed ``data`` to one worker; its reports in order, and its stderr."""
    proc = subprocess.run([sys.executable, "-m", "aftune.verifier_worker"],
                          input=data, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return ([VerificationReport.from_json(json.loads(line))
             for line in proc.stdout.splitlines()], proc.stderr)


def _comparable(report: VerificationReport) -> dict:
    out = report.to_json()
    del out["wall_time"]
    return out


def test_worker_answers_each_frame_in_order(request_bytes):
    frames = [request_bytes, request_bytes[:40], request_bytes]
    reports, _ = _stream(b"".join(map(verifier_worker.frame, frames)))
    assert [r.verdict for r in reports] == [PASS, REFUSED, PASS]
    assert reports[0].block == reports[2].block == BlockId(2, 1)


def test_bogus_frame_length_is_refused_without_allocating_it():
    head = (2**62 + 5).to_bytes(8, "little")
    reports, stderr = _stream(head + bytes(10))
    [report] = reports
    assert report.verdict == REFUSED
    assert "input ended after 10" in report.note
    assert b"MemoryError" not in stderr


def test_read_frame_roundtrip_and_boundaries():
    stream = io.BytesIO(verifier_worker.frame(b"abc")
                        + verifier_worker.frame(b""))
    assert verifier_worker.read_frame(stream) == b"abc"
    assert verifier_worker.read_frame(stream) == b""
    assert verifier_worker.read_frame(stream) is None
    with pytest.raises(verifier_worker.FrameError):
        verifier_worker.read_frame(io.BytesIO(b"\x03\x00"))


def test_reused_worker_matches_fresh_workers(mlp_run):
    run = Run.open(mlp_run["dir"])
    requests = [req for _, req in
                run.requests([e.block for e in run.ledger.entries])]
    frames = [verifier_worker.frame(req.to_bytes()) for req in requests]
    shared, _ = _stream(b"".join(frames))
    fresh = [_stream(f)[0][0] for f in frames]
    assert [r.verdict for r in shared] == [PASS] * len(requests)
    assert [_comparable(r) for r in shared] == \
        [_comparable(r) for r in fresh]


def test_crash_mid_command_refuses_only_that_block(mlp_run, monkeypatch):
    to_bytes = VerificationRequest.to_bytes
    crash = BlockId(0, 1)

    def broken(self):
        if self.block == crash:
            self.model = {"seed": 0, "layers": [{"kind": "no-such-layer"}]}
        return to_bytes(self)

    monkeypatch.setattr(VerificationRequest, "to_bytes", broken)
    bids = [e.block for e in Run.open(mlp_run["dir"]).ledger.entries]
    reports = Run.open(mlp_run["dir"]).verify(bids, isolated=True)
    verdicts = {r.block: r for r in reports}
    assert verdicts[crash].verdict == REFUSED
    assert "exited with" in verdicts[crash].note
    later = [b for b in bids if (b.j, b.i) > (crash.j, crash.i)]
    assert later and all(verdicts[b].verdict == PASS for b in later)
    assert all(r.verdict == PASS for b, r in verdicts.items() if b != crash)
