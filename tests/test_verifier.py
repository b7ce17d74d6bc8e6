"""Block verification: request wire format, honest-pass behavior,
exact replay, refusal, full scan, and the isolated worker."""

from __future__ import annotations

import io
import json
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aftune import orchestrate, verifier, verifier_worker
from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from aftune.hashing import Digest, chunked_hash
from aftune.orchestrate import Run
from aftune.model import (ModelState, StepTrace, backward_block,
                          forward_block, params_digest)
from aftune.recorder import record_training
from aftune.tensors import BlobError
from aftune.verifier import (FAIL, HASH_MISMATCH, NUMERICAL_MISMATCH, PASS,
                             REFUSED, BindingMemo, VerificationReport,
                             VerificationRequest, VerifierError, refusal,
                             verify_block, verify_or_refuse)

from conftest import copy_run, make_manifest


def _request(run, bid=BlockId(0, 0), **kw):
    req = Run.open(run["dir"]).request(bid, **kw)
    assert isinstance(req, VerificationRequest)
    return req


def test_request_wire_roundtrip(mlp_run):
    req = _request(mlp_run, BlockId(1, 1))
    back = VerificationRequest.from_bytes(req.to_bytes())
    assert back.block == req.block
    assert (back.mode, back.grid, back.model, back.optimizer, back.hash_algo,
            back.model_digest) == (req.mode, req.grid, req.model,
                                   req.optimizer, req.hash_algo,
                                   req.model_digest)
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
        report = Run.open(mlp_run["dir"]).verify([bid])[0]
        assert report.verdict == PASS, report.to_json()
        # same-platform replay is bitwise: no replayed byte differs
        assert report.failures == []


def test_report_json_roundtrip(mlp_run):
    report = Run.open(mlp_run["dir"]).verify([BlockId(0, 0)])[0]
    back = VerificationReport.from_json(json.loads(json.dumps(report.to_json())))
    assert back.block == report.block
    assert back.verdict == report.verdict
    assert back.passed
    assert back.to_json() == report.to_json()


def test_memory_budget_refusal(mlp_run, monkeypatch):
    monkeypatch.setattr(verifier, "MEMORY_BUDGET", 64)
    report = Run.open(mlp_run["dir"]).verify([BlockId(0, 0)])[0]
    assert report.verdict == REFUSED
    assert "budget" in report.note


@pytest.mark.parametrize("rel", [1e-6, 1e-3])
def test_tampered_output_fails_at_any_size(mlp_run, rel):
    # block 1,1's replayed output activation:2@2 scaled by 1 + rel and
    # its new digest in ledger_digests, so the hash check passes and only
    # the replay can see the change; rel = 1e-6 lies inside a relative-L2
    # tolerance of 1e-5
    req = _request(mlp_run, BlockId(1, 1))
    key = str(Run.open(mlp_run["dir"]).grid.replay_outputs(1, 2)[0])
    req.tensors[key] = req.tensors[key] * np.float32(1 + rel)
    req.ledger_digests[key] = chunked_hash(
        req.tensors[key], req.grid["chunk_size"], req.hash_algo)
    report = verify_block(req)
    assert (report.verdict, report.cause, report.failed_key) == \
        (FAIL, NUMERICAL_MISMATCH, key)


def _nudging_step(grid: BlockGrid, rel: float):
    """Step function of a provider that adds noise of relative L2 norm
    ``rel`` to the activation at boundary ``n_boundaries // 2`` inside
    every training step: the layers above consume the nudged activation,
    the backward pass and the update run on from it, and recorded with
    it every committed tensor agrees with its neighbors."""
    cut = grid.boundary_layer(grid.n_boundaries // 2)
    rng = np.random.default_rng(0)

    def step(state, batch):
        head, tail = state.layers[:cut], state.layers[cut:]
        acts, caches = forward_block(head, batch.inputs, labels=batch.labels)
        x, noise = acts[-1], rng.standard_normal(acts[-1].shape)
        x = (x + noise * (rel * np.linalg.norm(x) / np.linalg.norm(noise))) \
            .astype(np.float32)
        tail_acts, tail_caches = forward_block(tail, x, labels=batch.labels)
        out = tail_acts[-1]
        seed = np.full(out.shape, 1.0 / out.size, dtype=out.dtype)
        tail_gacts, tail_grads = backward_block(tail, tail_caches, seed,
                                                labels=batch.labels)
        gacts, grads = backward_block(head, caches, tail_gacts[0],
                                      labels=batch.labels)
        state.opt.step(state.layers, grads + tail_grads)
        return StepTrace(acts[:-1] + tail_acts, gacts[:-1] + tail_gacts,
                         float(out.astype(np.float64).mean()))
    return step


@pytest.mark.parametrize("ic", [2, None], ids=["ic-2", "ic-inf"])
@pytest.mark.parametrize("preset", ["mlp", "attention"])
def test_an_in_step_nudge_fails_its_producing_blocks(tmp_path, preset, ic):
    # a nudge of relative L2 0.9e-5 lies inside a tolerance of 1e-5 in
    # every block; exact replay fails the block that produces the nudged
    # boundary in every step-block row, at the row's first step, and no
    # other block
    manifest = make_manifest(preset, n_steps=4, ic=ic, algo="sha256")
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    record_training(manifest, tmp_path / "run",
                    step=_nudging_step(grid, 0.9e-5))
    b = grid.n_boundaries // 2
    want = {BlockId(b - 1, j): (NUMERICAL_MISMATCH, str(BoundaryKey(
                "activation", b, grid.block_steps(j)[0])))
            for j in range(grid.n_step_blocks)}
    run = Run.open(tmp_path / "run")
    for isolated in (False, True):
        reports = run.verify(grid.block_ids(), isolated=isolated)
        assert {r.block: (r.cause, r.failed_key) for r in reports
                if r.verdict != PASS} == want, isolated
        assert all(r.verdict in (PASS, FAIL) for r in reports)


def test_a_kernel_that_is_not_deterministic_drifts_only_by_its_bound(
        tmp_path):
    # the isolated unstable-scale block replays with other jitter than
    # it was recorded with, within the drift its layer kind declares
    # (1.6e-6); an output moved by 1e-5, or an exit optimizer state
    # whose step counter differs, fails it
    from conftest import record_run
    _, result = record_run(tmp_path / "iso", preset="unstable", n_steps=4)
    grid = result.ledger.grid
    [i] = [i for i in range(grid.n_layer_blocks) if grid.is_isolated(i)]
    run = Run.open(tmp_path / "iso")
    assert verify_block(run.request(BlockId(i, 0))).verdict == PASS
    output = str(grid.replay_outputs(i, 0)[0])
    [state] = [str(k) for k in grid.state_keys(i, 2)
               if k.kind == "optimizer-state"]
    for key, forge in (
            (output, lambda v: v * np.float32(1 + 1e-5)),
            (state, lambda v: (int.from_bytes(v[:4], "little") + 1)
             .to_bytes(4, "little") + v[4:])):
        req = run.request(BlockId(i, 0))
        req.tensors[key] = forge(req.tensors[key])
        req.ledger_digests[key] = chunked_hash(
            req.tensors[key], req.grid["chunk_size"], req.hash_algo)
        report = verify_block(req)
        assert (report.verdict, report.cause, report.failed_key) == \
            (FAIL, NUMERICAL_MISMATCH, key)

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


def test_loss_block_replays_its_request_labels(mlp_run):
    # the labels travel in the request, derived from the manifest's spec,
    # and no ledger digest binds them: the replay does
    bid = BlockId(mlp_run["result"].ledger.grid.n_layer_blocks - 1, 1)
    req = _request(mlp_run, bid)
    assert set(req.labels) == {2, 3}
    assert set(req.ledger_digests) == set(req.tensors)
    assert verify_block(req).verdict == PASS
    req.labels[3] = (req.labels[3] + 1) % 2
    report = verify_block(req)
    assert (report.verdict, report.cause, report.failed_key) == \
        (FAIL, NUMERICAL_MISMATCH, "activation:3@3")
    # a request that leaves the labels out cannot be replayed
    req = _request(mlp_run, bid)
    del req.labels[2]
    with pytest.raises(ValueError, match="needs labels"):
        verify_block(req)
    assert verify_or_refuse(req).verdict == REFUSED


def test_unknown_mode_rejected(mlp_run):
    req = _request(mlp_run, BlockId(0, 0))
    req.mode = "streaming"
    with pytest.raises(VerifierError):
        verify_block(req)


def test_isolated_worker_matches_in_process(mlp_run):
    in_proc = Run.open(mlp_run["dir"]).verify([BlockId(1, 0)])[0]
    isolated = Run.open(mlp_run["dir"]).verify([BlockId(1, 0)],
                                               isolated=True)[0]
    assert isolated.verdict == in_proc.verdict == PASS
    assert _comparable(isolated) == _comparable(in_proc)


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
    assert verify_block(req).verdict == PASS
    # the replayed blob is hashed: another committed digest fails it
    req.ledger_digests[exit_param] = Digest(bytes(32),
                                            req.ledger_digests[exit_param].algo)
    report = verify_block(req)
    assert (report.verdict, report.cause, report.failed_key) == \
        (FAIL, NUMERICAL_MISMATCH, exit_param)


def test_zero_storage_blocks_verify_by_rematerialization(tmp_path):
    from conftest import record_run
    record_run(tmp_path / "zs", ic=None, zero_storage=True)
    for bid in (BlockId(0, 0), BlockId(2, 3)):
        report = Run.open(tmp_path / "zs").verify([bid])[0]
        assert report.verdict == PASS, report.to_json()


def test_inference_run_verifies_and_binds_model_digest(tmp_path):
    import shutil

    from aftune.model import build_model
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
    for bid in BlockGrid(config).block_ids():
        assert Run.open(tmp_path / "inf").verify([bid])[0].verdict == PASS

    # swap the served parameters: the manifest digest binding must catch it
    tampered = copy_run(tmp_path / "inf", tmp_path / "inf2")
    blob = tampered / "params" / "0.bin"
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0x40
    blob.write_bytes(bytes(raw))
    report = Run.open(tampered).verify([BlockId(0, 0)])[0]
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


# what one header field is replaced by: a value of the wrong type, out of
# range, NaN, or nothing (the field deleted)
_MISSING = object()
_BAD_VALUES = ["x", [], {}, None, True, 2.5, -1, 0, 2**70, float("nan"),
               _MISSING]


def _field_paths(raw: bytes) -> list[tuple]:
    """Every top-level field of ``raw``'s header, every grid field, and
    the model's seed and layers."""
    (n,) = struct.unpack_from("<I", raw)
    header = json.loads(raw[4:4 + n])
    return ([(k,) for k in sorted(header)]
            + [("grid", k) for k in sorted(header["grid"])]
            + [("model", "seed"), ("model", "layers")])


def _replace_field(path: tuple, value):
    def edit(header):
        *outer, last = path
        for k in outer:
            header = header[k]
        if value is _MISSING:
            del header[last]
        else:
            header[last] = value
    return edit


def test_bad_header_field_ends_in_a_verdict(request_bytes, infer_run):
    bases = [request_bytes,
             Run.open(infer_run).request(BlockId(0, 0)).to_bytes()]
    frames, in_process = [], []

    # a grid of 2**70 layers or steps must not be walked
    @example(0, ("grid", "n_layers"), 2**70)
    @example(0, ("grid", "n_steps"), 2**70)
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(len(bases))),
           st.sampled_from(_field_paths(request_bytes)),
           st.sampled_from(_BAD_VALUES))
    def check(base, path, value):
        raw = _edit_header(bases[base], _replace_field(path, value))
        report = verify_or_refuse(raw)
        assert report.verdict in (PASS, FAIL, REFUSED)
        frames.append(verifier_worker.frame(raw))
        in_process.append(_comparable(report))

    check()
    # one long-lived worker answers every example as this process did
    reports, _ = _stream(b"".join(frames))
    assert [_comparable(r) for r in reports] == in_process


@pytest.mark.parametrize("cut", [0, 3, 40, -1])
def test_truncated_request_is_refused_by_worker(request_bytes, cut):
    proc = subprocess.run([sys.executable, "-m", "aftune.verifier_worker"],
                          input=verifier_worker.frame(request_bytes[:cut]),
                          stdout=subprocess.PIPE, check=True)
    report = VerificationReport.from_json(json.loads(proc.stdout))
    assert report.verdict == REFUSED
    assert report.note


def _kill_worker_on(monkeypatch, crash: BlockId) -> None:
    """Make the isolated worker die just before it is sent ``crash``."""
    send = orchestrate._Worker.send

    def dying(self, req):
        if req.block == crash:
            self.proc.kill()
            self.proc.wait()
        return send(self, req)

    monkeypatch.setattr(orchestrate._Worker, "send", dying)


def test_crashed_worker_becomes_a_refused_report(mlp_run, monkeypatch):
    _kill_worker_on(monkeypatch, BlockId(0, 0))
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


def _edit_header(raw: bytes, edit) -> bytes:
    """Request bytes ``raw`` with their JSON header passed through
    ``edit``, which changes it in place."""
    (n,) = struct.unpack_from("<I", raw)
    header = json.loads(raw[4:4 + n])
    edit(header)
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + raw[4 + n:]


def _parameter_blob_as_array(h):
    blob = h["tensors"]["parameter:0@0"]
    blob["shape"] = [blob["length"] // 4]


# header edits that leave a request parseable but uncheckable, on block
# 0,0 of the mlp run (which exits at step 2, where no parameter blob is
# stored) or, for those in INFERENCE_HOSTILE, of an inference run
HOSTILE = {
    "grid-rejected": lambda h: h["grid"].update(bl=99),
    "block-outside-grid": lambda h: h.update(block="7,7"),
    "unknown-layer-kind":
        lambda h: h["model"]["layers"][0].update(kind="no-such-layer"),
    "unstored-exit-digest-missing":
        lambda h: h["ledger_digests"].pop("parameter:0@2"),
    "boundary-tensor-as-bytes":
        lambda h: h["tensors"]["activation:0@0"].update(shape=None),
    "state-blob-as-array": _parameter_blob_as_array,
    # the verifier has no tolerance, so a header naming one, whatever
    # its value, carries an unknown key
    "tau-nan": lambda h: h.update(tau=float("nan")),
    "tau-negative": lambda h: h.update(tau=-1.0),
    "tau-infinite": lambda h: h.update(tau=float("inf")),
    "tau-string": lambda h: h.update(tau="1e-5"),
    "precision-f64": lambda h: h["grid"].update(precision="f64"),
    "hash-algo-md5": lambda h: h.update(hash_algo="md5"),
    "chunk-size-zero": lambda h: h["grid"].update(chunk_size=0),
    "chunk-size-negative": lambda h: h["grid"].update(chunk_size=-5),
    "model-seed-2**70": lambda h: h["model"].update(seed=2**70),
    "grid-of-2**70-layers": lambda h: h["grid"].update(n_layers=2**70),
    "block-of-2**70-steps":
        lambda h: h["grid"].update(n_steps=2**70, bs=2**70),
    "model-digest-missing": lambda h: h.update(model_digest=None),
    "optimizer-kind-unknown": lambda h: h["optimizer"].update(kind="lion"),
    "optimizer-key-unknown": lambda h: h["optimizer"].update(foo=1),
    "optimizer-lr-string": lambda h: h["optimizer"].update(lr="abc"),
    "optimizer-lr-nan": lambda h: h["optimizer"].update(lr=float("nan")),
    "header-key-unknown": lambda h: h.update(precision="f32"),
    "header-key-missing": lambda h: h.pop("hash_algo"),
}
INFERENCE_HOSTILE = {"model-digest-missing"}
# what verify_block raises where no check of its own names the fault
UNCHECKED_HOSTILE = {"unknown-layer-kind": "unknown layer kind"}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_request_is_refused_and_worker_lives_on(mlp_run, infer_run,
                                                        case):
    run = infer_run if case in INFERENCE_HOSTILE else mlp_run["dir"]
    honest = Run.open(run).request(BlockId(0, 0)).to_bytes()
    raw = _edit_header(honest, HOSTILE[case])
    raised = ValueError if case in UNCHECKED_HOSTILE else VerifierError
    with pytest.raises(raised):
        verify_block(VerificationRequest.from_bytes(raw))
    in_proc = verify_or_refuse(raw)
    assert in_proc.verdict == REFUSED and in_proc.note
    assert UNCHECKED_HOSTILE.get(case, "") in in_proc.note
    reports, _ = _stream(verifier_worker.frame(raw)
                         + verifier_worker.frame(honest))
    assert [r.verdict for r in reports] == [REFUSED, PASS]
    assert _comparable(reports[0]) == _comparable(in_proc)


def test_inference_tensor_of_the_wrong_type_is_refused(tmp_path):
    from click.testing import CliRunner

    from aftune.cli import main
    assert CliRunner().invoke(main, ["--root", str(tmp_path), "record-infer",
                                     "inf"]).exit_code == 0
    honest = Run.open(tmp_path / "inf").request(BlockId(0, 0))
    frames = []
    for key, wrong in (("activation:0@0", lambda v: v.tobytes()),
                       ("parameter:0@0", lambda v: np.zeros(2, np.float32))):
        req = Run.open(tmp_path / "inf").request(BlockId(0, 0))
        req.tensors[key] = wrong(req.tensors[key])
        report = verify_or_refuse(req)
        assert report.verdict == REFUSED and key in report.note
        frames.append(verifier_worker.frame(req.to_bytes()))
    reports, _ = _stream(b"".join(frames)
                         + verifier_worker.frame(honest.to_bytes()))
    assert [r.verdict for r in reports] == [REFUSED, REFUSED, PASS]


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
    crash = BlockId(0, 1)
    _kill_worker_on(monkeypatch, crash)
    bids = [e.block for e in Run.open(mlp_run["dir"]).ledger.entries]
    reports = Run.open(mlp_run["dir"]).verify(bids, isolated=True)
    verdicts = {r.block: r for r in reports}
    assert verdicts[crash].verdict == REFUSED
    assert "exited with" in verdicts[crash].note
    later = [b for b in bids if (b.j, b.i) > (crash.j, crash.i)]
    assert later and all(verdicts[b].verdict == PASS for b in later)
    assert all(r.verdict == PASS for b, r in verdicts.items() if b != crash)


# -- the model binding, once per verifier session ---------------------------


@pytest.fixture(scope="module")
def infer_run(tmp_path_factory):
    from click.testing import CliRunner

    from aftune.cli import main
    root = tmp_path_factory.mktemp("infer")
    result = CliRunner().invoke(main, ["--root", str(root), "record-infer",
                                       "inf", "--ia", "1"])
    assert result.exit_code == 0, result.output
    return root / "inf"


def _count_bindings(monkeypatch) -> list:
    """Each model-binding digest the verifier computes, as it happens."""
    calls = []

    def counted(*args):
        calls.append(args)
        return params_digest(*args)
    monkeypatch.setattr(verifier, "params_digest", counted)
    return calls


def _worker_session(monkeypatch, capsys, requests) -> list:
    """One worker session, run in this process, fed ``requests`` as
    frames; its reports in order."""
    data = b"".join(verifier_worker.frame(r.to_bytes()) for r in requests)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    capsys.readouterr()
    assert verifier_worker.main() == 0
    return [VerificationReport.from_json(json.loads(line))
            for line in capsys.readouterr().out.splitlines()]


def test_binding_is_computed_once_per_session(infer_run, monkeypatch,
                                              capsys):
    calls = _count_bindings(monkeypatch)
    run = Run.open(infer_run)
    bids = run.grid.block_ids()
    assert len(bids) == 3
    assert [r.verdict for r in run.verify(bids)] == [PASS] * 3
    assert len(calls) == 1
    run.verify(bids)  # each call is a session of its own
    assert len(calls) == 2
    requests = [req for _, req in Run.open(infer_run).requests(bids)]
    reports = _worker_session(monkeypatch, capsys, requests)
    assert [r.verdict for r in reports] == [PASS] * 3
    assert len(calls) == 3


def test_binding_memo_answers_only_its_own_bytes(infer_run, monkeypatch,
                                                 capsys):
    honest = Run.open(infer_run).request(BlockId(0, 0))
    key = str(BoundaryKey("parameter", 0, 0))
    raw = bytearray(honest.tensors[key])
    raw[0] ^= 1  # the lowest mantissa bit of layer 0's first weight
    flipped = replace(honest, tensors={**honest.tensors, key: bytes(raw)})
    relabeled = replace(honest, model_digest="0" * 64)
    sequence = [honest, flipped, honest, relabeled]
    calls = _count_bindings(monkeypatch)
    memo = BindingMemo()
    in_process = [verify_or_refuse(req, memo) for req in sequence]
    # the relabeled request hits the memo and is still compared
    assert len(calls) == 3
    for reports in (in_process,
                    _worker_session(monkeypatch, capsys, sequence)):
        assert [r.verdict for r in reports] == [PASS, FAIL, PASS, FAIL]
        for r in (reports[1], reports[3]):
            assert (r.cause, r.failed_key) == (HASH_MISMATCH,
                                               "model-parameters")


def test_stray_or_short_parameter_blob_is_refused(infer_run):
    req = Run.open(infer_run).request(BlockId(0, 0))
    key = str(BoundaryKey("parameter", 0, 0))
    req.tensors[key] = req.tensors[key][:-4]
    report = verify_or_refuse(req)
    assert report.verdict == REFUSED and "bytes, not" in report.note
    n = len(req.model["layers"])
    with pytest.raises(BlobError, match="does not have") as e:
        ModelState(req.model, None, [0], {BoundaryKey("parameter", n, 0): b""})
    stray = refusal(req.block, e.value)
    assert stray.verdict == REFUSED and "does not have" in stray.note


def test_training_replayer_draws_no_other_layer_init(mlp_run, monkeypatch):
    # a training block loads its own layers from their blobs: no seeded
    # init of a layer outside the block is drawn
    from aftune import model
    req = _request(mlp_run, BlockId(1, 1))
    draws = []
    rng_for = model.rng_for

    def counting(*args, **kw):
        draws.append(kw.get("index"))
        return rng_for(*args, **kw)

    monkeypatch.setattr(model, "rng_for", counting)
    memo = BindingMemo()
    report = verify_or_refuse(req, memo)
    assert report.verdict == PASS
    assert draws == []
    block, replayer = memo.passed
    assert block == BlockId(1, 1)
    assert replayer.indices == [2, 3]
    assert not hasattr(replayer, "model")
