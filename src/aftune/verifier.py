"""Recomputation-based block verification.

The verifier models the TEE side: it receives a self-contained request
(block-scoped tensors plus the ledger digests they must match), replays
the block, and reports Pass/Fail. Hash checks confirm the provided
stored tensors are the committed ones; numerical checks confirm the
recomputation agrees with them within the tolerance. It can run in-
process or as an isolated worker process that sees nothing but the
request bytes.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import (BASE_MODEL_ANCHOR, INPUT_ANCHOR, LABEL_ANCHOR, BlockGrid,
                   BlockId, BoundaryKey, GridConfig, label_anchor_key)
from .hashing import Digest, chunked_hash_many, label_bytes
from .ledger import RunLedger
from .model import (build_model, backward_block, forward_block, param_bytes,
                    params_digest)
from .optim import build_optimizer
from .store import EvidenceReleasedError, TensorStore
from .tensors import NonFiniteError, rel_l2_error

DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024  # bytes of payload a verifier accepts

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"
EVIDENCE_RELEASED = "evidence-released"

HASH_MISMATCH = "hash-mismatch"
NUMERICAL_MISMATCH = "numerical-mismatch"
NON_FINITE = "non-finite"


class VerifierError(Exception):
    pass


@dataclass
class VerificationRequest:
    block: BlockId
    mode: str                    # training | inference
    tau: float
    precision: str               # f32 | f64
    grid: dict
    model: dict
    optimizer: dict | None
    tensors: dict[str, np.ndarray | bytes]
    ledger_digests: dict[str, Digest]
    labels: dict[int, np.ndarray] = field(default_factory=dict)
    model_digest: str | None = None   # inference: manifest binding
    chunk_size: int = 4096
    algo: str = "blake3"
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    full_scan: bool = False
    # simulated cross-device divergence: bounded relative rounding noise
    # injected into replayed tensors (0 disables; same-machine default)
    replay_noise: float = 0.0

    # -- wire format: json header + concatenated raw payload -------------

    def to_bytes(self) -> bytes:
        blobs: list[bytes] = []
        meta = {}
        off = 0
        for k, v in self.tensors.items():
            if isinstance(v, np.ndarray):
                data = np.ascontiguousarray(v, "<f4").tobytes()
                shape = list(v.shape)
            else:
                data, shape = v, None
            meta[k] = {"offset": off, "length": len(data), "shape": shape}
            blobs.append(data)
            off += len(data)
        header = json.dumps({
            "block": str(self.block), "mode": self.mode, "tau": self.tau,
            "precision": self.precision, "grid": self.grid,
            "model": self.model, "optimizer": self.optimizer,
            "labels": {str(t): np.asarray(v).tolist()
                       for t, v in self.labels.items()},
            "ledger_digests": {k: [d.algo, d.hex]
                               for k, d in self.ledger_digests.items()},
            "model_digest": self.model_digest,
            "chunk_size": self.chunk_size, "algo": self.algo,
            "memory_budget": self.memory_budget, "full_scan": self.full_scan,
            "replay_noise": self.replay_noise,
            "tensors": meta,
        }).encode()
        return struct.pack("<I", len(header)) + header + b"".join(blobs)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerificationRequest":
        """Parse request bytes; any malformed input raises VerifierError."""
        try:
            return cls._parse(data)
        except VerifierError:
            raise
        except (ValueError, TypeError, KeyError, IndexError, AttributeError,
                OverflowError, struct.error) as e:
            raise VerifierError(f"malformed request: {e!r}") from None

    @classmethod
    def _parse(cls, data: bytes) -> "VerificationRequest":
        if len(data) < 4:
            raise VerifierError(f"request of {len(data)} bytes has no header")
        (hlen,) = struct.unpack_from("<I", data, 0)
        if hlen > len(data) - 4:
            raise VerifierError(f"header length {hlen} exceeds the request")
        h = json.loads(data[4:4 + hlen])
        payload = memoryview(data)[4 + hlen:]
        tensors: dict[str, np.ndarray | bytes] = {}
        for k, m in h["tensors"].items():
            off, length, shape = m["offset"], m["length"], m["shape"]
            if not (isinstance(off, int) and isinstance(length, int)
                    and 0 <= off and 0 <= length
                    and off + length <= len(payload)):
                raise VerifierError(f"tensor {k} lies outside the payload")
            raw = payload[off:off + length]
            if shape is None:
                tensors[k] = bytes(raw)
                continue
            if not all(isinstance(d, int) and d >= 0 for d in shape) \
                    or length != 4 * math.prod(shape):
                raise VerifierError(
                    f"tensor {k}: {length} bytes do not fill shape {shape}")
            tensors[k] = np.frombuffer(raw, "<f4").reshape(shape).copy()
        return cls(
            block=BlockId.parse(h["block"]), mode=h["mode"],
            tau=float(h["tau"]), precision=h["precision"], grid=h["grid"],
            model=h["model"], optimizer=h["optimizer"], tensors=tensors,
            ledger_digests={k: Digest.from_hex(v[1], v[0])
                            for k, v in h["ledger_digests"].items()},
            labels={int(t): np.asarray(v, dtype=np.int64)
                    for t, v in h["labels"].items()},
            model_digest=h["model_digest"], chunk_size=int(h["chunk_size"]),
            algo=h["algo"], memory_budget=int(h["memory_budget"]),
            full_scan=bool(h["full_scan"]),
            replay_noise=float(h.get("replay_noise", 0.0)),
        )

    def payload_bytes(self) -> int:
        total = 0
        for v in self.tensors.values():
            total += v.nbytes if isinstance(v, np.ndarray) else len(v)
        return total


@dataclass
class VerificationReport:
    block: BlockId | None             # None: the request named no block
    verdict: str
    cause: str | None = None          # hash-mismatch | numerical-mismatch | non-finite
    failed_key: str | None = None
    measured_error: float | None = None
    tau: float | None = None
    errors: dict[str, float] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {
            "block": None if self.block is None else str(self.block),
            "verdict": self.verdict,
            "cause": self.cause, "failed_key": self.failed_key,
            "measured_error": self.measured_error, "tau": self.tau,
            "errors": self.errors, "failures": self.failures,
            "wall_time": self.wall_time, "note": self.note,
        }

    @classmethod
    def from_json(cls, d: dict) -> "VerificationReport":
        block = d["block"]
        return cls(block=None if block is None else BlockId.parse(block),
                   verdict=d["verdict"],
                   cause=d["cause"], failed_key=d["failed_key"],
                   measured_error=d["measured_error"], tau=d["tau"],
                   errors=d.get("errors", {}), failures=d.get("failures", []),
                   wall_time=d.get("wall_time", 0.0), note=d.get("note"))


# -- replay machinery ----------------------------------------------------


class BlockReplayer:
    """A contiguous layer slice with parameters and optimizer state loaded
    from serialized checkpoint bytes, ready for step-by-step replay."""

    def __init__(self, model_spec, opt_spec, layer_indices,
                 param_blobs: dict[int, bytes], opt_blobs: dict[int, bytes],
                 precision: str = "f32"):
        full = build_model(model_spec)
        self.layer_indices = list(layer_indices)
        self.layers = [full[l] for l in self.layer_indices]
        self.precision = precision
        for l, layer in zip(self.layer_indices, self.layers):
            load_layer_params(layer, param_blobs[l])
        self.opt = None
        if opt_spec is not None:
            self.opt = build_optimizer(opt_spec, self.layers)
            counters = set()
            for li, (l, layer) in enumerate(zip(self.layer_indices, self.layers)):
                counters.add(load_opt_state(self.opt, li, layer, opt_blobs[l]))
            if len(counters) != 1:
                raise VerifierError(f"inconsistent optimizer counters {counters}")
            self.opt.step_count = counters.pop()

    def _cast(self, x):
        return x.astype(np.float64) if self.precision == "f64" else x

    def forward(self, x, labels=None):
        return forward_block(self.layers, self._cast(x), labels=labels)

    def replay_step(self, x, upstream, labels=None):
        """Forward + backward + optimizer update for one training step."""
        acts, caches = self.forward(x, labels=labels)
        gacts, pgrads = backward_block(self.layers, caches,
                                       self._cast(upstream), labels=labels)
        if self.opt is not None:
            f32_grads = [{n: np.asarray(g, np.float32) for n, g in pg.items()}
                         for pg in pgrads]
            self.opt.step(self.layers, f32_grads)
        return acts, gacts

    def param_blob(self, l: int) -> bytes:
        return param_bytes(self.layers[self.layer_indices.index(l)])

    def opt_blob(self, l: int) -> bytes:
        li = self.layer_indices.index(l)
        return self.opt.state_bytes(li, self.layers[li])


def non_finite_key(i: int, t: int, x, upstream) -> str:
    """The boundary a NonFiniteError in layer block i's step-t replay is
    charged to: the first consumed tensor holding NaN or Inf, else the
    block's replayed output."""
    for key, arr in ((BoundaryKey("activation", i, t), x),
                     (BoundaryKey("gradient", i + 1, t), upstream)):
        if not np.all(np.isfinite(arr)):
            return str(key)
    return str(BoundaryKey("activation", i + 1, t))


def load_layer_params(layer, data: bytes) -> None:
    off = 0
    for name, p in layer.params.items():
        n = p.size * 4
        layer.params[name] = np.frombuffer(data[off:off + n], "<f4") \
            .reshape(p.shape).copy()
        off += n
    if off != len(data):
        raise VerifierError(f"parameter blob length mismatch for {layer.kind}")


def load_opt_state(opt, layer_idx: int, layer, data: bytes) -> int:
    (counter,) = struct.unpack_from("<I", data, 0)
    off = 4
    for pname, p in layer.params.items():
        for sname in opt.state_names:
            n = p.size * 4
            opt.slots[(layer_idx, pname)][sname] = \
                np.frombuffer(data[off:off + n], "<f4").reshape(p.shape).copy()
            off += n
    if off != len(data):
        raise VerifierError("optimizer state blob length mismatch")
    return counter


def _opt_blob_error(replayed: bytes, recorded: bytes) -> float:
    """Counter must match exactly; state tensors compared numerically."""
    (c1,) = struct.unpack_from("<I", replayed, 0)
    (c2,) = struct.unpack_from("<I", recorded, 0)
    if c1 != c2:
        return float("inf")
    a = np.frombuffer(replayed[4:], "<f4")
    b = np.frombuffer(recorded[4:], "<f4")
    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0
    return rel_l2_error(a, b)


# -- the verification protocol ------------------------------------------


class _FailureCollector:
    def __init__(self, report: VerificationReport, full_scan: bool):
        self.report = report
        self.full_scan = full_scan

    def fail(self, cause, key, error=None, tau=None) -> bool:
        """Record a failure; returns True when verification should stop."""
        entry = {"cause": cause, "key": str(key), "error": error, "tau": tau}
        self.report.failures.append(entry)
        if self.report.cause is None:
            self.report.verdict = FAIL
            self.report.cause = cause
            self.report.failed_key = str(key)
            self.report.measured_error = error
            self.report.tau = tau
        return not self.full_scan

    @property
    def failed(self) -> bool:
        return self.report.cause is not None


def _check_hashes(req: VerificationRequest, keys, collector,
                  label_steps=()) -> bool:
    """Stored tensors, then the labels of ``label_steps``, against their
    ledger digests, in that order. Returns True when verification should
    stop. Everything before the first missing item is hashed in one
    batch and checked in order; the missing item raises VerifierError
    only if no mismatch before it stopped verification."""
    names, data, missing = [], [], None
    items = [(str(k), req.tensors.get(str(k)), "tensor") for k in keys]
    items += [(label_anchor_key(t), req.labels.get(t), "labels")
              for t in label_steps]
    for name, value, what in items:
        if value is None:
            missing = f"request is missing {what} {name}"
        elif name not in req.ledger_digests:
            missing = f"request is missing ledger digest for {name}"
        if missing:
            break
        names.append(name)
        data.append(label_bytes(value) if what == "labels" else value)
    digests = chunked_hash_many(data, req.chunk_size, req.algo) if data else []
    for name, got in zip(names, digests):
        if got.value != req.ledger_digests[name].value \
                and collector.fail(HASH_MISMATCH, name):
            return True
    if missing:
        raise VerifierError(missing)
    return False


def verify_training_block(req: VerificationRequest) -> VerificationReport:
    """Replay one training block cell and check it against its
    commitments (hash integrity first, then numerical correctness of the
    forward, backward, and parameter-update recomputation)."""
    t_start = time.perf_counter()
    report = VerificationReport(block=req.block, verdict=PASS, tau=req.tau)
    if req.payload_bytes() > req.memory_budget:
        report.verdict = REFUSED
        report.note = (f"payload {req.payload_bytes()} bytes exceeds memory "
                       f"budget {req.memory_budget}")
        return report
    collector = _FailureCollector(report, req.full_scan)
    grid = BlockGrid(GridConfig.from_dict(req.grid))
    i, j = req.block.i, req.block.j
    steps = list(grid.block_steps(j))
    t_in, t_out = grid.commitment_boundary_steps(j)
    layer_ids = list(grid.block_layers(i))

    # integrity of everything provided (Step-1 preconditions first)
    entry_keys = [BoundaryKey(k, l, t_in)
                  for l in layer_ids for k in ("parameter", "optimizer-state")]
    boundary_keys = [BoundaryKey(kind, b, t)
                     for t in steps for b in (i, i + 1)
                     for kind in ("activation", "gradient")]
    exit_keys = [BoundaryKey(k, l, t_out)
                 for l in layer_ids for k in ("parameter", "optimizer-state")
                 if str(BoundaryKey(k, l, t_out)) in req.tensors]
    # the loss block's labels are bound to the manifest's label anchors
    label_steps = steps if grid.config.n_layers - 1 in layer_ids else ()
    if _check_hashes(req, entry_keys + boundary_keys + exit_keys, collector,
                     label_steps):
        report.wall_time = time.perf_counter() - t_start
        return report

    replayer = BlockReplayer(
        req.model, req.optimizer, layer_ids,
        {l: req.tensors[str(BoundaryKey("parameter", l, t_in))] for l in layer_ids},
        {l: req.tensors[str(BoundaryKey("optimizer-state", l, t_in))]
         for l in layer_ids},
        precision=req.precision,
    )

    def stored(kind, idx, t):
        return req.tensors[str(BoundaryKey(kind, idx, t))]

    noise_rng = np.random.default_rng(0) if req.replay_noise > 0 else None

    def jitter(arr):
        if noise_rng is None:
            return arr
        scale = 1.0 + req.replay_noise * noise_rng.uniform(-1, 1, arr.shape)
        return (arr * scale).astype(arr.dtype)

    for t in steps:
        labels = req.labels.get(t)
        x = stored("activation", i, t)
        upstream = stored("gradient", i + 1, t)
        try:
            acts, gacts = replayer.replay_step(x, upstream, labels=labels)
        except NonFiniteError:
            # replay cannot go on past NaN/Inf, full scan or not
            collector.fail(NON_FINITE, non_finite_key(i, t, x, upstream))
            report.wall_time = time.perf_counter() - t_start
            return report
        for kind, replayed, ref_key in (
            ("activation", jitter(acts[-1]), BoundaryKey("activation", i + 1, t)),
            ("gradient", jitter(gacts[0]), BoundaryKey("gradient", i, t)),
        ):
            err = rel_l2_error(replayed, req.tensors[str(ref_key)])
            report.errors[str(ref_key)] = err
            if not err <= req.tau:
                if collector.fail(NUMERICAL_MISMATCH, ref_key, err, req.tau):
                    report.wall_time = time.perf_counter() - t_start
                    return report

    # block-exit parameter/optimizer check; where no blob is stored at
    # this step, fall back to a bitwise hash check of the replayed one
    replayed = {}
    for l in layer_ids:
        replayed[str(BoundaryKey("parameter", l, t_out))] = replayer.param_blob(l)
        replayed[str(BoundaryKey("optimizer-state", l, t_out))] = \
            replayer.opt_blob(l)
    unstored = [k for k in replayed if k not in req.tensors]
    hashed = dict(zip(unstored, chunked_hash_many(
        [replayed[k] for k in unstored], req.chunk_size, req.algo)))

    def exit_error(key, compare):
        if key in req.tensors:
            return compare(replayed[key], req.tensors[key])
        return 0.0 if hashed[key].value == req.ledger_digests[key].value \
            else float("inf")

    for l in layer_ids:
        pk = BoundaryKey("parameter", l, t_out)
        ok = BoundaryKey("optimizer-state", l, t_out)
        err = exit_error(str(pk), _blob_rel_error)
        report.errors[str(pk)] = err
        if not err <= req.tau \
                and collector.fail(NUMERICAL_MISMATCH, pk, err, req.tau):
            break
        err_o = exit_error(str(ok), _opt_blob_error)
        report.errors[str(ok)] = err_o
        if not err_o <= req.tau \
                and collector.fail(NUMERICAL_MISMATCH, ok, err_o, req.tau):
            break

    report.wall_time = time.perf_counter() - t_start
    return report


def _blob_rel_error(replayed: bytes, recorded) -> float:
    a = np.frombuffer(replayed, "<f4")
    if isinstance(recorded, np.ndarray):
        b = np.ascontiguousarray(recorded, "<f4").ravel()
    else:
        b = np.frombuffer(recorded, "<f4")
    if len(a) != len(b):
        return float("inf")
    return rel_l2_error(a, b)


def verify_inference_block(req: VerificationRequest) -> VerificationReport:
    """Forward-only verification between two recorded boundaries (with
    ia > 1 the replay spans the unrecorded blocks in between)."""
    t_start = time.perf_counter()
    report = VerificationReport(block=req.block, verdict=PASS, tau=req.tau)
    if req.payload_bytes() > req.memory_budget:
        report.verdict = REFUSED
        report.note = "payload exceeds memory budget"
        return report
    collector = _FailureCollector(report, req.full_scan)
    grid = BlockGrid(GridConfig.from_dict(req.grid))
    bounds = grid.inference_boundaries()
    lo = max(b for b in bounds if b <= req.block.i)
    hi = min(b for b in bounds if b > req.block.i)
    keys = [BoundaryKey("activation", lo, 0), BoundaryKey("activation", hi, 0)]
    if _check_hashes(req, keys, collector):
        report.wall_time = time.perf_counter() - t_start
        return report

    layer_ids = list(range(grid.boundary_layer(lo), grid.boundary_layer(hi)))
    param_blobs = {l: req.tensors[str(BoundaryKey("parameter", l, 0))]
                   for l in layer_ids}
    # bind provided parameters to the manifest's model digest
    if req.model_digest is not None:
        full = build_model(req.model)
        for l, layer in enumerate(full):
            key = str(BoundaryKey("parameter", l, 0))
            if key in req.tensors:
                load_layer_params(layer, req.tensors[key])
        got = params_digest(full, req.chunk_size, req.algo)
        if got.hex != req.model_digest:
            collector.fail(HASH_MISMATCH, "model-parameters")
            report.wall_time = time.perf_counter() - t_start
            return report

    replayer = BlockReplayer(req.model, None, layer_ids, param_blobs, {},
                             precision=req.precision)
    labels = req.labels.get(0)
    x = req.tensors[str(keys[0])]
    try:
        acts, _ = replayer.forward(x, labels=labels)
    except NonFiniteError:
        key = keys[0] if not np.all(np.isfinite(x)) else keys[1]
        collector.fail(NON_FINITE, key)
        report.wall_time = time.perf_counter() - t_start
        return report
    err = rel_l2_error(acts[-1], req.tensors[str(keys[1])])
    report.errors[str(keys[1])] = err
    if not err <= req.tau:
        collector.fail(NUMERICAL_MISMATCH, keys[1], err, req.tau)
    report.wall_time = time.perf_counter() - t_start
    return report


def verify_block(req: VerificationRequest) -> VerificationReport:
    if req.mode == "training":
        return verify_training_block(req)
    if req.mode == "inference":
        return verify_inference_block(req)
    raise VerifierError(f"unknown mode {req.mode!r}")
