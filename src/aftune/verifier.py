"""Recomputation-based block verification.

The verifier models the TEE side: it receives a self-contained request
(block-scoped tensors plus the digests of the block's key schedule), replays
the block, and reports Pass/Fail. Hash checks confirm the provided
tensors are the committed ones; numerical checks confirm the replay
reproduces each output byte for byte: the carried copy, or else its
ledger digest (only a kernel that is not deterministic may drift from
a carried copy, by the bound its layer kind declares). It can run in
process or as an isolated worker process that sees only request bytes.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import ALGORITHMS, chunked_hash_many, tensor_bytes
from .model import ModelState, param_items, params_digest
from .optim import check_optimizer_spec
from .rng import is_seed
from .tensors import NonFiniteError

MEMORY_BUDGET = 64 * 1024 * 1024  # bytes of payload this verifier accepts

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"
EVIDENCE_RELEASED = "evidence-released"

HASH_MISMATCH = "hash-mismatch"
NUMERICAL_MISMATCH = "numerical-mismatch"
NON_FINITE = "non-finite"


class VerifierError(Exception):
    pass


def check_run_spec(spec: dict) -> GridConfig:
    """The grid of ``spec``, a manifest or a request header. Its run facts
    must be a known mode and hash algorithm, a grid GridConfig accepts, a
    model of a signed 64-bit integer seed and one layer per grid layer,
    and an optimizer ``check_optimizer_spec`` accepts for training or a
    model digest for inference; the first that is not raises ValueError.
    Builds and hashes nothing."""
    mode, algo = spec.get("mode"), spec.get("hash_algo")
    if mode not in ("training", "inference"):
        raise ValueError(f"has unknown run mode {mode!r}")
    if algo not in ALGORITHMS:
        raise ValueError(f"has unknown hash algorithm {algo!r}")
    try:
        config = GridConfig.from_dict(spec["grid"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"grid is malformed: {e!r}") from None
    model = spec.get("model")
    if not (isinstance(model, dict) and is_seed(model.get("seed"))
            and isinstance(model.get("layers"), list)
            and len(model["layers"]) == config.n_layers):
        raise ValueError("model must hold a signed 64-bit integer seed and "
                         "a list of the grid's n_layers layers")
    if mode == "training":
        check_optimizer_spec(spec.get("optimizer"))
    if mode == "inference" and not isinstance(spec.get("model_digest"), str):
        raise ValueError("model_digest is missing or malformed")
    return config


@dataclass
class VerificationRequest:
    block: BlockId
    mode: str                    # training | inference
    grid: dict                   # GridConfig.to_dict()
    model: dict
    optimizer: dict | None
    hash_algo: str
    tensors: dict[BoundaryKey, np.ndarray | bytes]
    ledger_digests: bytes  # committed_keys(block, mode)'s, 32 bytes each
    labels: dict[int, np.ndarray] = field(default_factory=dict)
    model_digest: str | None = None   # inference: manifest binding
    full_scan: bool = False

    # -- wire format: header length (<I), JSON header, raw payload ---------
    # The header's keys are exactly the fields above, so each run fact is
    # carried once, under its manifest name (chunk_size only in ``grid``);
    # "ledger_digests" is the length of the digest row the payload opens
    # with, and "tensors" maps each key's ``str`` to its payload offset,
    # length and shape (None for raw bytes, else little-endian float32).

    def to_bytes(self) -> bytes:
        blobs = [self.ledger_digests]
        meta = {}
        off = len(self.ledger_digests)
        for k, v in self.tensors.items():
            if isinstance(v, np.ndarray):
                data = np.ascontiguousarray(v, "<f4").tobytes()
                shape = list(v.shape)
            else:
                data, shape = v, None
            meta[str(k)] = {"offset": off, "length": len(data), "shape": shape}
            blobs.append(data)
            off += len(data)
        header = json.dumps({
            "block": str(self.block), "mode": self.mode, "grid": self.grid,
            "model": self.model, "optimizer": self.optimizer,
            "hash_algo": self.hash_algo,
            "model_digest": self.model_digest,
            "labels": {str(t): np.asarray(v).tolist()
                       for t, v in self.labels.items()},
            "ledger_digests": len(self.ledger_digests),
            "full_scan": self.full_scan, "tensors": meta,
        }).encode()
        return struct.pack("<I", len(header)) + header + b"".join(blobs)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerificationRequest":
        """Parse request bytes; any malformed input raises VerifierError."""
        try:
            return cls._parse(data)
        except VerifierError:
            raise
        except Exception as e:
            raise VerifierError(f"malformed request: {e!r}") from None

    @classmethod
    def _parse(cls, data: bytes) -> "VerificationRequest":
        if len(data) < 4:
            raise VerifierError(f"request of {len(data)} bytes has no header")
        (hlen,) = struct.unpack_from("<I", data, 0)
        if hlen > len(data) - 4:
            raise VerifierError(f"header length {hlen} exceeds the request")
        h = json.loads(data[4:4 + hlen])
        names = {f.name for f in fields(cls)}
        if not isinstance(h, dict) or h.keys() != names:
            raise VerifierError(f"request header keys are not {sorted(names)}")
        payload = memoryview(data)[4 + hlen:]
        n = h["ledger_digests"]
        if not (type(n) is int and 0 <= n <= len(payload)):
            raise VerifierError(f"digest row of {n!r} bytes overruns payload")
        tensors: dict[BoundaryKey, np.ndarray | bytes] = {}
        for name, m in h["tensors"].items():
            k = BoundaryKey.parse(name)
            if str(k) != name:
                raise VerifierError(f"tensor name {name!r} is not {k}")
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
            block=BlockId.parse(h["block"]), mode=h["mode"], grid=h["grid"],
            model=h["model"], optimizer=h["optimizer"],
            hash_algo=h["hash_algo"], tensors=tensors,
            ledger_digests=bytes(payload[:n]),
            labels={int(t): np.asarray(v, dtype=np.int64)
                    for t, v in h["labels"].items()},
            model_digest=h["model_digest"], full_scan=bool(h["full_scan"]),
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
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        # the fields as they are, not ``asdict``'s deep copy: a report is
        # encoded per block, and the copy costs over 30 times as much
        return {**vars(self),
                "block": None if self.block is None else str(self.block)}

    @classmethod
    def from_json(cls, d: dict) -> "VerificationReport":
        block = d["block"]
        return cls(**{**d, "block": None if block is None
                      else BlockId.parse(block)})


# -- replay machinery ----------------------------------------------------


def non_finite_key(grid: BlockGrid, i: int, t: int, x, upstream) -> str:
    """The boundary a NonFiniteError in layer block i's step-t replay is
    charged to: the first consumed tensor holding NaN or Inf (the loss
    block consumes no ``upstream``: None), else the block's replayed
    output activation."""
    for key, arr in zip(grid.replay_inputs(i, t), (x, upstream)):
        if arr is not None and not np.isfinite(arr).all():
            return str(key)
    return str(grid.replay_outputs(i, t)[0])


def _reproduces(replayed, committed, drift: float, head: int = 0) -> bool:
    """Whether a replay reproduced committed float32 data, an array or a
    blob: byte for byte, or, where a kernel that is not deterministic
    ran (``drift`` above 0), within the relative L2 ``drift`` that kernel
    declares, with the first ``head`` bytes (an optimizer state's step
    counter) exact. NaN is never within it."""
    a, b = (tensor_bytes(x) if isinstance(x, np.ndarray) else x
            for x in (replayed, committed))
    if a == b:
        return True
    if not drift or len(a) != len(b) or a[:head] != b[:head]:
        return False
    a, b = (np.frombuffer(x, "<f4", offset=head).astype(np.float64)
            for x in (a, b))
    return bool(np.linalg.norm(a - b) <= drift * np.linalg.norm(b))


# -- the verification protocol ------------------------------------------


class _FailureCollector:
    def __init__(self, report: VerificationReport, full_scan: bool):
        self.report = report
        self.full_scan = full_scan

    def fail(self, cause, key) -> bool:
        """Record a failure; returns True when verification should stop."""
        self.report.failures.append({"cause": cause, "key": str(key)})
        if self.report.cause is None:
            self.report.verdict = FAIL
            self.report.cause = cause
            self.report.failed_key = str(key)
        return not self.full_scan


def _check_hashes(req: VerificationRequest, grid: BlockGrid, digests,
                  keys, collector) -> bool:
    """Carried tensors of ``keys`` against their ``digests``, in order.
    Returns True when verification should stop. Everything before the
    first missing tensor is hashed in one batch and checked in order;
    the missing one raises VerifierError only if no mismatch before it
    stopped verification."""
    n = next((n for n, k in enumerate(keys) if k not in req.tensors),
             len(keys))
    got = chunked_hash_many([req.tensors[k] for k in keys[:n]],
                            grid.config.chunk_size, req.hash_algo)
    for k, d in zip(keys, got):
        if d.value != digests[k] and collector.fail(HASH_MISMATCH, k):
            return True
    if n < len(keys):
        raise VerifierError(f"request is missing tensor {keys[n]}")
    return False


def _verify_training(req: VerificationRequest, grid: BlockGrid, digests,
                     collector: _FailureCollector) -> ModelState | None:
    """Replay one training block cell and check it: the hashes of what
    the request carries (at least the entry state and replay inputs), then
    each step's outputs and the exit state, in one ``_compare`` batch.
    Returns the replayer at the block's exit once all checks ran, else None."""
    i, j = req.block.i, req.block.j
    t_in, t_out = grid.commitment_boundary_steps(j)
    steps = range(t_in, t_out)
    layer_ids = list(grid.block_layers(i))

    # integrity of everything provided (Step-1 preconditions first)
    entry_keys = grid.state_keys(i, t_in)
    exit_keys = grid.state_keys(i, t_out)
    reads = {k for t in steps for k in grid.replay_reads(i, t)}
    if _check_hashes(req, grid, digests, entry_keys + [
            k for k in grid.boundary_keys(req.block) + exit_keys
            if k in reads or k in req.tensors], collector):
        return

    # the loss block backpropagates the seed its loss derives, and the
    # committed final-boundary gradient must be that seed
    loss = grid.config.n_layers - 1 in layer_ids
    replayer = ModelState(req.model, req.optimizer, layer_ids,
                          {k: req.tensors[k] for k in entry_keys})
    drift = max(layer.drift for layer in replayer.layers)
    compared = []  # each step's outputs, then the exit state, in order
    for t in steps:
        x_key, up_key = grid.replay_inputs(i, t)
        x = req.tensors[x_key]
        upstream = None if loss else req.tensors[up_key]
        try:
            acts, gacts = replayer.replay_step(x, upstream,
                                               labels=req.labels.get(t))
        except Exception as e:
            # as if each step were compared as it ran: earlier ones first
            if _compare(req, grid, digests, compared, drift, collector):
                return
            if not isinstance(e, NonFiniteError):
                raise
            # replay cannot go on past NaN/Inf, full scan or not
            collector.fail(NON_FINITE, non_finite_key(grid, i, t, x, upstream))
            return
        compared += [(up_key, gacts[-1])] if loss else []
        compared += zip(grid.replay_outputs(i, t), (acts[-1], gacts[0]))
    compared += [(k, replayer.blob(k)) for k in exit_keys]
    if not _compare(req, grid, digests, compared, drift, collector):
        return replayer


def _compare(req: VerificationRequest, grid: BlockGrid, digests, replayed,
             drift, collector: _FailureCollector) -> bool:
    """Check each ``(key, replayed tensor)`` in order against the bytes
    the request carries, else against the key's ledger digest in
    ``digests`` (all such hashed in one batch). True when verification
    should stop."""
    unsent = [(k, r) for k, r in replayed if k not in req.tensors]
    hashed = dict(zip((k for k, _ in unsent), chunked_hash_many(
        [r for _, r in unsent], grid.config.chunk_size, req.hash_algo)))
    for k, r in replayed:
        head = 4 if k.kind == "optimizer-state" else 0
        same = hashed[k].value == digests[k] if k in hashed \
            else _reproduces(r, req.tensors[k], drift, head)
        if not same and collector.fail(NUMERICAL_MISMATCH, k):
            return True
    return False


class BindingMemo:
    """What one verifier session keeps between requests. The last model
    binding it computed: the exact bytes ``params_digest`` hashed (every
    parameter tensor in ``param_items`` order, with the algorithm and
    chunk size) and the digest they gave. Other bytes are hashed afresh
    and replace it, so a lookup answers what hashing its own bytes
    would. And ``passed``: the last training block that verified
    ``pass``, with its replayer at the block's exit step, for an
    in-process caller to carry on; no verdict reads it."""

    def __init__(self):
        self._key: tuple | None = None
        self._hex: str | None = None
        self.passed: tuple[BlockId, ModelState] | None = None

    def digest(self, layers, chunk_size: int, algo: str) -> str:
        key = (algo, chunk_size,
               tuple(tensor_bytes(p) for _, _, p in param_items(layers)))
        if key != self._key:
            self._hex = params_digest(layers, chunk_size, algo).hex
            self._key = key
        return self._hex


def _verify_inference(req: VerificationRequest, grid: BlockGrid, digests,
                      collector: _FailureCollector,
                      memo: BindingMemo) -> None:
    """Forward-only verification between two recorded boundaries (with
    ia > 1 the replay spans the unrecorded blocks in between)."""
    config = grid.config
    keys = grid.inference_commitment_keys(req.block)
    if _check_hashes(req, grid, digests, keys, collector):
        return
    # the full served parameter set is loaded and bound to the manifest's
    # model digest; the replay runs on the span between the boundaries
    lo, hi = (grid.boundary_layer(k.index) for k in keys)
    span = range(lo, hi)
    params = {l: BoundaryKey("parameter", l, 0) for l in range(config.n_layers)}
    blobs = {k: req.tensors[k] for k in params.values() if k in req.tensors}
    missing = [l for l in span if params[l] not in blobs]
    if missing:
        raise VerifierError(f"request is missing parameters of layers {missing}")
    replayer = ModelState(req.model, None, span, blobs)
    if req.model_digest != memo.digest(replayer.model, config.chunk_size,
                                       req.hash_algo):
        collector.fail(HASH_MISMATCH, "model-parameters")
        return
    x = req.tensors[keys[0]]
    try:
        acts, _ = replayer.forward(x, labels=req.labels.get(0))
    except NonFiniteError:
        collector.fail(NON_FINITE,
                       keys[0] if not np.isfinite(x).all() else keys[1])
        return
    _compare(req, grid, digests, [(keys[1], acts[-1])],
             max(layer.drift for layer in replayer.layers), collector)


def verify_block(req: VerificationRequest,
                 memo: BindingMemo | None = None) -> VerificationReport:
    """Check one block request: refuse it when its payload exceeds this
    verifier's memory budget, else hash-check, replay and compare it by
    its mode and grid. An inference request's model binding is looked up
    in ``memo``, the session's (a fresh one by default), and a training
    block that passes is left in ``memo.passed``. A request that
    cannot be checked raises: VerifierError from a check of its own
    (``check_run_spec`` among them), else what its load or replay did."""
    try:
        config = check_run_spec(vars(req))
    except ValueError as e:
        raise VerifierError(f"request {e}") from None
    t_start = time.perf_counter()
    report = VerificationReport(block=req.block, verdict=PASS)
    if req.payload_bytes() > MEMORY_BUDGET:
        report.verdict = REFUSED
        report.note = (f"payload {req.payload_bytes()} bytes exceeds memory "
                       f"budget {MEMORY_BUDGET}")
        return report
    grid = BlockGrid(config)
    i, j = req.block.i, req.block.j
    if not (0 <= i < grid.n_layer_blocks and 0 <= j < grid.n_step_blocks):
        raise VerifierError(f"block {req.block} lies outside the grid")
    # counted first: a block longer than its digest row is never walked
    row, n = req.ledger_digests, grid.n_committed_keys(req.block, req.mode)
    if len(row) != 32 * n:
        raise VerifierError(f"digest row is not {req.block}'s {n} digests")
    digests = dict(zip(grid.committed_keys(req.block, req.mode),
                       (row[k:k + 32] for k in range(0, len(row), 32))))
    for k, v in req.tensors.items():
        # boundary tensors are replayed as arrays; state blobs are decoded
        array = k.kind in ("activation", "gradient")
        if array != isinstance(v, np.ndarray):
            raise VerifierError(f"tensor {k} must be "
                                f"{'an array' if array else 'raw bytes'}")
    collector = _FailureCollector(report, req.full_scan)
    if req.mode == "training":
        replayer = _verify_training(req, grid, digests, collector)
        if memo is not None and report.passed:
            memo.passed = (req.block, replayer)
    else:
        _verify_inference(req, grid, digests, collector, memo or BindingMemo())
    report.wall_time = time.perf_counter() - t_start
    return report


def refusal(block: BlockId | None, e: Exception) -> VerificationReport:
    """The 'refused' report on ``block``, whose check raised ``e``, noted
    with a VerifierError's message or else ``e``'s repr."""
    note = str(e) if isinstance(e, VerifierError) \
        else f"cannot check the block: {e!r}"
    return VerificationReport(block=block, verdict=REFUSED, note=note)


def verify_or_refuse(req: VerificationRequest | bytes,
                     memo: BindingMemo | None = None) -> VerificationReport:
    """``verify_block``'s report on ``req``, parsed first when it is
    request bytes, with ``memo`` the session's model binding. A request
    whose parse, load or replay raises is answered with its ``refusal``:
    the one rule of the in-process and the isolated verifier."""
    block = None
    try:
        if isinstance(req, bytes):
            req = VerificationRequest.from_bytes(req)
        block = req.block
        return verify_block(req, memo)
    except Exception as e:
        return refusal(block, e)
