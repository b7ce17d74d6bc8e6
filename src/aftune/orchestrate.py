"""Client-side verification orchestration.

A ``Run`` opens a recorded run once per command: the ledger with its
digest map, the run context, and the tensor store. It builds self-
contained verification requests for a list of blocks in one forward
walk over the grid, carrying each layer-block row's replayed state from
block to block (or, in zero-storage mode, taking tensors from a single
deterministic rerun), and hands them to the verifier in process or to
isolated worker processes that serve the whole command. It also
reconstructs model state from sparse checkpoints and walks the
cross-block trust chain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig, label_anchor_key
from .hashing import ALGORITHMS, Digest, chunked_hash_many
from .ledger import SCHEMA_VERSION, LedgerError, RunLedger
from .model import ModelState, build_model, param_bytes, params_digest
from .optim import build_optimizer
from .recorder import (LEDGER_FILE, RunContext, reference_closure,
                       rerun_rows)
from .store import EvidenceReleasedError, TensorStore
from .tensors import NonFiniteError
from .verifier import (DEFAULT_MEMORY_BUDGET, EVIDENCE_RELEASED, FAIL,
                       NON_FINITE, REFUSED, BlockReplayer, VerificationReport,
                       VerificationRequest, load_layer_params, load_opt_state,
                       non_finite_key, verify_block)
from .verifier_worker import frame

DEFAULT_TAU = {"f32": 1e-5, "f64": 1e-12}

# the directory holding the imported package, for isolated workers
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)


class ReconstructionError(Exception):
    pass


class NonDeterministicBlockError(ReconstructionError):
    """Replay through a non-deterministic layer cannot be bit-exact; the
    layer must be isolated into its own singleton block (which then
    checkpoints at every step block)."""


class _Row:
    """Replayed state of one layer-block row: restored from the stored
    checkpoint at step ``origin`` (None: the step-0 init) and carried
    forward to step ``t``. ``broken`` holds the key and message of the
    NaN/Inf that stopped the replay."""

    def __init__(self, origin: int | None, params: dict, opts: dict):
        self.origin = origin
        self.t = origin or 0
        self.params, self.opts = params, opts
        self.replayer: BlockReplayer | None = None
        self.broken: tuple[str, str] | None = None

    def blobs(self) -> tuple[dict, dict]:
        rep = self.replayer
        if rep is None:
            return self.params, self.opts
        return ({l: rep.param_blob(l) for l in rep.layer_indices},
                {l: rep.opt_blob(l) for l in rep.layer_indices})


class Run:
    """One recorded run, opened once per command."""

    def __init__(self, run_dir, ledger: RunLedger):
        self.dir = Path(run_dir)
        self.ledger = ledger
        self.manifest = ledger.manifest
        self.mode = self.manifest["mode"]
        self.config = GridConfig.from_dict(self.manifest["grid"])
        self.grid = BlockGrid(self.config)
        training = self.mode == "training"
        self.ctx = RunContext(self.manifest) if training else None
        self.store = None if training and self.config.zero_storage \
            else TensorStore(self.dir)

    @classmethod
    def open(cls, run_dir) -> "Run":
        path = Path(run_dir) / LEDGER_FILE
        if not path.exists():
            raise FileNotFoundError(f"no ledger at {path}")
        ledger = RunLedger.load(path)
        version = ledger.manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise LedgerError(f"ledger schema version {version} != "
                              f"supported {SCHEMA_VERSION}")
        _check_manifest(ledger.manifest)
        return cls(run_dir, ledger)

    @cached_property
    def digests(self):
        return self.ledger.all_digests()

    @cached_property
    def _fresh_layers(self):
        return build_model(self.manifest["model"])

    # -- verification ----------------------------------------------------

    def verify(self, bids, isolated: bool = False, jobs: int = 1,
               **kw) -> list[VerificationReport]:
        """Verify ``bids``, one report per entry in the order given. With
        ``jobs > 1`` up to that many checks run at once; ``isolated``
        checks run in at most that many worker processes."""
        done: dict[BlockId, VerificationReport] = {}
        pending: deque = deque()
        workers = _Workers() if isolated else None
        check = workers.check if workers else verify_block
        pool = ThreadPoolExecutor(jobs) if jobs > 1 else None
        try:
            for bid, req in self.requests(bids, **kw):
                if isinstance(req, VerificationReport):
                    done[bid] = req
                elif pool is None:
                    done[bid] = check(req)
                else:
                    pending.append((bid, pool.submit(check, req)))
                    if len(pending) >= jobs:
                        b, fut = pending.popleft()
                        done[b] = fut.result()
            for b, fut in pending:
                done[b] = fut.result()
        finally:
            if pool is not None:
                pool.shutdown()
            if workers is not None:
                workers.close()
        return [done[b] for b in bids]

    def request(self, bid: BlockId, **kw):
        return next(self.requests([bid], **kw))[1]

    def requests(self, bids, tau: float | None = None,
                 precision: str | None = None, full_scan: bool = False,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET):
        """Yield ``(bid, request)`` for each distinct block of ``bids`` in
        grid order (row j ascending). ``request`` is a VerificationReport
        instead when the block cannot reach the verifier: its evidence was
        released, or the replay to its entry state went non-finite."""
        order = sorted(set(bids), key=lambda b: (b.j, b.i))
        opts = dict(tau=tau, precision=precision, full_scan=full_scan,
                    memory_budget=memory_budget)
        if self.mode == "inference":
            for bid in order:
                yield bid, self._inference_request(bid, **opts)
        elif self.store is None:
            yield from self._rerun_requests(order, opts)
        else:
            yield from self._stored_requests(order, opts)

    def _training_request(self, bid: BlockId, tensors: dict, tau, precision,
                          full_scan, memory_budget) -> VerificationRequest:
        config, manifest = self.config, self.manifest
        steps = self.grid.block_steps(bid.j)
        ledger_digests = {str(k): self.digests[k]
                          for k in self.grid.commitment_keys(bid)}
        labels = {}
        if self._needs_labels(bid.i):
            labels = {t: self.ctx.batch(t).labels for t in steps}
            anchors = manifest["label_anchors"]
            ledger_digests.update(
                (label_anchor_key(t), Digest.from_hex(anchors[t], self.ctx.algo))
                for t in steps if t < len(anchors))
        return VerificationRequest(
            block=bid, mode="training",
            tau=config.tau if tau is None else tau,
            precision=precision or config.precision, grid=config.to_dict(),
            model=manifest["model"], optimizer=manifest["optimizer"],
            tensors=tensors, ledger_digests=ledger_digests,
            labels=labels, chunk_size=config.chunk_size, algo=self.ctx.algo,
            memory_budget=memory_budget, full_scan=full_scan,
        )

    def _rerun_requests(self, order, opts):
        """Zero-storage: one deterministic rerun, building each row's
        requests as the rerun passes it and stopping after the last."""
        if not order:
            return
        by_row: dict[int, list[BlockId]] = {}
        for bid in order:
            by_row.setdefault(bid.j, []).append(bid)
        wanted = {k for bid in order for k in self.grid.commitment_keys(bid)}
        for j, captured in rerun_rows(self.manifest, wanted):
            for bid in by_row.get(j, ()):
                tensors = {
                    str(k): captured[k] if k.kind in ("activation", "gradient")
                    else captured[k].tobytes()
                    for k in self.grid.commitment_keys(bid) if k in captured}
                yield bid, self._training_request(bid, tensors, **opts)
            if j == order[-1].j:
                return

    def _stored_requests(self, order, opts):
        """Stored evidence: each row's entry state is carried forward from
        the previous requested block of that row, and restarted from a
        stored checkpoint only where a fresh replay would restart."""
        grid, store = self.grid, self.store
        next_in_row: dict[BlockId, BlockId] = {}
        last: dict[int, BlockId] = {}
        for bid in order:
            if bid.i in last:
                next_in_row[last[bid.i]] = bid
            last[bid.i] = bid
        rows: dict[int, _Row] = {}
        for bid in order:
            i, j = bid.i, bid.j
            t_in, t_out = grid.commitment_boundary_steps(j)
            layer_ids = grid.block_layers(i)
            tensors: dict[str, np.ndarray | bytes] = {}
            try:
                for t in grid.block_steps(j):
                    for b in (i, i + 1):
                        for kind in ("activation", "gradient"):
                            k = BoundaryKey(kind, b, t)
                            tensors[str(k)] = store.get_tensor(k)
                row = rows[i] = self._row_at(i, t_in, rows.pop(i, None))
                if row.broken:
                    yield bid, _non_finite_report(bid, *row.broken)
                    continue
                p, o = row.blobs()
                for l in layer_ids:
                    tensors[str(BoundaryKey("parameter", l, t_in))] = p[l]
                    tensors[str(BoundaryKey("optimizer-state", l, t_in))] = o[l]
                # exit blobs are optional: included when checkpointed
                for l in layer_ids:
                    for kind in ("parameter", "optimizer-state"):
                        k = BoundaryKey(kind, l, t_out)
                        if store.has_blob(k):
                            tensors[str(k)] = store.get_bytes(k)
            except EvidenceReleasedError as e:
                rows.pop(i, None)
                yield bid, VerificationReport(block=bid,
                                              verdict=EVIDENCE_RELEASED,
                                              note=str(e))
                continue
            nxt = next_in_row.get(bid)
            if nxt is not None and self._deterministic(i) and \
                    self._origin(i, grid.step_blocks[nxt.j][0]) == row.origin:
                # walk the row on through this block, on its own tensors
                for t in grid.block_steps(j):
                    if row.broken:
                        break
                    self._replay_step(
                        i, row, t, tensors[str(BoundaryKey("activation", i, t))],
                        tensors[str(BoundaryKey("gradient", i + 1, t))])
            else:
                del rows[i]
            yield bid, self._training_request(bid, tensors, **opts)

    def _origin(self, i: int, target: int) -> int | None:
        """The stored checkpoint step a replay of layer block i to
        ``target`` starts from; None for the step-0 init."""
        return max((t for t in self.grid.checkpoint_steps(i) if t <= target),
                   default=None)

    def _row_at(self, i: int, target: int, row: _Row | None = None) -> _Row:
        """Layer block i's replayed state at step ``target``. ``row`` is
        carried on when it starts from the same checkpoint a fresh replay
        would, so the state is bitwise that of a fresh replay."""
        t0 = self._origin(i, target)
        if (t0 or 0) < target and not self._deterministic(i):
            raise NonDeterministicBlockError(
                f"layer block {i} contains a non-deterministic layer; "
                f"replaying steps {t0 or 0}..{target} cannot be bit-exact. "
                f"Isolate the layer (isolate_layers) so it checkpoints at "
                f"every step block.")
        if row is None or row.origin != t0 or row.t > target:
            row = _Row(t0, *self._checkpoint(i, t0))
        for t in range(row.t, target):
            if row.broken:
                break
            self._replay_step(
                i, row, t, self.store.get_tensor(BoundaryKey("activation", i, t)),
                self.store.get_tensor(BoundaryKey("gradient", i + 1, t)))
        return row

    def _checkpoint(self, i: int, t0: int | None) -> tuple[dict, dict]:
        layer_ids = self.grid.block_layers(i)
        if t0 is not None:
            get = self.store.get_bytes
            return ({l: get(BoundaryKey("parameter", l, t0)) for l in layer_ids},
                    {l: get(BoundaryKey("optimizer-state", l, t0))
                     for l in layer_ids})
        # no stored checkpoint covers the target, but the step-0 state is
        # derivable from the manifest alone: base init, zeroed optimizer
        fresh = self._fresh_layers
        opt = build_optimizer(self.manifest["optimizer"], fresh)
        return ({l: param_bytes(fresh[l]) for l in layer_ids},
                {l: opt.state_bytes(l, fresh[l]) for l in layer_ids})

    def _replay_step(self, i: int, row: _Row, t: int, x, upstream) -> None:
        if row.replayer is None:
            row.replayer = BlockReplayer(
                self.manifest["model"], self.manifest["optimizer"],
                self.grid.block_layers(i), row.params, row.opts)
        labels = self.ctx.batch(t).labels if self._needs_labels(i) else None
        try:
            row.replayer.replay_step(x, upstream, labels=labels)
        except NonFiniteError as e:
            row.broken = (non_finite_key(i, t, x, upstream), str(e))
            return
        row.t = t + 1

    def _deterministic(self, i: int) -> bool:
        return all(getattr(self._fresh_layers[l], "deterministic", True)
                   for l in self.grid.block_layers(i))

    def _needs_labels(self, i: int) -> bool:
        return self.config.n_layers - 1 in self.grid.block_layers(i)

    def _inference_request(self, bid: BlockId, tau, precision, full_scan,
                           memory_budget):
        config, manifest = self.config, self.manifest
        bounds = self.grid.inference_boundaries()
        lo = max(b for b in bounds if b <= bid.i)
        hi = min(b for b in bounds if b > bid.i)
        tensors: dict[str, np.ndarray | bytes] = {}
        try:
            for b in (lo, hi):
                k = BoundaryKey("activation", b, 0)
                tensors[str(k)] = self.store.get_tensor(k)
        except EvidenceReleasedError as e:
            return VerificationReport(block=bid, verdict=EVIDENCE_RELEASED,
                                      note=str(e))
        # the full served parameter set travels with the request: the digest
        # binding covers every layer, not just the replayed span
        layers = _inference_layers(manifest, self.dir / "params")
        for l in range(len(layers)):
            tensors[str(BoundaryKey("parameter", l, 0))] = param_bytes(layers[l])
        keys = [BoundaryKey("activation", b, 0) for b in (lo, hi)]
        return VerificationRequest(
            block=bid, mode="inference",
            tau=config.tau if tau is None else tau,
            precision=precision or config.precision, grid=config.to_dict(),
            model=manifest["model"], optimizer=None, tensors=tensors,
            ledger_digests={str(k): self.digests[k] for k in keys},
            model_digest=manifest["model_digest"],
            chunk_size=config.chunk_size, algo=manifest["hash_algo"],
            memory_budget=memory_budget, full_scan=full_scan,
        )

    # -- state, provenance and pruning ------------------------------------

    def state_at(self, step: int) -> ModelState:
        """Rebuild the full model/optimizer state at ``step`` (which must be
        a step-block boundary) from sparse checkpoints plus per-block
        replay, and require bitwise agreement with the ledger's parameter
        digests."""
        grid, config = self.grid, self.config
        starts = {a for a, _ in grid.step_blocks} | {config.n_steps}
        if step not in starts:
            raise ReconstructionError(f"step {step} is not a step-block boundary")
        if self.mode != "training":
            raise ReconstructionError("an inference run has no training state")
        if self.store is None:
            raise ReconstructionError(
                "zero-storage run: reconstruct by deterministic rerun instead")
        param_blobs: dict[int, bytes] = {}
        opt_blobs: dict[int, bytes] = {}
        for i in range(grid.n_layer_blocks):
            row = self._row_at(i, step)
            if row.broken:
                raise ReconstructionError(
                    f"replaying layer block {i} to step {step} hit "
                    f"non-finite values at {row.broken[0]}")
            p, o = row.blobs()
            param_blobs.update(p)
            opt_blobs.update(o)

        keys, blobs = [], []
        for l in range(config.n_layers):
            keys += [BoundaryKey("parameter", l, step),
                     BoundaryKey("optimizer-state", l, step)]
            blobs += [param_blobs[l], opt_blobs[l]]
        got = chunked_hash_many(blobs, config.chunk_size, self.ctx.algo)
        mismatched = [str(key) for key, d in zip(keys, got)
                      if key not in self.digests
                      or self.digests[key].value != d.value]
        if mismatched:
            raise ReconstructionError(
                f"reconstructed state disagrees with ledger at: {mismatched}")

        layers = build_model(self.manifest["model"])
        for l, layer in enumerate(layers):
            load_layer_params(layer, param_blobs[l])
        opt = build_optimizer(self.manifest["optimizer"], layers)
        counters = {load_opt_state(opt, l, layer, opt_blobs[l])
                    for l, layer in enumerate(layers)}
        opt.step_count = counters.pop() if len(counters) == 1 else step
        return ModelState(layers=layers, opt=opt, t=step)

    def prune(self, requested: list[BlockId]) -> int:
        """Delete blobs not needed to verify the requested blocks. The
        ledger is untouched; pruned keys later report 'evidence
        released'."""
        for bid in requested:
            if bid not in self.ledger.by_block:
                raise ValueError(
                    f"block {bid} has no sealed commitment; cannot prune")
        if self.store is None:
            return 0
        keep = reference_closure(self.grid, requested)
        index = self.store.index
        return self.store.prune({index[str(k)]["digest"]
                                 for k in keep if str(k) in index})


def _check_manifest(manifest: dict) -> None:
    """Raise LedgerError unless ``manifest`` holds, with the right types,
    every field a Run and its RunContext read."""
    def need(key, types, within=manifest, where="manifest"):
        if not isinstance(within.get(key), types):
            raise LedgerError(f"{where} field {key!r} is missing or malformed")
        return within[key]

    mode = need("mode", str)
    if mode not in ("training", "inference"):
        raise LedgerError(f"unknown run mode {mode!r} in the manifest")
    need("model", dict)
    if need("hash_algo", str) not in ALGORITHMS:
        raise LedgerError(f"unknown hash algorithm {manifest['hash_algo']!r} "
                          f"in the manifest")
    try:
        GridConfig.from_dict(need("grid", dict))
    except (KeyError, TypeError, ValueError) as e:
        raise LedgerError(f"manifest grid is malformed: {e!r}") from None
    if mode == "inference":
        need("model_digest", str)
        return
    need("optimizer", dict)
    need("spec", dict, need("dataset", dict), "manifest dataset")
    need("run_seed", int)
    need("batch_size", int)
    for key in ("input_anchors", "label_anchors"):
        if not all(_is_digest_hex(a) for a in need(key, list)):
            raise LedgerError(f"manifest field {key!r} holds a malformed digest")


def _is_digest_hex(s) -> bool:
    try:
        return isinstance(s, str) and len(bytes.fromhex(s)) == 32
    except ValueError:
        return False


def _non_finite_report(bid: BlockId, key: str, msg: str) -> VerificationReport:
    return VerificationReport(
        block=bid, verdict=FAIL, cause=NON_FINITE, failed_key=key,
        failures=[{"cause": NON_FINITE, "key": key, "error": None,
                   "tau": None}],
        note=f"replay to the block's entry state: {msg}")


class _Worker:
    """One isolated verifier process, fed framed requests on stdin. Its
    stderr goes to a temporary file, read only once the process exits,
    so a chatty worker cannot block on a full pipe."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
        self.stderr = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "aftune.verifier_worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, env=env)

    def check(self, req: VerificationRequest) -> VerificationReport | None:
        """The worker's report on ``req``; None when it died instead."""
        try:
            self.proc.stdin.write(frame(req.to_bytes()))
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self.proc.stdout.readline()
        if not line.endswith(b"\n"):
            return None
        report = VerificationReport.from_json(json.loads(line))
        if report.block is None:
            report.block = req.block
        return report

    def close(self) -> str:
        """Close stdin, reap the process, and describe how it exited."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        code = self.proc.wait()
        self.proc.stdout.close()
        self.stderr.seek(0)
        tail = self.stderr.read().decode(errors="replace").strip()[-500:]
        self.stderr.close()
        return f"verifier worker exited with {code}: {tail}"


class _Workers:
    """The isolated verifier processes of one command: a worker starts
    the first time a check finds none idle and is reused after its
    reply, so at most as many run as checks run at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._live: list[_Worker] = []  # started, not yet closed

    def check(self, req: VerificationRequest) -> VerificationReport:
        with self._lock:
            worker = self._idle.pop() if self._idle else None
        if worker is None:
            worker = _Worker()
            with self._lock:
                self._live.append(worker)
        report = worker.check(req)
        if report is None:
            with self._lock:
                self._live.remove(worker)
            return VerificationReport(block=req.block, verdict=REFUSED,
                                      note=worker.close())
        with self._lock:
            self._idle.append(worker)
        return report

    def close(self) -> None:
        """Close and reap every worker; call once no check is running."""
        for worker in self._live:
            worker.close()
        self._idle.clear()
        self._live.clear()


# -- one-block entry points ----------------------------------------------


def reconstruct_state(run_dir, step: int) -> ModelState:
    """Rebuild the full model/optimizer state at ``step``; see
    ``Run.state_at``."""
    return Run.open(run_dir).state_at(step)


def gather_request(run_dir, bid: BlockId, tau: float | None = None,
                   precision: str | None = None, full_scan: bool = False,
                   memory_budget: int = DEFAULT_MEMORY_BUDGET,
                   ) -> VerificationRequest | VerificationReport:
    """Assemble everything the verifier needs for one block.

    Returns a VerificationReport directly (verdict 'evidence-released')
    when a required blob was pruned and cannot be rematerialized.
    """
    return Run.open(run_dir).request(bid, tau=tau, precision=precision,
                                     full_scan=full_scan,
                                     memory_budget=memory_budget)


def save_inference_params(run_dir, layers) -> None:
    """Persist the served parameter set next to an inference recording so
    verification requests can include it."""
    pdir = Path(run_dir) / "params"
    pdir.mkdir(parents=True, exist_ok=True)
    for l, layer in enumerate(layers):
        (pdir / f"{l}.bin").write_bytes(param_bytes(layer))


def _inference_layers(manifest, params_dir: Path):
    layers = build_model(manifest["model"])
    if params_dir.exists():
        for l, layer in enumerate(layers):
            blob = params_dir / f"{l}.bin"
            if blob.exists():
                load_layer_params(layer, blob.read_bytes())
    return layers


def run_verification(run_dir, bid: BlockId, isolated: bool = False,
                     **kw) -> VerificationReport:
    return Run.open(run_dir).verify([bid], isolated=isolated, **kw)[0]


# -- trust chain ---------------------------------------------------------


@dataclass
class ChainReport:
    ok: bool
    problems: list[str] = field(default_factory=list)
    anchored: dict[str, int] = field(default_factory=dict)
    checked: int = 0
    bad_blocks: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "problems": self.problems,
                "anchored": self.anchored, "checked": self.checked,
                "bad_blocks": self.bad_blocks}


def check_trust_chain(ledger: RunLedger, store: TensorStore | None = None) -> ChainReport:
    """Confirm every digest a block's verification consumes is vouched
    for: by a sealed neighbor commitment, or by a trust anchor in the
    manifest (inputs/labels per step, the base model for row 0)."""
    report = ChainReport(ok=True)
    manifest = ledger.manifest
    grid = ledger.grid
    n_lb = grid.n_layer_blocks
    bad: set[str] = set()
    current_block: list = [None]

    def problem(msg):
        report.ok = False
        report.problems.append(msg)
        if current_block[0] is not None:
            bad.add(str(current_block[0]))

    def anchored(kind):
        report.anchored[kind] = report.anchored.get(kind, 0) + 1

    def vouched_by(neighbor: BlockId, key: BoundaryKey, digest) -> bool:
        e = ledger.entry_for(neighbor)
        if e is None:
            problem(f"missing neighbor commitment {neighbor} for {key}")
            return False
        if key not in e.entries:
            problem(f"neighbor {neighbor} does not commit {key}")
            return False
        if e.entries[key].value != digest.value:
            problem(f"digest conflict with neighbor {neighbor} on {key}")
            return False
        return True

    for e in ledger.entries:
        report.checked += 1
        current_block[0] = e.block
        i, j = e.block.i, e.block.j
        t_in, _ = grid.commitment_boundary_steps(j)
        for t in grid.block_steps(j):
            akey = BoundaryKey("activation", i, t)
            if i > 0:
                vouched_by(BlockId(i - 1, j), akey, e.entries[akey])
            else:
                want = manifest["input_anchors"][t]
                if e.entries[akey].hex != want:
                    problem(f"{akey} does not match the input anchor for step {t}")
                else:
                    anchored("input")
            gkey = BoundaryKey("gradient", i + 1, t)
            if i < n_lb - 1:
                vouched_by(BlockId(i + 1, j), gkey, e.entries[gkey])
            else:
                # loss-side seed: fixed by the committed labels for step t
                if t >= len(manifest.get("label_anchors", [])):
                    problem(f"no label anchor for step {t} backing {gkey}")
                else:
                    anchored("label")
        for l in grid.block_layers(i):
            for kind in ("parameter", "optimizer-state"):
                pkey = BoundaryKey(kind, l, t_in)
                if j > 0:
                    vouched_by(BlockId(i, j - 1), pkey, e.entries[pkey])
                elif "base_model_digest" not in manifest:
                    problem(f"row 0 {pkey} has no base-model anchor")
                else:
                    anchored("base-model")

    # when evidence is on hand, tie the row-0 parameters to the anchor value
    if report.ok and store is not None and "base_model_digest" in manifest \
            and manifest["mode"] == "training":
        got = _recompute_base_digest(manifest, store)
        if got is not None and got != manifest["base_model_digest"]:
            current_block[0] = None
            problem("stored step-0 parameters do not match the base-model anchor")
            bad.update(str(BlockId(i, 0)) for i in range(n_lb))
    report.bad_blocks = sorted(bad)
    return report


def _recompute_base_digest(manifest, store: TensorStore) -> str | None:
    layers = build_model(manifest["model"])
    for l, layer in enumerate(layers):
        key = BoundaryKey("parameter", l, 0)
        if not store.has_blob(key):
            return None  # pruned; nothing to recompute against
        load_layer_params(layer, store.get_bytes(key))
    return params_digest(layers, manifest["grid"]["chunk_size"],
                         manifest["hash_algo"]).hex
