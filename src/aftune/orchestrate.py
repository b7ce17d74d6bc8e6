"""Client-side verification orchestration.

A ``Run`` opens a recorded run once per command: the ledger, the run
context, and the tensor store. It builds self-contained verification
requests for a list of blocks in one forward walk over the grid,
carrying each layer-block row's replayed state from block to block (or,
in zero-storage mode, taking tensors from a single deterministic rerun);
each request carries the digests of its block's own sealed commitment.
It hands them to the verifier in process or to isolated worker
processes that serve the whole command. In process, a block the
verifier passed hands its replay, at the block's exit step, on to the
row; after any other verdict, in workers, and between blocks the walk
replays the row itself (``_stopped`` gives the verdict where it raises).
It also reconstructs model state from sparse checkpoints. The client
ships what it derives from the manifest, a training run's model inputs
and step-0 state, and never reads them from the store: the verifier's
hash check against the ledger is the check of the grid's edges, and
neighbors share each key's one digest by construction.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import deque
from dataclasses import replace
from functools import cached_property
from pathlib import Path

from .grid import BlockId, BoundaryKey
from .hashing import Digest, chunked_hash_many
from .ledger import LedgerError, RunLedger
from .model import ModelState, build_model, param_bytes
from .recorder import (LEDGER_FILE, PARAMS_DIR, RunContext,
                       reference_closure, rerun_rows)
from .rng import is_seed
from .store import StoreError, TensorStore
from .tensors import BlobError, NonFiniteError
from .verifier import (EVIDENCE_RELEASED, FAIL, HASH_MISMATCH, NON_FINITE,
                       REFUSED, BindingMemo, VerificationReport,
                       VerificationRequest, non_finite_key, refusal,
                       verify_or_refuse)
from .verifier_worker import frame

# the directory holding the imported package, for isolated workers
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)


class ReconstructionError(Exception):
    pass


class _Row:
    """Replayed state of one layer-block row: restored from the
    checkpoint ``blobs`` at step ``origin`` (None: the step-0 init) and
    carried forward to step ``t``, by the walk's own replay or, where the
    in-process verifier passed the row's last block, by adopting the
    verifier's state at that block's exit. ``state`` is built from
    ``blobs`` at the first replay. ``pending`` holds the replay inputs,
    by step, of the last block requested on the row, so the walk on past
    it need not read them again. ``broken`` is the report, block unset,
    for the blocks past a replay that raised (``_stopped``) or that would
    run a non-deterministic layer."""

    def __init__(self, origin: int | None, blobs: dict[BoundaryKey, bytes]):
        self.origin = origin
        self.t = origin or 0
        self.blobs = blobs
        self.state: ModelState | None = None
        self.pending: dict[int, tuple] = {}
        self.broken: VerificationReport | None = None

    def blob(self, key: BoundaryKey) -> bytes:
        """The row's current blob of the parameter or optimizer state
        ``key`` names."""
        return self.state.blob(key) if self.state else self.blobs[key]


class Run:
    """One recorded run, opened once per command."""

    def __init__(self, run_dir, ledger: RunLedger):
        self.dir = Path(run_dir)
        self.ledger = ledger
        self.manifest = ledger.manifest
        self.mode = self.manifest["mode"]
        self.grid = ledger.grid
        self.config = self.grid.config
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
        _check_manifest(ledger.manifest)
        try:
            run = cls(run_dir, ledger)
            run._fresh_layers  # built now: an unbuildable model is exit 2
        except (KeyError, TypeError, ValueError) as e:
            raise LedgerError(f"manifest model or dataset cannot be built: "
                              f"{e!r}") from None
        return run

    @cached_property
    def _fresh_layers(self):
        return build_model(self.manifest["model"])

    # -- verification ----------------------------------------------------

    def verify(self, bids, isolated: bool = False, jobs: int = 1,
               **kw) -> list[VerificationReport]:
        """Verify ``bids``, one report per entry in the order given: the
        one rule every command decides a block's verdict by. A block
        with no sealed commitment fails before anything is read; every
        other block is replayed. ``isolated``, or ``jobs`` above 1,
        checks in isolated worker processes, up to ``jobs`` of them at
        once."""
        done = {b: VerificationReport(block=b, verdict=FAIL,
                                      note="no sealed commitment")
                for b in bids if b not in self.ledger}
        sealed = [b for b in bids if b not in done]
        workers = _Workers(jobs) if isolated or jobs > 1 else None
        memo = BindingMemo()  # this call is one in-process session
        try:
            for bid, req in self.requests(sealed, session=memo, **kw):
                if isinstance(req, VerificationReport):
                    done[bid] = req
                elif workers is None:
                    done[bid] = verify_or_refuse(req, memo)
                else:
                    done.update(workers.submit(req))
            if workers is not None:
                done.update(workers.drain())
        finally:
            if workers is not None:
                workers.close()
        return [done[b] for b in bids]

    def request(self, bid: BlockId, **kw):
        return next(self.requests([bid], **kw))[1]

    def requests(self, bids, full_scan: bool = False,
                 session: BindingMemo | None = None):
        """Yield ``(bid, request)`` for each distinct block of ``bids`` in
        grid order (row j ascending). ``request`` is a VerificationReport
        instead when the block cannot reach the verifier: its evidence was
        released, or the replay to its entry state went non-finite.
        ``session`` is the verifier session that checks each request
        before the next is asked for: a block it passed hands its replay
        on to the block's row."""
        order = sorted(set(bids), key=lambda b: (b.j, b.i))
        opts = dict(grid=self.config.to_dict(), full_scan=full_scan)
        if self.mode == "inference":
            yield from self._inference_requests(order, opts)
        elif self.store is None:
            yield from self._rerun_requests(order, opts)
        else:
            yield from self._stored_requests(order, opts, session)

    def _request(self, bid: BlockId, tensors: dict, grid: dict,
                 full_scan: bool) -> VerificationRequest:
        """The request for sealed block ``bid`` checked on ``grid``
        carrying ``tensors`` and the digests of its key schedule as
        its ledger entry holds them; for a training loss block also the
        labels the manifest's spec derives, for inference the served
        parameters."""
        manifest = self.manifest
        training = self.mode == "training"
        committed = self.ledger.entry_for(bid).entries
        ledger_digests = {str(k): committed[k]
                          for k in self.grid.committed_keys(bid, self.mode)}
        labels = {}
        if training and self._needs_labels(bid.i):
            labels = {t: self.ctx.batch(t).labels
                      for t in self.grid.block_steps(bid.j)}
        if not training:
            tensors.update(self._served_params)
        return VerificationRequest(
            block=bid, mode=self.mode, grid=grid, model=manifest["model"],
            optimizer=manifest.get("optimizer"),
            hash_algo=manifest["hash_algo"], tensors=tensors,
            ledger_digests=ledger_digests, labels=labels,
            model_digest=manifest.get("model_digest"), full_scan=full_scan,
        )

    def _rerun_requests(self, order, opts):
        """Zero-storage: one deterministic rerun, building each row's
        requests as the rerun passes it and stopping after the last (or
        where it raises: the rest get their ``_stopped`` report)."""
        by_row: dict[int, list[BlockId]] = {}
        for bid in order:
            by_row.setdefault(bid.j, []).append(bid)
        wanted = {k for bid in order for k in self.grid.commitment_keys(bid)}
        rerun = rerun_rows(self.manifest, wanted)
        done = 0
        while done < len(order):
            try:
                j, captured = next(rerun)
            except Exception as e:
                stopped = _stopped(e, "zero-storage rerun")
                for bid in order[done:]:
                    yield bid, replace(stopped, block=bid)
                return
            for bid in by_row.get(j, ()):
                tensors = {str(k): captured[k]
                           for k in self.grid.commitment_keys(bid)
                           if k in captured}
                yield bid, self._request(bid, tensors, **opts)
                done += 1

    def _stored_requests(self, order, opts, session=None):
        """Stored evidence: each row's entry state is carried forward from
        the previous requested block of that row, and restarted from a
        stored checkpoint only where a fresh replay would restart. Where
        ``session`` passed that block, its state at the block's exit is
        the row's."""
        grid, store = self.grid, self.store
        rows: dict[int, _Row] = {}
        for bid in order:
            i = bid.i
            t_in, t_out = grid.commitment_boundary_steps(bid.j)
            try:
                tensors = {str(k): self._boundary(k)
                           for k in grid.boundary_keys(bid)}
                row = rows[i] = self._row_at(i, t_in, rows.pop(i, None))
                if row.broken:
                    yield bid, replace(row.broken, block=bid)
                    continue
                for k in grid.state_keys(i, t_in):
                    tensors[str(k)] = row.blob(k)
                # exit blobs are optional: included when checkpointed
                for k in grid.state_keys(i, t_out):
                    if store.has_blob(k):
                        tensors[str(k)] = store.get_bytes(k)
            except StoreError as e:
                rows.pop(i, None)
                yield bid, replace(_stopped(e), block=bid)
                continue
            row.pending = {t: tuple(tensors[str(k)]
                                    for k in grid.replay_reads(i, t))
                           for t in grid.block_steps(bid.j)}
            yield bid, self._request(bid, tensors, **opts)
            passed = session and session.passed
            if passed and passed[0] == bid:
                row.state, row.t, row.pending = passed[1], t_out, {}

    def _row_at(self, i: int, target: int, row: _Row | None = None) -> _Row:
        """Layer block i's replayed state at step ``target``. ``row`` is
        carried on when it starts from the same checkpoint a fresh replay
        would, so the state is bitwise that of a fresh replay; its
        pending replay inputs are used before the store's."""
        t0 = self.grid.replay_origin(i, target)
        if row is None or row.origin != t0 or row.t > target:
            row = _Row(t0, self._checkpoint(i, t0))
        unstable = [l for l in self.grid.block_layers(i)
                    if self._fresh_layers[l].drift]
        if unstable and (t0 or 0) < target and not row.broken:
            row.broken = VerificationReport(block=None, verdict=REFUSED, note=(
                f"layer {unstable[0]} is non-deterministic: replaying steps "
                f"{t0 or 0}..{target} cannot be bit-exact; isolate it "
                f"(isolate_layers) to checkpoint it at every step block"))
        for t in range(row.t, target):
            if row.broken:
                break
            inputs = row.pending.get(t) or tuple(
                map(self._boundary, self.grid.replay_reads(i, t)))
            self._replay_step(i, row, t, *inputs)
        row.pending = {}
        return row

    def _boundary(self, key: BoundaryKey):
        """The activation or gradient ``key`` of a training run: the
        batch the manifest derives for a model input, else the stored
        tensor."""
        if key.derived:
            return self.ctx.batch(key.step).inputs
        return self.store.get_tensor(key)

    def _checkpoint(self, i: int, t0: int | None) -> dict[BoundaryKey, bytes]:
        if t0 is not None:
            return {k: self.store.get_bytes(k)
                    for k in self.grid.state_keys(i, t0)}
        # before the first stored checkpoint: the step-0 state, which the
        # manifest derives (base init, zeroed optimizer)
        fresh = ModelState(self.manifest["model"], self.manifest["optimizer"],
                           self.grid.block_layers(i))
        return {k: fresh.blob(k) for k in self.grid.state_keys(i, 0)}

    def _replay_step(self, i: int, row: _Row, t: int, x,
                     upstream=None) -> None:
        # the loss block backpropagates the seed its loss derives
        labels = self.ctx.batch(t).labels if self._needs_labels(i) else None
        try:
            if row.state is None:
                row.state = ModelState(
                    self.manifest["model"], self.manifest["optimizer"],
                    self.grid.block_layers(i), row.blobs)
            row.state.replay_step(x, upstream, labels=labels)
        except Exception as e:
            row.broken = self._uncommitted(i, t, x, upstream) or _stopped(
                e, "replay to the block's entry state",
                non_finite_key(self.grid, i, t, x, upstream))
            return
        row.t = t + 1

    def _uncommitted(self, i: int, t: int, x, upstream):
        """The 'fail' report, block unset, on layer block i's step-t
        replay that raised after consuming a tensor that is not the
        committed bytes (a derived input the ledger does not commit),
        charged to the first as the verifier charges what it hashes
        before it replays; None when there is none."""
        own = self.ledger.entry_for(BlockId(i, t // self.config.bs))
        pairs = [(k, a) for k, a in zip(self.grid.replay_inputs(i, t),
                                        (x, upstream)) if a is not None]
        got = self.ctx.hash_many([a for _, a in pairs])
        bad = [str(k) for (k, _), d in zip(pairs, got)
               if own and d.value != own.entries[k].value]
        if not bad:
            return None
        return VerificationReport(
            block=None, verdict=FAIL, cause=HASH_MISMATCH, failed_key=bad[0],
            failures=[{"cause": HASH_MISMATCH, "key": bad[0]}],
            note="replay to the block's entry state")

    def _needs_labels(self, i: int) -> bool:
        return self.config.n_layers - 1 in self.grid.block_layers(i)

    def _inference_requests(self, order, opts):
        for bid in order:
            try:
                tensors = {str(k): self.store.get_tensor(k)
                           for k in self.grid.inference_commitment_keys(bid)}
            except StoreError as e:
                yield bid, replace(_stopped(e), block=bid)
                continue
            yield bid, self._request(bid, tensors, **opts)

    @cached_property
    def _served_params(self) -> dict[str, bytes]:
        """Blobs of the served parameter set of an inference run, read
        once. All of it travels with every request: the digest binding
        covers every layer, not just the replayed span. A layer with no
        saved blob serves its base init."""
        blobs = {}
        for l, layer in enumerate(self._fresh_layers):
            path = self.dir / PARAMS_DIR / f"{l}.bin"
            blobs[str(BoundaryKey("parameter", l, 0))] = \
                path.read_bytes() if path.exists() else param_bytes(layer)
        return blobs

    # -- state and pruning ------------------------------------------------

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
        # row j's blocks commit the state at ``step``: as their entry, or
        # at the run's end as their exit
        j = min(sorted(starts).index(step), grid.n_step_blocks - 1)
        blobs: dict[BoundaryKey, bytes] = {}
        committed: dict[BoundaryKey, Digest] = {}
        for i in range(grid.n_layer_blocks):
            try:
                row = self._row_at(i, step)
            except StoreError as e:
                raise ReconstructionError(f"state at step {step}: {e}") \
                    from None
            if row.broken:
                raise ReconstructionError(
                    f"layer block {i} at step {step}: {row.broken.note}")
            own = self.ledger.entry_for(BlockId(i, j))
            for k in grid.state_keys(i, step):
                blobs[k] = row.blob(k)
                if own is not None:
                    committed[k] = own.entries[k]

        got = chunked_hash_many(list(blobs.values()), config.chunk_size,
                                self.ctx.algo)
        mismatched = [str(k) for k, d in zip(blobs, got)
                      if k not in committed or committed[k].value != d.value]
        if mismatched:
            raise ReconstructionError(
                f"reconstructed state disagrees with ledger at: {mismatched}")

        try:
            return ModelState(self.manifest["model"],
                              self.manifest["optimizer"], None, blobs)
        except BlobError as e:
            raise ReconstructionError(f"state at step {step}: {e}") from None

    def prune(self, requested: list[BlockId]) -> int:
        """Delete blobs not needed to verify the requested blocks. The
        ledger is untouched; pruned keys later report 'evidence
        released'."""
        for bid in requested:
            if bid not in self.ledger:
                raise ValueError(
                    f"block {bid} has no sealed commitment; cannot prune")
        if self.store is None:
            return 0
        keep = reference_closure(self.grid, requested, self.mode)
        index = self.store.index
        return self.store.prune({index[str(k)]["digest"]
                                 for k in keep if str(k) in index})


def _stopped(e: Exception, where: str = "",
             key: str | None = None) -> VerificationReport:
    """The report, block unset, on a block the orchestrator could not
    bring to the verifier because its store read or ``where`` replay
    raised ``e``: 'evidence-released' on a StoreError, 'fail' non-finite
    at ``key`` on NaN or Inf, else ``verify_or_refuse``'s refusal."""
    if isinstance(e, StoreError):
        report = VerificationReport(block=None, verdict=EVIDENCE_RELEASED,
                                    note=str(e))
    elif isinstance(e, NonFiniteError):
        report = VerificationReport(
            block=None, verdict=FAIL, cause=NON_FINITE, failed_key=key,
            failures=[{"cause": NON_FINITE, "key": key}], note=str(e))
    else:
        report = refusal(None, e)
    if where:
        report.note = f"{where}: {report.note}"
    return report


def _check_manifest(manifest: dict) -> None:
    """Raise LedgerError unless a training ``manifest``, which obeys
    ``check_run_spec`` once loaded, also holds the run and dataset seeds
    and the batch size its RunContext reads."""
    if manifest["mode"] == "inference":
        return
    try:
        data_seed = manifest["dataset"]["spec"]["seed"]
    except (KeyError, TypeError):
        data_seed = None
    for key, seed in (("run_seed", manifest.get("run_seed")),
                      ("dataset.spec.seed", data_seed)):
        if not is_seed(seed):
            raise LedgerError(f"manifest field {key!r} is not a signed "
                              f"64-bit integer")
    batch_size = manifest.get("batch_size")
    if type(batch_size) is not int or batch_size < 1:
        raise LedgerError("manifest field 'batch_size' is not an integer "
                          "of at least 1")


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

    def send(self, req: VerificationRequest) -> None:
        """Write ``req`` to the worker. A worker that died cannot take it,
        and its ``reply`` is then None."""
        try:
            self.proc.stdin.write(frame(req.to_bytes()))
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass

    def reply(self, req: VerificationRequest) -> VerificationReport | None:
        """The worker's report on ``req``, sent last; None when it died
        instead."""
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
        self.proc.stdout.read()  # a reply still in flight, unread
        code = self.proc.wait()
        self.proc.stdout.close()
        self.stderr.seek(0)
        tail = self.stderr.read().decode(errors="replace").strip()[-500:]
        self.stderr.close()
        return f"verifier worker exited with {code}: {tail}"


class _Workers:
    """The isolated verifier processes of one command, at most ``jobs``.
    A request goes to an idle worker, or to a new one while fewer than
    ``jobs`` run, or else to the worker of the oldest check in flight
    once it replies. Workers check while the next request is built."""

    def __init__(self, jobs: int):
        self.jobs = max(1, jobs)
        self._idle: list[_Worker] = []
        self._busy: deque = deque()  # (worker, request), oldest first

    def submit(self, req: VerificationRequest) -> list:
        """Send ``req`` to a worker. Returns ``(block, report)`` for the
        check that had to finish first, if one did."""
        done = []
        if not self._idle and len(self._busy) >= self.jobs:
            done.append(self._collect())
        worker = self._idle.pop() if self._idle else _Worker()
        worker.send(req)
        self._busy.append((worker, req))
        return done

    def drain(self) -> list:
        """``(block, report)`` for every check in flight."""
        return [self._collect() for _ in range(len(self._busy))]

    def _collect(self) -> tuple:
        """The oldest check in flight; a worker that died on it is closed
        and its block ``refused``."""
        worker, req = self._busy.popleft()
        report = worker.reply(req)
        if report is None:
            report = VerificationReport(block=req.block, verdict=REFUSED,
                                        note=worker.close())
        else:
            self._idle.append(worker)
        return req.block, report

    def close(self) -> None:
        """Close and reap every worker."""
        for worker in self._idle + [w for w, _ in self._busy]:
            worker.close()

