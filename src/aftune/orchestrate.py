"""Client-side verification orchestration.

A ``Run`` opens a recorded run once per command: the ledger, the run
context, and the tensor store. It builds self-contained verification
requests for a list of blocks in one forward walk over the grid,
carrying each layer-block row's replayed state from block to block (or,
in zero-storage mode, taking tensors from a single deterministic rerun);
each request carries the digests of its block's own sealed commitment.
It hands them to the verifier in process or to isolated worker
processes that serve the whole command. In process, a block the
verifier passed at f32 hands its replay, at the block's exit step, on
to the row; after any other verdict, at f64, in workers, and between
blocks the walk replays the row itself (``_stopped`` gives the verdict
where it raises). It also reconstructs model state from sparse
checkpoints and walks the cross-block trust chain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from .grid import (INPUT_ANCHOR, LABEL_ANCHOR, BlockId, BoundaryKey,
                   label_anchor_key)
from .hashing import Digest, chunked_hash_many
from .ledger import SCHEMA_VERSION, LedgerError, RunLedger
from .model import ModelState, build_model, param_bytes, params_digest
from .recorder import (LEDGER_FILE, PARAMS_DIR, RunContext,
                       reference_closure, rerun_rows)
from .rng import is_seed
from .store import StoreError, TensorStore
from .tensors import BlobError, NonFiniteError
from .verifier import (EVIDENCE_RELEASED, FAIL, NON_FINITE, REFUSED,
                       BindingMemo, VerificationReport, VerificationRequest,
                       check_run_spec, non_finite_key, refusal,
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
    in-process verifier passed the row's last block at f32, by adopting
    the verifier's state at that block's exit. ``state`` is built from
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
        self.chain: ChainReport | None = None  # the last verify's walk

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
        for bid in ledger.blocks:
            if not ledger.grid.contains(bid):
                raise LedgerError(f"ledger entry for block {bid} lies "
                                  f"outside the manifest's grid")
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
        other block is replayed. For a training run, one trust-chain
        walk over ``bids`` then fails each block that replayed ``pass``
        but whose commitment provenance is broken; ``self.chain`` keeps
        that walk's report. ``isolated``, or ``jobs`` above 1, checks
        in isolated worker processes, up to ``jobs`` of them at once."""
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
        self.chain = None
        if self.mode == "training":
            self.chain = check_trust_chain(self.ledger, self.store, sealed)
            for bid in map(BlockId.parse, self.chain.bad_blocks):
                if done[bid].passed:
                    done[bid] = replace(
                        done[bid], verdict=FAIL,
                        note="commitment provenance broken (trust chain)")
        return [done[b] for b in bids]

    def request(self, bid: BlockId, **kw):
        return next(self.requests([bid], **kw))[1]

    def requests(self, bids, tau: float | None = None,
                 precision: str | None = None, full_scan: bool = False,
                 session: BindingMemo | None = None):
        """Yield ``(bid, request)`` for each distinct block of ``bids`` in
        grid order (row j ascending). ``request`` is a VerificationReport
        instead when the block cannot reach the verifier: its evidence was
        released, or the replay to its entry state went non-finite.
        ``tau`` and ``precision``, when given, replace the manifest's in
        every request's grid. ``session`` is the verifier session that
        checks each request before the next is asked for: a block it
        passed hands its replay on to the block's row."""
        order = sorted(set(bids), key=lambda b: (b.j, b.i))
        grid = replace(self.config, tau=self.config.tau if tau is None
                       else tau, precision=precision or self.config.precision)
        opts = dict(grid=grid.to_dict(), full_scan=full_scan)
        if self.mode == "inference":
            yield from self._inference_requests(order, opts)
        elif self.store is None:
            yield from self._rerun_requests(order, opts)
        else:
            yield from self._stored_requests(order, opts, session)

    def _request(self, bid: BlockId, tensors: dict, grid: dict,
                 full_scan: bool) -> VerificationRequest:
        """The request for ``bid`` checked on ``grid`` carrying ``tensors``
        and the digests of its commitment keys as the block's own sealed
        commitment holds them (a key it omits goes without, and the
        verifier refuses); for a training loss block also its labels and
        their anchors, for inference the served parameters."""
        manifest = self.manifest
        training = self.mode == "training"
        keys = self.grid.commitment_keys(bid) if training \
            else self.grid.inference_commitment_keys(bid)
        own = self.ledger.entry_for(bid)
        committed = own.entries if own is not None else {}
        ledger_digests = {str(k): committed[k] for k in keys if k in committed}
        labels = {}
        if training and self._needs_labels(bid.i):
            steps = self.grid.block_steps(bid.j)
            labels = {t: self.ctx.batch(t).labels for t in steps}
            anchors = manifest["label_anchors"]
            ledger_digests.update(
                (label_anchor_key(t), Digest.from_hex(anchors[t], self.ctx.algo))
                for t in steps if t < len(anchors))
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
        ``session`` passed that block replaying at f32, as the row does,
        its state at the block's exit is the row's."""
        grid, store = self.grid, self.store
        rows: dict[int, _Row] = {}
        for bid in order:
            i = bid.i
            t_in, t_out = grid.commitment_boundary_steps(bid.j)
            try:
                tensors = {str(k): store.get_tensor(k)
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
                                    for k in grid.replay_inputs(i, t))
                           for t in grid.block_steps(bid.j)}
            yield bid, self._request(bid, tensors, **opts)
            passed = session and session.passed
            if passed and passed[0] == bid and passed[1].precision == "f32":
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
                    if not self._fresh_layers[l].deterministic]
        if unstable and (t0 or 0) < target and not row.broken:
            row.broken = VerificationReport(block=None, verdict=REFUSED, note=(
                f"layer {unstable[0]} is non-deterministic: replaying steps "
                f"{t0 or 0}..{target} cannot be bit-exact; isolate it "
                f"(isolate_layers) to checkpoint it at every step block"))
        for t in range(row.t, target):
            if row.broken:
                break
            inputs = row.pending.get(t) or tuple(
                self.store.get_tensor(k) for k in self.grid.replay_inputs(i, t))
            self._replay_step(i, row, t, *inputs)
        row.pending = {}
        return row

    def _checkpoint(self, i: int, t0: int | None) -> dict[BoundaryKey, bytes]:
        if t0 is not None:
            return {k: self.store.get_bytes(k)
                    for k in self.grid.state_keys(i, t0)}
        # no stored checkpoint covers the target, but the step-0 state is
        # derivable from the manifest alone: base init, zeroed optimizer
        fresh = ModelState(self.manifest["model"], self.manifest["optimizer"],
                           self.grid.block_layers(i))
        return {k: fresh.blob(k) for k in self.grid.state_keys(i, 0)}

    def _replay_step(self, i: int, row: _Row, t: int, x, upstream) -> None:
        labels = self.ctx.batch(t).labels if self._needs_labels(i) else None
        try:
            if row.state is None:
                row.state = ModelState(
                    self.manifest["model"], self.manifest["optimizer"],
                    self.grid.block_layers(i), row.blobs)
            row.state.replay_step(x, upstream, labels=labels)
        except Exception as e:
            row.broken = _stopped(e, "replay to the block's entry state",
                                  non_finite_key(self.grid, i, t, x, upstream))
            return
        row.t = t + 1

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
                if own is not None and k in own.entries:
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
        keep = reference_closure(self.grid, requested)
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
            failures=[{"cause": NON_FINITE, "key": key, "error": None,
                       "tau": None}], note=str(e))
    else:
        report = refusal(None, e)
    if where:
        report.note = f"{where}: {report.note}"
    return report


def _check_manifest(manifest: dict) -> None:
    """Raise LedgerError unless ``manifest`` obeys ``check_run_spec``, the
    rules a request header obeys too, and a training manifest also holds
    the run and dataset seeds, batch size and anchors its RunContext and
    Run read."""
    try:
        check_run_spec(manifest)
    except ValueError as e:
        raise LedgerError(f"manifest {e}") from None
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
    for key in ("input_anchors", "label_anchors"):
        anchors = manifest.get(key)
        if not (isinstance(anchors, list)
                and all(map(_is_digest_hex, anchors))):
            raise LedgerError(f"manifest field {key!r} is malformed")


def _is_digest_hex(s) -> bool:
    try:
        return isinstance(s, str) and len(bytes.fromhex(s)) == 32
    except ValueError:
        return False


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


# -- trust chain ---------------------------------------------------------


@dataclass
class ChainReport:
    ok: bool
    problems: list[str] = field(default_factory=list)
    anchored: dict[str, int] = field(default_factory=dict)
    checked: int = 0
    bad_blocks: list[str] = field(default_factory=list)


def check_trust_chain(ledger: RunLedger, store: TensorStore | None,
                      blocks) -> ChainReport:
    """Confirm every digest a verification of ``blocks`` consumes is
    vouched for: by the sealed commitment of the neighbor
    ``grid.neighbors`` names, or, at the grid's edges, by a trust anchor
    in the manifest (inputs/labels per step, the base model for row 0).

    Only the entries of ``blocks`` are walked, which reads the entries
    of their neighbors; a block with no entry is skipped. A walked block
    gets the same problems and bad-block mark whatever else is walked:
    the base-model anchor is recomputed whenever a walked block lies in
    row 0."""
    report = ChainReport(ok=True)
    manifest = ledger.manifest
    grid = ledger.grid
    inputs = manifest.get("input_anchors", [])
    labels = manifest.get("label_anchors", [])
    bad: set[str] = set()
    scope = {b for b in blocks if b in ledger}

    def problem(msg, bid=None):
        report.ok = False
        report.problems.append(msg)
        if bid is not None:
            bad.add(str(bid))

    def anchor_problem(anchor, key, digest, t) -> str | None:
        if anchor == INPUT_ANCHOR:
            if t >= len(inputs):
                return f"no input anchor for step {t} backing {key}"
            if digest.hex != inputs[t]:
                return f"{key} does not match the input anchor for step {t}"
        elif anchor == LABEL_ANCHOR:
            # loss-side seed: fixed by the committed labels for step t
            if t >= len(labels):
                return f"no label anchor for step {t} backing {key}"
        elif "base_model_digest" not in manifest:  # the base-model anchor
            return f"row 0 {key} has no base-model anchor"
        return None

    def neighbor_problem(neighbor, theirs, key, digest) -> str | None:
        if theirs is None:
            return f"missing neighbor commitment {neighbor} for {key}"
        if key not in theirs.entries:
            return f"neighbor {neighbor} does not commit {key}"
        if theirs.entries[key].value != digest.value:
            return f"digest conflict with neighbor {neighbor} on {key}"
        return None

    for e in ledger.entries_in(scope):
        report.checked += 1
        bid = e.block
        near = grid.neighbors(bid)
        vouching = {side: ledger.entry_for(by) for side, by in near.items()
                    if isinstance(by, BlockId)}
        t_in, _ = grid.commitment_boundary_steps(bid.j)
        consumed = [(key, side, t) for t in grid.block_steps(bid.j)
                    for key, side in zip(grid.replay_inputs(bid.i, t),
                                         ("left", "right"))]
        consumed += [(key, "above", t_in)
                     for key in grid.state_keys(bid.i, t_in)]
        for key, side, t in consumed:
            by, digest = near[side], e.entries.get(key)
            if digest is None:
                why = f"block {bid} does not commit {key}"
            elif side in vouching:
                why = neighbor_problem(by, vouching[side], key, digest)
            else:
                why = anchor_problem(by, key, digest, t)
                if why is None:
                    kind = by.removesuffix("-anchor")
                    report.anchored[kind] = report.anchored.get(kind, 0) + 1
            if why is not None:
                problem(why, bid)

    # when evidence is on hand, tie the row-0 parameters to the anchor value
    row0 = [b for b in scope if b.j == 0]
    if row0 and store is not None \
            and "base_model_digest" in manifest \
            and manifest["mode"] == "training" \
            and _base_anchor_broken(manifest, store):
        problem("stored step-0 parameters do not match the base-model anchor")
        bad.update(map(str, row0))
    report.bad_blocks = sorted(bad)
    return report


def _base_anchor_broken(manifest, store: TensorStore) -> bool:
    """Whether the stored step-0 parameters contradict the base-model
    anchor: a blob before the first pruned layer that does not decode
    does. Otherwise False when any was pruned, as there is nothing to
    recompute against."""
    blobs = {}
    for l in range(len(manifest["model"]["layers"])):
        key = BoundaryKey("parameter", l, 0)
        if not store.has_blob(key):
            break
        blobs[l] = store.get_bytes(key)
    try:
        layers = build_model(manifest["model"], blobs)
    except BlobError:
        return True
    return len(blobs) == len(layers) and params_digest(
        layers, manifest["grid"]["chunk_size"],
        manifest["hash_algo"]).hex != manifest["base_model_digest"]
