"""Span tracing of aftune's layers from outside the package.

The tracer replaces the public functions listed in TARGETS with timing
wrappers, in every ``aftune`` module that holds a reference to them, and
restores the originals on ``close``. Each call becomes a span: (span id,
name, start, end, parent span id, operation id, attributes). Spans stay
in memory and are written out once, when the run ends.

A target that no longer exists is recorded as absent, and every metric
that depends on it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _data_bytes(args, kwargs, out):
    data = args[0] if args else kwargs.get("data")
    return {"bytes": int(getattr(data, "nbytes", None) or len(data))}


def _out_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _worker_wall(args, kwargs, out):
    return {"worker_wall": float(out.wall_time)}


# (module, attribute path, attribute extractor)
TARGETS = [
    ("aftune.recorder", "record_training", None),
    ("aftune.recorder", "run_uninstrumented", None),
    ("aftune.recorder", "materialize_block_tensors", None),
    ("aftune.recorder", "build_inference_manifest", None),
    ("aftune.recorder", "record_inference", None),
    ("aftune.hashing", "chunked_hash", _data_bytes),
    ("aftune.ledger", "RunLedger.save", None),
    ("aftune.ledger", "RunLedger.encode", _out_bytes),
    ("aftune.ledger", "RunLedger.load", None),
    ("aftune.ledger", "RunLedger.decode", None),
    ("aftune.ledger", "RunLedger.all_digests", None),
    ("aftune.store", "TensorStore.__init__", None),
    ("aftune.store", "TensorStore.put_tensor", None),
    ("aftune.store", "TensorStore.put_bytes", None),
    ("aftune.store", "TensorStore.save_index", None),
    ("aftune.store", "TensorStore.get_bytes", None),
    ("aftune.store", "TensorStore.get_tensor", None),
    ("aftune.orchestrate", "gather_request", None),
    ("aftune.orchestrate", "run_verification", _worker_wall),
    ("aftune.orchestrate", "check_trust_chain", None),
    ("aftune.verifier", "verify_block", None),
    ("aftune.verifier", "BlockReplayer.replay_step", None),
    ("aftune.verifier", "VerificationRequest.to_bytes", _out_bytes),
    ("aftune.auditor", "audit_run", None),
]


def span_name(module: str, path: str) -> str:
    return f"{module.split('.', 1)[1]}.{path}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.ops: dict[int, dict] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._op = None
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def op(self, kind: str, phase: str, units: int):
        """One benchmark operation: a root span whose id tags every span
        under it."""
        sid, parent = self._open()
        self._op = sid
        self.ops[sid] = {"kind": kind, "phase": phase, "units": units}
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._op = None
            self.spans.append((sid, f"op.{kind}", t0, t1, parent, sid, {}))

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer._op,
                                     {}))
            if attrs is not None:
                try:
                    tracer.spans[-1][6].update(attrs(args, kwargs, out))
                except (TypeError, AttributeError, ValueError):
                    pass  # a changed signature loses the attribute only
            return out
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "aftune" or n.startswith("aftune.")]
        for module, path, attrs in TARGETS:
            name = span_name(module, path)
            try:
                owner = importlib.import_module(module)
                *outer, leaf = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn, attrs)
                setattr(owner, leaf,
                        classmethod(wrapped) if isinstance(raw, classmethod)
                        else wrapped)
                self._undo.append((owner, leaf, raw))
                continue
            wrapped = self._wrap(name, raw, attrs)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, raw))

    def close(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, op, extra in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent, "op": op,
                                    **extra}) + "\n")


# -- per-layer metrics ---------------------------------------------------


class _Index:
    def __init__(self, tracer: Tracer):
        self.ops = tracer.ops
        self.by_id = {s[0]: s for s in tracer.spans}
        self.by_name: dict[str, list[tuple]] = {}
        self.children: dict[int, list[tuple]] = {}
        for s in tracer.spans:
            self.by_name.setdefault(s[1], []).append(s)
            if s[4] is not None:
                self.children.setdefault(s[4], []).append(s)

    def select(self, name, kinds, phase="round", under=None):
        """Spans called ``name`` inside operations of the given kinds,
        optionally only those with an ancestor called ``under``."""
        out = []
        for s in self.by_name.get(name, []):
            op = self.ops.get(s[5])
            if op is None or op["kind"] not in kinds or op["phase"] != phase:
                continue
            if under is not None and not self._has_ancestor(s, under):
                continue
            out.append(s)
        return out

    def outermost(self, names, kinds):
        """Spans of any of ``names`` with no ancestor among ``names``, so
        nested calls in one layer are counted once."""
        return [s for n in names for s in self.select(n, kinds)
                if not any(self._has_ancestor(s, m) for m in names)]

    def _has_ancestor(self, s, name) -> bool:
        p = s[4]
        while p is not None:
            a = self.by_id[p]
            if a[1] == name:
                return True
            p = a[4]
        return False

    def self_time(self, s) -> float:
        return dur(s) - sum(dur(c) for c in self.children.get(s[0], []))

    def units(self, kinds, phase="round") -> int:
        return sum(o["units"] for o in self.ops.values()
                   if o["kind"] in kinds and o["phase"] == phase)

    def count(self, kinds, phase="round") -> int:
        return sum(1 for o in self.ops.values()
                   if o["kind"] in kinds and o["phase"] == phase)


def dur(s) -> float:
    return s[3] - s[2]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


R, V, A, I, IR, IV = (("record",), ("verify-all",), ("audit",),
                      ("isolated-audit",), ("infer-record",),
                      ("infer-verify",))

# name -> (unit, span names it needs)
PER_LAYER = {
    "recorder.model_step_ms": ("ms", ["recorder.run_uninstrumented"]),
    "recorder.overhead_ms_per_step": ("ms", ["recorder.record_training",
                                             "recorder.run_uninstrumented"]),
    "hashing.calls_per_step": ("count", ["hashing.chunked_hash"]),
    "hashing.record_ms_per_step": ("ms", ["hashing.chunked_hash"]),
    "hashing.mb_per_s": ("MB/s", ["hashing.chunked_hash"]),
    "hashing.verify_ms_per_block": ("ms", ["hashing.chunked_hash"]),
    "ledger.saves_per_step": ("count", ["ledger.RunLedger.save"]),
    "ledger.save_ms_per_step": ("ms", ["ledger.RunLedger.save"]),
    "ledger.bytes_encoded_per_step": ("B", ["ledger.RunLedger.encode"]),
    "ledger.loads_per_block": ("count", ["ledger.RunLedger.load"]),
    "ledger.load_ms_per_block": ("ms", ["ledger.RunLedger.load",
                                        "ledger.RunLedger.decode",
                                        "ledger.RunLedger.all_digests"]),
    "store.put_ms_per_step": ("ms", ["store.TensorStore.put_tensor",
                                     "store.TensorStore.put_bytes",
                                     "store.TensorStore.save_index"]),
    "store.reads_per_block": ("count", ["store.TensorStore.get_bytes"]),
    "store.get_ms_per_block": ("ms", ["store.TensorStore.__init__",
                                      "store.TensorStore.get_bytes",
                                      "store.TensorStore.get_tensor"]),
    "orchestrate.gather_ms_per_block": ("ms", ["orchestrate.gather_request"]),
    "orchestrate.replay_steps_per_block": (
        "count", ["orchestrate.gather_request",
                  "verifier.BlockReplayer.replay_step"]),
    "orchestrate.replay_ms_per_block": (
        "ms", ["orchestrate.gather_request",
               "verifier.BlockReplayer.replay_step"]),
    "orchestrate.materialize_ms_per_block": (
        "ms", ["recorder.materialize_block_tensors"]),
    "orchestrate.trust_chain_ms": ("ms", ["orchestrate.check_trust_chain"]),
    "verifier.verify_block_ms": ("ms", ["verifier.verify_block"]),
    "verifier.request_kb": ("KB", ["verifier.VerificationRequest.to_bytes"]),
    "verifier_worker.transport_ms_per_block": (
        "ms", ["orchestrate.run_verification", "orchestrate.gather_request"]),
    "auditor.overhead_ms": ("ms", ["auditor.audit_run",
                                   "orchestrate.run_verification"]),
    "recorder.infer_manifest_ms": ("ms",
                                   ["recorder.build_inference_manifest"]),
    "recorder.infer_record_ms": ("ms", ["recorder.record_inference"]),
    "verifier.infer_verify_block_ms": ("ms", ["verifier.verify_block"]),
    "cli.overhead_ms": ("ms", []),
}


def per_layer_metrics(tracer: Tracer, n_steps: int) -> tuple[dict, list]:
    """Every PER_LAYER metric from the spans of one run, plus the list of
    metrics whose spans are absent (reported with value 0)."""
    ix = _Index(tracer)
    steps = ix.units(R)
    blocks = ix.units(V)
    ms = 1e3

    def total(name, kinds, **kw):
        return sum(dur(s) for s in ix.select(name, kinds, **kw))

    def n(name, kinds, **kw):
        return len(ix.select(name, kinds, **kw))

    uninstr = ix.select("recorder.run_uninstrumented", ("non-interference",),
                        phase="check")
    model_step = _ratio(sum(dur(s) for s in uninstr) * ms,
                        len(uninstr) * n_steps)
    hashes = ix.select("hashing.chunked_hash", R + V + A + I + IR + IV)
    iso = ix.select("orchestrate.run_verification", I)
    audits = ix.select("auditor.audit_run", A)
    requests = ix.select("verifier.VerificationRequest.to_bytes", I)
    roots = [ix.by_id[sid] for sid, op in ix.ops.items()
             if op["phase"] == "round"]

    def in_children(s, name):
        return sum(dur(c) for c in ix.children.get(s[0], []) if c[1] == name)

    values = {
        "recorder.model_step_ms": model_step,
        "recorder.overhead_ms_per_step":
            _ratio(total("recorder.record_training", R) * ms, steps)
            - model_step,
        "hashing.calls_per_step": _ratio(n("hashing.chunked_hash", R), steps),
        "hashing.record_ms_per_step":
            _ratio(total("hashing.chunked_hash", R) * ms, steps),
        "hashing.mb_per_s": _ratio(
            sum(s[6].get("bytes", 0) for s in hashes) / 1e6,
            sum(dur(s) for s in hashes)),
        "hashing.verify_ms_per_block":
            _ratio(total("hashing.chunked_hash", V) * ms, blocks),
        "ledger.saves_per_step": _ratio(n("ledger.RunLedger.save", R), steps),
        "ledger.save_ms_per_step":
            _ratio(total("ledger.RunLedger.save", R) * ms, steps),
        "ledger.bytes_encoded_per_step": _ratio(
            sum(s[6].get("bytes", 0)
                for s in ix.select("ledger.RunLedger.encode", R)),
            steps),
        "ledger.loads_per_block":
            _ratio(n("ledger.RunLedger.load", V), blocks),
        "ledger.load_ms_per_block": _ratio(sum(dur(s) for s in ix.outermost(
            PER_LAYER["ledger.load_ms_per_block"][1], V)) * ms, blocks),
        "store.put_ms_per_step": _ratio(sum(dur(s) for s in ix.outermost(
            PER_LAYER["store.put_ms_per_step"][1], R)) * ms, steps),
        "store.reads_per_block":
            _ratio(n("store.TensorStore.get_bytes", V), blocks),
        "store.get_ms_per_block": _ratio(sum(dur(s) for s in ix.outermost(
            PER_LAYER["store.get_ms_per_block"][1], V)) * ms, blocks),
        "orchestrate.gather_ms_per_block": _ratio(sum(
            ix.self_time(s)
            for s in ix.select("orchestrate.gather_request", V))
            * ms, blocks),
        "orchestrate.replay_steps_per_block": _ratio(n(
            "verifier.BlockReplayer.replay_step", V,
            under="orchestrate.gather_request"), blocks),
        "orchestrate.replay_ms_per_block": _ratio(total(
            "verifier.BlockReplayer.replay_step", V,
            under="orchestrate.gather_request") * ms, blocks),
        "orchestrate.materialize_ms_per_block":
            _ratio(total("recorder.materialize_block_tensors", V) * ms,
                   blocks),
        "orchestrate.trust_chain_ms":
            _ratio(total("orchestrate.check_trust_chain", V) * ms,
                   n("orchestrate.check_trust_chain", V)),
        "verifier.verify_block_ms":
            _ratio(total("verifier.verify_block", V) * ms, blocks),
        "verifier.request_kb": _ratio(
            sum(s[6].get("bytes", 0) for s in requests) / 1024, len(requests)),
        "verifier_worker.transport_ms_per_block": _ratio(sum(
            dur(s) - in_children(s, "orchestrate.gather_request")
            - s[6].get("worker_wall", 0.0)
            for s in iso) * ms,
            len(iso)),
        "auditor.overhead_ms": _ratio(sum(
            dur(s) - in_children(s, "orchestrate.run_verification")
            for s in audits) * ms, len(audits)),
        "recorder.infer_manifest_ms": _ratio(
            total("recorder.build_inference_manifest", IR) * ms, ix.count(IR)),
        "recorder.infer_record_ms": _ratio(
            total("recorder.record_inference", IR) * ms, ix.count(IR)),
        "verifier.infer_verify_block_ms": _ratio(
            total("verifier.verify_block", IV) * ms, ix.units(IV)),
        "cli.overhead_ms": _ratio(sum(ix.self_time(s) for s in roots) * ms,
                                  len(roots)),
    }
    absent = [m for m, (_, needs) in PER_LAYER.items()
              if any(x in tracer.absent for x in needs)]
    for m in absent:
        values[m] = 0.0
    return values, absent
