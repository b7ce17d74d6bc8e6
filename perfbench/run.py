#!/usr/bin/env python3
"""Benchmark of the aftune pipeline: record -> verify -> audit -> serve.

Run from the repository root:

    python3 perfbench/run.py --workload long-run --seed 1 --seconds 20 \
        --trace 0

One process sets up the workload, then repeats whole rounds of `aftune`
commands, called in process through `aftune.cli.main`, for about
``--seconds`` seconds, and finally checks the outputs against properties
the method must have. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from spans with
``--trace 1``.

``--repeat N`` runs seeds ``seed .. seed+N-1`` in fresh processes and
prints each metric's median, quartiles and spread against its bound in
BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"

COMMON = ["--bl", "2", "--bs", "2"]
WORKLOADS = {
    # ledger growth and replay from step 0; sha256 keeps hashing cheap
    "long-run": {"steps": 96, "record": ["--algo", "sha256", "--ic", "inf"],
                 "infer": ["--algo", "sha256"]},
    # the CLI defaults (blake3, ic=2): pure-Python hashing dominates
    "blake3-default": {"steps": 32, "record": [], "infer": []},
    # no blobs: every verification re-runs training
    "zero-storage": {"steps": 64,
                     "record": ["--algo", "sha256", "--zero-storage"],
                     "infer": ["--algo", "sha256"]},
}
M = 3              # blocks sampled per audit
PLANS = 4          # audit plan seeds 0..PLANS-1, in process and isolated
REQUESTS = 8       # inference requests after each audit of a round
SETUPS = 3         # set-ups per run; setup_s takes their median
DATASET_ROWS = 64  # rows of the mlp preset's dataset
SOUNDNESS_STEPS = 16

END_TO_END_UNITS = {
    "setup_s": "s", "record_ms_per_step": "ms",
    "evidence_bytes_per_step": "B", "verify_all_ms_per_block": "ms",
    "audit_ms": "ms", "isolated_audit_ms": "ms", "infer_record_ms": "ms",
    "infer_verify_ms": "ms", "peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Bench:
    """One run of one workload: set-up, timed rounds, output checks."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer):
        self.wl = WORKLOADS[workload]
        self.steps = self.wl["steps"]
        self.seconds = seconds
        self.tracer = tracer
        rng = random.Random(seed)
        # fixed-width seeds keep the manifest, so the evidence, one size
        self.run_seed = rng.randrange(100_000, 1_000_000)
        self.model_seed = rng.randrange(100_000, 1_000_000)
        self.row0 = rng.randrange(DATASET_ROWS)
        self.check_rng = random.Random(rng.random())
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # metric -> [(user CPU seconds, wall seconds, divisor)]
        self.samples: dict[str, list[tuple]] = {
            k: [] for k in END_TO_END_UNITS}
        self.evidence_sizes: list[float] = []

    # -- running commands ------------------------------------------------

    def cli(self, args, kind, phase="round", units=1):
        """Run one `aftune` command in process. Returns (user CPU seconds,
        wall seconds, exit code or the exception it raised, stdout)."""
        from aftune.cli import main
        buf = io.StringIO()
        op = self.tracer.op(kind, phase, units) if self.tracer \
            else contextlib.nullcontext()
        with op, contextlib.redirect_stdout(buf):
            c0, t0 = cpu_time(), perf_counter()
            try:
                main([str(a) for a in args], standalone_mode=True)
                code = 0
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a traceback is an outcome we count
                code = e
            wall, cpu = perf_counter() - t0, cpu_time() - c0
        return cpu, wall, code, buf.getvalue()

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.errors.append(what)
            log(f"CHECK FAILED: {what}")
        return ok

    def honest(self, kind, args, metric, per=1, units=1, report=None):
        """An operation that must succeed: exit 0 and, when it writes a
        report, every verdict in it is pass. Its times count towards
        ``metric``, divided by ``per``."""
        cpu, wall, code, out = self.cli(args, kind, units=units)
        self.attempted += 1
        ok = code == 0
        if ok and report is not None:
            ok = _report_passes(report)
        if not self.check(ok, f"{kind} {args[1]}: exit {code!r}\n{out}"):
            self.failed += 1
        self.samples[metric].append((cpu, wall, per))

    def record_args(self, out_dir, steps=None):
        return ["record-train", out_dir, "--n-steps", steps or self.steps,
                *COMMON, *self.wl["record"], "--seed", self.run_seed,
                "--model-seed", self.model_seed]

    def infer_args(self, out_dir, row, seeded=True):
        seeds = ["--model-seed", self.model_seed] if seeded else []
        return ["record-infer", out_dir, "--bl", "2", *self.wl["infer"],
                "--input-seed", row, *seeds]

    # -- set-up ----------------------------------------------------------

    def setup(self, imported: tuple[float, float]) -> None:
        """Record the evidence run SETUPS times into fresh directories;
        setup_s is the import plus the median recording."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        times = []
        for k in range(SETUPS):
            d = self.work / f"evidence{k}"
            cpu, wall, code, out = self.cli(self.record_args(d), "record",
                                            phase="setup", units=self.steps)
            if not self.check(code == 0, f"set-up recording: {code!r}\n{out}"):
                raise SystemExit(1)
            times.append((cpu, wall))
        self.evidence = self.work / "evidence0"
        cpu, wall = zip(*times)
        self.samples["setup_s"].append((imported[0] + statistics.median(cpu),
                                        imported[1] + statistics.median(wall),
                                        1))
        report = json.loads((self.evidence / "record_report.json").read_text())
        self.ledger_digest = report["ledger_digest"]
        self.blocks = report["blocks"]
        self.build_nan_forgeries()

    def build_nan_forgeries(self) -> None:
        """Runs with a boundary rewritten to all-NaN and committed
        self-consistently. Their inputs do not depend on the seed. Zero-
        storage has no blob to rewrite, so its training forgery is
        recorded with storage on."""
        import numpy as np
        from aftune.adversary import rewrite_key
        from aftune.grid import BoundaryKey
        from aftune.store import TensorStore
        train = self.work / "nan-train"
        flags = [f for f in self.wl["record"] if f != "--zero-storage"]
        args = ["record-train", train, "--n-steps", 4, *COMMON, *flags]
        self.cli(args, "nan-fixture", phase="fixture")
        # produced by block 0,1 and consumed by block 1,1
        key = BoundaryKey("activation", 1, 2)
        shape = TensorStore(train).get_tensor(key).shape
        rewrite_key(train, key, np.full(shape, np.nan, np.float32))
        infer = self.work / "nan-infer"
        self.cli(self.infer_args(infer, 0, seeded=False), "nan-fixture",
                 phase="fixture")
        key = BoundaryKey("activation", _infer_blocks(infer), 0)
        shape = TensorStore(infer).get_tensor(key).shape
        rewrite_key(infer, key, np.full(shape, np.nan, np.float32))
        self.nan_train, self.nan_infer = train, infer

    # -- timed rounds ----------------------------------------------------

    def run_rounds(self) -> int:
        """Whole rounds until --seconds have passed."""
        t0 = perf_counter()
        r = 0
        while r == 0 or perf_counter() - t0 < self.seconds:
            self.round(r)
            r += 1
        return r

    def round(self, r: int) -> None:
        """One round. The machine's speed drifts over seconds, so the
        commands of each kind are spread over the round: one recording
        before each audit plan, inference requests after every audit, and
        verify-all between the first and the second plan."""
        self.served = 0
        for p in range(PLANS):
            self.record(f"fresh{r}-{p}")
            for kind, extra, metric in (("audit", [], "audit_ms"),
                                        ("isolated-audit", ["--isolated"],
                                         "isolated_audit_ms")):
                self.honest(kind, ["audit", self.evidence, "--m", M,
                                   "--seed", p, *extra], metric, units=M,
                            report=self.evidence / "audit_report.json")
                self.serve(r)
            if p == 0:
                self.honest("verify-all", ["verify", self.evidence],
                            "verify_all_ms_per_block", per=self.blocks,
                            units=self.blocks,
                            report=self.evidence / "verify_report.json")
        self.nan_ops()

    def record(self, name: str) -> None:
        fresh = self.work / name
        self.honest("record", self.record_args(fresh), "record_ms_per_step",
                    per=self.steps, units=self.steps)
        rep = json.loads((fresh / "record_report.json").read_text())
        self.check(rep["ledger_digest"] == self.ledger_digest,
                   "re-recording the same manifest changed the ledger digest")
        self.evidence_sizes.append(evidence_bytes(fresh) / self.steps)

    def serve(self, r: int) -> None:
        """REQUESTS inference requests, each recorded into a fresh
        directory and then verified; rows run on from the seed's first."""
        for _ in range(REQUESTS):
            k = self.served
            self.served += 1
            d = self.work / f"infer{r}-{k}"
            row = (self.row0 + k) % DATASET_ROWS
            self.honest("infer-record", self.infer_args(d, row),
                        "infer_record_ms")
            self.honest("infer-verify", ["verify", d], "infer_verify_ms",
                        units=_infer_blocks(d),
                        report=d / "verify_report.json")

    def nan_ops(self) -> None:
        """The NaN forgeries must fail verification. They do not: the
        verifier's `err > tau` is False for NaN, so the forged output and
        the block producing the forged boundary pass, and the consuming
        block raises NonFiniteError. Each is counted as a failed
        operation; correctness speaks of the other operations."""
        train = ["verify", self.nan_train, "--block"]
        for kind, args in (("nan-infer", ["verify", self.nan_infer]),
                           ("nan-producer", [*train, "0,1"]),
                           ("nan-consumer", [*train, "1,1"])):
            code = self.cli(args, kind)[2]
            self.attempted += 1
            if code != 1:
                self.failed += 1

    # -- output checks ---------------------------------------------------

    def run_checks(self) -> None:
        from aftune.ledger import RunLedger
        self.manifest = RunLedger.load(self.evidence / "ledger.bin").manifest
        self.algo = self.manifest["hash_algo"]
        checks = [self.non_interference, self.soundness_forged,
                  self.soundness_flip, self.soundness_fabricate]
        if self.algo == "sha256":
            checks.append(self.independent_digests)
        for fn in checks:
            op = self.tracer.op(fn.__name__.replace("_", "-"), "check",
                                self.steps) if self.tracer \
                else contextlib.nullcontext()
            with op:
                try:
                    fn()
                except Exception as e:  # a changed program fails the check
                    self.check(False, f"{fn.__name__} raised {e!r}")

    def non_interference(self) -> None:
        """The recorded run's final parameters are bitwise those of the
        same training run without recording."""
        from aftune.ledger import RunLedger
        from aftune.model import param_bytes
        from aftune.recorder import run_uninstrumented
        from aftune.grid import BoundaryKey
        state, _ = run_uninstrumented(self.manifest)
        index = json.loads((self.evidence / "index.json").read_text())
        digests = RunLedger.load(self.evidence / "ledger.bin").all_digests()
        compared = 0
        for l, layer in enumerate(state.layers):
            want = param_bytes(layer)
            key = BoundaryKey("parameter", l, self.steps)
            ent = index.get(str(key))
            if ent is not None:
                got = (self.evidence / "store" / ent["digest"]).read_bytes()
                self.check(got == want, f"non-interference: stored {key} "
                           "differs from the uninstrumented run")
                compared += 1
            if self.algo == "sha256":
                self.check(sha256_map_reduce(want, self.chunk())
                           == digests[key].value,
                           f"non-interference: ledger digest of {key} is not "
                           "that of the uninstrumented run")
                compared += 1
        self.check(compared >= len(state.layers),
                   "non-interference: nothing to compare")

    def independent_digests(self) -> None:
        """hashlib recomputes the documented map-reduce digest of every
        stored blob (evidence run and one inference request) and matches
        the ledger's commitments."""
        from aftune.ledger import RunLedger
        from aftune.grid import BoundaryKey
        d = self.work / "digest-infer"
        self.cli(self.infer_args(d, self.row0), "check-infer", phase="check")
        stored = not self.manifest["grid"]["zero_storage"]
        for run in [self.evidence] * stored + [d]:
            digests = RunLedger.load(run / "ledger.bin").all_digests()
            index = json.loads((run / "index.json").read_text())
            self.check(bool(index), f"independent digests: no blob in {run}")
            for key_s, ent in index.items():
                blob = (run / "store" / ent["digest"]).read_bytes()
                got = sha256_map_reduce(blob, self.chunk())
                committed = digests[BoundaryKey.parse(key_s)].value
                self.check(got == committed == bytes.fromhex(ent["digest"]),
                           f"independent digest of {key_s} in {run.name} "
                           "does not match its commitment")

    def soundness_forged(self) -> None:
        """A self-consistent forgery fails exactly where it must, on a
        SOUNDNESS_STEPS-step copy of the workload's configuration.

        Stored runs: aftune.adversary's activation-perturbation (relative
        L2 0.01, 1000 x tau) must fail its tampered_blocks with
        numerical-mismatch. Later blocks of the consuming row whose entry
        state is replayed through the forged tensor fail with hash-mismatch;
        every other block passes. Zero-storage: one boundary digest altered
        in every commitment that holds it fails exactly those blocks with
        hash-mismatch."""
        from aftune.adversary import apply_scenario
        from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig
        from aftune.ledger import RunLedger
        base = self.work / "sound-base"
        self.cli(self.record_args(base, SOUNDNESS_STEPS), "check-record",
                 phase="check")
        ledger = RunLedger.load(base / "ledger.bin")
        grid = BlockGrid(GridConfig.from_dict(ledger.manifest["grid"]))
        if grid.config.zero_storage:
            run = base
            b = self.check_rng.randrange(1, grid.n_layer_blocks)
            t = self.check_rng.randrange(SOUNDNESS_STEPS)
            key = BoundaryKey("activation", b, t)
            for e in ledger.entries:
                if key in e.entries:
                    d = e.entries[key]
                    e.entries[key] = type(d)(bytes([d.value[0] ^ 1])
                                             + d.value[1:], d.algo)
            ledger.save(run / "ledger.bin")
            j = grid.block_of(0, t).j
            expected = {str(BlockId(b - 1, j)): "hash-mismatch",
                        str(BlockId(b, j)): "hash-mismatch"}
        else:
            run = self.work / "sound-forged"
            res = apply_scenario("activation-perturbation", ledger.manifest,
                                 run, seed=self.check_rng.randrange(1000))
            key = BoundaryKey.parse(res.details["key"])
            expected = {s: "numerical-mismatch" for s in res.tampered_blocks}
            for bid in replayed_through(grid, key):
                expected.setdefault(str(bid), "hash-mismatch")
        code = self.cli(["verify", run, "--full-scan"], "check-verify",
                        phase="check")[2]
        report = json.loads((run / "verify_report.json").read_text())
        got = {r["block"]: r["cause"] for r in report["reports"]
               if r["verdict"] != "pass"}
        self.check(code == 1 and got == expected,
                   f"forged {key}: failing blocks {got}, expected {expected}")
        self.check(report["trust_chain"]["ok"],
                   "self-consistent forgery broke the trust chain")

    def soundness_flip(self) -> None:
        """A single-bit flip in a stored boundary blob makes both blocks
        that commit it fail with hash-mismatch (stored runs only)."""
        from aftune.grid import BlockGrid, BoundaryKey, GridConfig
        grid = BlockGrid(GridConfig.from_dict(self.manifest["grid"]))
        if grid.config.zero_storage:
            return
        run = self.work / "flip"
        shutil.copytree(self.evidence, run)
        rng = self.check_rng
        b = rng.randrange(1, grid.n_layer_blocks)
        t = rng.randrange(self.steps)
        j = grid.block_of(0, t).j
        key = BoundaryKey(rng.choice(("activation", "gradient")), b, t)
        index = json.loads((run / "index.json").read_text())
        blob = run / "store" / index[str(key)]["digest"]
        data = bytearray(blob.read_bytes())
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        blob.write_bytes(bytes(data))
        for i in (b - 1, b):
            _, _, code, out = self.cli(["verify", run, "--block", f"{i},{j}"],
                                       "check-verify", phase="check")
            self.check(code == 1 and "fail (hash-mismatch" in out,
                       f"bit flip in {key}: block {i},{j} gave {out!r}")

    def soundness_fabricate(self) -> None:
        """fabricate-output: the served output rewritten (+1.0) and
        committed self-consistently fails the last inference block, and
        only that one."""
        import numpy as np
        from aftune.adversary import rewrite_key
        from aftune.grid import BoundaryKey
        from aftune.store import TensorStore
        d = self.work / "fabricate"
        self.cli(self.infer_args(d, self.row0), "check-infer", phase="check")
        last = _infer_blocks(d)
        key = BoundaryKey("activation", last, 0)
        rewrite_key(d, key, TensorStore(d).get_tensor(key) + np.float32(1.0))
        code = self.cli(["verify", d], "check-verify", phase="check")[2]
        report = json.loads((d / "verify_report.json").read_text())
        got = {r["block"]: r["verdict"] for r in report["reports"]}
        want = {f"{i},0": "fail" if i == last - 1 else "pass"
                for i in range(last)}
        self.check(code == 1 and got == want,
                   f"fabricate-output: verdicts {got}, expected {want}")

    def chunk(self) -> int:
        return self.manifest["grid"]["chunk_size"]

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """The metrics, from user CPU time summed over all the commands of
        a metric, and the wall-clock medians of the same commands for
        reference."""
        values, wall = {}, {}
        for name, samples in self.samples.items():
            if not samples:
                continue
            scale = 1.0 if name == "setup_s" else 1e3
            cpu, _, per = zip(*samples)
            values[name] = sum(cpu) / sum(per) * scale
            wall[name] = statistics.median(w / n for _, w, n in samples) \
                * scale
        values["evidence_bytes_per_step"] = \
            statistics.median(self.evidence_sizes)
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return ({k: {"value": values[k], "unit": u}
                 for k, u in END_TO_END_UNITS.items()}, wall)


def cpu_time() -> float:
    """User CPU seconds of this process and of the worker processes it has
    waited for. Time stolen by the hypervisor, time spent waiting and
    kernel time are not in it. The kernel samples the user/system split at
    each tick, so one short command's share is coarse; the sum over many
    commands is not."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + workers.ru_utime


def _report_passes(path: Path) -> bool:
    rep = json.loads(path.read_text())
    if "verdicts" in rep:          # audit
        return rep["ok"] and len(rep["verdicts"]) == M and \
            all(v == "pass" for v in rep["verdicts"].values())
    chain = rep["trust_chain"]
    return rep["ok"] and all(r["verdict"] == "pass" for r in rep["reports"]) \
        and (chain is None or chain["ok"])


def _infer_blocks(run: Path) -> int:
    return json.loads((run / "record_report.json").read_text())["blocks"]


def evidence_bytes(run: Path) -> int:
    """Blobs, index and ledger a recording leaves behind."""
    files = [run / "ledger.bin", run / "index.json",
             *(run / "store").iterdir()]
    return sum(f.stat().st_size for f in files if f.exists())


def sha256_map_reduce(data: bytes, chunk_elems: int) -> bytes:
    """The documented commitment, computed with hashlib alone: SHA-256 of
    each chunk of chunk_elems little-endian binary32 elements, then
    SHA-256 of the concatenated chunk digests."""
    import hashlib
    step = chunk_elems * 4
    chunks = [data[k:k + step] for k in range(0, len(data), step)] or [b""]
    return hashlib.sha256(b"".join(hashlib.sha256(c).digest()
                                   for c in chunks)).digest()


def replayed_through(grid, key):
    """Blocks of the consuming row whose entry state is rebuilt by
    replaying from the last checkpoint through the step of ``key``."""
    from aftune.grid import BlockId
    i, t = key.index, key.step
    if i >= grid.n_layer_blocks:
        return []
    out = []
    for j in range(grid.n_step_blocks):
        t_in = grid.step_blocks[j][0]
        ckpts = [c for c in grid.checkpoint_steps(i) if c <= t_in]
        if (max(ckpts) if ckpts else 0) <= t < t_in:
            out.append(BlockId(i, j))
    return out


# -- entry points --------------------------------------------------------


def run_once(args) -> int:
    if not (SRC / "aftune" / "__init__.py").is_file():
        log(f"no aftune sources under {SRC}; run from the repository root")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # isolated verifier workers run `python -m aftune.verifier_worker`,
    # which finds the package only through PYTHONPATH in a source checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    compileall.compile_dir(str(SRC / "aftune"), quiet=1)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    c0, t0 = cpu_time(), perf_counter()
    import numpy  # noqa: F401
    import aftune.auditor, aftune.cli  # noqa: E401,F401
    imported = (cpu_time() - c0, perf_counter() - t0)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    bench = Bench(args.workload, args.seed, args.seconds, tracer)
    try:
        t1 = perf_counter()
        bench.setup(imported)
        t2 = perf_counter()
        rounds = bench.run_rounds()
        t3 = perf_counter()
        bench.run_checks()
        log(f"phases: set-up {t2 - t1:.1f} s, rounds {t3 - t2:.1f} s, "
            f"checks {perf_counter() - t3:.1f} s")
    finally:
        if tracer:
            tracer.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    (OUT / f"samples-{args.workload}.json").write_text(
        json.dumps(bench.samples))
    log(f"{args.workload}: {rounds} rounds, {bench.attempted} operations, "
        f"{bench.failed} failed (NaN forgeries), "
        f"{len(bench.errors)} failed checks")
    metrics, wall = bench.end_to_end()
    print(f"wall-clock medians{', traced' if tracer else ''} (reference, "
          "not gated): " + json.dumps(wall))
    if tracer:
        from spans import per_layer_metrics, PER_LAYER
        print("end-to-end, traced: " + json.dumps(
            {k: v["value"] for k, v in metrics.items()}))
        spans = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(spans)
        values, absent = per_layer_metrics(tracer, bench.steps)
        print(f"spans: {len(tracer.spans)} written to {spans}")
        if absent:
            print("absent layer functions, reported as 0: "
                  + ", ".join(absent))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, (u, _) in PER_LAYER.items()}
    print(json.dumps({"correct": not bench.errors,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


def run_repeat(args) -> int:
    """Steadiness mode: N fresh processes, one per seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for k in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed + k), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"seed {args.seed + k}: exit {proc.returncode}")
            return 1
        res = json.loads(lines[-1])
        results.append(res)
        log(f"seed {args.seed + k}: {perf_counter() - t0:.1f} s, "
            f"correct {res['correct']}, {res['failed']}/{res['attempted']} "
            "failed")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'ok':>4}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        ok = "" if bound is None else \
            ("yes" if spread < bound / 3 else "NO")
        print(f"{name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6} {ok:>4}")
        print("    runs: " + " ".join(f"{v:.5g}" for v in vals))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct: {all(r['correct'] for r in results)}; failed shares: "
          f"{sorted(shares)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: run this many seeds")
    args = ap.parse_args()
    return run_repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
