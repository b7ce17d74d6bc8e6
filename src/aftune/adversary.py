"""Cheating-provider simulations and evidence-forgery attacks.

Every scenario produces a run directory whose evidence is self-
consistent (stored blobs match their hashes, the ledger is well-formed)
but dishonest in a specific way. The point is that spot-check
verification still catches each of them: by replay, or, where the
provider trained from another base model or on other data than the
manifest claims, by the hash check of the step-0 state and model inputs
the client derives from the manifest. The gradient-based attacks
measure the smallest hidden perturbation that changes model behavior;
an exact replay rejects every such perturbation, since a replayed
tensor must be the committed bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import chunked_hash_many
from .ledger import RunLedger
from .model import backward_block, build_model, forward_block, train_step
from .recorder import (LEDGER_FILE, build_manifest, record_inference,
                       record_training)
from .store import TensorStore

SCENARIOS = (
    "under-train",
    "model-substitution",
    "backdoor-poison",
    "activation-perturbation",
    "parameter-poison",
    "serve-wrong-model",
    "fabricate-output",
)


class AdversaryError(Exception):
    pass


# -- evidence rewriting --------------------------------------------------


def rewrite_key(run_dir, key: BoundaryKey, data) -> None:
    """Replace one recorded tensor with adversary-chosen content and make
    all evidence self-consistent: new blob, updated index entry, updated
    digest in every ledger commitment that covers the key."""
    run_dir = Path(run_dir)
    ledger = RunLedger.load(run_dir / LEDGER_FILE)
    store = TensorStore(run_dir)
    [digest] = chunked_hash_many([data], ledger.manifest["grid"]["chunk_size"],
                                 ledger.manifest["hash_algo"])
    put = store.put_tensor if isinstance(data, np.ndarray) else store.put_bytes
    put(key, data, digest)
    store.save_index()
    found = False
    for e in ledger.entries:
        if key in e.entries:
            e.entries[key] = digest  # the forger rewrites its own ledger
            found = True
    if not found:
        raise AdversaryError(f"{key} is not committed anywhere")
    ledger.save(run_dir / LEDGER_FILE)


def _frozen_from(freeze: int):
    """Step function of a provider that silently stops updating the
    model at step ``freeze`` while still billing for the full schedule:
    from then on it runs forward and backward but skips the paid-for
    update. Recorded with it, all evidence is internally consistent."""
    def step(state, batch):
        if batch.step < freeze:
            return train_step(state, batch)
        opt, state.opt = state.opt, None  # a step with no update
        trace = train_step(state, batch)
        state.opt = opt
        return trace
    return step


# -- scenarios -----------------------------------------------------------


@dataclass
class ScenarioResult:
    scenario: str
    run_dir: str
    tampered_blocks: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def apply_scenario(scenario: str, manifest: dict, out_dir,
                   seed: int = 0) -> ScenarioResult:
    """Produce a tampered training run for ``manifest`` at ``out_dir``."""
    out_dir = Path(out_dir)
    if scenario not in SCENARIOS:
        raise AdversaryError(f"unknown scenario {scenario!r}")
    config = GridConfig.from_dict(manifest["grid"])
    grid = BlockGrid(config)

    if scenario == "under-train":
        freeze = config.n_steps // 2
        record_training(manifest, out_dir, step=_frozen_from(freeze))
        bad = [str(BlockId(i, j)) for i in range(grid.n_layer_blocks)
               for j in range(grid.n_step_blocks)
               if grid.step_blocks[j][1] > freeze]
        return ScenarioResult(scenario, str(out_dir), bad,
                              details={"frozen_from_step": freeze})

    if scenario == "model-substitution":
        # train from a different base model, claim the agreed one
        cheap = dict(manifest["model"], seed=manifest["model"]["seed"] + 9999)
        alt = build_manifest(cheap, manifest["optimizer"],
                             manifest["dataset"]["spec"], config,
                             manifest["run_seed"], manifest["batch_size"],
                             manifest["hash_algo"])
        record_training(alt, out_dir)
        ledger = RunLedger.load(out_dir / LEDGER_FILE)
        ledger.manifest["model"] = manifest["model"]
        ledger.save(out_dir / LEDGER_FILE)
        return ScenarioResult(scenario, str(out_dir),
                              [str(BlockId(i, 0)) for i in range(grid.n_layer_blocks)])

    if scenario == "backdoor-poison":
        # train on other data, present the clean data's spec
        poisoned = dict(manifest["dataset"]["spec"])
        poisoned["seed"] = poisoned["seed"] + 7777
        alt = build_manifest(manifest["model"], manifest["optimizer"],
                             poisoned, config, manifest["run_seed"],
                             manifest["batch_size"], manifest["hash_algo"])
        record_training(alt, out_dir)
        ledger = RunLedger.load(out_dir / LEDGER_FILE)
        ledger.manifest["dataset"] = manifest["dataset"]
        ledger.save(out_dir / LEDGER_FILE)
        return ScenarioResult(scenario, str(out_dir),
                              [str(BlockId(0, j)) for j in range(grid.n_step_blocks)])

    if scenario == "activation-perturbation":
        record_training(manifest, out_dir)
        store = TensorStore(out_dir)
        rng = np.random.default_rng(seed)
        b = grid.n_boundaries // 2
        t = config.n_steps // 2
        key = BoundaryKey("activation", b, t)
        arr = store.get_tensor(key)
        delta = rng.normal(0, 1, arr.shape).astype(np.float32)
        delta *= 0.01 * np.linalg.norm(arr) / max(np.linalg.norm(delta), 1e-12)
        rewrite_key(out_dir, key, arr + delta)
        j = next(jj for jj, (a, bb) in enumerate(grid.step_blocks) if a <= t < bb)
        bad = [str(BlockId(b - 1, j))] if b > 0 else []
        if b < grid.n_layer_blocks:
            bad.append(str(BlockId(b, j)))
        return ScenarioResult(scenario, str(out_dir), bad,
                              details={"key": str(key),
                                       "rel_norm": 0.01})

    if scenario == "parameter-poison":
        record_training(manifest, out_dir)
        store = TensorStore(out_dir)
        rng = np.random.default_rng(seed)
        # poison the last checkpointed mid-run parameter tensor, else the
        # final one
        t = max((s for s in grid.checkpoint_steps(0) if s < config.n_steps),
                default=config.n_steps)
        key = BoundaryKey("parameter", 0, t)
        raw = np.frombuffer(store.get_bytes(key), "<f4").copy()
        delta = rng.normal(0, 1, raw.shape).astype(np.float32)
        delta *= 0.05 * np.linalg.norm(raw) / max(np.linalg.norm(delta), 1e-12)
        rewrite_key(out_dir, key, (raw + delta).tobytes())
        # the rows that commit the key: the one it enters (none for the
        # final state) and the one it exits
        j = -(-t // config.bs)
        bad = [str(BlockId(0, jj)) for jj in (j, j - 1)
               if jj < grid.n_step_blocks]
        return ScenarioResult(scenario, str(out_dir), bad,
                              details={"key": str(key), "step": t})

    raise AdversaryError(f"{scenario} applies to inference runs; use "
                         "apply_inference_scenario")


def apply_inference_scenario(scenario: str, manifest: dict, layers,
                             x: np.ndarray, out_dir,
                             seed: int = 0) -> ScenarioResult:
    """Tampered forward-only recordings for ``manifest``, whose model
    digest binds ``layers``, on input ``x``."""
    out_dir = Path(out_dir)
    grid = BlockGrid(GridConfig.from_dict(manifest["grid"]))
    if scenario == "serve-wrong-model":
        # serve a model with perturbed weights under the claimed digest
        rng = np.random.default_rng(seed)
        served = build_model(manifest["model"])
        for mine, theirs in zip(served, layers):
            for n in mine.params:
                p = theirs.params[n]
                mine.params[n] = p + rng.normal(0, 0.05 * (np.abs(p).mean() + 1e-6),
                                                p.shape).astype(np.float32)
        record_inference(manifest, served, x, out_dir)
        return ScenarioResult(scenario, str(out_dir),
                              [str(BlockId(i, 0)) for i in range(grid.n_layer_blocks)])
    if scenario == "fabricate-output":
        record_inference(manifest, layers, x, out_dir)
        b = grid.n_layer_blocks
        key = BoundaryKey("activation", b, 0)
        store = TensorStore(out_dir)
        fake = store.get_tensor(key)
        fake = fake + np.float32(1.0)  # claim different final scores
        rewrite_key(out_dir, key, fake)
        return ScenarioResult(scenario, str(out_dir),
                              [str(BlockId(grid.n_layer_blocks - 1, 0))])
    raise AdversaryError(f"unknown inference scenario {scenario!r}")


# -- minimum-perturbation attacks ---------------------------------------


@dataclass
class PerturbationResult:
    success: bool
    target: int | None
    original_class: int
    final_class: int
    eps: float                       # smallest successful relative bound
    boundary_rel_norms: dict[int, float]
    iterations: int

    @property
    def min_rel_norm(self) -> float:
        vals = [v for v in self.boundary_rel_norms.values() if v > 0]
        return min(vals) if vals else 0.0

    @property
    def max_rel_norm(self) -> float:
        return max(self.boundary_rel_norms.values(), default=0.0)


def _forward_with_deltas(layers, grid: BlockGrid, x, deltas,
                         boundaries=None):
    """Forward pass with a perturbation injected at interior block
    boundaries; returns boundary activations and per-block caches."""
    bounds = list(boundaries) if boundaries is not None \
        else list(range(1, grid.n_layer_blocks))
    acts = {0: x}
    caches = []
    cur = x
    for i in range(grid.n_layer_blocks):
        block = [layers[l] for l in grid.block_layers(i)]
        a, c = forward_block(block, cur)
        caches.append((block, c))
        b = i + 1
        cur = a[-1]
        if b in deltas:
            cur = cur + deltas[b]
        acts[b] = cur
    return acts, caches, bounds


def _backprop_to_deltas(grid: BlockGrid, caches, dout, deltas):
    """Gradient of the output objective w.r.t. each injected delta."""
    grads = {}
    g = dout
    for i in range(grid.n_layer_blocks - 1, -1, -1):
        b = i + 1
        if b in deltas:
            grads[b] = g
        block, c = caches[i]
        gacts, _ = backward_block(block, c, g)
        g = gacts[0]
    return grads


def pgd_activation_attack(layers, config: GridConfig, x: np.ndarray,
                          target: int | None = None, steps: int = 300,
                          lr: float = 0.02, l2: float = 0.05, seed: int = 0,
                          budget: float | None = None,
                          boundaries=None) -> PerturbationResult:
    """Find a small joint boundary perturbation that changes the
    classifier's decision.

    Gradient descent on perturbations injected at the interior block
    boundaries (all of them by default, or the subset ``boundaries``):
    the prediction objective (flip, or hit ``target``) plus an L2
    penalty on the sum of perturbation norms, followed by a shrink phase
    that scales the perturbations down as far as the flip survives.
    ``budget`` caps each boundary's relative norm (0 forbids any
    perturbation). ``layers`` must end in logits (no loss head).
    """
    grid = BlockGrid(config)
    clean_acts, _, bounds = _forward_with_deltas(layers, grid, x, {},
                                                 boundaries)
    logits = clean_acts[grid.n_layer_blocks]
    orig = int(np.argmax(logits.ravel()))
    want = target
    rng = np.random.default_rng(seed)
    clean_norms = {b: float(np.linalg.norm(clean_acts[b])) + 1e-12
                   for b in bounds}

    def flipped(lg):
        c = int(np.argmax(lg.ravel()))
        return (c == want) if want is not None else (c != orig)

    def project(d, b):
        if budget is None:
            return d
        cap = budget * clean_norms[b]
        n = float(np.linalg.norm(d))
        return d if n <= cap else (d * (cap / max(n, 1e-12)))

    def rel_norms(ds):
        return {b: float(np.linalg.norm(ds[b])) / clean_norms[b]
                for b in bounds}

    deltas = {b: project(rng.normal(0, 1e-4, clean_acts[b].shape)
                         .astype(np.float32), b).astype(np.float32)
              for b in bounds}
    total_iter = 0
    success_deltas = None
    for _ in range(steps):
        total_iter += 1
        acts, caches, _ = _forward_with_deltas(layers, grid, x, deltas)
        lg = acts[grid.n_layer_blocks].ravel()
        if flipped(lg):
            success_deltas = {b: d.copy() for b, d in deltas.items()}
            break
        p = np.exp(lg - lg.max())
        p /= p.sum()
        dlogits = p.copy()
        if want is not None:
            dlogits[want] -= 1.0           # descend CE toward the target
        else:
            dlogits[orig] = p[orig] - 1.0
            dlogits = -dlogits             # ascend CE away from original
        dout = dlogits.reshape(acts[grid.n_layer_blocks].shape) \
            .astype(np.float32)
        grads = _backprop_to_deltas(grid, caches, dout, deltas)
        # one global normalization, so per-boundary allocation follows
        # each boundary's actual sensitivity
        gnorm = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                            for g in grads.values())) + 1e-12
        for b in bounds:
            d = deltas[b] - lr * clean_norms[b] * grads[b] / gnorm \
                - lr * l2 * deltas[b]
            deltas[b] = project(d, b).astype(np.float32)

    if success_deltas is None:
        return PerturbationResult(False, want, orig, orig,
                                  budget if budget is not None else float("nan"),
                                  rel_norms(deltas), total_iter)

    # shrink phase: scale the successful direction down until the flip breaks
    lo_deltas = success_deltas
    scale = 1.0
    for _ in range(200):
        total_iter += 1
        trial = {b: (d * 0.97).astype(np.float32)
                 for b, d in lo_deltas.items()}
        acts, _, _ = _forward_with_deltas(layers, grid, x, trial)
        if not flipped(acts[grid.n_layer_blocks].ravel()):
            break
        lo_deltas = trial
        scale *= 0.97
    acts, _, _ = _forward_with_deltas(layers, grid, x, lo_deltas)
    rel = rel_norms(lo_deltas)
    return PerturbationResult(True, want, orig,
                              int(np.argmax(acts[grid.n_layer_blocks].ravel())),
                              max(rel.values()), rel, total_iter)


def boundary_attack_profile(layers, config: GridConfig, x: np.ndarray,
                            target: int | None = None, steps: int = 300,
                            seed: int = 0) -> dict[int, float]:
    """Minimal successful relative perturbation at each interior
    boundary, attacked one boundary at a time.

    The profile is what shifts with bl: larger layer blocks drop the
    shallow boundaries (which need the largest perturbations) and the
    deepest ones (which need the smallest), so the per-run maximum falls
    and the minimum rises as bl grows.
    """
    grid = BlockGrid(config)
    profile = {}
    for b in range(1, grid.n_layer_blocks):
        res = pgd_activation_attack(layers, config, x, target=target,
                                    steps=steps, seed=seed, boundaries=[b])
        profile[b] = res.max_rel_norm if res.success else float("inf")
    return profile


@dataclass
class PoisonResult:
    success: bool
    rel_delta_norm: float           # ||delta theta|| / ||theta||
    target: int
    trigger_class: int
    clean_accuracy_before: float
    clean_accuracy_after: float
    iterations: int


def _logits(layers, x):
    acts, _ = forward_block(layers, x)
    return acts[-1]


def _accuracy(layers, xs, ys):
    lg = _logits(layers, xs)
    return float((np.argmax(lg, axis=-1) == ys).mean())


def parameter_poison_attack(layers, trigger: np.ndarray, target: int,
                            clean_x: np.ndarray, clean_y: np.ndarray,
                            steps: int = 400, lr: float = 0.05,
                            l2: float = 1e-2) -> PoisonResult:
    """Smallest parameter edit that makes the trigger input classify as
    ``target`` while clean behavior is preserved.

    Gradient descent on CE(trigger -> target) + CE(clean batch) +
    l2 * ||delta theta||^2; measures the final relative edit norm, which
    is what a parameter hash check confronts.
    """
    base = [{n: p.copy() for n, p in l.params.items()} for l in layers]
    lg = _logits(layers, trigger)
    trig_class = int(np.argmax(lg.ravel()))
    acc_before = _accuracy(layers, clean_x, clean_y)

    def ce_grad(xs, ys):
        acts, caches = forward_block(layers, xs)
        logits = acts[-1]
        p = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, np.asarray(ys)[..., None], 1.0, axis=-1)
        dout = (p - onehot) / len(np.atleast_2d(xs))
        _, pgrads = backward_block(layers, caches, dout.astype(np.float32))
        return pgrads

    ys_t = np.array([target])
    it = 0
    for it in range(1, steps + 1):
        g_t = ce_grad(trigger, ys_t)
        g_c = ce_grad(clean_x, clean_y)
        for li, layer in enumerate(layers):
            for n in layer.params:
                delta = layer.params[n] - base[li][n]
                step = g_t[li][n] + g_c[li][n] + 2 * l2 * delta
                layer.params[n] = (layer.params[n]
                                   - np.float32(lr) * step.astype(np.float32))
        lg = _logits(layers, trigger)
        if int(np.argmax(lg.ravel())) == target and it % 10 == 0:
            break

    num = sqsum = 0.0
    for li, layer in enumerate(layers):
        for n in layer.params:
            num += float(np.sum((layer.params[n] - base[li][n]) ** 2))
            sqsum += float(np.sum(base[li][n].astype(np.float64) ** 2))
    rel = (num ** 0.5) / max(sqsum ** 0.5, 1e-12)
    lg = _logits(layers, trigger)
    return PoisonResult(
        success=int(np.argmax(lg.ravel())) == target,
        rel_delta_norm=rel, target=target, trigger_class=trig_class,
        clean_accuracy_before=acc_before,
        clean_accuracy_after=_accuracy(layers, clean_x, clean_y),
        iterations=it,
    )
