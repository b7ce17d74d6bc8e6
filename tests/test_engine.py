"""Training engine: hand-computed forward oracles, finite-difference
gradient oracles, optimizer update oracles, and bitwise determinism."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from aftune.layers import (AttentionHead, LayerNorm, Linear, ReLU,
                           SoftmaxCrossEntropyHead, UnstableScale, build_layer)
from aftune.grid import BoundaryKey
from aftune.model import (ModelState, build_model, forward_block,
                          load_param_bytes, param_bytes, train_step)
from aftune.optim import AdamW, SGDMomentum, build_optimizer
from aftune.presets import (dataset_for, default_optimizer, mlp_model,
                            model_for)
from aftune.data import make_dataset
from aftune.rng import rng_for
from aftune.tensors import BlobError, NonFiniteError
from aftune.grid import BlockId
from aftune.verifier import REFUSED, refusal

# -- hand-unrolled scalar oracles -----------------------------------------


def test_linear_forward_hand_case():
    layer = Linear(2, 3)
    layer.params["w"] = np.array([[1, 2, 3], [4, 5, 6]], np.float32)
    layer.params["b"] = np.array([1, 1, 1], np.float32)
    y, _ = layer.forward(np.array([[1.0, 2.0]], np.float32))
    # scalar arithmetic: [1*1+2*4+1, 1*2+2*5+1, 1*3+2*6+1]
    assert y.tolist() == [[10.0, 13.0, 16.0]]


def test_relu_forward_hand_case():
    y, cache = ReLU().forward(np.array([-2.0, 0.0, 3.5], np.float32))
    assert y.tolist() == [0.0, 0.0, 3.5]
    dx, _ = ReLU().backward(cache, np.ones(3, np.float32))
    assert dx.tolist() == [0.0, 0.0, 1.0]


def test_layernorm_forward_hand_case():
    layer = LayerNorm(2)
    x = np.array([[1.0, 3.0]], np.float64)
    y, _ = layer.forward(x)
    # mu = 2, var = 1, xhat = [-1, 1] / sqrt(1 + eps)
    inv = 1.0 / math.sqrt(1.0 + 1e-5)
    assert y[0] == pytest.approx([-inv, inv], rel=1e-12)


def test_cross_entropy_head_hand_case():
    head = SoftmaxCrossEntropyHead(2)
    loss, _ = head.forward(np.array([[0.0, 0.0]], np.float64),
                           labels=np.array([0]))
    assert loss[0] == pytest.approx(math.log(2.0), rel=1e-12)
    # certain and correct: loss -> 0
    loss, _ = head.forward(np.array([[30.0, 0.0]], np.float64),
                           labels=np.array([0]))
    assert loss[0] == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_head_is_neg_log_prob():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    head = SoftmaxCrossEntropyHead(4)
    loss, _ = head.forward(logits, labels=labels)
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
    expect = -np.log(p[np.arange(6), labels])
    assert np.allclose(loss, expect, rtol=1e-12)
    assert (loss >= 0).all()


def test_two_layer_network_hand_unrolled():
    """Full scalar unroll of linear -> relu -> linear on one sample."""
    l1, l2 = Linear(2, 2), Linear(2, 1)
    l1.params["w"] = np.array([[1.0, -1.0], [0.5, 2.0]], np.float32)
    l1.params["b"] = np.array([0.0, 0.5], np.float32)
    l2.params["w"] = np.array([[2.0], [-3.0]], np.float32)
    l2.params["b"] = np.array([1.0], np.float32)
    x = np.array([[2.0, 1.0]], np.float32)
    acts, _ = forward_block([l1, ReLU(), l2], x)
    # h = [2*1+1*0.5, 2*(-1)+1*2+0.5] = [2.5, 0.5]; relu keeps both
    # y = 2.5*2 + 0.5*(-3) + 1 = 4.5
    assert acts[1].tolist() == [[2.5, 0.5]]
    assert acts[2].tolist() == [[2.5, 0.5]]
    assert acts[3].tolist() == [[4.5]]


# -- finite-difference gradient oracle ------------------------------------

FD_H = 1e-5
FD_RTOL = 1e-3


def _layer_instance(kind, rng):
    dim = int(rng.integers(2, 9))
    if kind == "linear":
        return Linear(dim, int(rng.integers(2, 9)),
                      rng=rng_for(int(rng.integers(1 << 30)), "init"))
    if kind == "relu":
        return ReLU()
    if kind == "layer-norm":
        layer = LayerNorm(dim)
        layer.params["gain"] = rng.normal(1, 0.2, dim).astype(np.float32)
        layer.params["bias"] = rng.normal(0, 0.2, dim).astype(np.float32)
        return layer
    if kind == "attention-head":
        return AttentionHead(dim, rng=rng_for(int(rng.integers(1 << 30)), "init"))
    if kind == "softmax-cross-entropy-head":
        return SoftmaxCrossEntropyHead(dim)
    if kind == "unstable-scale":
        layer = UnstableScale(dim, force_deterministic=True)
        layer.params["scale"] = rng.normal(1, 0.3, dim).astype(np.float32)
        return layer
    raise AssertionError(kind)


def _layer_input(layer, rng):
    batch = int(rng.integers(1, 4))
    if isinstance(layer, Linear):
        d = layer.d_in
    elif isinstance(layer, AttentionHead):
        return rng.normal(size=(batch, int(rng.integers(2, 5)), layer.dim))
    elif isinstance(layer, (LayerNorm, UnstableScale)):
        d = layer.dim
    elif isinstance(layer, SoftmaxCrossEntropyHead):
        d = layer.n_classes
    else:
        d = int(rng.integers(2, 9))
    x = rng.normal(size=(batch, d))
    if isinstance(layer, ReLU):
        # keep inputs away from the kink so finite differences are valid
        x = np.where(np.abs(x) < 0.05, 0.2, x)
    return x


def _scalar_loss(layer, x, weights, labels):
    y, _ = layer.forward(x, labels=labels)
    return float(np.sum(y * weights))


def _fd_check(layer, rng):
    """Central finite differences in binary64 against the analytic
    backward, for the input and every parameter tensor."""
    x = _layer_input(layer, rng)
    labels = None
    if isinstance(layer, SoftmaxCrossEntropyHead):
        labels = rng.integers(0, layer.n_classes, size=x.shape[:-1])
    saved = {n: p.copy() for n, p in layer.params.items()}
    layer.params = {n: p.astype(np.float64) for n, p in layer.params.items()}
    y, cache = layer.forward(x, labels=labels)
    weights = rng.normal(size=y.shape)
    dx, dparams = layer.backward(cache, weights, labels=labels)

    def fd(base):
        # perturb base in place; forward reads it through the closure
        grad = np.zeros_like(base)
        flat, gflat = base.reshape(-1), grad.reshape(-1)
        for k in range(base.size):
            orig = flat[k]
            flat[k] = orig + FD_H
            up = _scalar_loss(layer, x, weights, labels)
            flat[k] = orig - FD_H
            down = _scalar_loss(layer, x, weights, labels)
            flat[k] = orig
            gflat[k] = (up - down) / (2 * FD_H)
        return grad

    def check(analytic, numeric, what):
        scale = max(float(np.linalg.norm(numeric)), 1e-8)
        err = float(np.linalg.norm(np.asarray(analytic, np.float64) - numeric))
        assert err / scale < FD_RTOL, \
            f"{layer.kind} {what}: rel error {err / scale:.2e}"

    check(dx, fd(x), "input")
    for name in layer.params:
        check(dparams[name], fd(layer.params[name]), f"param {name!r}")
    layer.params = saved


@pytest.mark.parametrize("kind", ["linear", "relu", "layer-norm",
                                  "attention-head",
                                  "softmax-cross-entropy-head",
                                  "unstable-scale"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(hash(kind) % (1 << 32))
    for _ in range(100):
        _fd_check(_layer_instance(kind, rng), rng)


# -- optimizer oracles -----------------------------------------------------


def test_sgd_momentum_matches_hand_recurrence():
    layer = Linear(1, 1)
    layer.params = {"w": np.array([[1.0]], np.float32),
                    "b": np.array([0.0], np.float32)}
    opt = SGDMomentum([layer], lr=0.1, momentum=0.9)
    p, v = 1.0, 0.0
    for g in (1.0, -2.0, 0.5):
        opt.step([layer], [{"w": np.array([[g]], np.float32),
                            "b": np.zeros(1, np.float32)}])
        v = 0.9 * v + g
        p = p - 0.1 * v
        assert layer.params["w"][0, 0] == pytest.approx(p, rel=1e-6)


def test_sgd_weight_decay():
    layer = Linear(1, 1)
    layer.params = {"w": np.array([[2.0]], np.float32),
                    "b": np.zeros(1, np.float32)}
    opt = SGDMomentum([layer], lr=0.5, momentum=0.0, weight_decay=0.1)
    opt.step([layer], [{"w": np.zeros((1, 1), np.float32),
                        "b": np.zeros(1, np.float32)}])
    # g_eff = 0 + 0.1 * 2 = 0.2; w = 2 - 0.5 * 0.2
    assert layer.params["w"][0, 0] == pytest.approx(1.9, rel=1e-6)


def test_adamw_matches_independent_recurrence():
    rng = np.random.default_rng(2)
    layer = Linear(3, 2)
    opt = AdamW([layer], lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                weight_decay=0.01)
    # float64 shadow of the published update rule
    shadow = {n: p.astype(np.float64) for n, p in layer.params.items()}
    m = {n: np.zeros_like(p) for n, p in shadow.items()}
    v = {n: np.zeros_like(p) for n, p in shadow.items()}
    for t in range(1, 6):
        grads = {n: rng.normal(size=p.shape).astype(np.float32)
                 for n, p in layer.params.items()}
        opt.step([layer], [grads])
        for n in shadow:
            g = grads[n].astype(np.float64)
            m[n] = 0.9 * m[n] + 0.1 * g
            v[n] = 0.999 * v[n] + 0.001 * g * g
            mhat = m[n] / (1 - 0.9 ** t)
            vhat = v[n] / (1 - 0.999 ** t)
            shadow[n] = shadow[n] - 0.01 * 0.01 * shadow[n]
            shadow[n] = shadow[n] - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.allclose(layer.params[n], shadow[n], rtol=1e-4,
                               atol=1e-6)


def test_non_finite_gradient_rejected():
    layer = Linear(1, 1)
    opt = build_optimizer({"kind": "sgd-momentum", "lr": 0.1}, [layer])
    with pytest.raises(NonFiniteError):
        opt.step([layer], [{"w": np.array([[np.inf]], np.float32),
                            "b": np.zeros(1, np.float32)}])


def _two_linear_layers():
    layers = [Linear(2, 3, rng=np.random.default_rng(0)),
              Linear(3, 2, rng=np.random.default_rng(1))]
    opt = AdamW(layers, lr=0.01, weight_decay=0.01)
    opt.step(layers, [{n: np.ones_like(p) for n, p in l.params.items()}
                      for l in layers])
    return layers, opt


def _optimizer_snapshot(layers, opt):
    return ([param_bytes(l) for l in layers],
            [opt.state_bytes(li, l) for li, l in enumerate(layers)],
            opt.step_count)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_non_finite_gradient_changes_nothing_and_names_the_first():
    layers, opt = _two_linear_layers()
    before = _optimizer_snapshot(layers, opt)
    grads = [{n: np.ones_like(p) for n, p in l.params.items()}
             for l in layers]
    grads[1]["w"][0, 0] = np.nan
    grads[1]["b"][0] = np.inf
    with pytest.raises(NonFiniteError, match="layer 1 param 'w'"):
        opt.step(layers, grads)
    assert _optimizer_snapshot(layers, opt) == before
    # a float64 gradient that overflows float32 is non-finite too
    grads = [{n: np.ones(p.shape) for n, p in l.params.items()}
             for l in layers]
    grads[0]["b"][1] = 1e300
    with pytest.raises(NonFiniteError, match="layer 0 param 'b'"):
        opt.step(layers, grads)
    assert _optimizer_snapshot(layers, opt) == before


def test_gradient_of_another_shape_is_rejected_before_any_change():
    layers, opt = _two_linear_layers()
    before = _optimizer_snapshot(layers, opt)
    grads = [{n: np.ones_like(p) for n, p in l.params.items()}
             for l in layers]
    grads[1]["w"] = grads[1]["w"].T.copy()  # same size, transposed
    with pytest.raises(ValueError, match="layer 1 param 'w'"):
        opt.step(layers, grads)
    assert _optimizer_snapshot(layers, opt) == before


def test_optimizer_state_bytes_roundtrip_counter():
    layer = Linear(2, 2)
    opt = AdamW([layer], lr=0.01)
    opt.step([layer], [{n: np.ones_like(p) for n, p in layer.params.items()}])
    blob = opt.state_bytes(0, layer)
    assert int.from_bytes(blob[:4], "little") == 1
    n_state = sum(p.size for p in layer.params.values()) * len(opt.state_names)
    assert len(blob) == 4 + 4 * n_state


# -- determinism -----------------------------------------------------------


def test_model_init_is_reproducible():
    spec = mlp_model()
    a, b = build_model(spec), build_model(spec)
    for la, lb in zip(a, b):
        assert param_bytes(la) == param_bytes(lb)


@pytest.mark.parametrize("preset", ["mlp", "attention", "unstable"])
@pytest.mark.parametrize("which", ["none", "some", "all"])
def test_model_built_from_blobs_is_bitwise_build_then_load(preset, which):
    spec = model_for(preset)
    # blobs of another seed, so a loaded layer differs from its init
    other = build_model(dict(spec, seed=spec["seed"] + 1))
    n = len(spec["layers"])
    chosen = {"none": [], "some": range(0, n, 2), "all": range(n)}[which]
    blobs = {l: param_bytes(other[l]) for l in chosen}
    reference = build_model(spec)
    for l, blob in blobs.items():
        load_param_bytes(reference[l], blob)
    built = build_model(spec, blobs)
    assert [l.kind for l in built] == [l.kind for l in reference]
    for got, want in zip(built, reference):
        assert list(got.params) == list(want.params)
        for name, p in want.params.items():
            q = got.params[name]
            assert (q.dtype, q.shape) == (p.dtype, p.shape)
            assert q.tobytes() == p.tobytes()


@pytest.mark.parametrize("blobs", [{9: b""}, {-1: b""}, {0: b"\0" * 4}])
def test_model_built_from_a_stray_or_short_blob_is_refused(blobs):
    with pytest.raises(BlobError):
        build_model(model_for("mlp"), blobs)


STATE_OPTIMIZER = {"kind": "adamw", "lr": 0.01}


def _trained_state(preset, steps=5):
    ds = make_dataset(dataset_for(preset))
    state = ModelState(model_for(preset), STATE_OPTIMIZER)
    for t in range(steps):
        train_step(state, ds.batch(11, t, 16))
    return state


@pytest.mark.parametrize("preset", ["mlp", "attention", "unstable"])
def test_state_built_from_its_blobs_gives_them_back(preset):
    spec, state = model_for(preset), _trained_state(preset)
    n = len(spec["layers"])
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            idx = range(lo, hi)
            keys = [BoundaryKey(kind, l, 5) for l in idx
                    for kind in ("parameter", "optimizer-state")]
            built = ModelState(spec, STATE_OPTIMIZER, idx,
                               {k: state.blob(k) for k in keys})
            assert built.indices == list(idx)
            assert built.opt.step_count == 5
            for k in keys:
                assert built.blob(k) == state.blob(k), (lo, hi, str(k))


def test_optimizer_blobs_of_some_layers_or_counters_are_refused():
    spec, state = model_for("mlp"), _trained_state("mlp")
    keys = [BoundaryKey(kind, l, 5) for l in (2, 3)
            for kind in ("parameter", "optimizer-state")]
    blobs = {k: state.blob(k) for k in keys}
    assert ModelState(spec, STATE_OPTIMIZER, [2, 3], blobs).opt.step_count \
        == 5
    last = BoundaryKey("optimizer-state", 3, 5)
    some = {k: b for k, b in blobs.items() if k != last}
    stray = {**blobs, BoundaryKey("optimizer-state", 4, 5):
             state.blob(BoundaryKey("optimizer-state", 4, 5))}
    forged = {**blobs, last: struct.pack("<I", 6) + blobs[last][4:]}
    for partial, why in ((some, "optimizer-state blobs for layers"),
                         (stray, "optimizer-state blobs for layers"),
                         (forged, "inconsistent optimizer counters")):
        with pytest.raises(BlobError, match=f"^{why}") as e:
            ModelState(spec, STATE_OPTIMIZER, [2, 3], partial)
        report = refusal(BlockId(1, 2), e.value)
        assert report.verdict == REFUSED
        assert report.note.startswith(f"cannot check the block: "
                                      f"BlobError('{why}")


def test_rng_is_call_order_independent():
    a = rng_for(3, "init", step=1, index=2).normal(size=4)
    _ = rng_for(3, "other").normal(size=100)  # unrelated draws in between
    b = rng_for(3, "init", step=1, index=2).normal(size=4)
    assert a.tolist() == b.tolist()
    assert rng_for(3, "init", step=1, index=3).normal(size=4).tolist() \
        != a.tolist()


def test_training_is_bitwise_repeatable():
    ds = make_dataset(dataset_for("mlp"))

    def run():
        state = ModelState(mlp_model(), {"kind": "adamw", "lr": 0.01})
        losses = [train_step(state, ds.batch(11, t, 8)).loss for t in range(5)]
        return losses, [param_bytes(l) for l in state.layers]

    (losses_a, params_a), (losses_b, params_b) = run(), run()
    assert losses_a == losses_b
    assert params_a == params_b


def test_batch_composition_is_pure():
    ds = make_dataset(dataset_for("mlp"))
    a, b = ds.batch(11, 3, 8), ds.batch(11, 3, 8)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.labels.tolist() == b.labels.tolist()
    assert ds.batch(12, 3, 8).inputs.tobytes() != a.inputs.tobytes()


def test_unstable_layer_forward_is_unstable():
    layer = UnstableScale(4)
    x = np.ones(4, np.float32) * 3
    outs = {layer.forward(x)[0].tobytes() for _ in range(14)}
    assert len(outs) > 1
    det = UnstableScale(4, force_deterministic=True)
    assert len({det.forward(x)[0].tobytes() for _ in range(14)}) == 1


def test_unstable_jitter_depends_only_on_the_layers_own_calls():
    # two states built from the same blobs step to the same bits, though
    # another unstable layer ran in between
    spec, opt = model_for("unstable"), default_optimizer()
    fresh = ModelState(spec, opt)
    blobs = {BoundaryKey(kind, l, 0): fresh.blob(BoundaryKey(kind, l, 0))
             for l in range(len(spec["layers"]))
             for kind in ("parameter", "optimizer-state")}
    batch = make_dataset(dataset_for("unstable")).batch(11, 0, 8)
    first = train_step(ModelState(spec, opt, None, blobs), batch)
    UnstableScale(4).forward(np.ones(4, np.float32))
    second = train_step(ModelState(spec, opt, None, blobs), batch)
    assert [a.tobytes() for a in first.acts] == \
        [a.tobytes() for a in second.acts]


def test_build_layer_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_layer({"kind": "conv"})


def test_loss_decreases_on_toy_problem():
    ds = make_dataset(dataset_for("mlp"))
    state = ModelState(mlp_model(), {"kind": "adamw", "lr": 0.01})
    losses = [train_step(state, ds.batch(11, t, 32)).loss for t in range(60)]
    assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])


# -- the flat update against the per-tensor update rule --------------------


class _PerTensorOptimizer:
    """Reference for the optimizer step: the same update rule applied one
    parameter tensor at a time, with its own per-tensor state, as the
    optimizers ran before their state moved to flat buffers. Its
    ``_update`` methods are kept verbatim here as the oracle."""

    def __init__(self, spec: dict, layers):
        self.kind = spec["kind"]
        opt = build_optimizer(spec, layers)
        self.hyper, self.state_names = opt.hyper, opt.state_names
        self.step_count = 0
        self.slots = {(li, pname): {s: np.zeros_like(p)
                                    for s in self.state_names}
                      for li, layer in enumerate(layers)
                      for pname, p in layer.params.items()}

    def step(self, layers, param_grads: list[dict]) -> None:
        self.step_count += 1
        update = (self._sgd_update if self.kind == "sgd-momentum"
                  else self._adamw_update)
        for li, layer in enumerate(layers):
            for pname in layer.params:
                g = np.asarray(param_grads[li][pname], dtype=np.float32)
                if not np.all(np.isfinite(g)):
                    raise NonFiniteError(
                        f"non-finite gradient for layer {li} param {pname!r}")
                update(layer.params[pname], g, self.slots[(li, pname)])

    def _sgd_update(self, p, g, slot):
        lr = np.float32(self.hyper["lr"])
        mu = np.float32(self.hyper["momentum"])
        wd = np.float32(self.hyper["weight_decay"])
        if wd != 0:
            g = g + wd * p
        v = slot["velocity"]
        v *= mu
        v += g
        p -= lr * v

    def _adamw_update(self, p, g, slot):
        h = self.hyper
        lr, b1, b2 = np.float32(h["lr"]), np.float32(h["beta1"]), np.float32(h["beta2"])
        eps, wd = np.float32(h["eps"]), np.float32(h["weight_decay"])
        t = self.step_count
        m, v = slot["m"], slot["v"]
        m *= b1
        m += (np.float32(1) - b1) * g
        v *= b2
        v += (np.float32(1) - b2) * g * g
        mhat = m / np.float32(1.0 - float(h["beta1"]) ** t)
        vhat = v / np.float32(1.0 - float(h["beta2"]) ** t)
        if wd != 0:
            p -= lr * wd * p
        p -= lr * mhat / (np.sqrt(vhat) + eps)

    def state_bytes(self, layer_idx: int, layer) -> bytes:
        parts = [struct.pack("<I", self.step_count)]
        for pname in layer.params:
            for sname in self.state_names:
                parts.append(self.slots[(layer_idx, pname)][sname]
                             .astype("<f4").tobytes())
        return b"".join(parts)


ORACLE_OPTIMIZERS = {
    "adamw": {"kind": "adamw", "lr": 0.01},
    "adamw-wd": {"kind": "adamw", "lr": 0.01, "weight_decay": 0.01},
    "sgd-momentum-wd": {"kind": "sgd-momentum", "lr": 0.01, "momentum": 0.9,
                        "weight_decay": 0.1},
}
ORACLE_STEPS = 200


def _trajectory(preset, opt_spec, reference, keep=()):
    """Every step's parameter and optimizer-state blobs of a 200-step run
    of ``preset``, by the flat optimizer or the per-tensor ``reference``,
    and the step traces of the steps in ``keep``. Each run builds its own
    unstable layer, whose call counter starts from 0, so both runs see
    the same jitter."""
    ds = make_dataset(dataset_for(preset))
    state = ModelState(model_for(preset), opt_spec)
    if reference:
        state.opt = _PerTensorOptimizer(opt_spec, state.layers)
    blobs, traces = [], {}
    for t in range(ORACLE_STEPS):
        batch = ds.batch(11, t, 16)
        trace = train_step(state, batch)
        if t in keep:
            traces[t] = (batch, trace)
        blobs.append(([param_bytes(l) for l in state.layers],
                      [state.opt.state_bytes(li, l)
                       for li, l in enumerate(state.layers)]))
    return blobs, traces


@pytest.mark.parametrize("opt", sorted(ORACLE_OPTIMIZERS))
@pytest.mark.parametrize("preset", ["mlp", "attention", "unstable"])
def test_flat_update_is_bitwise_the_per_tensor_rule(preset, opt):
    spec = ORACLE_OPTIMIZERS[opt]
    flat, _ = _trajectory(preset, spec, False)
    reference, _ = _trajectory(preset, spec, True)
    for t, (got, want) in enumerate(zip(flat, reference)):
        assert got == want, f"step {t} differs"
    assert len(flat) == ORACLE_STEPS


@pytest.mark.parametrize("layer", [ReLU(), SoftmaxCrossEntropyHead(3)],
                         ids=["relu", "loss-head"])
@pytest.mark.parametrize("opt", sorted(ORACLE_OPTIMIZERS))
def test_step_of_a_slice_without_parameters_only_counts(layer, opt):
    spec = ORACLE_OPTIMIZERS[opt]
    flat = build_optimizer(spec, [layer])
    reference = _PerTensorOptimizer(spec, [layer])
    for _ in range(3):
        flat.step([layer], [{}])
        reference.step([layer], [{}])
    assert flat.state_bytes(0, layer) == reference.state_bytes(0, layer) \
        == struct.pack("<I", 3)


@pytest.mark.parametrize("opt", sorted(ORACLE_OPTIMIZERS))
@pytest.mark.parametrize("layer_ids", [[0, 1], [2, 3, 4, 5]],
                         ids=["first-layers", "with-loss-head"])
def test_replayer_from_mid_run_blobs_continues_bitwise(layer_ids, opt):
    # the reference trajectory's state at step k, loaded into a block
    # replayer, replays steps k.. into the reference's own blobs
    spec, k = ORACLE_OPTIMIZERS[opt], 120
    replayed = range(k, k + 6)
    reference, traces = _trajectory("mlp", spec, True, keep=replayed)
    params, states = reference[k - 1]
    blobs = {BoundaryKey(kind, l, k): blob[l] for l in layer_ids
             for kind, blob in (("parameter", params),
                                ("optimizer-state", states))}
    replayer = ModelState(model_for("mlp"), spec, layer_ids, blobs)
    for t in replayed:
        batch, trace = traces[t]
        replayer.replay_step(trace.acts[layer_ids[0]],
                             trace.gacts[layer_ids[-1] + 1],
                             labels=batch.labels)
        params, states = reference[t]
        for l in layer_ids:
            assert replayer.blob(BoundaryKey("parameter", l, t)) == params[l]
            assert replayer.blob(BoundaryKey("optimizer-state", l, t)) \
                == states[l]
