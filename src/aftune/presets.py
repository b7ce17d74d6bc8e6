"""Ready-made desk-scale models and run setups.

The toy classifier (an MLP on concentric 2-D classes) is the reference
subject for attacks and examples; the attention and unstable presets
exercise sequence layers and the non-deterministic-layer isolation rule.
"""

from __future__ import annotations

from .grid import GridConfig

PRESETS = ("mlp", "attention", "unstable")


def mlp_model(seed: int = 7, n_classes: int = 3, width: int = 16,
              with_head: bool = True) -> dict:
    layers = [
        {"kind": "linear", "d_in": 2, "d_out": width},
        {"kind": "relu"},
        {"kind": "linear", "d_in": width, "d_out": width},
        {"kind": "layer-norm", "dim": width},
        {"kind": "linear", "d_in": width, "d_out": n_classes},
    ]
    if with_head:
        layers.append({"kind": "softmax-cross-entropy-head",
                       "n_classes": n_classes})
    return {"seed": seed, "layers": layers}


def attack_mlp_model(seed: int = 7, n_classes: int = 3, width: int = 16) -> dict:
    """Deeper logits-only MLP used by the perturbation attacks: eight
    layers, so interior block boundaries shift meaningfully with bl."""
    return {"seed": seed, "layers": [
        {"kind": "linear", "d_in": 2, "d_out": width},
        {"kind": "relu"},
        {"kind": "linear", "d_in": width, "d_out": width},
        {"kind": "relu"},
        {"kind": "linear", "d_in": width, "d_out": width},
        {"kind": "relu"},
        {"kind": "linear", "d_in": width, "d_out": width},
        {"kind": "linear", "d_in": width, "d_out": n_classes},
    ]}


def attention_model(seed: int = 7, n_classes: int = 2, dim: int = 4) -> dict:
    return {"seed": seed, "layers": [
        {"kind": "linear", "d_in": dim, "d_out": dim},
        {"kind": "attention-head", "dim": dim},
        {"kind": "layer-norm", "dim": dim},
        {"kind": "linear", "d_in": dim, "d_out": n_classes},
        {"kind": "softmax-cross-entropy-head", "n_classes": n_classes},
    ]}


def unstable_model(seed: int = 7, n_classes: int = 3, width: int = 8) -> dict:
    """MLP with one layer lacking a deterministic kernel (layer index 2);
    pair with isolate_layers=(2,) in the grid config."""
    return {"seed": seed, "layers": [
        {"kind": "linear", "d_in": 2, "d_out": width},
        {"kind": "relu"},
        {"kind": "unstable-scale", "dim": width},
        {"kind": "linear", "d_in": width, "d_out": n_classes},
        {"kind": "softmax-cross-entropy-head", "n_classes": n_classes},
    ]}


def dataset_for(preset: str, seed: int = 3, n: int = 64) -> dict:
    if preset == "attention":
        return {"kind": "tokens", "n": n, "n_classes": 2, "dim": 4,
                "seq": 3, "seed": seed}
    return {"kind": "circles", "n": n, "n_classes": 3, "seed": seed}


def model_for(preset: str, seed: int = 7) -> dict:
    if preset == "mlp":
        return mlp_model(seed)
    if preset == "attention":
        return attention_model(seed)
    if preset == "unstable":
        return unstable_model(seed)
    raise ValueError(f"unknown preset {preset!r}")


def grid_for(preset: str, n_steps: int = 8, bl: int = 2, bs: int = 2,
             ic=2, ia: int = 1, **kw) -> GridConfig:
    n_layers = len(model_for(preset)["layers"])
    isolate = (2,) if preset == "unstable" else ()
    return GridConfig(n_layers=n_layers, n_steps=n_steps, bl=bl, bs=bs,
                      ic=ic, ia=ia, isolate_layers=isolate, **kw)


ATTACK_SAMPLE = 2  # dataset row used for perturbation-trend demonstrations


def trained_attack_classifier(train_steps: int = 300):
    """The shipped attack subject: the deep MLP trained to convergence
    on the circles data. Returns (logit layers, dataset)."""
    from .data import make_dataset
    from .model import ModelState, train_step
    spec = attack_mlp_model()
    full = {"seed": spec["seed"],
            "layers": spec["layers"] + [{"kind": "softmax-cross-entropy-head",
                                         "n_classes": 3}]}
    ds = make_dataset(dataset_for("mlp", n=256))
    state = ModelState(full, {"kind": "adamw", "lr": 0.01})
    for t in range(train_steps):
        train_step(state, ds.batch(11, t, 32))
    return state.layers[:-1], ds


def default_optimizer(kind: str = "adamw", lr: float = 0.01) -> dict:
    if kind == "adamw":
        return {"kind": "adamw", "lr": lr}
    return {"kind": "sgd-momentum", "lr": lr, "momentum": 0.9}
