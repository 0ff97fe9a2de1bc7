"""Token-wise neural indicator: a small residual MLP trained from scratch.

Per-position inputs are the top-K1 token ids, the top-K2 log-probabilities,
and the denoiser's per-position feature vector. Token embeddings are
concatenated (not averaged) before projection so rank order is preserved.
Everything runs in float64 numpy with hand-written gradients so training is
bit-reproducible and the gradients can be checked against finite differences.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

CHECKPOINT_MAGIC = b"MOIND\x01\n"

__all__ = [
    "IndicatorConfig",
    "IndicatorModel",
    "TrainHyper",
    "TrainState",
    "CheckpointError",
    "batch_arrays",
    "loss_and_grad",
    "adamw_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class IndicatorConfig:
    vocab_size: int
    k1: int = 4
    k2: int = 8
    feature_dim: int = 11
    emb_dim: int = 32
    hidden_dim: int = 128
    depth: int = 3

    def __post_init__(self) -> None:
        for name in ("vocab_size", "k1", "k2", "feature_dim", "emb_dim", "hidden_dim", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.k1 > self.vocab_size or self.k2 > self.vocab_size:
            raise ValueError("K1/K2 cannot exceed the vocabulary size")
        if self.hidden_dim < 3:
            raise ValueError("hidden_dim must be >= 3 to split across input groups")

    @property
    def group_widths(self) -> tuple:
        # the three projections fill disjoint slices of the backbone width
        d = self.hidden_dim // 3
        return (self.hidden_dim - 2 * d, d, d)


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def _silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _param_shapes(cfg: IndicatorConfig) -> dict:
    d_tok, d_log, d_hid = cfg.group_widths
    H = cfg.hidden_dim
    shapes = {
        "emb": (cfg.vocab_size, cfg.emb_dim),
        "w_tok": (cfg.k1 * cfg.emb_dim, d_tok),
        "b_tok": (d_tok,),
        "w_log": (cfg.k2, d_log),
        "b_log": (d_log,),
        "w_hid": (cfg.feature_dim, d_hid),
        "b_hid": (d_hid,),
    }
    for i in range(cfg.depth):
        shapes[f"w1_{i}"] = (H, H)
        shapes[f"b1_{i}"] = (H,)
        shapes[f"w2_{i}"] = (H, H)
        shapes[f"b2_{i}"] = (H,)
    shapes["w_head"] = (H, 2)
    shapes["b_head"] = (2,)
    return shapes


class IndicatorModel:
    """Embedding table + per-group projections + residual blocks + 2-logit head."""

    def __init__(self, config: IndicatorConfig, params: dict):
        self.config = config
        self.params = params
        shapes = _param_shapes(config)
        if set(params) != set(shapes):
            raise ValueError("parameter set does not match configuration")
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ValueError(f"parameter {name} has shape {params[name].shape}, expected {shape}")
        self.param_order = list(shapes)

    @staticmethod
    def init(config: IndicatorConfig, rng: np.random.Generator) -> "IndicatorModel":
        params = {}
        for name, shape in _param_shapes(config).items():
            if name.startswith("b") or name == "w_head":
                # zero head makes the untrained score exactly 0.5
                params[name] = np.zeros(shape)
            else:
                fan_in = shape[0] if len(shape) > 1 else 1
                params[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        return IndicatorModel(config, params)

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def _check_geometry(self, tok_ids, logits, hidden) -> None:
        cfg = self.config
        if tok_ids.shape[1] != cfg.k1:
            raise ValueError(f"expected {cfg.k1} top tokens, got {tok_ids.shape[1]}")
        if logits.shape[1] != cfg.k2:
            raise ValueError(f"expected {cfg.k2} top logits, got {logits.shape[1]}")
        if hidden.shape[1] != cfg.feature_dim:
            raise ValueError(
                f"hidden feature dimension {hidden.shape[1]} does not match "
                f"configured {cfg.feature_dim}"
            )

    def _forward(self, tok_ids, logits, hidden):
        """Batch forward pass; returns (class probabilities, cache)."""
        self._check_geometry(tok_ids, logits, hidden)
        p = self.params
        B = tok_ids.shape[0]
        e_flat = p["emb"][tok_ids].reshape(B, -1)
        x = np.concatenate(
            [
                e_flat @ p["w_tok"] + p["b_tok"],
                logits @ p["w_log"] + p["b_log"],
                hidden @ p["w_hid"] + p["b_hid"],
            ],
            axis=1,
        )
        blocks = []
        for i in range(self.config.depth):
            u = x @ p[f"w1_{i}"] + p[f"b1_{i}"]
            a = _silu(u)
            blocks.append((x, u, a))
            x = x + a @ p[f"w2_{i}"] + p[f"b2_{i}"]
        z = x @ p["w_head"] + p["b_head"]
        z = z - z.max(axis=1, keepdims=True)
        probs = np.exp(z)
        probs /= probs.sum(axis=1, keepdims=True)
        cache = (tok_ids, logits, hidden, e_flat, blocks, x, probs)
        return probs, cache

    def score_batch(self, tok_ids, logits, hidden) -> np.ndarray:
        """Probability of the positive class for each row."""
        probs, _ = self._forward(
            np.asarray(tok_ids, dtype=np.int64),
            np.asarray(logits, dtype=np.float64),
            np.asarray(hidden, dtype=np.float64),
        )
        return probs[:, 1]

    def score_bundles(self, features) -> np.ndarray:
        """Probability of the positive class for each row of a FeatureBundle."""
        return self.score_batch(features.top_tokens, features.top_logits, features.hidden)


def batch_arrays(examples):
    """Stack LabeledExamples into (tok_ids, logits, hidden, labels)."""
    tok_ids = np.asarray([ex.top_tokens for ex in examples], dtype=np.int64)
    logits = np.asarray([ex.top_logits for ex in examples], dtype=np.float64)
    hidden = np.asarray([ex.hidden for ex in examples], dtype=np.float64)
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    return tok_ids, logits, hidden, labels


def loss_and_grad(model: IndicatorModel, tok_ids, logits, hidden, labels):
    """Mean cross-entropy over the batch with analytic gradients."""
    B = len(labels)
    if B == 0:
        raise ValueError("empty batch")
    tok_ids = np.asarray(tok_ids, dtype=np.int64)
    logits = np.asarray(logits, dtype=np.float64)
    hidden = np.asarray(hidden, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    probs, cache = model._forward(tok_ids, logits, hidden)
    _, _, _, e_flat, blocks, x_last, _ = cache
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(B), labels], 1e-300))))

    p = model.params
    cfg = model.config
    grads = {}

    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    grads["w_head"] = x_last.T @ dz
    grads["b_head"] = dz.sum(axis=0)
    dx = dz @ p["w_head"].T
    for i in reversed(range(cfg.depth)):
        x_in, u, a = blocks[i]
        grads[f"w2_{i}"] = a.T @ dx
        grads[f"b2_{i}"] = dx.sum(axis=0)
        du = (dx @ p[f"w2_{i}"].T) * _silu_grad(u)
        grads[f"w1_{i}"] = x_in.T @ du
        grads[f"b1_{i}"] = du.sum(axis=0)
        dx = dx + du @ p[f"w1_{i}"].T

    d_tok, d_log, _ = cfg.group_widths
    dt = dx[:, :d_tok]
    dl = dx[:, d_tok : d_tok + d_log]
    dh = dx[:, d_tok + d_log :]
    grads["w_tok"] = e_flat.T @ dt
    grads["b_tok"] = dt.sum(axis=0)
    grads["w_log"] = logits.T @ dl
    grads["b_log"] = dl.sum(axis=0)
    grads["w_hid"] = hidden.T @ dh
    grads["b_hid"] = dh.sum(axis=0)
    de = (dt @ p["w_tok"].T).reshape(B, cfg.k1, cfg.emb_dim)
    g_emb = np.zeros_like(p["emb"])
    np.add.at(g_emb, tok_ids.reshape(-1), de.reshape(-1, cfg.emb_dim))
    grads["emb"] = g_emb
    return loss, grads


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 256
    epochs: int = 50


@dataclass(frozen=True)
class TrainState:
    params: dict
    m: dict
    v: dict
    step: int
    hyper: TrainHyper

    @staticmethod
    def fresh(params: dict, hyper: TrainHyper) -> "TrainState":
        return TrainState(
            params={k: p.copy() for k, p in params.items()},
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
            hyper=hyper,
        )


def adamw_step(state: TrainState, grads: dict) -> TrainState:
    """One decoupled-weight-decay Adam update with bias correction."""
    h = state.hyper
    t = state.step + 1
    params, m, v = {}, {}, {}
    for key, w in state.params.items():
        g = grads[key]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch for {key}")
        m[key] = h.beta1 * state.m[key] + (1 - h.beta1) * g
        v[key] = h.beta2 * state.v[key] + (1 - h.beta2) * g * g
        m_hat = m[key] / (1 - h.beta1**t)
        v_hat = v[key] / (1 - h.beta2**t)
        w_new = w - h.lr * m_hat / (np.sqrt(v_hat) + h.eps)
        if h.weight_decay:
            w_new = w_new - h.lr * h.weight_decay * w
        params[key] = w_new
    return TrainState(params=params, m=m, v=v, step=t, hyper=h)


def train(model: IndicatorModel, dataset, hyper: TrainHyper, rng: np.random.Generator):
    """Shuffled mini-batch training with a fixed 10% held-out split.

    Returns (trained model, history); history has one entry per epoch with
    train loss, train accuracy, and held-out accuracy.
    """
    examples = dataset.examples if hasattr(dataset, "examples") else list(dataset)
    if not examples:
        raise ValueError("dataset is empty")
    tok_ids, logits, hidden, labels = batch_arrays(examples)
    N = len(labels)
    perm = rng.permutation(N)
    n_hold = max(1, N // 10) if N >= 2 else 0
    hold, tr = perm[:n_hold], perm[n_hold:]

    state = TrainState.fresh(model.params, hyper)
    history = []
    for epoch in range(hyper.epochs):
        order = tr[rng.permutation(len(tr))]
        losses = []
        for start in range(0, len(order), hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            current = IndicatorModel(model.config, state.params)
            loss, grads = loss_and_grad(
                current, tok_ids[idx], logits[idx], hidden[idx], labels[idx]
            )
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: loss={loss} at epoch {epoch}")
            state = adamw_step(state, grads)
            losses.append(loss)
        current = IndicatorModel(model.config, state.params)
        train_scores = current.score_batch(tok_ids[tr], logits[tr], hidden[tr])
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "train_acc": float(np.mean((train_scores >= 0.5) == (labels[tr] == 1))),
        }
        if n_hold:
            hold_scores = current.score_batch(tok_ids[hold], logits[hold], hidden[hold])
            entry["holdout_acc"] = float(np.mean((hold_scores >= 0.5) == (labels[hold] == 1)))
        history.append(entry)
    return IndicatorModel(model.config, state.params), history


def save_checkpoint(model: IndicatorModel, path) -> None:
    """Magic, version, JSON config block, then flat float64 LE arrays in order."""
    cfg = model.config
    header = json.dumps(
        {
            "vocab_size": cfg.vocab_size,
            "k1": cfg.k1,
            "k2": cfg.k2,
            "feature_dim": cfg.feature_dim,
            "emb_dim": cfg.emb_dim,
            "hidden_dim": cfg.hidden_dim,
            "depth": cfg.depth,
            "param_order": model.param_order,
        }
    ).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in model.param_order:
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_checkpoint(path, expected_vocab_size=None) -> IndicatorModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not an indicator checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    if len(data) < offset + 4:
        raise CheckpointError("truncated checkpoint header")
    (hlen,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + hlen:
        raise CheckpointError("truncated checkpoint header")
    header = json.loads(data[offset : offset + hlen])
    offset += hlen
    cfg = IndicatorConfig(
        vocab_size=header["vocab_size"],
        k1=header["k1"],
        k2=header["k2"],
        feature_dim=header["feature_dim"],
        emb_dim=header["emb_dim"],
        hidden_dim=header["hidden_dim"],
        depth=header["depth"],
    )
    if expected_vocab_size is not None and cfg.vocab_size != expected_vocab_size:
        raise CheckpointError(
            f"checkpoint vocabulary size {cfg.vocab_size} does not match "
            f"expected {expected_vocab_size}"
        )
    shapes = _param_shapes(cfg)
    if header["param_order"] != list(shapes):
        raise CheckpointError("checkpoint parameter order does not match configuration")
    params = {}
    for name in header["param_order"]:
        shape = shapes[name]
        nbytes = int(np.prod(shape)) * 8
        if len(data) < offset + nbytes:
            raise CheckpointError(f"truncated checkpoint while reading {name}")
        params[name] = np.frombuffer(data[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise CheckpointError("trailing bytes after last parameter array")
    return IndicatorModel(cfg, params)
