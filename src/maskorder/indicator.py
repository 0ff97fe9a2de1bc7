"""Token-wise neural indicator: a small residual MLP trained from scratch.

Per-position inputs are the top-K1 token ids, the top-K2 log-probabilities,
and the denoiser's per-position feature vector. Token embeddings are
concatenated (not averaged) before projection so rank order is preserved.
Everything runs in float64 numpy with hand-written gradients so training is
bit-reproducible and the gradients can be checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import check_members, load_archive, save_archive

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


# AdamW's fixed settings; the learning rate is TrainHyper.lr
BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.95, 1e-8, 0.01


@dataclass(frozen=True)
class IndicatorConfig:
    vocab_size: int
    k1: int = 4
    k2: int = 8
    feature_dim: int = 3
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
            missing, extra = sorted(set(shapes) - set(params)), sorted(set(params) - set(shapes))
            raise ValueError(f"parameter set does not match configuration: missing {missing}, extra {extra}")
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ValueError(f"parameter {name} has shape {params[name].shape}, expected {shape}")

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
        if tok_ids.size and not (tok_ids.min() >= 0 and tok_ids.max() < cfg.vocab_size):
            bad = tok_ids[(tok_ids < 0) | (tok_ids >= cfg.vocab_size)][0]
            raise ValueError(f"token id {bad} lies outside [0, {cfg.vocab_size})")
        if logits.shape[1] != cfg.k2:
            raise ValueError(f"expected {cfg.k2} top logits, got {logits.shape[1]}")
        if hidden.shape[1] != cfg.feature_dim:
            raise ValueError(
                f"hidden feature dimension {hidden.shape[1]} does not match "
                f"configured {cfg.feature_dim}"
            )

    def _forward(self, tok_ids, logits, hidden, cache=True):
        """Batch forward pass; returns (class probabilities, cache), all fresh
        arrays that the caller may overwrite. With cache=False the cache is
        None: the token embeddings go once projected, and each residual block
        runs in two (B, H) buffers besides its input, computing the SiLU
        product in u's and the block output in sg's. The bytes are those of
        cache=True."""
        self._check_geometry(tok_ids, logits, hidden)
        p = self.params
        B = tok_ids.shape[0]
        e_flat = p["emb"][tok_ids].reshape(B, -1)
        x = np.concatenate([e_flat @ p["w_tok"], logits @ p["w_log"], hidden @ p["w_hid"]], axis=1)
        x += np.concatenate([p["b_tok"], p["b_log"], p["b_hid"]])
        if not cache:
            del e_flat
        blocks = []
        for i in range(self.config.depth):
            u = x @ p[f"w1_{i}"]
            u += p[f"b1_{i}"]
            # sg = 1 / (1 + exp(-u)), so SiLU(u) = u * sg; the backward pass reuses sg
            sg = np.negative(u)
            np.exp(sg, out=sg)
            sg += 1.0
            np.reciprocal(sg, out=sg)
            if cache:
                a = u * sg
                blocks.append((x, u, sg, a))
                t = a @ p[f"w2_{i}"]
            else:
                t = np.matmul(np.multiply(u, sg, out=u), p[f"w2_{i}"], out=sg)
            t += x
            t += p[f"b2_{i}"]
            x = t
        z = x @ p["w_head"]
        z += p["b_head"]
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        return z, (e_flat, blocks, x) if cache else None

    def score_batch(self, tok_ids, logits, hidden) -> np.ndarray:
        """Probability of the positive class for each row."""
        probs, _ = self._forward(
            np.asarray(tok_ids, dtype=np.int64),
            np.asarray(logits, dtype=np.float64),
            np.asarray(hidden, dtype=np.float64),
            cache=False,
        )
        return probs[:, 1]

    def score_bundles(self, features) -> np.ndarray:
        """Probability of the positive class for each row of a FeatureBundle."""
        return self.score_batch(features.top_tokens, features.top_logits, features.hidden)


def batch_arrays(data):
    """(tok_ids, logits, hidden, labels): the columns of a labeled dataset, as
    they are."""
    return tuple(data.columns[name] for name in ("top_tokens", "top_logits", "hidden", "label"))


def loss_and_grad(model: IndicatorModel, tok_ids, logits, hidden, labels):
    """Mean cross-entropy over the batch with analytic gradients."""
    B = len(labels)
    if B == 0:
        raise ValueError("empty batch")
    tok_ids = np.asarray(tok_ids, dtype=np.int64)
    logits = np.asarray(logits, dtype=np.float64)
    hidden = np.asarray(hidden, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    probs, (e_flat, blocks, x_last) = model._forward(tok_ids, logits, hidden)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(B), labels], 1e-300))))

    p = model.params
    cfg = model.config
    grads = {}

    # dz, dx and the block products reuse probs, x_last, sg and u once read
    dz = probs
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    grads["w_head"] = x_last.T @ dz
    grads["b_head"] = dz.sum(axis=0)
    dx = np.matmul(dz, p["w_head"].T, out=x_last)
    for i in reversed(range(cfg.depth)):
        x_in, u, sg, a = blocks[i]
        grads[f"w2_{i}"] = a.T @ dx
        grads[f"b2_{i}"] = dx.sum(axis=0)
        # SiLU'(u) = sg * (1 + u * (1 - sg)), built in a's buffer, which is done with
        np.subtract(1.0, sg, out=a)
        a *= u
        a += 1.0
        a *= sg
        du = np.matmul(dx, p[f"w2_{i}"].T, out=sg)
        du *= a
        grads[f"w1_{i}"] = x_in.T @ du
        grads[f"b1_{i}"] = du.sum(axis=0)
        dx += np.matmul(du, p[f"w1_{i}"].T, out=u)

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
    # one scatter over the flattened table: element (t, j) sits at t*emb_dim + j;
    # bincount adds the weights in input order from 0, as np.add.at on zeros does
    de = dt @ p["w_tok"].T
    flat_idx = (tok_ids[:, :, None] * cfg.emb_dim + np.arange(cfg.emb_dim)).reshape(-1)
    grads["emb"] = np.bincount(flat_idx, de.reshape(-1), p["emb"].size).reshape(p["emb"].shape)
    return loss, grads


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 2e-4
    batch_size: int = 256
    epochs: int = 50

    def __post_init__(self) -> None:
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass(frozen=True)
class TrainState:
    """AdamW state. The parameters and both moments are one float64 vector
    each, laid out as `shapes` lists them; `params` maps each name to a view
    of its slice of `flat`."""

    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int
    hyper: TrainHyper
    shapes: dict  # parameter name -> shape, in the order of the vectors
    params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        views, at = {}, 0
        for name, shape in self.shapes.items():
            n = math.prod(shape)
            views[name] = self.flat[at : at + n].reshape(shape)
            at += n
        object.__setattr__(self, "params", views)

    @staticmethod
    def fresh(params: dict, hyper: TrainHyper) -> "TrainState":
        flat = np.concatenate([np.asarray(p, dtype=np.float64).reshape(-1) for p in params.values()])
        shapes = {k: np.shape(p) for k, p in params.items()}
        return TrainState(flat, np.zeros_like(flat), np.zeros_like(flat), 0, hyper, shapes)


def adamw_step(state: TrainState, grads: dict) -> TrainState:
    """One decoupled-weight-decay Adam update with bias correction, over the
    whole parameter vector at once (each element gets the same operations in
    the same order as a per-parameter update)."""
    h = state.hyper
    t = state.step + 1
    for key, shape in state.shapes.items():
        if grads[key].shape != shape:
            raise ValueError(f"gradient shape mismatch for {key}")
    g = np.concatenate([grads[key].reshape(-1) for key in state.shapes])
    w = state.flat
    m = np.multiply(state.m, BETA1)
    s = np.multiply(g, 1 - BETA1)
    m += s
    v = np.multiply(state.v, BETA2)
    np.multiply(g, 1 - BETA2, out=s)
    s *= g
    v += s
    # g and s are free from here: g takes m_hat, s takes v_hat and then the new weights
    np.divide(m, 1 - BETA1**t, out=g)
    np.divide(v, 1 - BETA2**t, out=s)
    np.sqrt(s, out=s)
    s += EPS
    g *= h.lr
    g /= s
    w_new = np.subtract(w, g, out=s)
    w_new -= np.multiply(w, h.lr * WEIGHT_DECAY, out=g)
    return TrainState(w_new, m, v, t, h, state.shapes)


def train(model: IndicatorModel, dataset, hyper: TrainHyper, rng: np.random.Generator):
    """Shuffled mini-batch training over a labeled dataset's columns
    (labeling.DatasetFile), with a fixed 10% held-out split.

    The split comes first: rng.permutation(N), whose leading max(1, N // 10)
    rows are held out (none when N is 1). Each epoch then draws a permutation
    of the rest and takes one loss_and_grad and one adamw_step per minibatch.

    Returns (trained model, history); history has one entry per epoch with
    its `epoch` index, `train_loss` (the mean minibatch loss) and, when rows
    are held out, `holdout_acc` (the held-out accuracy at the end of the
    epoch). The train split is not rescored: its accuracy would cost a
    forward pass over every row per epoch.
    """
    tok_ids, logits, hidden, labels = batch_arrays(dataset)
    N = len(labels)
    if not N:
        raise ValueError("dataset is empty")
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
        entry = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if n_hold:
            current = IndicatorModel(model.config, state.params)
            hold_scores = current.score_batch(tok_ids[hold], logits[hold], hidden[hold])
            entry["holdout_acc"] = float(np.mean((hold_scores >= 0.5) == (labels[hold] == 1)))
        history.append(entry)
    return IndicatorModel(model.config, state.params), history


def save_checkpoint(model: IndicatorModel, path) -> None:
    """Write the parameters as an archive at exactly `path`, with the
    IndicatorConfig as its meta (core.save_archive)."""
    save_archive(path, model.params, asdict(model.config))


def load_checkpoint(path, expected_vocab_size=None, expected_feature_dim=None) -> IndicatorModel:
    """Read a checkpoint; CheckpointError naming the path when load_archive
    fails, the meta is not an IndicatorConfig of ints, expected_vocab_size or
    expected_feature_dim (the denoiser's) disagree with it, or check_members
    rejects the float64 parameters, as a NaN one, which would score NaN on
    every row and so never open NI's gate."""
    try:
        params, meta = load_archive(path)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    names = [f.name for f in fields(IndicatorConfig)]
    if sorted(meta) != sorted(names) or any(type(v) is not int for v in meta.values()):
        raise CheckpointError(f"{path}.meta.json: expected integer values for exactly {names}, got {meta}")
    try:
        cfg = IndicatorConfig(**meta)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if expected_vocab_size not in (None, cfg.vocab_size):
        raise CheckpointError(f"{path}: vocabulary size {cfg.vocab_size} does not match expected {expected_vocab_size}")
    if expected_feature_dim not in (None, cfg.feature_dim):
        raise CheckpointError(
            f"{path}: feature dimension {cfg.feature_dim} does not match the denoiser's {expected_feature_dim}"
        )
    check_members(path, params, {name: ("float64", shape) for name, shape in _param_shapes(cfg).items()}, CheckpointError)
    return IndicatorModel(cfg, params)
