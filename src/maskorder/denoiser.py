"""Denoiser oracles: exact Markov-chain posteriors, tempering, and replay.

The exact denoiser computes per-position posterior marginals over the
vocabulary given all currently unmasked tokens, in closed form: under a
first-order chain a masked position depends on the evidence only through its
nearest observed neighbours, so every row is a product of two rows of cached
transition powers T^k. Each MarkovModel caches T^k and pi*T^k for k below the
longest sequence length L it has been queried with (L*V^2 floats, freed with
the model). A temperature/noise wrapper simulates imperfect predictions, and
a replay denoiser serves rows from a recorded log.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import MaskedSequence, Vocabulary

LOG_FLOOR = 1e-12  # deterministic chains produce exact zeros

__all__ = [
    "MarkovModel",
    "DenoiserOutput",
    "FeatureBundle",
    "MarkovDenoiser",
    "TemperedDenoiser",
    "ReplayDenoiser",
    "RecordingDenoiser",
    "markov_posterior",
    "temper",
    "extract_features",
    "state_hash",
]


class DenoiserError(Exception):
    pass


@dataclass(frozen=True)
class MarkovModel:
    """Ground-truth data distribution: a first-order Markov chain over tokens."""

    initial: np.ndarray
    transition: np.ndarray

    def __post_init__(self) -> None:
        initial = np.asarray(self.initial, dtype=np.float64)
        transition = np.asarray(self.transition, dtype=np.float64)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        V = initial.shape[0]
        if transition.shape != (V, V):
            raise DenoiserError(f"transition must be {V}x{V}, got {transition.shape}")
        if not (np.all(np.isfinite(initial)) and np.all(np.isfinite(transition))):
            raise DenoiserError("probabilities must be finite")
        if np.any(initial < 0) or np.any(transition < 0):
            raise DenoiserError("probabilities must be nonnegative")
        if abs(initial.sum() - 1.0) > 1e-9:
            raise DenoiserError("initial distribution does not sum to 1")
        rows = transition.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise DenoiserError("transition rows do not sum to 1")
        object.__setattr__(self, "_powers", (np.empty((0, V, V)), np.empty((0, V))))

    @property
    def V(self) -> int:
        return self.initial.shape[0]

    def transition_powers(self, n: int) -> tuple:
        """(T^k as an (n, V, V) array, pi*T^k as (n, V)) for k = 0..n-1.

        The powers are cached on the model and grown to the largest n asked
        for, never beyond it, so the cache holds n*V^2 floats and is freed with
        the model. Each power is the previous one times T, so the values do not
        depend on the order of the requests. The arrays are read-only.
        """
        t_pows, pi_pows = self._powers
        have = t_pows.shape[0]
        if have < n:
            t_pows, cached = np.empty((n, self.V, self.V)), t_pows
            t_pows[:have] = cached
            for k in range(have, n):
                t_pows[k] = t_pows[k - 1] @ self.transition if k else np.eye(self.V)
            pi_pows = self.initial @ t_pows
            t_pows.flags.writeable = pi_pows.flags.writeable = False
            # one assignment: a concurrent query sees either the old or the new pair
            object.__setattr__(self, "_powers", (t_pows, pi_pows))
        return t_pows[:n], pi_pows[:n]

    def sample_sequence(self, length: int, rng: np.random.Generator) -> tuple:
        toks = [int(rng.choice(self.V, p=self.initial))]
        for _ in range(length - 1):
            toks.append(int(rng.choice(self.V, p=self.transition[toks[-1]])))
        return tuple(toks)

    def sequence_logprob(self, tokens) -> float:
        """Log-probability of a fully revealed token sequence under the chain."""
        tokens = list(tokens)
        lp = float(np.log(max(self.initial[tokens[0]], LOG_FLOOR)))
        for a, b in zip(tokens, tokens[1:]):
            lp += float(np.log(max(self.transition[a, b], LOG_FLOOR)))
        return lp

    def to_dict(self) -> dict:
        return {
            "V": self.V,
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "MarkovModel":
        model = MarkovModel(np.asarray(d["initial"]), np.asarray(d["transition"]))
        if model.V != d["V"]:
            raise DenoiserError("declared V does not match distribution shapes")
        return model

    @staticmethod
    def load(path) -> "MarkovModel":
        with open(path) as fh:
            return MarkovModel.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


@dataclass(frozen=True)
class DenoiserOutput:
    """Per-masked-position probability rows plus per-position feature vectors."""

    positions: tuple  # absolute sequence indices, ascending
    dists: np.ndarray  # (n_masked, V)
    features: np.ndarray  # (n_masked, F)

    def index_of(self, pos: int) -> int:
        j = bisect_left(self.positions, pos)
        if j == len(self.positions) or self.positions[j] != pos:
            raise KeyError(f"position {pos} not covered by this output")
        return j

    def row(self, pos: int) -> np.ndarray:
        return self.dists[self.index_of(pos)]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FeatureBundle:
    """Indicator inputs for a batch of masked positions, one row each."""

    top_tokens: np.ndarray  # (n, K1) token ids, descending probability
    top_logits: np.ndarray  # (n, K2) log-probabilities, non-increasing
    hidden: np.ndarray  # (n, F)

    def __len__(self) -> int:
        return self.top_tokens.shape[0]


def state_hash(seq: MaskedSequence) -> str:
    h = hashlib.sha256()
    h.update(bytes(f"{seq.prompt_len}|{seq.vocab.size}|", "ascii"))
    h.update(np.asarray(seq.tokens, dtype=np.int64).tobytes())
    return h.hexdigest()


def markov_posterior(model: MarkovModel, seq: MaskedSequence) -> DenoiserOutput:
    """Exact posterior marginals P(X_i | unmasked tokens) for all masked i.

    Closed form: take a masked position i with nearest observed neighbours l
    (token a) to its left and r (token b) to its right. Then

        P(X_i = v | unmasked) is proportional to T^(i-l)[a, v] * T^(r-i)[v, b],

    with (pi*T^i)[v] as the left factor when there is no left neighbour and 1
    as the right factor when there is no right one. All rows come from one
    gather over the model's cached powers (MarkovModel.transition_powers),
    which hold L*V^2 floats for the longest length L queried. Prompt tokens
    participate as ordinary observations. Evidence of zero probability raises
    DenoiserError.
    """
    V, L = model.V, len(seq)
    tokens = np.asarray(seq.tokens)
    observed = tokens != seq.vocab.mask_id
    pos = np.flatnonzero(~observed)
    if not pos.size:
        raise DenoiserError("sequence has no masked positions")
    if seq.vocab.size != V:
        raise DenoiserError(f"vocabulary mismatch: model V={V}, sequence V={seq.vocab.size}")
    t_pows, pi_pows = model.transition_powers(L)

    # P(evidence) = (pi*T^o0)[t0] * prod T^(gap)[a, b] over consecutive observations
    obs = np.flatnonzero(observed)
    if obs.size and (
        pi_pows[obs[0], tokens[obs[0]]] <= 0.0
        or np.any(t_pows[np.diff(obs), tokens[obs[:-1]], tokens[obs[1:]]] <= 0.0)
    ):
        raise DenoiserError("observed sequence has zero probability under the chain")

    # running extrema give the nearest observed index on each side, with
    # sentinels (-1 / L) where no such neighbor exists
    idx = np.arange(L)
    left = np.maximum.accumulate(np.where(observed, idx, -1))[pos]
    right = np.minimum.accumulate(np.where(observed, idx, L)[::-1])[::-1][pos]
    has_left, has_right = left >= 0, right < L

    p = pi_pows[pos]
    p[has_left] = t_pows[(pos - left)[has_left], tokens[left[has_left]]]
    p[has_right] *= t_pows[(right - pos)[has_right], :, tokens[right[has_right]]]
    rows = p / p.sum(axis=1, keepdims=True)

    features = _context_features(rows, pos, left, right, L, seq.gen_len)
    return DenoiserOutput(tuple(pos.tolist()), rows, features)


def _context_features(rows: np.ndarray, pos, left, right, L: int, gen_len: int) -> np.ndarray:
    """Hidden-state stand-in: posterior row + positional context signals.

    Layout is [row (V), left distance, right distance, masked fraction]; the
    distances are to the nearest unmasked neighbor (index left/right, -1/L
    where there is none), normalized by sequence length, and 1.0 when no such
    neighbor exists.
    """
    dl = np.where(left >= 0, (pos - left) / L, 1.0)
    dr = np.where(right < L, (right - pos) / L, 1.0)
    masked_frac = np.full(len(pos), len(pos) / max(gen_len, 1))
    return np.concatenate([rows, np.stack([dl, dr, masked_frac], axis=1)], axis=1)


def temper(
    out: DenoiserOutput,
    temperature: float,
    noise_scale: float,
    rng: np.random.Generator,
) -> DenoiserOutput:
    """Flatten/sharpen rows and add log-space gaussian noise.

    Each row becomes softmax(log p / temperature + N(0, noise_scale)); the
    leading V feature entries are replaced by the new row, the context tail is
    kept.
    """
    if temperature <= 0:
        raise DenoiserError(f"temperature must be positive, got {temperature}")
    if noise_scale < 0:
        raise DenoiserError("noise_scale must be nonnegative")
    logp = np.log(np.maximum(out.dists, 1e-300)) / temperature
    if noise_scale > 0:
        logp = logp + rng.normal(0.0, noise_scale, size=logp.shape)
    logp -= logp.max(axis=1, keepdims=True)
    rows = np.exp(logp)
    rows /= rows.sum(axis=1, keepdims=True)
    V = rows.shape[1]
    features = np.concatenate([rows, out.features[:, V:]], axis=1)
    return DenoiserOutput(out.positions, rows, features)


def extract_features(out: DenoiserOutput, rows, k1: int, k2: int) -> FeatureBundle:
    """Indicator inputs for the given rows of out (row indices or a slice)."""
    dists = out.dists[rows]
    V = out.dists.shape[1]
    if not (1 <= k1 <= V and 1 <= k2 <= V):
        raise DenoiserError(f"K1={k1}/K2={k2} must lie in 1..{V}, the vocabulary size")
    # stable sort on -dists: ties fall back to ascending token id
    order = np.argsort(-dists, axis=1, kind="stable")
    top_logits = np.log(np.maximum(np.take_along_axis(dists, order[:, :k2], axis=1), LOG_FLOOR))
    return FeatureBundle(order[:, :k1], top_logits, out.features[rows])


class MarkovDenoiser:
    """Exact Bayes-posterior denoiser over a known Markov chain.

    Queries grow the model's cached transition powers and change nothing
    else; concurrent queries get the same rows as serial ones.
    """

    def __init__(self, model: MarkovModel, config_id: str = "markov"):
        self.model = model
        self.vocab = Vocabulary(model.V)
        self.feature_dim = model.V + 3
        self.config_id = config_id

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        return markov_posterior(self.model, seq)


class TemperedDenoiser:
    """Noise wrapper that is a pure function of the queried state.

    The noise stream is seeded from (seed, state hash), so re-querying the
    same state reproduces the same rows; this keeps merge analyses and their
    re-simulations consistent without sharing a mutable RNG.
    """

    def __init__(self, inner, temperature: float = 1.0, noise_scale: float = 0.0, seed: int = 0):
        if temperature <= 0:
            raise DenoiserError(f"temperature must be positive, got {temperature}")
        self.inner = inner
        self.temperature = temperature
        self.noise_scale = noise_scale
        self.seed = seed
        self.vocab = inner.vocab
        self.feature_dim = inner.feature_dim
        self.config_id = f"{inner.config_id}|temp={temperature}|noise={noise_scale}|seed={seed}"

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        out = self.inner.query(seq)
        key = int(state_hash(seq)[:16], 16)
        rng = np.random.default_rng((self.seed, key))
        return temper(out, self.temperature, self.noise_scale, rng)


class RecordingDenoiser:
    """Pass-through wrapper that appends every served row to a JSONL log."""

    def __init__(self, inner, path):
        self.inner = inner
        self.vocab = inner.vocab
        self.feature_dim = inner.feature_dim
        self.config_id = inner.config_id
        self._fh = open(path, "w")
        self._step = 0

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        out = self.inner.query(seq)
        h = state_hash(seq)
        for j, pos in enumerate(out.positions):
            self._fh.write(
                json.dumps(
                    {
                        "id": h,
                        "step": self._step,
                        "pos": pos,
                        "row": out.dists[j].tolist(),
                        "hidden": out.features[j].tolist(),
                    }
                )
                + "\n"
            )
        self._step += 1
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ReplayDenoiser:
    """Serves recorded distribution rows instead of computing them.

    In the default mode rows are keyed by (state hash, position), so any
    decode that revisits logged states replays exactly. In strict mode rows
    are keyed by (query index, position) and queries must arrive in the
    logged order.
    """

    def __init__(self, path, vocab: Vocabulary, strict: bool = False):
        self.vocab = vocab
        self.strict = strict
        self.config_id = f"replay:{path}"
        self._by_hash: dict = {}
        self._by_step: dict = {}
        self.feature_dim = None
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                d = json.loads(line)
                row = np.asarray(d["row"], dtype=np.float64)
                hidden = np.asarray(d["hidden"], dtype=np.float64)
                if row.shape[0] != vocab.size:
                    raise DenoiserError(
                        f"vocabulary mismatch: log rows have V={row.shape[0]}, "
                        f"configured V={vocab.size}"
                    )
                if self.feature_dim is None:
                    self.feature_dim = hidden.shape[0]
                self._by_hash[(d["id"], d["pos"])] = (row, hidden)
                self._by_step[(d["step"], d["pos"])] = (row, hidden)
        self._query_idx = 0

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        masked = seq.masked_positions()
        if not masked:
            raise DenoiserError("sequence has no masked positions")
        if self.strict:
            key_of = lambda pos: (self._query_idx, pos)
        else:
            h = state_hash(seq)
            key_of = lambda pos: (h, pos)
        table = self._by_step if self.strict else self._by_hash
        rows, hiddens = [], []
        for pos in masked:
            key = key_of(pos)
            if key not in table:
                raise DenoiserError(f"no recorded distribution for {key}")
            row, hidden = table[key]
            rows.append(row)
            hiddens.append(hidden)
        self._query_idx += 1
        return DenoiserOutput(tuple(masked), np.stack(rows), np.stack(hiddens))
