"""Denoiser oracles: exact Markov-chain posteriors, tempering, and replay.

The exact denoiser computes per-position posterior marginals over the
vocabulary given all currently unmasked tokens, in closed form: under a
first-order chain a masked position depends on the evidence only through its
nearest observed neighbours, so every row is a product of two rows of cached
transition powers T^k. Each MarkovModel caches T^k and pi*T^k for k below the
longest sequence length L it has been queried with (L*V^2 floats, freed with
the model). A temperature/noise wrapper simulates imperfect predictions, and
a replay denoiser serves rows from a recorded archive.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .core import MaskedSequence, Vocabulary, load_archive, save_archive

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
        try:
            initial = np.asarray(self.initial, dtype=np.float64)
            transition = np.asarray(self.transition, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DenoiserError(f"probabilities must be numeric arrays: {exc}") from None
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        if initial.ndim != 1 or not initial.size:
            raise DenoiserError(f"initial must be a non-empty vector, got shape {initial.shape}")
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
        if length < 0:
            raise ValueError(f"length must be nonnegative, got {length}")
        toks = [int(rng.choice(self.V, p=self.initial))] if length else []
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
        """The model a to_dict object describes; DenoiserError for anything else."""
        if not isinstance(d, dict):
            raise DenoiserError(f"expected a JSON object, got {type(d).__name__}")
        missing = [key for key in ("V", "initial", "transition") if key not in d]
        if missing:
            raise DenoiserError(f"missing keys {missing}")
        model = MarkovModel(d["initial"], d["transition"])
        if type(d["V"]) is not int or model.V != d["V"]:
            raise DenoiserError(f"declared V={d['V']!r} does not match distribution shapes (V={model.V})")
        return model

    @staticmethod
    def load(path) -> "MarkovModel":
        """Read a JSON config; DenoiserError naming the file when it is not
        valid JSON or not a model from_dict accepts."""
        try:
            with open(path) as fh:
                return MarkovModel.from_dict(json.load(fh))
        except (ValueError, DenoiserError) as exc:
            raise DenoiserError(f"{path}: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


@dataclass(frozen=True)
class DenoiserOutput:
    """Per-masked-position probability rows plus per-position feature vectors
    (F = 3 context columns for a MarkovDenoiser), read-only where shared."""

    positions: np.ndarray  # (n_masked,) read-only int64 generation-relative positions, ascending
    dists: np.ndarray  # (n_masked, V)
    features: np.ndarray  # (n_masked, F), read-only


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
    h.update(seq.token_array.tobytes())
    return h.hexdigest()


def markov_posterior(model: MarkovModel, seq: MaskedSequence) -> DenoiserOutput:
    """Exact posterior marginals P(X_i | unmasked tokens) for all masked i.

    Closed form: take a masked position i with nearest observed neighbours l
    (token a) to its left and r (token b) to its right. Then

        P(X_i = v | unmasked) is proportional to T^(i-l)[a, v] * T^(r-i)[v, b],

    with (pi*T^i)[v] as the left factor when there is no left neighbour and 1
    as the right factor when there is no right one, gathered from the model's
    cached powers (MarkovModel.transition_powers). Prompt tokens are ordinary
    observations. Evidence of zero probability raises DenoiserError. The
    features are three read-only context columns, not the rows again: the
    distances to the nearest observed neighbour on the left and on the right
    (over L, 1.0 where there is none) and the masked fraction.
    """
    V, L = model.V, len(seq)
    tokens = seq.token_array
    observed = tokens != seq.vocab.mask_id
    pos = (~observed).nonzero()[0]
    if not pos.size:
        raise DenoiserError("sequence has no masked positions")
    if seq.vocab.size != V:
        raise DenoiserError(f"vocabulary mismatch: model V={V}, sequence V={seq.vocab.size}")
    t_pows, pi_pows = model.transition_powers(L)

    # P(evidence) = (pi*T^o0)[t0] * prod T^(gap)[a, b] over consecutive observations
    obs = observed.nonzero()[0]
    seen = tokens[obs]
    factors = t_pows[obs[1:] - obs[:-1], seen[:-1], seen[1:]]
    if obs.size and min(pi_pows[obs[0], seen[0]], factors.min(initial=1.0)) <= 0.0:
        raise DenoiserError("observed sequence has zero probability under the chain")

    # j counts the observations before each masked position and rises with it,
    # so the first a rows have no left neighbour and the rows from b on no right one
    j = obs.searchsorted(pos)
    a, b = j.searchsorted(1), j.searchsorted(obs.size)
    before, after = j[a:] - 1, j[:b]  # the neighbours' indices into obs
    gap_left, gap_right = pos[a:] - obs[before], obs[after] - pos[:b]

    rows = np.empty((len(pos), V))
    rows[:a] = pi_pows[pos[:a]]
    rows[a:] = t_pows[gap_left, seen[before]]
    rows[:b] *= t_pows[gap_right, :, seen[after]]
    rows /= rows.sum(axis=1, keepdims=True)
    features = np.empty((len(pos), 3))
    features[:a, 0] = features[b:, 1] = 1.0
    features[a:, 0] = gap_left / L
    features[:b, 1] = gap_right / L
    features[:, 2] = len(pos) / max(seq.gen_len, 1)
    pos -= seq.prompt_len
    pos.flags.writeable = features.flags.writeable = False
    return DenoiserOutput(pos, rows, features)


def temper(
    out: DenoiserOutput,
    temperature: float,
    noise_scale: float,
    rng: np.random.Generator,
) -> DenoiserOutput:
    """Flatten/sharpen rows and add log-space gaussian noise.

    Each row becomes softmax(log p / temperature + N(0, noise_scale)), so a
    zero probability stays exactly zero; out.features pass through, shared.
    """
    if not 0 < temperature < np.inf:
        raise DenoiserError(f"temperature must be positive and finite, got {temperature}")
    if not 0 <= noise_scale < np.inf:
        raise DenoiserError(f"noise_scale must be nonnegative and finite, got {noise_scale}")
    with np.errstate(divide="ignore"):  # log 0 = -inf keeps a zero at zero
        rows = np.log(out.dists)
    if temperature != 1.0:  # dividing by exactly 1 changes no bit
        rows /= temperature
    if noise_scale > 0:  # the draws of rng.normal(0.0, noise_scale), without adding the 0.0
        rows += noise_scale * rng.standard_normal(rows.shape)
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return DenoiserOutput(out.positions, rows, out.features)


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

    def __init__(self, model: MarkovModel):
        self.model = model
        self.vocab = Vocabulary(model.V)
        self.feature_dim = 3
        self.config_id = "markov"

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        return markov_posterior(self.model, seq)


class TemperedDenoiser:
    """Noise wrapper that is a pure function of the queried state.

    The noise stream is seeded from (seed, state hash), so re-querying the
    same state reproduces the same rows; this keeps merge analyses and their
    re-simulations consistent without sharing a mutable RNG. The inner
    features, of any width, pass through unchanged.
    """

    def __init__(self, inner, temperature: float = 1.0, noise_scale: float = 0.0, seed: int = 0):
        if not 0 < temperature < np.inf:
            raise DenoiserError(f"temperature must be positive and finite, got {temperature}")
        if not 0 <= noise_scale < np.inf:
            raise DenoiserError(f"noise_scale must be nonnegative and finite, got {noise_scale}")
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
    """Pass-through wrapper that keeps the output of each distinct queried
    state and on close writes them as one archive (core.save_archive):
    `state` holds Q state hashes in query order, query q owns rows
    offsets[q]:offsets[q+1] of `positions` (R,), `rows` (R, V) and `hidden`
    (R, F), and the meta is {"V", "F", "denoiser"}. The archive's positions
    are absolute sequence indices."""

    def __init__(self, inner, path):
        self.inner = inner
        self.path = path
        self.vocab = inner.vocab
        self.feature_dim = inner.feature_dim
        self.config_id = inner.config_id
        self._outputs: dict = {}

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        out = self.inner.query(seq)
        self._outputs.setdefault(state_hash(seq), (out, seq.prompt_len))
        return out

    def close(self) -> None:
        outs = list(self._outputs.values())
        V, F = self.vocab.size, self.feature_dim
        arrays = {
            "state": np.array(list(self._outputs), dtype=str),
            "offsets": np.cumsum([0] + [len(out.positions) for out, _ in outs], dtype=np.int64),
            "positions": np.concatenate([np.empty(0, dtype=np.int64)] + [out.positions + p for out, p in outs]),
            "rows": np.concatenate([np.empty((0, V))] + [out.dists for out, _ in outs]),
            "hidden": np.concatenate([np.empty((0, F))] + [out.features for out, _ in outs]),
        }
        save_archive(self.path, arrays, {"V": V, "F": F, "denoiser": self.config_id})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ReplayDenoiser:
    """Serves the outputs a RecordingDenoiser archived, keyed by state hash,
    so any decode or merge analysis that revisits recorded states replays
    exactly, with generation-relative positions again. V and F come from the
    archive's meta. Other arrays, dtypes or shapes, offsets that do not rise
    strictly from 0 to the row count, positions out of order within a query,
    a state recorded twice, rows that are not probability rows (NaN, ±inf or
    negative entries, or a sum off 1 by more than position_scores' 1e-6) or
    non-finite hidden features raise DenoiserError naming the path."""

    def __init__(self, path):
        try:
            arrays, meta = load_archive(path)
        except ValueError as exc:
            raise DenoiserError(str(exc)) from None
        V, F = meta.get("V"), meta.get("F")
        if type(V) is not int or type(F) is not int or V < 2 or F < 1:
            raise DenoiserError(f"{path}.meta.json: lacks V >= 2 and F >= 1 as integers")
        names = ("state", "offsets", "positions", "rows", "hidden")
        if set(arrays) != set(names):
            raise DenoiserError(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(names)}")
        Q, R = arrays["state"].size, arrays["positions"].size
        shapes = [("U", (Q,)), ("i", (Q + 1,)), ("i", (R,)), ("f", (R, V)), ("f", (R, F))]
        for name, (kind, shape) in zip(names, shapes):
            if arrays[name].dtype.kind != kind or arrays[name].shape != shape:
                raise DenoiserError(
                    f"{path}: column {name} has dtype {arrays[name].dtype} and shape "
                    f"{arrays[name].shape}, expected kind {kind!r} and shape {shape}"
                )
        state, offsets, positions, rows, hidden = (arrays[name] for name in names)
        if offsets[0] != 0 or offsets[-1] != R or np.any(np.diff(offsets) < 1):
            raise DenoiserError(f"{path}: offsets must rise strictly from 0 to the row count {R}")
        first = np.zeros(R + 1, dtype=bool)
        first[offsets] = True  # where each query's rows start
        if np.any(positions < 0) or np.any((np.diff(positions) < 1) & ~first[1:R]):
            raise DenoiserError(f"{path}: positions must be nonnegative and ascending within each query")
        if np.unique(state).size != Q:
            raise DenoiserError(f"{path}: a state is recorded twice")
        if not (np.isfinite(rows).all() and rows.min(initial=0.0) >= 0):
            raise DenoiserError(f"{path}: rows must hold finite, nonnegative probabilities")
        if np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) > 1e-6:
            raise DenoiserError(f"{path}: every row must sum to 1 within 1e-6")
        if not np.isfinite(hidden).all():
            raise DenoiserError(f"{path}: column hidden holds NaN or infinite values")
        rows.flags.writeable = hidden.flags.writeable = False  # one set of rows serves each repeat of its state
        bounds = zip(state.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
        self._outputs = {h: (positions[a:b], rows[a:b], hidden[a:b]) for h, a, b in bounds}
        self.vocab = Vocabulary(V)
        self.feature_dim = F
        self.config_id = f"replay:{path}"

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        if seq.vocab != self.vocab:
            raise DenoiserError(f"vocabulary mismatch: log V={self.vocab.size}, sequence V={seq.vocab.size}")
        h = state_hash(seq)
        if h not in self._outputs:
            raise DenoiserError(f"no recorded distribution for state {h}")
        positions, rows, hidden = self._outputs[h]
        positions = positions - seq.prompt_len
        positions.flags.writeable = False
        return DenoiserOutput(positions, rows, hidden)
