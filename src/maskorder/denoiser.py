"""Denoiser oracles: exact Markov-chain posteriors, tempering, and replay.

The exact denoiser computes per-position posterior marginals over the
vocabulary given all currently unmasked tokens, in closed form: under a
first-order chain a masked position depends on the evidence only through its
nearest observed neighbours, so every row is a product of two rows of cached
transition powers T^k. Each MarkovModel caches T^k and pi*T^k for k up to the
longest sequence length L it has been queried with (about L*V^2 floats, freed
with the model). A temperature/noise wrapper simulates imperfect predictions,
and a replay denoiser serves rows from a recorded archive. For every denoiser,
query_many(states) equals [query(s) for s in states], bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import MaskedSequence, Vocabulary, check_members, load_archive, save_archive

LOG_FLOOR = 1e-12  # deterministic chains produce exact zeros
_EDGE = np.array([-1])  # an observation that is no token: the edge of a state
_NEAR = np.array([[-1], [0]])  # from a position's next observation to the one before it and to itself

__all__ = [
    "MarkovModel",
    "DenoiserOutput",
    "FeatureBundle",
    "MarkovDenoiser",
    "TemperedDenoiser",
    "ReplayDenoiser",
    "RecordingDenoiser",
    "check_answer",
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
        if initial.ndim != 1 or initial.size < 2:
            raise DenoiserError(f"initial must be a vector of V >= 2 probabilities, got shape {initial.shape}")
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
        object.__setattr__(self, "_table", np.empty((0, V)))
        # row a: the CDF of T[a], and row V: that of pi, each as rng.choice(V, p=row) forms it
        cdfs = np.cumsum(np.vstack((transition, initial)), axis=1)
        object.__setattr__(self, "_cdfs", (cdfs / cdfs[:, -1:]).tolist())

    @property
    def V(self) -> int:
        return self.initial.shape[0]

    def _powers(self, n: int) -> np.ndarray:
        """T^k and pi*T^k for the gaps k = 0..n-1 as one read-only (n*(V+1), V)
        table: row k*(V+1)+a is row a of T^k, and row k*(V+1)+V is pi*T^k.
        The exception is T^0, which no pair of neighbours needs (they lie at
        least one position apart): its rows are ones, a right edge's factor.

        The table is cached on the model and grown to the most gaps asked for,
        never beyond, and is freed with the model. Each power is the previous
        one times T, so the values do not depend on the order of the requests.
        """
        table, V = self._table, self.V
        have = len(table) // (V + 1)
        if have < n:
            grown = np.empty((n, V + 1, V))
            grown.reshape(-1, V)[: len(table)] = table
            for k in range(max(have, 1), n):
                grown[k, :V] = grown[k - 1, :V] @ self.transition if k > 1 else self.transition
            grown[1:, V] = self.initial @ grown[1:, :V]
            grown[0] = np.vstack((np.ones((V, V)), self.initial))
            table = grown.reshape(-1, V)
            table.flags.writeable = False
            # one assignment: a concurrent query sees either the old or the new table
            object.__setattr__(self, "_table", table)
        return table

    def sample_sequence(self, length: int, rng: np.random.Generator) -> tuple:
        """A draw of `length` tokens from the chain, with one rng.random(length)
        call: the tokens, and the generator's state after, of one
        rng.choice(V, p=row) call per token."""
        if length < 0:
            raise ValueError(f"length must be nonnegative, got {length}")
        toks, cdf = [], self._cdfs[-1]
        for u in rng.random(length).tolist():
            toks.append(bisect_right(cdf, u))
            cdf = self._cdfs[toks[-1]]
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
        # every entry a JSON number, in document order: asarray would also take "0.5" and true
        pending = [d["transition"], d["initial"]]
        while pending:
            x = pending.pop()
            if isinstance(x, list):
                pending.extend(reversed(x))
            elif type(x) not in (int, float):
                raise DenoiserError(f"probabilities must be numeric arrays: {x!r} is not a number")
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


def check_answer(state: MaskedSequence, out: DenoiserOutput, where: str, error=ValueError) -> None:
    """`error` prefixed by `where` unless out, a denoiser's answer at state, holds exactly its masked positions."""
    masked = np.flatnonzero(state.token_array[state.prompt_len :] == state.vocab.mask_id)
    if not np.array_equal(out.positions, masked):
        raise error(
            f"{where}: the denoiser answered {len(out.positions)} positions, "
            f"not exactly the state's {len(masked)} masked positions"
        )


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
    cached powers (MarkovModel._powers). Prompt tokens are ordinary
    observations. Evidence of zero probability raises DenoiserError. The
    features are three read-only context columns, not the rows again: the
    distances to the nearest observed neighbour on the left and on the right
    (over L, 1.0 where there is none) and the masked fraction.
    """
    return _posteriors(model, [seq])[0]


def _posteriors(model: MarkovModel, seqs) -> list:
    """markov_posterior of each state, in one pass over the states laid end to
    end between edges, -1, each row computed as if its state were alone. As a
    token index, -1 picks row V of the block one gap down: pi*T^i next to a
    left edge; next to a right edge the gap is taken as 0. A failing batch raises a failing state's DenoiserError, every
    state's vocabulary checked first, then the evidence, then masked positions."""
    V = model.V
    parts, edges, lengths, gen_lens, offsets = [_EDGE], [0], [], [], []
    for seq in seqs:
        if seq.vocab.size != V:
            raise DenoiserError(f"vocabulary mismatch: model V={V}, sequence V={seq.vocab.size}")
        seq_tokens, edge = seq.token_array, edges[-1]
        parts += (seq_tokens, _EDGE)
        lengths.append(len(seq_tokens))
        gen_lens.append(max(len(seq_tokens) - seq.prompt_len, 1))
        offsets.append(edge + 1 + seq.prompt_len)  # where the state's generation region starts
        edges.append(edge + len(seq_tokens) + 1)
    tokens = np.concatenate(parts)
    observed = tokens != V
    pos, obs = (~observed).nonzero()[0], observed.nonzero()[0]
    seen = tokens[obs]
    powers = model._powers(max(lengths) + 1)  # a state's edges lie L + 1 apart
    # P(evidence) = (pi*T^o0)[t0] * prod T^(gap)[a, b] over consecutive observations
    ends = seen[1:]  # a pair that ends at an edge has no factor
    if np.minimum.reduce(powers[(obs[1:] - obs[:-1]) * (V + 1) + seen[:-1], ends], where=ends >= 0, initial=1.0) <= 0:
        raise DenoiserError("observed sequence has zero probability under the chain")

    # each masked position's nearest observations, tokens or edges, are obs[j - 1] and obs[j]
    near = obs.searchsorted(pos) + _NEAR
    gaps, neighbours = np.abs(obs[near] - pos), seen[near]  # (2, rows): left, then right
    rows = powers.take(gaps[0] * (V + 1) + neighbours[0], axis=0)
    # the right factor; a right edge's gap is taken as 0, to gather T^0's ones
    rows *= powers.reshape(-1, V + 1, V)[gaps[1] * (neighbours[1] >= 0), :V, neighbours[1]]
    rows /= rows.sum(axis=1, keepdims=True)
    # state s owns the rows between its edges, bounds[s]:bounds[s + 1]
    bounds = pos.searchsorted(edges)
    counts = bounds[1:] - bounds[:-1]
    if np.count_nonzero(counts) < len(seqs):
        raise DenoiserError("sequence has no masked positions")
    # each state's value at each of its rows, where one state's broadcasts
    of_state = (lambda values: values[0]) if len(seqs) == 1 else lambda values: np.repeat(values, counts)
    features = np.empty((len(pos), 3))
    features.T[:2] = gaps / of_state(lengths)
    features.T[:2][neighbours < 0] = 1.0
    features[:, 2] = of_state(counts) / of_state(gen_lens)
    pos -= of_state(offsets)  # generation-relative
    pos.flags.writeable = features.flags.writeable = False
    if len(seqs) == 1:
        return [DenoiserOutput(pos, rows, features)]
    bounds = bounds.tolist()
    return [DenoiserOutput(pos[x:y], rows[x:y], features[x:y]) for x, y in zip(bounds, bounds[1:])]


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
    return _temper([out], temperature, noise_scale, [rng])[0]


def _temper(outs, temperature: float, noise_scale: float, rngs) -> list:
    """temper of each output, with its own generator drawing its rows' noise,
    in one pass over all the outputs' rows: each answer equals temper's."""
    if not 0 < temperature < np.inf:
        raise DenoiserError(f"temperature must be positive and finite, got {temperature}")
    if not 0 <= noise_scale < np.inf:
        raise DenoiserError(f"noise_scale must be nonnegative and finite, got {noise_scale}")
    bounds = [0, *accumulate(len(out.dists) for out in outs)]
    with np.errstate(divide="ignore"):  # log 0 = -inf keeps a zero at zero
        rows = np.log(outs[0].dists if len(outs) == 1 else np.concatenate([out.dists for out in outs]))
    if temperature != 1.0:  # dividing by exactly 1 changes no bit
        rows /= temperature
    if noise_scale > 0:  # the draws of rng.normal(0.0, noise_scale), without adding the 0.0
        noise = np.empty_like(rows)
        for rng, a, b in zip(rngs, bounds, bounds[1:]):
            rng.standard_normal(out=noise[a:b])
        noise *= noise_scale
        rows += noise
    rows -= rows[np.arange(len(rows)), rows.argmax(axis=1)][:, None]  # each row's maximum, gathered faster than max()
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return [DenoiserOutput(out.positions, rows[a:b], out.features) for out, a, b in zip(outs, bounds, bounds[1:])]


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

    def query_many(self, seqs) -> list:
        return _posteriors(self.model, seqs)


class TemperedDenoiser:
    """Noise wrapper that is a pure function of the queried state.

    The noise stream is seeded from (seed, state hash), so re-querying the
    same state reproduces the same rows; this keeps merge analyses and their
    re-simulations consistent without sharing a mutable RNG, and query_many
    tempers the states' rows together. Inner features of any width pass through.
    """

    def __init__(self, inner, temperature: float = 1.0, noise_scale: float = 0.0, seed: int = 0):
        if not 0 < temperature < np.inf:
            raise DenoiserError(f"temperature must be positive and finite, got {temperature}")
        if not 0 <= noise_scale < np.inf:
            raise DenoiserError(f"noise_scale must be nonnegative and finite, got {noise_scale}")
        if seed < 0:
            raise DenoiserError(f"seed must be nonnegative, got {seed}")
        self.inner = inner
        self.temperature = temperature
        self.noise_scale = noise_scale
        self.seed = seed
        self.vocab = inner.vocab
        self.feature_dim = inner.feature_dim
        self.config_id = f"{inner.config_id}|temp={temperature}|noise={noise_scale}|seed={seed}"

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        return self._tempered([seq], [self.inner.query(seq)])[0]

    def query_many(self, seqs) -> list:
        return self._tempered(seqs, self.inner.query_many(seqs))

    def _tempered(self, seqs, outs) -> list:
        rngs = [np.random.default_rng((self.seed, int(state_hash(seq)[:16], 16))) for seq in seqs]
        return _temper(outs, self.temperature, self.noise_scale, rngs)


class RecordingDenoiser:
    """Pass-through wrapper that keeps the output of each distinct queried
    state and on close writes them as one archive (core.save_archive):
    `state` holds Q state hashes (<U64) in query order, query q owns rows
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
        return self.query_many([seq])[0]

    def query_many(self, seqs) -> list:
        outs = self.inner.query_many(seqs)
        for seq, out in zip(seqs, outs):
            self._outputs.setdefault(state_hash(seq), (out, seq.prompt_len))
        return outs

    def close(self) -> None:
        outs = list(self._outputs.values())
        V, F = self.vocab.size, self.feature_dim
        arrays = {
            "state": np.array(list(self._outputs), dtype="<U64"),
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
    archive's meta. DenoiserError naming the path when check_members rejects
    the arrays, offsets do not rise strictly from 0 to the row count,
    positions are out of order within a query, a state is recorded twice, a
    row has a negative entry or sums off 1 by more than position_scores'
    1e-6, or a query's state is not in the log or its recorded answer does
    not hold exactly the state's masked positions."""

    def __init__(self, path):
        try:
            arrays, meta = load_archive(path)
        except ValueError as exc:
            raise DenoiserError(str(exc)) from None
        V, F = meta.get("V"), meta.get("F")
        if type(V) is not int or type(F) is not int or V < 2 or F < 1:
            raise DenoiserError(f"{path}.meta.json: lacks V >= 2 and F >= 1 as integers")
        Q, R = (arrays.get(name, np.empty(0)).size for name in ("state", "positions"))
        shapes = {"state": (Q,), "offsets": (Q + 1,), "positions": (R,), "rows": (R, V), "hidden": (R, F)}
        dtypes = {"state": "<U64", "offsets": "int64", "positions": "int64", "rows": "float64", "hidden": "float64"}
        check_members(path, arrays, {name: (dtypes[name], shape) for name, shape in shapes.items()}, DenoiserError)
        state, offsets, positions, rows, hidden = (arrays[name] for name in shapes)
        if offsets[0] != 0 or offsets[-1] != R or np.any(np.diff(offsets) < 1):
            raise DenoiserError(f"{path}: offsets must rise strictly from 0 to the row count {R}")
        first = np.zeros(R + 1, dtype=bool)
        first[offsets] = True  # where each query's rows start
        if np.any(positions < 0) or np.any((np.diff(positions) < 1) & ~first[1:R]):
            raise DenoiserError(f"{path}: positions must be nonnegative and ascending within each query")
        if np.unique(state).size != Q:
            raise DenoiserError(f"{path}: a state is recorded twice")
        if rows.min(initial=0.0) < 0:
            raise DenoiserError(f"{path}: rows must hold finite, nonnegative probabilities")
        if np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) > 1e-6:
            raise DenoiserError(f"{path}: every row must sum to 1 within 1e-6")
        rows.flags.writeable = hidden.flags.writeable = False  # one set of rows serves each repeat of its state
        bounds = zip(state.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
        self._outputs = {h: (positions[a:b], rows[a:b], hidden[a:b]) for h, a, b in bounds}
        self.path = path
        self.vocab = Vocabulary(V)
        self.feature_dim = F
        self.config_id = f"replay:{path}"

    def query(self, seq: MaskedSequence) -> DenoiserOutput:
        if seq.vocab != self.vocab:
            raise DenoiserError(f"{self.path}: vocabulary mismatch: log V={self.vocab.size}, sequence V={seq.vocab.size}")
        h = state_hash(seq)
        if h not in self._outputs:
            raise DenoiserError(f"{self.path}: no recorded distribution for state {h}")
        positions, rows, hidden = self._outputs[h]
        positions = positions - seq.prompt_len
        positions.flags.writeable = False
        out = DenoiserOutput(positions, rows, hidden)
        check_answer(seq, out, f"{self.path}: state {h}", DenoiserError)
        return out

    def query_many(self, seqs) -> list:
        return [self.query(seq) for seq in seqs]
