"""Baseline decoding strategies: full-step selection rules and threshold mode.

Note on the entropy rule: the selection score is the signed sum p*log(p)
(larger = more confident), so its argmax picks the *lowest*-entropy position.
The conventional name "highest entropy" for this rule conflicts with that
formula; the formula is what is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from .core import MaskedSequence, Trajectory
from .denoiser import LOG_FLOOR, DenoiserOutput

RULES = ("prob", "margin", "negentropy")

__all__ = [
    "RULES", "DecodeConfig", "position_scores", "select_positions", "run_steps", "decode", "decode_many", "sample_tokens"
]


@dataclass(frozen=True)
class DecodeConfig:
    """Configuration of a baseline decode.

    threshold is None for full-step mode (one token per step); temperature is
    None for greedy token commitment.
    """

    rule: str = "prob"
    threshold: Optional[float] = None
    temperature: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.temperature is not None and not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def sampler_name(self) -> str:
        return "full" if self.threshold is None else "threshold"


def position_scores(dists: np.ndarray, rule: str) -> np.ndarray:
    """Confidence score of every probability row; larger means more confident."""
    dists = np.asarray(dists)
    if len(dists) and not (np.abs(dists.sum(axis=1) - 1.0).max() <= 1e-6 and dists.min() >= 0):  # NaN fails both
        raise ValueError("a row is not a normalized distribution")
    if rule == "prob":
        return dists[np.arange(len(dists)), dists.argmax(axis=1)]  # each row's maximum, gathered faster than max()
    if rule == "margin":
        top2 = np.partition(dists, -2, axis=1)[:, -2:]
        return top2[:, 1] - top2[:, 0]
    if rule == "negentropy":
        return np.sum(dists * np.log(np.maximum(dists, LOG_FLOOR)), axis=1)
    raise ValueError(f"unknown rule {rule!r}")


def select_positions(out: DenoiserOutput, cfg: DecodeConfig, starts=(0,)) -> np.ndarray:
    """Rows of out to reveal this step, as ascending row indices.

    out holds the rows of one state, or of several laid end to end, state s
    owning the rows from starts[s] on; each state picks among its own rows.
    Full-step mode picks each state's single best-scoring row. Threshold mode
    picks every row whose top-1 probability is >= the threshold, and the single
    best-scoring row of a state that has none, so that every state progresses.
    Ties go to the lowest position only when scores are bitwise equal; scores
    equal in exact arithmetic can differ by rounding (~1e-16) instead.
    """
    bounds = list(zip(starts, [*starts[1:], len(out.positions)]))
    if not bounds or any(a >= b for a, b in bounds):
        raise ValueError("no masked positions to select from")
    scores = position_scores(out.dists, cfg.rule)
    if cfg.threshold is None:
        picked, fallback = np.zeros(len(scores), dtype=bool), bounds
    else:
        picked = (scores if cfg.rule == "prob" else out.dists.max(axis=1)) >= cfg.threshold
        confident = np.logical_or.reduceat(picked, starts).tolist()
        fallback = [ab for ab, any_confident in zip(bounds, confident) if not any_confident]
    for a, b in fallback:
        picked[a + scores[a:b].argmax()] = True
    return picked.nonzero()[0]


def sample_tokens(dists: np.ndarray, temperature: Optional[float], rngs, starts=(0,)) -> np.ndarray:
    """One token per row: the argmax (ties toward the lower id) when temperature
    is None, else a draw from softmax(log row / temperature) that is never a
    zero-probability token, made through each row's CDF. The rows are those of
    one state, or of several laid end to end as in select_positions, and state
    s draws one uniform per row, in row order, with one rngs[s].random(M) call
    for its M rows."""
    if temperature is None:
        return dists.argmax(axis=1)
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    # (row / max) ** (1/T) is the tempered row with top weight 1; a total >= 1 keeps u below it
    cdf = np.cumsum((dists / dists.max(axis=1, keepdims=True)) ** (1.0 / temperature), axis=1)
    ends = [*starts[1:], len(dists)]
    u = np.concatenate([rng.random(b - a) for rng, a, b in zip(rngs, starts, ends)]) * cdf[:, -1]
    return (cdf <= u[:, None]).sum(axis=1)


def run_steps(denoiser, bases, choose, max_steps: int) -> list:
    """The decode loop every sampler shares: query, choose, reveal, over the
    sequences bases[i] in lockstep.

    Each step queries the denoiser once at the live states, with query when
    one is live and query_many otherwise, and asks choose(live, outs, states),
    given the live sequences' indices into bases, answers and states, for
    (rows, tokens) over the answers' rows laid end to end: the rows to reveal,
    as ascending indices or a boolean mask, and one token per row. Returns each
    sequence's steps. Raises RuntimeError when positions are still masked after
    max_steps steps.
    """
    states, steps = list(bases), [[] for _ in bases]
    masked = [len(base.masked_positions()) for base in bases]  # reveal rejects a position that is not masked
    live = [i for i, m in enumerate(masked) if m]
    while live:
        if len(steps[live[0]]) == max_steps:  # every live sequence has taken as many steps
            raise RuntimeError(f"decode exceeded its step budget of {max_steps}; the policy made no progress")
        live_states = [states[i] for i in live]
        outs = [denoiser.query(live_states[0])] if len(live) == 1 else denoiser.query_many(live_states)
        rows, tokens = choose(live, outs, live_states)
        positions = outs[0].positions if len(outs) == 1 else np.concatenate([out.positions for out in outs])
        rows = np.arange(len(positions))[rows]  # a mask or indices, as indices
        pairs = list(zip(positions[rows].tolist(), tokens[rows].tolist()))
        ends = rows.searchsorted(list(accumulate(len(out.positions) for out in outs))).tolist()
        for i, a, b in zip(live, [0, *ends], ends):
            step = pairs[a:b]
            steps[i].append(frozenset(step))
            states[i] = states[i].reveal(step)
            masked[i] -= b - a
        live = [i for i in live if masked[i]]
    return [tuple(s) for s in steps]


def decode(denoiser, prompt, gen_len: int, cfg: DecodeConfig) -> Trajectory:
    """Run a baseline decode to completion and return its trajectory."""
    return decode_many(denoiser, [prompt], gen_len, cfg, [cfg.seed])[0]


def decode_many(denoiser, prompts, gen_len: int, cfg: DecodeConfig, seeds) -> list:
    """decode of each prompt under cfg with its own seed, in lockstep: each step
    makes one query and one select_positions pick over the live prompts' rows,
    and in random mode each prompt draws its tokens from its own generator, so
    each trajectory equals decode's."""
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    cfgs = [replace(cfg, seed=seed) for seed in seeds]
    if len(prompts) != len(cfgs):
        raise ValueError(f"{len(prompts)} prompts but {len(cfgs)} seeds")
    rngs = [None if cfg.temperature is None else np.random.default_rng(c.seed) for c in cfgs]  # greedy draws nothing

    def choose(live, outs, states):
        starts = [0, *accumulate(len(out.positions) for out in outs[:-1])]
        out = outs[0]
        if len(outs) > 1:  # the answers laid end to end: one more copy of their rows
            out = DenoiserOutput(
                np.concatenate([o.positions for o in outs]),
                np.concatenate([o.dists for o in outs]),
                np.concatenate([o.features for o in outs]),
            )
        return select_positions(out, cfg, starts), sample_tokens(out.dists, cfg.temperature, [rngs[i] for i in live], starts)

    bases = [MaskedSequence.fully_masked(prompt, gen_len, denoiser.vocab) for prompt in prompts]
    steps = run_steps(denoiser, bases, choose, gen_len)
    return [Trajectory(s, meta=_meta(c, denoiser.config_id)) for s, c in zip(steps, cfgs)]


def _meta(cfg: DecodeConfig, denoiser_id: str) -> dict:
    meta = {"sampler": cfg.sampler_name, "rule": cfg.rule, "seed": cfg.seed, "denoiser": denoiser_id}
    if cfg.threshold is not None:
        meta["threshold"] = cfg.threshold
    return meta
