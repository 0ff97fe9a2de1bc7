"""Baseline decoding strategies: full-step selection rules and threshold mode.

Note on the entropy rule: the selection score is the signed sum p*log(p)
(larger = more confident), so its argmax picks the *lowest*-entropy position.
The conventional name "highest entropy" for this rule conflicts with that
formula; the formula is what is implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def select_positions(out: DenoiserOutput, cfg: DecodeConfig) -> np.ndarray:
    """Rows of out to reveal this step, as ascending row indices.

    Full-step mode picks the single best-scoring row. Threshold mode picks
    every row whose top-1 probability is >= the threshold, falling back to
    the single best-scoring row so that progress is guaranteed. Ties go to
    the lowest position only when scores are bitwise equal; scores equal in
    exact arithmetic can differ by rounding (~1e-16) instead.
    """
    if not len(out.positions):
        raise ValueError("no masked positions to select from")
    scores = position_scores(out.dists, cfg.rule)
    if cfg.threshold is not None:
        top1 = scores if cfg.rule == "prob" else out.dists.max(axis=1)
        confident = np.flatnonzero(top1 >= cfg.threshold)
        if len(confident):
            return confident
    return np.argmax(scores, keepdims=True)


def sample_tokens(dists: np.ndarray, temperature: Optional[float], rng: np.random.Generator) -> np.ndarray:
    """One token per row: the argmax (ties toward the lower id) when temperature
    is None, else a draw from softmax(log row / temperature) that is never a
    zero-probability token, made with exactly one rng.random(M) call for the M
    rows (one uniform per row, in row order) through each row's CDF."""
    if temperature is None:
        return dists.argmax(axis=1)
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    # (row / max) ** (1/T) is the tempered row with top weight 1; a total >= 1 keeps u below it
    cdf = np.cumsum((dists / dists.max(axis=1, keepdims=True)) ** (1.0 / temperature), axis=1)
    u = rng.random(len(dists)) * cdf[:, -1]
    return (cdf <= u[:, None]).sum(axis=1)


def run_steps(denoiser, bases, chooses, max_steps: int) -> list:
    """The decode loop every sampler shares: query, choose, reveal, over the
    sequences bases[i] in lockstep.

    Each step queries the denoiser once at the live states, with query when
    one is live and query_many otherwise, and asks chooses[i](out, state) of
    each for (rows, tokens): the rows of out to reveal, as an index array or a
    boolean mask, and one token per row of out. Returns each sequence's steps.
    Raises RuntimeError when positions are still masked after max_steps steps.
    """
    states, steps = list(bases), [[] for _ in bases]
    masked = [len(base.masked_positions()) for base in bases]  # reveal rejects a position that is not masked
    live = [i for i, m in enumerate(masked) if m]
    while live:
        if len(steps[live[0]]) == max_steps:  # every live sequence has taken as many steps
            raise RuntimeError(f"decode exceeded its step budget of {max_steps}; the policy made no progress")
        if len(live) == 1:
            outs = [denoiser.query(states[live[0]])]
        else:
            outs = denoiser.query_many([states[i] for i in live])
        for i, out in zip(live, outs):
            rows, tokens = chooses[i](out, states[i])
            step = tuple(zip(out.positions[rows].tolist(), tokens[rows].tolist()))
            steps[i].append(frozenset(step))
            states[i] = states[i].reveal(step)
            masked[i] -= len(step)
        live = [i for i in live if masked[i]]
    return [tuple(s) for s in steps]


def decode(denoiser, prompt, gen_len: int, cfg: DecodeConfig) -> Trajectory:
    """Run a baseline decode to completion and return its trajectory."""
    return decode_many(denoiser, [prompt], gen_len, [cfg])[0]


def decode_many(denoiser, prompts, gen_len: int, cfgs) -> list:
    """decode of each prompt under its config, in lockstep: each step makes
    one query over the live prompts, and each prompt selects and draws with
    its own config and generator, so each trajectory equals decode's."""
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    if len(prompts) != len(cfgs):
        raise ValueError(f"{len(prompts)} prompts but {len(cfgs)} configs")
    bases = [MaskedSequence.fully_masked(prompt, gen_len, denoiser.vocab) for prompt in prompts]
    steps = run_steps(denoiser, bases, [_baseline_policy(cfg) for cfg in cfgs], gen_len)
    return [Trajectory(s, meta=_meta(cfg, denoiser.config_id)) for s, cfg in zip(steps, cfgs)]


def _baseline_policy(cfg: DecodeConfig):
    rng = np.random.default_rng(cfg.seed)
    return lambda out, state: (select_positions(out, cfg), sample_tokens(out.dists, cfg.temperature, rng))


def _meta(cfg: DecodeConfig, denoiser_id: str) -> dict:
    meta = {"sampler": cfg.sampler_name, "rule": cfg.rule, "seed": cfg.seed, "denoiser": denoiser_id}
    if cfg.threshold is not None:
        meta["threshold"] = cfg.threshold
    return meta
