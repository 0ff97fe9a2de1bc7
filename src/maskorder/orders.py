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

__all__ = ["RULES", "DecodeConfig", "position_scores", "select_positions", "run_steps", "decode", "categorical_sample"]


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
        if self.temperature is not None and self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def sampler_name(self) -> str:
        return "full" if self.threshold is None else "threshold"


def position_scores(dists: np.ndarray, rule: str) -> np.ndarray:
    """Confidence score of every probability row; larger means more confident."""
    dists = np.asarray(dists)
    if not (np.all(np.abs(dists.sum(axis=1) - 1.0) <= 1e-6) and np.all(dists >= 0)):
        raise ValueError("a row is not a normalized distribution")
    if rule == "prob":
        return dists.max(axis=1)
    if rule == "margin":
        top2 = np.partition(dists, -2, axis=1)[:, -2:]
        return top2[:, 1] - top2[:, 0]
    if rule == "negentropy":
        return np.sum(dists * np.log(np.maximum(dists, LOG_FLOOR)), axis=1)
    raise ValueError(f"unknown rule {rule!r}")


def select_positions(out: DenoiserOutput, cfg: DecodeConfig) -> list:
    """Absolute positions to reveal this step.

    Full-step mode picks the single best-scoring position. Threshold mode
    picks every position whose top-1 probability is >= the threshold, falling
    back to the single best-scoring position so that progress is guaranteed.
    Ties in score break toward the lowest position.
    """
    if not out.positions:
        raise ValueError("no masked positions to select from")
    scores = position_scores(out.dists, cfg.rule)
    if cfg.threshold is not None:
        confident = np.flatnonzero(out.dists.max(axis=1) >= cfg.threshold)
        if len(confident):
            return [out.positions[j] for j in confident]
    return [out.positions[int(np.argmax(scores))]]


def categorical_sample(row: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    """Sample a token from softmax(log row / temperature)."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logp = np.log(np.maximum(np.asarray(row, dtype=np.float64), 1e-300)) / temperature
    logp -= logp.max()
    p = np.exp(logp)
    p /= p.sum()
    return int(rng.choice(p.shape[0], p=p))


def commit_token(row: np.ndarray, temperature: Optional[float], rng) -> int:
    """Greedy argmax (ties toward the lower id) or a categorical sample."""
    if temperature is None:
        return int(np.argmax(row))
    return categorical_sample(row, temperature, rng)


def run_steps(denoiser, base: MaskedSequence, choose, max_steps: int) -> tuple:
    """The decode loop every sampler shares: query, choose, reveal.

    Each step queries the denoiser once at the current state and asks
    choose(out, state) for the step's {generation position: token}. Raises
    RuntimeError when positions are still masked after max_steps steps.
    """
    state = base
    steps = []
    while state.masked_positions():
        if len(steps) == max_steps:
            raise RuntimeError(f"decode exceeded its step budget of {max_steps}; the policy made no progress")
        out = denoiser.query(state)
        step = sorted(choose(out, state).items())
        steps.append(frozenset(step))
        state = state.reveal(step)
    return tuple(steps)


def decode(denoiser, prompt, gen_len: int, cfg: DecodeConfig) -> Trajectory:
    """Run a baseline decode to completion and return its trajectory."""
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    rng = np.random.default_rng(cfg.seed)

    def choose(out, state):
        return {
            pos - state.prompt_len: commit_token(out.row(pos), cfg.temperature, rng)
            for pos in sorted(select_positions(out, cfg))
        }

    base = MaskedSequence.fully_masked(prompt, gen_len, denoiser.vocab)
    meta = {
        "sampler": cfg.sampler_name,
        "rule": cfg.rule,
        "seed": cfg.seed,
        "denoiser": denoiser.config_id,
    }
    if cfg.threshold is not None:
        meta["threshold"] = cfg.threshold
    return Trajectory(run_steps(denoiser, base, choose, gen_len), meta=meta)
