"""Indicator-gated decoding.

Each iteration makes exactly one denoiser query: the base sampler's selection
guarantees progress, and the indicator then scores every remaining masked
position using features from that same query, revealing all positions whose
score reaches the gate threshold. Both reveal groups form one trajectory step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import MaskedSequence, Trajectory, apply_steps, final_tokens
from .denoiser import LOG_FLOOR, extract_features
from .labeling import LabelingConfig, label_state
from .orders import DecodeConfig, commit_token, run_steps, select_positions

__all__ = ["NIConfig", "ConstantIndicator", "ni_decode", "oracle_indicator_decode"]


@dataclass(frozen=True)
class NIConfig:
    """Indicator-gated decode settings.

    base selects the progress-guaranteeing positions and is the token source:
    base.temperature None commits argmax tokens, a float samples them (random
    mode) from the generator seeded with base.seed.
    """

    base: DecodeConfig = field(default_factory=lambda: DecodeConfig(threshold=0.9))
    eps_phi: float = 0.9
    k1: int = 4
    k2: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_phi <= 1.0:
            raise ValueError(f"eps_phi must be in [0, 1], got {self.eps_phi}")


class ConstantIndicator:
    """Stub indicator returning a fixed score; useful for gate identities."""

    def __init__(self, value: float):
        self.value = value

    def score_bundles(self, bundles) -> np.ndarray:
        return np.full(len(bundles), self.value)


def _bundle_for(out, pos, cfg: NIConfig, sampled_token=None):
    bundle = extract_features(out, pos, cfg.k1, cfg.k2)
    if sampled_token is None:
        return bundle
    # random mode: the actually sampled token and its log-probability take the
    # top-1 slots; the other ranked slots are kept as-is
    top_tokens = (sampled_token,) + bundle.top_tokens[1:]
    top_logits = bundle.top_logits.copy()
    top_logits[0] = np.log(max(float(out.row(pos)[sampled_token]), LOG_FLOOR))
    return type(bundle)(top_tokens, top_logits, bundle.hidden)


def ni_decode(denoiser, indicator, prompt, gen_len: int, cfg: NIConfig) -> Trajectory:
    """Decode with the base sampler plus indicator-gated parallel reveals."""
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    rng = np.random.default_rng(cfg.base.seed)
    temperature = cfg.base.temperature
    random_mode = temperature is not None

    def choose(out, state):
        reveals = {
            pos: commit_token(out.row(pos), temperature, rng)
            for pos in sorted(select_positions(out, cfg.base))
        }
        remaining = [p for p in state.masked_positions() if p not in reveals]
        if remaining:
            sampled = {}
            if random_mode:
                sampled = {pos: commit_token(out.row(pos), temperature, rng) for pos in remaining}
            bundles = [_bundle_for(out, pos, cfg, sampled.get(pos)) for pos in remaining]
            scores = indicator.score_bundles(bundles)
            for pos, score in zip(remaining, scores):
                if score >= cfg.eps_phi:
                    reveals[pos] = sampled[pos] if random_mode else int(np.argmax(out.row(pos)))
        return {pos - state.prompt_len: tok for pos, tok in reveals.items()}

    base = MaskedSequence.fully_masked(prompt, gen_len, denoiser.vocab)
    return Trajectory(
        run_steps(denoiser, base, choose, gen_len),
        meta={
            "sampler": "ni",
            "seed": cfg.base.seed,
            "eps_phi": cfg.eps_phi,
            "denoiser": denoiser.config_id,
        },
    )


def oracle_indicator_decode(denoiser, record, cfg: Optional[NIConfig] = None) -> Trajectory:
    """Decode gated by the exact mergeability oracle against a known reference.

    At each visited state (which must stay aligned with the reference
    trajectory) the positions revealed are exactly those that trajectory-
    preserving labeling marks positive with no probability floor.
    """
    traj = record.trajectory
    base = record.base()
    finals = final_tokens(traj)
    label_cfg = LabelingConfig(k1=1, k2=1, min_pos_prob=0.0)  # only the labels are used
    k = 1

    def choose(out, state):
        nonlocal k
        if state.tokens != apply_steps(base, traj, k).tokens:
            raise AssertionError("oracle decode diverged from the reference trajectory")
        chosen = {ex.pos for ex in label_state(record, k, denoiser, label_cfg, out=out) if ex.label}
        while k <= traj.n and all(pos in chosen for pos, _ in traj.steps[k - 1]):
            k += 1
        return {pos: finals[pos] for pos in chosen}

    return Trajectory(
        run_steps(denoiser, base, choose, traj.n),
        meta={**traj.meta, "sampler": "oracle-indicator"},
    )
