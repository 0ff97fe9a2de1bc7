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
    mode) from the generator seeded with base.seed. Random mode draws a
    candidate token for every masked position each step, revealed or not, to
    put it into the features; so even with a gate that never fires its
    generator stream differs from decode(base) after the first step, and NI
    with a closed gate equals its base sampler only in greedy mode.
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

    def score_bundles(self, features) -> np.ndarray:
        return np.full(len(features), self.value)


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
        rest = [j for j, pos in enumerate(out.positions) if pos not in reveals]
        if rest:
            features = extract_features(out, rest, cfg.k1, cfg.k2)
            tokens = features.top_tokens[:, 0]  # a view: the argmax, ties toward the lower id
            if random_mode:
                # the sampled token and its log-probability take the top-1
                # slots; the other ranked slots are kept as-is
                tokens[:] = [commit_token(out.dists[j], temperature, rng) for j in rest]
                features.top_logits[:, 0] = np.log(np.maximum(out.dists[rest, tokens], LOG_FLOOR))
            scores = indicator.score_bundles(features)
            for j, tok, score in zip(rest, tokens, scores):
                if score >= cfg.eps_phi:
                    reveals[out.positions[j]] = int(tok)
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
