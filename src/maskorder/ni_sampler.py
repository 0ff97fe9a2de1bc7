"""Indicator-gated decoding.

Each iteration makes exactly one denoiser query: the base sampler's selection
guarantees progress, and the indicator then scores every remaining masked
position using features from that same query, revealing all positions whose
score reaches the gate threshold. Both reveal groups form one trajectory step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MaskedSequence, Trajectory
from .denoiser import LOG_FLOOR, extract_features
from .orders import DecodeConfig, run_steps, sample_tokens, select_positions

__all__ = ["NIConfig", "ni_decode"]


@dataclass(frozen=True)
class NIConfig:
    """Indicator-gated decode settings.

    base picks the progress-guaranteeing positions and sets the token source:
    argmax tokens when base.temperature is None, else samples drawn from the
    generator seeded with base.seed. Tokens come from orders.sample_tokens as
    in decode(base), so with a gate that never fires NI equals decode(base).
    The feature geometry (K1, K2) is the indicator's own, from its config.
    """

    base: DecodeConfig = field(default_factory=lambda: DecodeConfig(threshold=0.9))
    eps_phi: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_phi <= 1.0:
            raise ValueError(f"eps_phi must be in [0, 1], got {self.eps_phi}")


def ni_decode(denoiser, indicator, prompt, gen_len: int, cfg: NIConfig) -> Trajectory:
    """Decode with the base sampler plus indicator-gated parallel reveals."""
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    rng = np.random.default_rng(cfg.base.seed)

    def choose(live, outs, states):
        (out,) = outs
        tokens = sample_tokens(out.dists, cfg.base.temperature, [rng])
        revealed = np.zeros(len(out.positions), dtype=bool)
        revealed[select_positions(out, cfg.base)] = True
        rest = np.flatnonzero(~revealed)
        if len(rest):
            # the top-1 slots get the token the step would commit (greedily, the argmax)
            features = extract_features(out, rest, indicator.config.k1, indicator.config.k2)
            features.top_tokens[:, 0] = tokens[rest]
            features.top_logits[:, 0] = np.log(np.maximum(out.dists[rest, tokens[rest]], LOG_FLOOR))
            revealed[rest] = indicator.score_bundles(features) >= cfg.eps_phi
        return revealed, tokens

    base = MaskedSequence.fully_masked(prompt, gen_len, denoiser.vocab)
    return Trajectory(
        run_steps(denoiser, [base], choose, gen_len)[0],
        meta={
            "sampler": "ni",
            "seed": cfg.base.seed,
            "eps_phi": cfg.eps_phi,
            "denoiser": denoiser.config_id,
        },
    )
