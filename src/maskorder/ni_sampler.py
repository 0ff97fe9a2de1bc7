"""Indicator-gated decoding.

Each iteration makes exactly one denoiser query: the base sampler's selection
guarantees progress, and the indicator then scores every remaining masked
position using features from that same query, revealing all positions whose
score reaches the gate threshold. Both reveal groups form one trajectory step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .core import MaskedSequence, Trajectory
from .denoiser import LOG_FLOOR, extract_features
from .labeling import LabelingConfig, label_state
from .orders import DecodeConfig, run_steps, sample_tokens, select_positions

__all__ = ["NIConfig", "ConstantIndicator", "ni_decode", "oracle_indicator_decode"]


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


class ConstantIndicator:
    """Stub indicator returning a fixed score; useful for gate identities.
    It reads no feature, so it asks for the narrowest bundle, K1 = K2 = 1."""

    config = SimpleNamespace(k1=1, k2=1)

    def __init__(self, value: float):
        self.value = value

    def score_bundles(self, features) -> np.ndarray:
        return np.full(len(features), self.value)


def ni_decode(denoiser, indicator, prompt, gen_len: int, cfg: NIConfig) -> Trajectory:
    """Decode with the base sampler plus indicator-gated parallel reveals."""
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    rng = np.random.default_rng(cfg.base.seed)

    def choose(out, state):
        tokens = sample_tokens(out.dists, cfg.base.temperature, rng)
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
        run_steps(denoiser, base, choose, gen_len),
        meta={
            "sampler": "ni",
            "seed": cfg.base.seed,
            "eps_phi": cfg.eps_phi,
            "denoiser": denoiser.config_id,
        },
    )


def oracle_indicator_decode(denoiser, record) -> Trajectory:
    """Decode gated by the exact mergeability oracle against a known reference.

    At each visited state (which must stay aligned with the reference
    trajectory) the positions revealed are exactly those that trajectory-
    preserving labeling marks positive with no probability floor.
    """
    traj = record.trajectory
    label_cfg = LabelingConfig(k1=1, k2=1, min_pos_prob=0.0)  # only the labels are used
    k = 1

    def choose(out, state):
        nonlocal k
        rows = label_state(record, k, denoiser, label_cfg, out=out).columns["label"] == 1
        prefix = np.where(traj.step_of < k, traj.finals, state.vocab.mask_id)
        if not np.array_equal(state.token_array[state.prompt_len :], prefix):
            raise AssertionError("oracle decode diverged from the reference trajectory")
        k = int(traj.step_of[out.positions[~rows]].min(initial=traj.n + 1))  # the first step left masked
        return rows, traj.finals[out.positions]

    return Trajectory(
        run_steps(denoiser, record.base(), choose, traj.n),
        meta={**traj.meta, "sampler": "oracle-indicator"},
    )
