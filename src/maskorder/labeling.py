"""Indicator training data: random cuts along reference trajectories.

A cut at step k reconstructs the mid-decode state, asks the denoiser once,
and labels every masked position: 1 if it belongs to the mergeable group
starting at k, otherwise 0. Positives whose top-1 probability falls below
min_pos_prob are relabeled negative; the filter touches labels only, never
the extracted features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import SampleRecord, apply_steps
from .denoiser import FeatureBundle, extract_features
from .merge import count_mergeable

DEFAULT_MIN_POS_PROB = 0.15

__all__ = ["LabelingConfig", "LabeledExample", "DatasetFile", "label_state", "build_dataset", "save_dataset", "load_dataset"]


@dataclass(frozen=True)
class LabelingConfig:
    k1: int = 4
    k2: int = 8
    min_pos_prob: float = DEFAULT_MIN_POS_PROB


@dataclass(frozen=True)
class LabeledExample:
    bundle: FeatureBundle
    label: int
    top1_prob: float
    traj_id: str
    k: int
    pos: int  # generation-relative


@dataclass
class DatasetFile:
    examples: list
    config: dict = field(default_factory=dict)

    @property
    def positive_fraction(self) -> float:
        if not self.examples:
            return 0.0
        return sum(ex.label for ex in self.examples) / len(self.examples)


def label_state(record: SampleRecord, k: int, denoiser, cfg: LabelingConfig, out=None) -> list:
    """Labeled examples for every masked position at trajectory cut k.

    out, when given, is the denoiser's answer at that cut's state, which
    saves the query.
    """
    traj = record.trajectory
    if not 1 <= k <= traj.n:
        raise ValueError(f"cut index {k} out of range 1..{traj.n}")
    base = record.base()
    state = apply_steps(base, traj, k)
    if out is None:
        out = denoiser.query(state)
    idx = count_mergeable(traj, k, state, denoiser, out=out)
    mergeable = {pos for step in traj.steps[k - 1 : idx - 1] for pos, _ in step}
    P = state.prompt_len
    examples = []
    for abs_pos in state.masked_positions():
        pos = abs_pos - P
        row = out.row(abs_pos)
        top1_prob = float(row.max())
        label = 1 if pos in mergeable else 0
        if label == 1 and top1_prob < cfg.min_pos_prob:
            label = 0
        examples.append(
            LabeledExample(
                bundle=extract_features(out, abs_pos, cfg.k1, cfg.k2),
                label=label,
                top1_prob=top1_prob,
                traj_id=record.id,
                k=k,
                pos=pos,
            )
        )
    return examples


def build_dataset(
    records,
    denoiser,
    cuts_per_traj: int,
    rng: np.random.Generator,
    cfg: LabelingConfig,
) -> DatasetFile:
    """Concatenate label_state outputs over random cuts of every trajectory.

    Cut indices are drawn uniformly from {1..n}, without replacement where the
    trajectory is long enough.
    """
    if cuts_per_traj < 1:
        raise ValueError("cuts_per_traj must be >= 1")
    records = list(records)
    if not records:
        raise ValueError("no trajectories to label")
    examples = []
    for record in records:
        n = record.trajectory.n
        cuts = rng.choice(n, size=min(cuts_per_traj, n), replace=False) + 1
        for k in sorted(int(c) for c in cuts):
            examples.extend(label_state(record, k, denoiser, cfg))
    config = {
        "K1": cfg.k1,
        "K2": cfg.k2,
        "F": denoiser.feature_dim,
        "V": denoiser.vocab.size,
        "min_pos_prob": cfg.min_pos_prob,
        "denoiser": denoiser.config_id,
    }
    return DatasetFile(examples, config)


def save_dataset(ds: DatasetFile, path) -> None:
    """Write examples as JSONL; the shared config goes to `<path>.meta.json`."""
    with open(path, "w") as fh:
        for ex in ds.examples:
            fh.write(
                json.dumps(
                    {
                        "top_tokens": list(ex.bundle.top_tokens),
                        "top_logits": ex.bundle.top_logits.tolist(),
                        "hidden": ex.bundle.hidden.tolist(),
                        "label": ex.label,
                        "top1_prob": ex.top1_prob,
                        "traj": ex.traj_id,
                        "k": ex.k,
                        "pos": ex.pos,
                    }
                )
                + "\n"
            )
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(ds.config, fh)


def load_dataset(path) -> DatasetFile:
    examples = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            d = json.loads(line)
            examples.append(
                LabeledExample(
                    bundle=FeatureBundle(
                        tuple(d["top_tokens"]),
                        np.asarray(d["top_logits"], dtype=np.float64),
                        np.asarray(d["hidden"], dtype=np.float64),
                    ),
                    label=int(d["label"]),
                    top1_prob=float(d["top1_prob"]),
                    traj_id=d["traj"],
                    k=int(d["k"]),
                    pos=int(d["pos"]),
                )
            )
    try:
        with open(str(path) + ".meta.json") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        config = {}
    return DatasetFile(examples, config)
