"""Indicator training data: random cuts along reference trajectories.

A cut at step k reconstructs the mid-decode state, asks the denoiser once,
and labels every masked position: 1 if it belongs to the mergeable group
starting at k, otherwise 0. Positives whose top-1 probability falls below
min_pos_prob are relabeled negative; the filter touches labels only, never
the extracted features.

A dataset file is an .npz archive with one array per LabeledExample field,
one row per example; the shared config (K1, K2, F, V, ...) goes to
`<path>.meta.json`.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .core import SampleRecord, apply_steps
from .denoiser import extract_features
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
    top_tokens: np.ndarray  # K1 token ids, descending probability
    top_logits: np.ndarray  # K2 log-probabilities, non-increasing
    hidden: np.ndarray  # F denoiser features
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
    features = extract_features(out, slice(None), cfg.k1, cfg.k2)
    top1 = out.dists.max(axis=1).tolist()
    examples = []
    for j, abs_pos in enumerate(out.positions):
        pos = abs_pos - state.prompt_len
        label = 1 if pos in mergeable else 0
        if label == 1 and top1[j] < cfg.min_pos_prob:
            label = 0
        examples.append(
            LabeledExample(
                top_tokens=features.top_tokens[j],
                top_logits=features.top_logits[j],
                hidden=features.hidden[j],
                label=label,
                top1_prob=top1[j],
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


# LabeledExample field -> (dtype kind, meta key of its column width, or None
# for one value per example); in field order
_COLUMNS = {
    "top_tokens": ("i", "K1"),
    "top_logits": ("f", "K2"),
    "hidden": ("f", "F"),
    "label": ("i", None),
    "top1_prob": ("f", None),
    "traj_id": ("U", None),
    "k": ("i", None),
    "pos": ("i", None),
}


def save_dataset(ds: DatasetFile, path) -> None:
    """Write one array per field as an .npz at exactly `path`; the shared
    config goes to `<path>.meta.json`."""
    arrays = {name: np.asarray([getattr(ex, name) for ex in ds.examples]) for name in _COLUMNS}
    with open(path, "wb") as fh:  # a file handle keeps numpy from appending ".npz"
        np.savez(fh, **arrays)
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(ds.config, fh)


def load_dataset(path) -> DatasetFile:
    """Read a dataset written by save_dataset and check it against its meta file.

    Raises ValueError, naming the path, when the file is not a dataset archive,
    when its column widths disagree with K1/K2/F or its columns with each
    other, or when a token id lies outside [0, V) or a label outside {0, 1}.
    """
    try:
        with open(str(path) + ".meta.json") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: dataset meta file {path}.meta.json is missing") from None
    missing = [key for key in ("K1", "K2", "F", "V") if key not in config]
    if missing:
        raise ValueError(f"{path}.meta.json lacks {', '.join(missing)}")
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a single array")
        with npz:
            arrays = {name: npz[name] for name in _COLUMNS}
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a dataset .npz archive ({exc})") from None
    n = len(arrays["label"])
    for name, (kind, width) in _COLUMNS.items():
        a = arrays[name]
        shape = (n,) if width is None else (n, config[width])
        if a.dtype.kind != kind or a.shape != shape:
            raise ValueError(
                f"{path}: column {name} has dtype {a.dtype} and shape {a.shape}, "
                f"expected kind {kind!r} and shape {shape}"
            )
    tokens = arrays["top_tokens"]
    if np.any((tokens < 0) | (tokens >= config["V"])):
        raise ValueError(f"{path}: token ids must lie in [0, {config['V']})")
    if not np.all((arrays["label"] == 0) | (arrays["label"] == 1)):
        raise ValueError(f"{path}: labels must be 0 or 1")
    columns = [a if _COLUMNS[name][1] else a.tolist() for name, a in arrays.items()]
    return DatasetFile([LabeledExample(*values) for values in zip(*columns)], config)
