"""Indicator training data: random cuts along reference trajectories.

A cut at step k reconstructs the mid-decode state, asks the denoiser once,
and labels every masked position: 1 if it belongs to the mergeable group
starting at k, otherwise 0. Positives whose top-1 probability falls below
min_pos_prob are relabeled negative; the filter touches labels only, never
the extracted features.

A dataset is one array per LabeledExample field, one row per example, kept
as an archive (core.save_archive) whose meta is the shared config (K1, K2,
F, V, ...), in `<path>.meta.json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import SampleRecord, apply_steps, load_archive, save_archive
from .denoiser import extract_features
from .merge import count_mergeable

DEFAULT_MIN_POS_PROB = 0.15

__all__ = ["LabelingConfig", "LabeledExample", "Rows", "DatasetFile", "label_state", "build_dataset", "save_dataset", "load_dataset"]


@dataclass(frozen=True)
class LabelingConfig:
    k1: int = 4
    k2: int = 8
    min_pos_prob: float = DEFAULT_MIN_POS_PROB


class LabeledExample(NamedTuple):
    top_tokens: np.ndarray  # K1 token ids, descending probability
    top_logits: np.ndarray  # K2 log-probabilities, non-increasing
    hidden: np.ndarray  # F denoiser features
    label: int
    top1_prob: float
    traj_id: str
    k: int
    pos: int  # generation-relative


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


@dataclass(frozen=True, eq=False)
class Rows:
    """LabeledExample rows over one array per field, in _COLUMNS order, each built as it is read."""

    columns: dict

    def __len__(self) -> int:
        return len(self.columns["label"])

    def __iter__(self):
        return map(LabeledExample, *(a if a.ndim > 1 else a.tolist() for a in self.columns.values()))


@dataclass
class DatasetFile:
    columns: dict  # field -> read-only array, as in Rows
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for a in self.columns.values():
            a.flags.writeable = False

    @property
    def examples(self) -> Rows:
        return Rows(self.columns)

    @property
    def positive_fraction(self) -> float:
        n = len(self.columns["label"])
        return int(self.columns["label"].sum()) / n if n else 0.0


def label_state(record: SampleRecord, k: int, denoiser, cfg: LabelingConfig, out=None) -> Rows:
    """Labeled examples for every masked position at trajectory cut k, as a
    Rows view of the cut's columns.

    out, when given, is the denoiser's answer at that cut's state, which
    saves the query. ValueError naming the record and k when the answer's
    positions are not exactly the cut's masked positions.
    """
    traj = record.trajectory
    if not 1 <= k <= traj.n:
        raise ValueError(f"cut index {k} out of range 1..{traj.n}")
    state = apply_steps(record.base(), traj, k)
    if out is None:
        out = denoiser.query(state)
    # the state's masked positions, which count_mergeable checks are those
    # with k <= step_of
    masked = np.flatnonzero(state.token_array[state.prompt_len :] == state.vocab.mask_id)
    if not np.array_equal(out.positions, masked):
        raise ValueError(
            f"record {record.id!r}, cut {k}: the denoiser answered {len(out.positions)} positions, "
            f"not exactly the cut's {len(masked)} masked positions"
        )
    idx = count_mergeable(traj, k, state, out)
    mergeable = (k <= traj.step_of) & (traj.step_of < idx)
    features = extract_features(out, slice(None), cfg.k1, cfg.k2)
    top1 = out.dists.max(axis=1)
    label = (mergeable[out.positions] & ~(top1 < cfg.min_pos_prob)).astype(np.int64)
    traj_id, cut = np.full(len(top1), record.id), np.full(len(top1), k, dtype=np.int64)
    columns = (features.top_tokens, features.top_logits, features.hidden, label, top1, traj_id, cut, out.positions)
    return Rows(dict(zip(_COLUMNS, columns)))


def build_dataset(
    records,
    denoiser,
    cuts_per_traj: int,
    rng: np.random.Generator,
    cfg: LabelingConfig,
) -> DatasetFile:
    """label_state outputs over random cuts of every trajectory, in record
    and then cut order, as one dataset.

    Cut indices are drawn uniformly from {1..n}, without replacement where the
    trajectory is long enough. Every cut is drawn first, so that each column
    is allocated once at its final length (a cut at k labels the positions
    revealed at step k or later) and each cut's answer is copied into its
    slice: the build holds the columns and one cut's answer, no more.
    """
    if cuts_per_traj < 1:
        raise ValueError("cuts_per_traj must be >= 1")
    cuts = []
    for record in records:
        n = record.trajectory.n
        drawn = rng.choice(n, size=min(cuts_per_traj, n), replace=False) + 1
        cuts.extend((record, k) for k in sorted(int(c) for c in drawn))
    if not cuts:
        raise ValueError("no trajectory has a step to label")
    sizes = [np.count_nonzero(record.trajectory.step_of >= k) for record, k in cuts]
    total = sum(sizes)
    # the widest id, at least U1, as concatenating the cuts' id columns gives
    id_dtype = np.array([record.id for record, _ in cuts]).dtype
    columns, at = None, 0
    for (record, k), size in zip(cuts, sizes):
        part = label_state(record, k, denoiser, cfg).columns
        if columns is None:
            columns = {
                name: np.empty((total, *a.shape[1:]), id_dtype if name == "traj_id" else a.dtype)
                for name, a in part.items()
            }
        for name, a in part.items():
            columns[name][at : at + size] = a
        at += size
    config = {
        "K1": cfg.k1,
        "K2": cfg.k2,
        "F": denoiser.feature_dim,
        "V": denoiser.vocab.size,
        "min_pos_prob": cfg.min_pos_prob,
        "denoiser": denoiser.config_id,
    }
    return DatasetFile(columns, config)


def save_dataset(ds: DatasetFile, path) -> None:
    """Write one array per field as an archive at exactly `path`, with the
    shared config as its meta (core.save_archive)."""
    save_archive(path, ds.columns, ds.config)


def load_dataset(path) -> DatasetFile:
    """Read a dataset written by save_dataset and check it against its meta file.

    Raises ValueError naming the path when load_archive does, K1/K2/F/V are
    not positive integers, K1 or K2 exceeds V, the arrays are not exactly the
    columns, a shape disagrees, a token id lies outside [0, V), a label
    outside {0, 1}, or top_logits, hidden or top1_prob holds NaN or ±inf.
    """
    arrays, config = load_archive(path)
    bad = [key for key in ("K1", "K2", "F", "V") if type(config.get(key)) is not int or config[key] < 1]
    if bad:
        raise ValueError(f"{path}.meta.json lacks {', '.join(bad)} as positive integers")
    if max(config["K1"], config["K2"]) > config["V"]:
        raise ValueError(f"{path}.meta.json: K1={config['K1']} and K2={config['K2']} must not exceed V={config['V']}")
    if set(arrays) != set(_COLUMNS):
        raise ValueError(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(_COLUMNS)}")
    n = arrays["label"].size
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
    for name in ("top_logits", "hidden", "top1_prob"):
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: column {name} holds NaN or infinite values")
    return DatasetFile({name: arrays[name] for name in _COLUMNS}, config)
