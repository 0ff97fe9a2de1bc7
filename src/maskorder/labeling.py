"""Indicator training data: random cuts along reference trajectories.

A cut at step k reconstructs the mid-decode state, asks the denoiser once,
and labels every masked position: 1 if it belongs to the mergeable group
starting at k, otherwise 0. Positives whose top-1 probability falls below
min_pos_prob are relabeled negative; the filter touches labels only, never
the extracted features.

A dataset is one array per LabeledExample field, one row per example, in
the exact dtypes of _COLUMNS, kept as an archive (core.save_archive) whose
meta is the shared config (K1, K2, F, V, ..., and traj_ids, the record ids
that the traj_id column indexes), in `<path>.meta.json`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import SampleRecord, apply_steps, check_members, load_archive, save_archive
from .denoiser import extract_features
from .merge import count_mergeable

DEFAULT_MIN_POS_PROB = 0.15

__all__ = ["LabelingConfig", "LabeledExample", "DatasetFile", "label_state", "build_dataset", "save_dataset", "load_dataset"]


@dataclass(frozen=True)
class LabelingConfig:
    k1: int = 4
    k2: int = 8
    min_pos_prob: float = DEFAULT_MIN_POS_PROB

    def __post_init__(self) -> None:
        # NaN and ±inf are not JSON; finite values already reach both extremes:
        # at or below 0 nothing is filtered, above 1 every positive is
        if not np.isfinite(self.min_pos_prob):
            raise ValueError(f"min_pos_prob must be finite, got {self.min_pos_prob}")


# LabeledExample field -> (exact dtype of its column, meta key of its column
# width, or None for one value per example); in field order. top_tokens are
# the K1 token ids in descending probability, top_logits the K2
# log-probabilities, non-increasing, hidden the F denoiser features, traj_id
# an index into the dataset's table of record ids, config["traj_ids"], and
# pos generation-relative. An example takes 4*K1 + 8*K2 + 8*F + 24 bytes.
_COLUMNS = {
    "top_tokens": (np.dtype(np.int32), "K1"),
    "top_logits": (np.dtype(np.float64), "K2"),
    "hidden": (np.dtype(np.float64), "F"),
    "label": (np.dtype(np.int32), None),
    "top1_prob": (np.dtype(np.float64), None),
    "traj_id": (np.dtype(np.int32), None),
    "k": (np.dtype(np.int32), None),
    "pos": (np.dtype(np.int32), None),
}

LabeledExample = namedtuple("LabeledExample", _COLUMNS)


@dataclass
class DatasetFile:
    """A labeled dataset, or one cut of it: one read-only array per field, in
    _COLUMNS order, and the shared config, whose traj_ids is the table of
    record ids that the traj_id column indexes. Iterating it yields its
    LabeledExample rows, each built as it is read, with traj_id the record
    id traj_ids[i], a str."""

    columns: dict
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for a in self.columns.values():
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.columns["label"])

    def __iter__(self):
        values = {name: a if a.ndim > 1 else a.tolist() for name, a in self.columns.items()}
        values["traj_id"] = map(self.config["traj_ids"].__getitem__, values["traj_id"])
        return map(LabeledExample, *values.values())

    # the dataset itself; it stays only because bench/workloads.py reads rows
    # through it, and goes with the row API (ROADMAP item 6)
    @property
    def examples(self) -> DatasetFile:
        return self

    @property
    def positive_fraction(self) -> float:
        n = len(self.columns["label"])
        return int(self.columns["label"].sum()) / n if n else 0.0


def _meta(denoiser, cfg: LabelingConfig, traj_ids: list) -> dict:
    """The config of a dataset labeled by denoiser under cfg over records
    with these ids."""
    return {
        "K1": cfg.k1,
        "K2": cfg.k2,
        "F": denoiser.feature_dim,
        "V": denoiser.vocab.size,
        "min_pos_prob": cfg.min_pos_prob,
        "denoiser": denoiser.config_id,
        "traj_ids": traj_ids,
    }


def label_state(record: SampleRecord, k: int, denoiser, cfg: LabelingConfig) -> DatasetFile:
    """Labeled examples for every masked position at trajectory cut k, as a
    one-record dataset of the cut's columns in the dtypes of _COLUMNS: its
    config is build_dataset's over [record], so every traj_id index is 0.

    ValueError naming the record and k when count_mergeable rejects the cut,
    as when the denoiser's answer is not exactly the cut's masked positions.
    """
    traj = record.trajectory
    if not 1 <= k <= traj.n:
        raise ValueError(f"cut index {k} out of range 1..{traj.n}")
    state = apply_steps(record.base(), traj, k)
    out = denoiser.query(state)
    try:
        idx = count_mergeable(traj, k, state, out)
    except ValueError as exc:
        raise ValueError(f"record {record.id!r}, cut {k}: {exc}") from None
    mergeable = (k <= traj.step_of) & (traj.step_of < idx)
    features = extract_features(out, slice(None), cfg.k1, cfg.k2)
    top1 = out.dists.max(axis=1)
    label = mergeable[out.positions] & ~(top1 < cfg.min_pos_prob)
    traj_id, cut = np.zeros_like(out.positions), np.full_like(out.positions, k)
    columns = (features.top_tokens, features.top_logits, features.hidden, label, top1, traj_id, cut, out.positions)
    columns = {name: np.asarray(a, _COLUMNS[name][0]) for name, a in zip(_COLUMNS, columns)}
    return DatasetFile(columns, _meta(denoiser, cfg, [record.id]))


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
    is allocated once, in its _COLUMNS dtype, at its final length (a cut at k
    labels the positions revealed at step k or later) and each cut's answer
    is copied into its slice: the build holds the columns and one cut's
    answer, no more. The config's traj_ids lists every record's id in input
    order, one entry per record, and traj_id is the record's index in it, so
    records that share an id stay distinct.
    """
    if cuts_per_traj < 1:
        raise ValueError("cuts_per_traj must be >= 1")
    traj_ids, cuts = [], []
    for i, record in enumerate(records):
        traj_ids.append(record.id)
        n = record.trajectory.n
        drawn = rng.choice(n, size=min(cuts_per_traj, n), replace=False) + 1
        cuts.extend((i, record, k) for k in sorted(int(c) for c in drawn))
    if not cuts:
        raise ValueError("no trajectory has a step to label")
    sizes = [np.count_nonzero(record.trajectory.step_of >= k) for _, record, k in cuts]
    total = sum(sizes)
    columns, at = None, 0
    for (i, record, k), size in zip(cuts, sizes):
        part = label_state(record, k, denoiser, cfg).columns
        if columns is None:
            columns = {name: np.empty((total, *a.shape[1:]), _COLUMNS[name][0]) for name, a in part.items()}
        for name, a in part.items():
            columns[name][at : at + size] = i if name == "traj_id" else a
        at += size
    return DatasetFile(columns, _meta(denoiser, cfg, traj_ids))


def save_dataset(ds: DatasetFile, path) -> None:
    """Write one array per field as an archive at exactly `path`, with the
    shared config as its meta (core.save_archive)."""
    save_archive(path, ds.columns, ds.config)


def load_dataset(path) -> DatasetFile:
    """Read a dataset written by save_dataset and check it against its meta file.

    ValueError naming the path when load_archive or check_members (against
    _COLUMNS) rejects it, K1/K2/F/V are not positive integers, K1 or K2
    exceeds V, traj_ids is not a list of strings, the dataset is empty, a
    token id lies outside [0, V), a label outside {0, 1}, a traj_id outside
    [0, len(traj_ids)), a cut k below 1, a position below 0, or a top-1
    probability outside [0, 1]. So an older layout (int64 columns, ids in a
    string column) is rejected: relabel it.
    """
    arrays, config = load_archive(path)
    bad = [key for key in ("K1", "K2", "F", "V") if type(config.get(key)) is not int or config[key] < 1]
    if bad:
        raise ValueError(f"{path}.meta.json lacks {', '.join(bad)} as positive integers")
    if max(config["K1"], config["K2"]) > config["V"]:
        raise ValueError(f"{path}.meta.json: K1={config['K1']} and K2={config['K2']} must not exceed V={config['V']}")
    traj_ids = config.get("traj_ids")
    if not (isinstance(traj_ids, list) and all(isinstance(i, str) for i in traj_ids)):
        raise ValueError(f"{path}.meta.json lacks traj_ids as a list of strings")
    n = arrays.get("label", np.empty(0)).size
    members = {name: (dtype, (n,) if width is None else (n, config[width])) for name, (dtype, width) in _COLUMNS.items()}
    check_members(path, arrays, members)
    if not n:
        raise ValueError(f"{path}: the dataset holds no examples")  # build_dataset never writes one
    tokens = arrays["top_tokens"]
    if np.any((tokens < 0) | (tokens >= config["V"])):
        raise ValueError(f"{path}: token ids must lie in [0, {config['V']})")
    if not np.all((arrays["label"] == 0) | (arrays["label"] == 1)):
        raise ValueError(f"{path}: labels must be 0 or 1")
    if np.any((arrays["traj_id"] < 0) | (arrays["traj_id"] >= len(traj_ids))):
        raise ValueError(f"{path}: traj_id indices must lie in [0, {len(traj_ids)}), the length of traj_ids")
    if np.any(arrays["k"] < 1):
        raise ValueError(f"{path}: cut indices k must be at least 1")
    if np.any(arrays["pos"] < 0):
        raise ValueError(f"{path}: positions must not be negative")
    if np.any((arrays["top1_prob"] < 0) | (arrays["top1_prob"] > 1)):
        raise ValueError(f"{path}: top-1 probabilities must lie in [0, 1]")
    return DatasetFile({name: arrays[name] for name in _COLUMNS}, config)
