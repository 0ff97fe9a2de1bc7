"""The benchmark's workloads: inputs built from a seed, a set-up, and one timed round.

Each workload stresses a different layer:

- ``decode-long``: full-step and threshold decoding of 256 positions over a
  32-token chain, then both merge analyses of the full-step references. One
  reveal per step makes the posterior's per-position loop and the scoring of
  every masked row dominate. No indicator or labeling runs.
- ``ni-short``: many short indicator-gated (NI) decodes of 64 positions that
  take a few steps each, so fixed per-call costs dominate: the temper hash and
  RNG, one feature bundle per position, and small indicator forward passes.
  Part (a) decodes through ``gen_data``, where lockstep batching across
  prompts would show; part (b) decodes one prompt per call, which exposes any
  cost a batching change puts on single-prompt latency.
- ``label-train``: the write side. Labeling replays trajectory prefixes and
  builds features, the dataset goes through its file format, and the
  indicator trains with backward passes and AdamW. No decode loop runs.

A round runs only public entry points and checks every output it gets. All
rounds of a run repeat identical work, so their digests and counts agree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from maskorder import harness, indicator, labeling, merge, ni_sampler
from maskorder.core import MaskedSequence, final_tokens, validate_partition
from maskorder.denoiser import MarkovDenoiser, MarkovModel, TemperedDenoiser
from maskorder.ni_sampler import NIConfig
from maskorder.orders import DecodeConfig

from spans import NEW, traj_counts

PROMPT_LEN = 8
# the indicator geometry of the paper-scale pipeline test (acceptance criterion 08)
GEOMETRY = dict(k1=4, k2=8, emb_dim=16, hidden_dim=64, depth=2)
TRAIN_HYPER = dict(lr=1e-3, batch_size=256)

LONG_V, LONG_GEN, LONG_COUNT, LONG_DIAG, LONG_NOISE = 32, 256, 1, 8.0, 0.2

SHORT_V, SHORT_STAY, SHORT_NOISE, SHORT_GEN = 8, 0.8, 0.15, 64
SHORT_TRAIN_TRAJ, SHORT_TRAIN_CUTS, SHORT_TRAIN_EPOCHS = 8, 16, 4
SHORT_EVAL = 12
INDICATOR_SEED = 0
SHORT_EPS = (0.8, 0.9, 0.95)  # eps_phi values of part (a); 0.9 is the reported one
SHORT_MIN_SINGLES = 100  # single-prompt decodes per run, so p90 has 10 beyond it

LABEL_V, LABEL_STAY, LABEL_NOISE, LABEL_GEN = 8, 0.95, 0.15, 64
LABEL_TRAJ, LABEL_CUTS, LABEL_EPOCHS = 24, 64, 6


@dataclass
class Round:
    """What one timed round did, and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)  # stage -> seconds
    counts: dict = field(default_factory=dict)  # machine-independent, from outputs
    quality: dict = field(default_factory=dict)  # deterministic for a seed
    samples: dict = field(default_factory=dict)  # name -> per-call milliseconds
    wall: float = 0.0
    spans: tuple = ()  # [first, end) indices of this round's spans in a traced run
    _hash: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    @contextmanager
    def stage(self, name: str):
        """Add the time spent inside the block to stage ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0

    def digest_text(self, text: str) -> None:
        self._hash.update(text.encode())

    def digest_bytes(self, data: bytes) -> None:
        self._hash.update(data)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def _seeds(seed: int, tag: int, n: int) -> list:
    """Independent sub-seeds for each input of a workload."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def _sticky_chain(V: int, stay: float) -> MarkovModel:
    T = np.full((V, V), (1.0 - stay) / (V - 1))
    np.fill_diagonal(T, stay)
    return MarkovModel(np.full(V, 1.0 / V), T)


def _steps_text(traj) -> str:
    return json.dumps([sorted(map(list, step)) for step in traj.steps])


def _valid(traj, gen_len: int) -> bool:
    return validate_partition(traj, range(gen_len)).ok


def _check_records(rd: Round, records, count: int, gen_len: int, what: str) -> None:
    """One check per decode: legal partition of the generation region."""
    rd.check(len(records) == count, f"{what}: {len(records)} records, expected {count}")
    for rec in records:
        rd.check(_valid(rec.trajectory, gen_len), f"{what}: {rec.id} is not a partition")
        rd.digest_text(rec.to_json() + "\n")


def _merge_round(rd: Round, tr, den, references) -> None:
    """Both merge analyses over every reference, each checked."""
    merged_steps = []
    with rd.stage("merge"):
        for rec in references:
            traj, base = rec.trajectory, rec.base()
            mt, mrep = tr.call("merge.merge_trajectory", merge.merge_trajectory, traj, base, den, group=NEW)
            ft, frep = tr.call(
                "merge.final_results_preserving", merge.final_results_preserving, traj, base, den, group=NEW
            )
            rd.check(
                _valid(mt, rec.gen_len) and mrep.preserved and mrep.merged_steps == mt.n <= traj.n,
                f"merge of {rec.id}",
            )
            rd.check(
                _valid(ft, rec.gen_len) and frep.preserved and frep.merged_steps <= mrep.merged_steps,
                f"final-preserving order of {rec.id}",
            )
            rd.digest_text(_steps_text(mt) + _steps_text(ft))
            merged_steps.append(mt.n)
    rd.counts["merge.trajectories"] = 2 * len(references)
    rd.quality["merge_steps_per_seq"] = float(np.mean(merged_steps))


# -- decode-long ----------------------------------------------------------


def setup_decode_long(seed: int) -> dict:
    s = _seeds(seed, 1, 4)
    rng = np.random.default_rng(s[0])
    # a strong diagonal keeps runs of confident positions, and the noise makes
    # merges non-trivial: about 10 merged steps out of 256
    T = rng.dirichlet(np.ones(LONG_V), size=LONG_V) + LONG_DIAG * np.eye(LONG_V)
    T /= T.sum(axis=1, keepdims=True)
    model = MarkovModel(rng.dirichlet(np.ones(LONG_V)), T)
    den = TemperedDenoiser(MarkovDenoiser(model), temperature=1.0, noise_scale=LONG_NOISE, seed=s[1])
    # one query first, so the first timed round pays for no lazy set-up
    prompt = model.sample_sequence(PROMPT_LEN, np.random.default_rng(s[2]))
    den.query(MaskedSequence.fully_masked(prompt, LONG_GEN, den.vocab))
    return {"model": model, "den": den, "gen_seed": s[3]}


def round_decode_long(st: dict, tr, rd: Round) -> None:
    model, den = st["model"], tr.denoiser(st["den"])
    records = {}
    with rd.stage("decode"):
        for name, cfg in (("full", DecodeConfig()), ("threshold", DecodeConfig(threshold=0.9))):
            records[name] = tr.call(
                "harness.gen_data",
                harness.gen_data,
                den,
                model,
                PROMPT_LEN,
                LONG_GEN,
                LONG_COUNT,
                cfg,
                seed=st["gen_seed"],
            )
    for name, recs in records.items():
        _check_records(rd, recs, LONG_COUNT, LONG_GEN, f"{name} decode")
    metrics = tr.call("harness.evaluate", harness.evaluate, records["threshold"], records["full"], model)
    rd.quality["threshold_steps_per_seq"] = metrics.steps
    rd.counts["decode_tokens"] = 2 * LONG_COUNT * LONG_GEN
    rd.counts["orders.decode_steps"] = sum(r.trajectory.n for recs in records.values() for r in recs)
    _merge_round(rd, tr, den, records["full"])


# -- ni-short -------------------------------------------------------------


def setup_ni_short(seed: int) -> dict:
    # The indicator is trained from fixed seeds, like a model shipped with
    # the sampler; the workload seed draws the evaluation prompts and the
    # denoiser's noise. A freshly seeded indicator moves NI step counts, and
    # so the round's cost, by about 10% from seed to seed.
    t = _seeds(INDICATOR_SEED, 2, 5)
    model = _sticky_chain(SHORT_V, SHORT_STAY)
    exact = MarkovDenoiser(model)
    train_den = TemperedDenoiser(exact, temperature=1.0, noise_scale=SHORT_NOISE, seed=t[0])
    train_records = harness.gen_data(
        train_den, model, PROMPT_LEN, SHORT_GEN, SHORT_TRAIN_TRAJ, DecodeConfig(threshold=0.8), seed=t[1]
    )
    dataset = labeling.build_dataset(
        train_records, train_den, SHORT_TRAIN_CUTS, np.random.default_rng(t[2]), labeling.LabelingConfig(4, 8, 0.0)
    )
    cfg = indicator.IndicatorConfig(vocab_size=SHORT_V, feature_dim=train_den.feature_dim, **GEOMETRY)
    model0 = indicator.IndicatorModel.init(cfg, np.random.default_rng(t[3]))
    ind, _ = indicator.train(
        model0, dataset, indicator.TrainHyper(epochs=SHORT_TRAIN_EPOCHS, **TRAIN_HYPER), np.random.default_rng(t[4])
    )
    s = _seeds(seed, 2, 2)
    den = TemperedDenoiser(exact, temperature=1.0, noise_scale=SHORT_NOISE, seed=s[0])
    references = harness.gen_data(den, model, PROMPT_LEN, SHORT_GEN, SHORT_EVAL, DecodeConfig(), seed=s[1])
    return {"model": model, "den": den, "indicator": ind, "references": references, "eval_seed": s[1]}


def _ni_cfg(eps_phi: float) -> NIConfig:
    return NIConfig(base=DecodeConfig(threshold=0.9), eps_phi=eps_phi)


def round_ni_short(st: dict, tr, rd: Round) -> None:
    model, refs, eval_seed = st["model"], st["references"], st["eval_seed"]
    den, ind = tr.denoiser(st["den"]), tr.indicator(st["indicator"])
    ref_finals = [final_tokens(r.trajectory) for r in refs]
    by_eps = {}
    # (a) NI through gen_data at a few gates, over the evaluation prompts
    with rd.stage("decode"):
        for eps in SHORT_EPS:
            by_eps[eps] = tr.call(
                "harness.gen_data",
                harness.gen_data,
                den,
                model,
                PROMPT_LEN,
                SHORT_GEN,
                SHORT_EVAL,
                DecodeConfig(),
                seed=eval_seed,
                indicator=ind,
                ni_cfg=_ni_cfg(eps),
            )
    for eps, recs in by_eps.items():
        _check_records(rd, recs, SHORT_EVAL, SHORT_GEN, f"ni decode at eps_phi {eps}")
        metrics = tr.call("harness.evaluate", harness.evaluate, recs, refs, model)
        matches = sum(final_tokens(r.trajectory) == f for r, f in zip(recs, ref_finals))
        rd.check(
            all(r.prompt == ref.prompt for r, ref in zip(recs, refs))
            and metrics.exact_match_rate == matches / len(refs),
            f"exact-match rate at eps_phi {eps}",
        )
        if eps == 0.9:
            rd.quality["ni_exact_match"] = metrics.exact_match_rate
            rd.quality["ni_steps_per_seq"] = metrics.steps
    # (b) one prompt per call; greedy NI does not use the decode seed, so each
    # call must reproduce the trajectory gen_data gave that prompt
    latencies = []
    cfg = _ni_cfg(0.9)
    for i, ref in enumerate(refs):
        t0 = time.perf_counter()
        traj = tr.call(
            "ni_sampler.ni_decode",
            ni_sampler.ni_decode,
            den,
            ind,
            ref.prompt,
            SHORT_GEN,
            cfg,
            group=NEW,
            counter=traj_counts,
        )
        latencies.append((time.perf_counter() - t0) * 1e3)
        rd.check(
            _valid(traj, SHORT_GEN) and traj.steps == by_eps[0.9][i].trajectory.steps,
            f"single-prompt ni decode {i} differs from gen_data",
        )
        rd.digest_text(_steps_text(traj))
    rd.samples["ni_seq_ms"] = latencies
    rd.counts["decode_tokens"] = len(SHORT_EPS) * SHORT_EVAL * SHORT_GEN
    rd.counts["ni_sampler.steps"] = sum(r.trajectory.n for recs in by_eps.values() for r in recs) + sum(
        rec.trajectory.n for rec in by_eps[0.9]
    )
    # (c) both merge analyses over the full-step references
    _merge_round(rd, tr, den, refs)


# -- label-train ----------------------------------------------------------


def setup_label_train(seed: int) -> dict:
    s = _seeds(seed, 3, 5)
    model = _sticky_chain(LABEL_V, LABEL_STAY)
    den = TemperedDenoiser(MarkovDenoiser(model), temperature=1.0, noise_scale=LABEL_NOISE, seed=s[0])
    records = harness.gen_data(
        den, model, PROMPT_LEN, LABEL_GEN, LABEL_TRAJ, DecodeConfig(threshold=0.8), seed=s[1]
    )
    return {"den": den, "records": records, "label_seed": s[2], "init_seed": s[3], "train_seed": s[4]}


def _check_cuts(rd: Round, dataset, records) -> None:
    """One check per cut: its examples are exactly the masked positions, and
    the positives are the reference steps k..j-1 for some j > k."""
    by_cut = defaultdict(list)
    for ex in dataset.examples:
        by_cut[(ex.traj_id, ex.k)].append(ex)
    trajs = {r.id: r.trajectory for r in records}
    for (tid, k), examples in by_cut.items():
        traj = trajs[tid]
        revealed = {p for step in traj.steps[: k - 1] for p, _ in step}
        positions = sorted(ex.pos for ex in examples)
        ok = positions == sorted(set(range(LABEL_GEN)) - revealed)
        positives = {ex.pos for ex in examples if ex.label == 1}
        group, contiguous = set(), False
        for step in traj.steps[k - 1 :]:
            group |= {p for p, _ in step}
            if not group <= positives:
                break
            if group == positives:
                contiguous = True
                break
        rd.check(ok and contiguous, f"label cut {tid}@{k}")


def round_label_train(st: dict, tr, rd: Round) -> None:
    den, records, workdir = tr.denoiser(st["den"]), st["records"], st["workdir"]
    data_path = os.path.join(workdir, "train.jsonl")
    ckpt_path = os.path.join(workdir, "indicator.ckpt")
    lcfg = labeling.LabelingConfig(4, 8, min_pos_prob=0.0)
    with rd.stage("label"):
        built = tr.call(
            "labeling.build_dataset",
            labeling.build_dataset,
            records,
            den,
            LABEL_CUTS,
            np.random.default_rng(st["label_seed"]),
            lcfg,
        )
    _check_cuts(rd, built, records)
    with rd.stage("io"):
        tr.call("labeling.save_dataset", labeling.save_dataset, built, data_path)
        loaded = tr.call("labeling.load_dataset", labeling.load_dataset, data_path)
    same = len(loaded.examples) == len(built.examples) and loaded.config == built.config
    if same:
        arrays = zip(indicator.batch_arrays(built.examples), indicator.batch_arrays(loaded.examples))
        same = all(np.array_equal(a, b) for a, b in arrays)
    rd.check(same, "dataset changed through save and load")
    with open(data_path, "rb") as fh:
        data = fh.read()
    rd.digest_bytes(data)
    rd.counts["labeling.dataset_bytes"] = len(data) + os.path.getsize(data_path + ".meta.json")

    n = len(loaded.examples)
    n_train = n - (max(1, n // 10) if n >= 2 else 0)  # train() holds out a tenth
    per_epoch = math.ceil(n_train / TRAIN_HYPER["batch_size"])
    cfg = indicator.IndicatorConfig(vocab_size=LABEL_V, feature_dim=den.feature_dim, **GEOMETRY)
    model0 = indicator.IndicatorModel.init(cfg, np.random.default_rng(st["init_seed"]))
    tr.set_epoch_size(per_epoch)
    with rd.stage("train"):
        trained, history = tr.call(
            "indicator.train",
            indicator.train,
            model0,
            loaded,
            indicator.TrainHyper(epochs=LABEL_EPOCHS, **TRAIN_HYPER),
            np.random.default_rng(st["train_seed"]),
        )
    rd.check(len(history) == LABEL_EPOCHS, f"{len(history)} epochs in the history")
    for entry in history:
        rd.check(
            math.isfinite(entry["train_loss"]) and 0.0 <= entry["holdout_acc"] <= 1.0,
            f"training epoch {entry['epoch']}",
        )
    with rd.stage("io"):
        tr.call("indicator.save_checkpoint", indicator.save_checkpoint, trained, ckpt_path)
        restored = tr.call("indicator.load_checkpoint", indicator.load_checkpoint, ckpt_path, LABEL_V)
    rd.check(
        restored.config == trained.config
        and all(np.array_equal(restored.params[k], v) for k, v in trained.params.items()),
        "checkpoint changed through save and load",
    )
    with open(ckpt_path, "rb") as fh:
        rd.digest_bytes(fh.read())

    rd.counts["labeling.cuts"] = len({(ex.traj_id, ex.k) for ex in built.examples})
    rd.counts["labeling.examples"] = n
    rd.counts["indicator.minibatches"] = LABEL_EPOCHS * per_epoch
    rd.counts["train_example_epochs"] = LABEL_EPOCHS * n_train
    rd.quality["labeling.positive_frac"] = built.positive_fraction
    rd.quality["holdout_acc"] = history[-1]["holdout_acc"]


@dataclass(frozen=True)
class Workload:
    setup: object
    round: object
    min_samples: dict = field(default_factory=dict)  # sample name -> fewest per run


# the module docstring and BENCHMARK.json say why each workload is here
WORKLOADS = {
    "decode-long": Workload(setup_decode_long, round_decode_long),
    "ni-short": Workload(setup_ni_short, round_ni_short, min_samples={"ni_seq_ms": SHORT_MIN_SINGLES}),
    "label-train": Workload(setup_label_train, round_label_train),
}
