"""Metrics, trajectory generation, trade-off sweeps, and diversity measurement.

Wall-clock numbers are machine-relative; the sweep writes a deterministic CSV
by default (timings zeroed) so reruns with a fixed seed are byte-identical,
and fills in measured timings only when explicitly requested.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SampleRecord, final_tokens
from .denoiser import MarkovModel
from .ni_sampler import NIConfig, ni_decode
from .orders import DecodeConfig, decode

THRESHOLD_GRID = tuple(round(0.3 + 0.1 * i, 1) for i in range(7))  # 0.3 .. 0.9
INDICATOR_GRID = tuple(round(0.2 + 0.1 * i, 1) for i in range(7)) + (0.9,)  # 0.2 .. 0.8, 0.9

__all__ = [
    "THRESHOLD_GRID",
    "INDICATOR_GRID",
    "RunMetrics",
    "evaluate",
    "gen_data",
    "sweep",
    "self_bleu",
]


@dataclass(frozen=True)
class RunMetrics:
    steps: float
    wall_time: float
    tokens_per_second: float
    exact_match_rate: float
    seq_logprob: float
    config: dict = field(default_factory=dict)


def evaluate(records, reference_records, model: MarkovModel, wall_time: float = 0.0) -> RunMetrics:
    """Aggregate step counts, trajectory fidelity, and chain log-probability.

    exact_match_rate compares final tokens against the reference run on the
    same prompts; pass reference_records=None to skip it (reported as 1.0).
    """
    records = list(records)
    if not records:
        raise ValueError("no records to evaluate")
    steps = float(np.mean([r.trajectory.n for r in records]))
    total_tokens = sum(r.gen_len for r in records)
    logprobs = [
        model.sequence_logprob(list(r.prompt) + final_tokens(r.trajectory)) for r in records
    ]
    if reference_records is None:
        match_rate = 1.0
    else:
        reference_records = list(reference_records)
        if len(reference_records) != len(records):
            raise ValueError("reference run has a different number of records")
        matches = 0
        for rec, ref in zip(records, reference_records):
            if rec.prompt != ref.prompt:
                raise ValueError(f"prompt mismatch between runs at record {rec.id}")
            matches += final_tokens(rec.trajectory) == final_tokens(ref.trajectory)
        match_rate = matches / len(records)
    return RunMetrics(
        steps=steps,
        wall_time=wall_time,
        tokens_per_second=total_tokens / wall_time if wall_time > 0 else 0.0,
        exact_match_rate=match_rate,
        seq_logprob=float(np.mean(logprobs)),
        config={"count": len(records)},
    )


def sample_prompts(model: MarkovModel, prompt_len: int, count: int, seed: int) -> list:
    """Random length-P prefixes drawn from the chain itself."""
    rng = np.random.default_rng(seed)
    return [model.sample_sequence(prompt_len, rng) for _ in range(count)]


def gen_data(
    denoiser,
    prompt_model: MarkovModel,
    prompt_len: int,
    gen_len: int,
    count: int,
    cfg: DecodeConfig,
    seed: int,
    indicator=None,
    ni_cfg: NIConfig = None,
) -> list:
    """Decode `count` freshly sampled prompts and return their records.

    With ni_cfg the decode is indicator-gated and cfg is unused. Each record
    gets its own derived decode seed so random-mode runs are reproducible
    prompt by prompt.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    records = []
    for i, prompt in enumerate(sample_prompts(prompt_model, prompt_len, count, seed)):
        per_seed = seed * 100003 + i
        if ni_cfg is None:
            traj = decode(denoiser, prompt, gen_len, replace(cfg, seed=per_seed))
        else:
            job_ni = replace(ni_cfg, base=replace(ni_cfg.base, seed=per_seed))
            traj = ni_decode(denoiser, indicator, prompt, gen_len, job_ni)
        records.append(SampleRecord(f"s{seed}-{i}", denoiser.vocab, tuple(prompt), gen_len, traj))
    return records


def sweep(
    denoiser,
    model: MarkovModel,
    indicator,
    prompt_len: int,
    gen_len: int,
    count: int,
    seed: int,
    timings: bool = False,
) -> tuple:
    """Threshold grid plus indicator grid against a shared full-step reference.

    Every run decodes the same `count` prompts through gen_data. Returns
    (rows, dominance summary). Deterministic given the seed unless timings
    are enabled.
    """
    reference = gen_data(denoiser, model, prompt_len, gen_len, count, DecodeConfig(), seed)
    runs = [("threshold", eps, DecodeConfig(threshold=eps), None) for eps in THRESHOLD_GRID]
    runs += [
        ("ni", eps_phi, None, NIConfig(base=DecodeConfig(threshold=0.9), eps_phi=eps_phi))
        for eps_phi in INDICATOR_GRID
    ]
    rows = []
    for method, knob, cfg, ni_cfg in runs:
        start = time.perf_counter()
        records = gen_data(
            denoiser, model, prompt_len, gen_len, count, cfg, seed, indicator=indicator, ni_cfg=ni_cfg
        )
        elapsed = time.perf_counter() - start
        metrics = evaluate(records, reference, model, wall_time=elapsed if timings else 0.0)
        rows.append(
            {
                "method": method,
                "threshold": knob,
                "steps": metrics.steps,
                "exact_match_rate": metrics.exact_match_rate,
                "seq_logprob": metrics.seq_logprob,
                "wall_time": metrics.wall_time,
            }
        )
    return rows, dominance_summary(rows)


def dominance_summary(rows) -> dict:
    """Machine-readable Pareto comparison in (steps, exact_match_rate) space.

    An NI grid point weakly dominates a threshold point when it needs no more
    steps and matches the reference at least as often.
    """
    thr = [r for r in rows if r["method"] == "threshold"]
    ni = [r for r in rows if r["method"] == "ni"]
    points = []
    for r in ni:
        dominated = [
            t["threshold"]
            for t in thr
            if r["steps"] <= t["steps"] and r["exact_match_rate"] >= t["exact_match_rate"]
        ]
        points.append(
            {
                "eps_phi": r["threshold"],
                "steps": r["steps"],
                "exact_match_rate": r["exact_match_rate"],
                "dominates_thresholds": dominated,
            }
        )
    n_dominating = sum(1 for p in points if p["dominates_thresholds"])
    return {
        "ni_points": points,
        "ni_points_dominating": n_dominating,
        "pareto_ok": n_dominating >= 3,
    }


def write_sweep_csv(rows, path) -> None:
    """CSV with '.' decimals, LF line endings, and a header row."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "threshold", "steps", "exact_match_rate", "seq_logprob", "wall_time"])
        for r in rows:
            writer.writerow(
                [
                    r["method"],
                    f"{r['threshold']:.2f}",
                    f"{r['steps']:.6f}",
                    f"{r['exact_match_rate']:.6f}",
                    f"{r['seq_logprob']:.6f}",
                    f"{r['wall_time']:.6f}",
                ]
            )


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def self_bleu(samples, n_gram: int = 1) -> float:
    """Mean modified n-gram precision of each sample against all the others.

    Counts are clipped by the maximum reference count, references being the
    other k-1 samples. Lower values indicate higher diversity.
    """
    samples = [list(s) for s in samples]
    if len(samples) < 2:
        raise ValueError("self-BLEU needs at least two samples")
    if any(len(s) < n_gram for s in samples):
        raise ValueError("sample shorter than the n-gram order")
    precisions = []
    for i, hyp in enumerate(samples):
        counts = _ngrams(hyp, n_gram)
        ref_max = Counter()
        for j, ref in enumerate(samples):
            if j != i:
                ref_max |= _ngrams(ref, n_gram)  # per-gram max across references
        clipped = sum(min(c, ref_max[g]) for g, c in counts.items())
        precisions.append(clipped / sum(counts.values()))
    return float(np.mean(precisions))
