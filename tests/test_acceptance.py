"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

The suite leans on the independent oracles in conftest (brute-force posterior
enumeration, naive merge re-simulation) rather than the library's own
implementations wherever a criterion asks for an external check.
"""

import time

import numpy as np
import pytest

from conftest import (
    ConstantIndicator,
    brute_force_posterior,
    make_instance,
    oracle_indicator_decode,
    random_chain,
    resimulate_merge,
    row_at,
    sticky_chain,
)
from maskorder import harness
from maskorder.core import MaskedSequence, Vocabulary, apply_steps, final_tokens, validate_partition
from maskorder.denoiser import MarkovDenoiser, TemperedDenoiser, markov_posterior
from maskorder.indicator import IndicatorConfig, IndicatorModel, TrainHyper, loss_and_grad, train
from maskorder.labeling import LabelingConfig, label_state, build_dataset
from maskorder.merge import final_results_preserving, merge_trajectory
from maskorder.ni_sampler import NIConfig, ni_decode
from maskorder.orders import DecodeConfig, decode


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    """100 seeded instances with their trajectory-preserving merges, timed."""
    t0 = time.perf_counter()
    instances = [make_instance(seed) for seed in range(100)]
    build_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    merges = [merge_trajectory(rec.trajectory, rec.base(), den) for den, rec in instances]
    merge_time = time.perf_counter() - t0
    return instances, merges, build_time + merge_time


@pytest.fixture(scope="module")
def speedup_ctx():
    """Full learned-indicator pipeline on the near-deterministic chain, timed.

    A mild noise temper keeps the labels non-degenerate: without it every cut
    of a greedy reference on this chain is fully mergeable and the classifier
    has nothing to learn.
    """
    t0 = time.perf_counter()
    model = sticky_chain(8, 0.95)
    den = TemperedDenoiser(MarkovDenoiser(model), temperature=1.0, noise_scale=0.15, seed=42)

    train_records = harness.gen_data(den, model, 8, 64, 125, DecodeConfig(threshold=0.8), seed=101)
    n_cuts = sum(r.trajectory.n for r in train_records)
    dataset = build_dataset(
        train_records, den, 64, np.random.default_rng(7), LabelingConfig(4, 8, min_pos_prob=0.0)
    )
    cfg = IndicatorConfig(
        vocab_size=8, k1=4, k2=8, feature_dim=den.feature_dim, emb_dim=16, hidden_dim=64, depth=2
    )
    indicator = IndicatorModel.init(cfg, np.random.default_rng(0))
    indicator, history = train(
        indicator, dataset, TrainHyper(lr=1e-3, batch_size=256, epochs=6), np.random.default_rng(1)
    )

    n_eval = 50
    reference = harness.gen_data(den, model, 8, 64, n_eval, DecodeConfig(), seed=555)
    threshold = harness.gen_data(den, model, 8, 64, n_eval, DecodeConfig(threshold=0.9), seed=555)
    ni_cfg = NIConfig(base=DecodeConfig(threshold=0.9), eps_phi=0.9)
    ni = harness.gen_data(
        den, model, 8, 64, n_eval, DecodeConfig(), seed=555, indicator=indicator, ni_cfg=ni_cfg
    )
    merge_steps = float(
        np.mean([merge_trajectory(r.trajectory, r.base(), den)[0].n for r in reference])
    )
    elapsed = time.perf_counter() - t0
    return {
        "model": model,
        "denoiser": den,
        "indicator": indicator,
        "n_cuts": n_cuts,
        "history": history,
        "reference": reference,
        "threshold": threshold,
        "ni": ni,
        "merge_steps": merge_steps,
        "elapsed": elapsed,
    }


def test_criterion_01_posterior_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        V = int(rng.integers(2, 6))
        L = int(rng.integers(2, 9))
        model = random_chain(V, rng)
        tokens = list(model.sample_sequence(L, rng))
        n_masked = int(rng.integers(1, L + 1))
        for pos in rng.choice(L, size=n_masked, replace=False):
            tokens[pos] = V
        seq = MaskedSequence(tuple(tokens), 0, Vocabulary(V))
        out = markov_posterior(model, seq)
        for pos, expected in brute_force_posterior(model, seq).items():
            worst = max(worst, float(np.max(np.abs(row_at(out, pos - seq.prompt_len) - expected))))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "posterior oracle exactness",
        worst < 1e-10 and elapsed < 10.0,
        f"max |err| = {worst:.3e} over 200 instances in {elapsed:.2f}s",
    )


def test_criterion_02_trajectory_preservation(suite):
    instances, merges, elapsed = suite
    t0 = time.perf_counter()
    bad = 0
    for (_, rec), (merged, report) in zip(instances, merges):
        ok = (
            report.preserved
            and final_tokens(merged) == final_tokens(rec.trajectory)
            and validate_partition(merged, range(rec.gen_len)).ok
        )
        bad += not ok
    elapsed += time.perf_counter() - t0
    _report(
        2,
        "trajectory preservation",
        bad == 0 and elapsed < 30.0,
        f"{100 - bad}/100 instances preserved exactly in {elapsed:.2f}s",
    )


def test_criterion_03_merge_oracle_equivalence(suite):
    instances, merges, _ = suite
    mismatches = sum(
        list(report.per_group) != resimulate_merge(rec, den)
        for (den, rec), (_, report) in zip(instances, merges)
    )
    _report(
        3,
        "merge count oracle equivalence",
        mismatches == 0,
        f"{100 - mismatches}/100 instances match the independent re-simulation",
    )


def test_criterion_04_step_count_ordering(suite):
    instances, merges, _ = suite
    violations = 0
    for (den, rec), (merged, _) in zip(instances, merges):
        frp, _ = final_results_preserving(rec.trajectory, rec.base(), den)
        if not frp.n <= merged.n <= rec.trajectory.n:
            violations += 1
    _report(
        4,
        "final-preserving <= merge <= reference ordering",
        violations == 0,
        f"ordering holds on {100 - violations}/100 instances",
    )


def test_criterion_05_label_merge_consistency(suite):
    instances, _, _ = suite
    cfg = LabelingConfig(k1=2, k2=2, min_pos_prob=0.0)
    pairs = 0
    mismatches = 0
    for seed, (den, rec) in enumerate(instances):
        traj = rec.trajectory
        rng = np.random.default_rng(20_000 + seed)
        cuts = rng.choice(traj.n, size=min(6, traj.n), replace=False) + 1
        for k in cuts:
            k = int(k)
            # independent first-group scan with a fresh query
            state = apply_steps(rec.base(), traj, k)
            out = den.query(state)
            group = {pos for pos, _ in traj.steps[k - 1]}
            idx = k + 1
            while idx <= traj.n and all(
                int(np.argmax(row_at(out, pos))) == tok for pos, tok in traj.steps[idx - 1]
            ):
                group |= {pos for pos, _ in traj.steps[idx - 1]}
                idx += 1
            positives = {ex.pos for ex in label_state(rec, k, den, cfg) if ex.label == 1}
            pairs += 1
            mismatches += positives != group
    _report(
        5,
        "label-merge consistency",
        pairs >= 500 and mismatches == 0,
        f"{pairs - mismatches}/{pairs} (trajectory, k) pairs agree",
    )


def test_criterion_06_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cfg = IndicatorConfig(vocab_size=8, k1=3, k2=4, feature_dim=6, emb_dim=8, hidden_dim=24, depth=2)
    model = IndicatorModel.init(cfg, rng)
    # non-zero head so the loss surface is informative at the checked point
    model.params["w_head"] = rng.normal(0.0, 0.3, size=model.params["w_head"].shape)
    model.params["b_head"] = rng.normal(0.0, 0.3, size=model.params["b_head"].shape)
    tok_ids = rng.integers(0, cfg.vocab_size, size=(16, cfg.k1))
    logits = rng.normal(size=(16, cfg.k2))
    hidden = rng.normal(size=(16, cfg.feature_dim))
    labels = rng.integers(0, 2, size=16)
    _, grads = loss_and_grad(model, tok_ids, logits, hidden, labels)

    h = 1e-5
    checked, worst = 0, 0.0
    names = list(model.params)
    while checked < 24:
        name = names[int(rng.integers(len(names)))]
        idx = np.unravel_index(int(rng.integers(model.params[name].size)), model.params[name].shape)
        model.params[name][idx] += h
        up, _ = loss_and_grad(model, tok_ids, logits, hidden, labels)
        model.params[name][idx] -= 2 * h
        down, _ = loss_and_grad(model, tok_ids, logits, hidden, labels)
        model.params[name][idx] += h
        numeric = (up - down) / (2 * h)
        analytic = grads[name][idx]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "gradient correctness",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative error {worst:.3e} over {checked} parameters in {elapsed:.2f}s",
    )


def test_criterion_07_keystone_equivalence(suite):
    instances, merges, _ = suite
    mismatches = sum(
        oracle_indicator_decode(den, rec).steps != merged.steps
        for (den, rec), (merged, _) in zip(instances, merges)
    )
    _report(
        7,
        "oracle-indicator equals merge oracle",
        mismatches == 0,
        f"step-sets identical on {100 - mismatches}/100 instances",
    )


def test_criterion_08_learned_indicator_speedup(speedup_ctx):
    ctx = speedup_ctx
    m_ni = harness.evaluate(ctx["ni"], ctx["reference"], ctx["model"])
    m_thr = harness.evaluate(ctx["threshold"], ctx["reference"], ctx["model"])
    ok = (
        ctx["n_cuts"] >= 2000
        and m_ni.exact_match_rate >= 0.95
        and m_ni.steps <= 0.5 * m_thr.steps
        and m_ni.steps <= 1.5 * ctx["merge_steps"]
        and ctx["elapsed"] < 300.0
    )
    _report(
        8,
        "learned-indicator speedup",
        ok,
        f"{ctx['n_cuts']} cuts, exact_match {m_ni.exact_match_rate:.2f}, "
        f"steps ni/threshold/merge = {m_ni.steps:.1f}/{m_thr.steps:.1f}/{ctx['merge_steps']:.1f} "
        f"(bounds {0.5 * m_thr.steps:.1f} and {1.5 * ctx['merge_steps']:.1f}), "
        f"pipeline {ctx['elapsed']:.0f}s",
    )


def test_criterion_09_sweep_reproducibility(speedup_ctx, tmp_path):
    ctx = speedup_ctx
    paths = []
    summaries = []
    for tag in ("a", "b"):
        rows, summary = harness.sweep(
            ctx["denoiser"], ctx["model"], ctx["indicator"], 4, 24, 8, seed=77
        )
        path = tmp_path / f"sweep-{tag}.csv"
        harness.write_sweep_csv(rows, path)
        paths.append(path)
        summaries.append(summary)
    thr_rows = sum(1 for r in rows if r["method"] == "threshold")
    ni_rows = sum(1 for r in rows if r["method"] == "ni")
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    summary = summaries[0]
    has_summary = set(summary) == {"ni_points", "ni_points_dominating", "pareto_ok"}
    ok = identical and thr_rows == 7 and ni_rows == 8 and has_summary and summaries[0] == summaries[1]
    _report(
        9,
        "sweep reproducibility and dominance report",
        ok,
        f"grids {thr_rows}+{ni_rows}, byte-identical={identical}, "
        f"{summary['ni_points_dominating']}/8 NI points dominate (pareto_ok={summary['pareto_ok']})",
    )


def test_criterion_10_degenerate_gate_identities():
    den = MarkovDenoiser(sticky_chain(8, 0.8))
    prompt = (1, 5)
    gen_len = 16
    base_cfg = DecodeConfig(threshold=0.9, seed=0)

    reference = decode(den, prompt, gen_len, base_cfg)
    disabled = ni_decode(den, ConstantIndicator(0.0), prompt, gen_len, NIConfig(base=base_cfg))
    always_on = ni_decode(den, ConstantIndicator(1.0), prompt, gen_len, NIConfig(base=base_cfg))
    full = decode(den, prompt, gen_len, DecodeConfig(seed=0))

    ok = disabled.steps == reference.steps and always_on.n == 1 and full.n == gen_len
    _report(
        10,
        "degenerate gate identities",
        ok,
        f"disabled-gate match={disabled.steps == reference.steps}, "
        f"constant-1 steps={always_on.n}, full-step steps={full.n}/{gen_len}",
    )
