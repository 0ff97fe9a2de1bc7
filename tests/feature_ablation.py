"""Indicator feature ablation: does the posterior row in the features help?

A MarkovDenoiser's features are three context columns (F = 3). The indicator
already reads each row through its top-K1 token ids and top-K2
log-probabilities. The "kept" layout puts the posterior row in front of the
context columns again (F = V + 3), through the script-local RowFeatures
wrapper below. It compares the two layouts on NI decoding.

For each chain (exact, and tempered with log-space noise 0.3) and each
layout, and for each training seed s = 0, 1, 2 (indicator init 100+s,
shuffle 200+s), the script labels 64 random cuts of each of 125
threshold-0.8 references, trains an indicator of criterion 08's geometry for
6 epochs, and NI-decodes 50 prompts at each eps_phi. It prints steps / exact match against full-step
references of the same prompts, and the final held-out accuracy, as
median [min-max] over the seeds. The chain is V = 16 with Dirichlet(0.05)
rows and a uniform initial distribution, drawn from default_rng(5); prompts
have 8 tokens and generations 64.

    PYTHONPATH=src python tests/feature_ablation.py

A full run takes several minutes on two cores. The file is not named
test_*.py, so pytest does not collect it; tests/test_feature_ablation.py runs
it at a tiny size.
"""

from __future__ import annotations

import numpy as np

from maskorder import harness
from maskorder.denoiser import DenoiserOutput, MarkovDenoiser, MarkovModel, TemperedDenoiser
from maskorder.indicator import IndicatorConfig, IndicatorModel, TrainHyper, train
from maskorder.labeling import LabelingConfig, build_dataset
from maskorder.ni_sampler import NIConfig
from maskorder.orders import DecodeConfig

FULL = dict(V=16, prompt_len=8, gen_len=64, n_train=125, cuts=64, epochs=6, n_eval=50)
GEOMETRY = dict(k1=4, k2=8, emb_dim=16, hidden_dim=64, depth=2)  # criterion 08's
EPS_PHIS = (0.9, 0.5)
SEEDS = 3  # training seeds per chain and layout
CHAINS = ("exact", "noise 0.3")
LAYOUTS = ("kept", "dropped")


class RowFeatures:
    """A denoiser whose features are its posterior row followed by the inner
    denoiser's features: F = V + 3 over a Markov-backed denoiser."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.feature_dim = inner.vocab.size + inner.feature_dim
        self.config_id = f"{inner.config_id}|row-features"

    def query(self, seq) -> DenoiserOutput:
        return self._widen(self.inner.query(seq))

    def query_many(self, seqs) -> list:
        return [self._widen(out) for out in self.inner.query_many(seqs)]

    @staticmethod
    def _widen(out) -> DenoiserOutput:
        return DenoiserOutput(out.positions, out.dists, np.concatenate([out.dists, out.features], axis=1))


def dirichlet_chain(V: int) -> MarkovModel:
    rng = np.random.default_rng(5)
    return MarkovModel(np.full(V, 1.0 / V), rng.dirichlet(np.full(V, 0.05), size=V))


def denoiser(model: MarkovModel, chain: str, layout: str):
    den = MarkovDenoiser(model)
    if chain == "noise 0.3":
        den = TemperedDenoiser(den, temperature=1.0, noise_scale=0.3, seed=42)
    return RowFeatures(den) if layout == "kept" else den


def run(V, prompt_len, gen_len, n_train, cuts, epochs, n_eval) -> list:
    """One dict per (chain, layout, seed, eps_phi): its steps, exact match and
    the trained indicator's final held-out accuracy."""
    model = dirichlet_chain(V)
    results = []
    labeling = LabelingConfig(GEOMETRY["k1"], GEOMETRY["k2"], min_pos_prob=0.0)
    for chain in CHAINS:
        # both layouts give the same rows, so they share their references
        den = denoiser(model, chain, "dropped")
        refs = harness.gen_data(den, model, prompt_len, gen_len, n_train, DecodeConfig(threshold=0.8), seed=101)
        eval_refs = harness.gen_data(den, model, prompt_len, gen_len, n_eval, DecodeConfig(), seed=555)
        for layout in LAYOUTS:
            den = denoiser(model, chain, layout)
            dataset = build_dataset(refs, den, cuts, np.random.default_rng(7), labeling)
            cfg = IndicatorConfig(vocab_size=V, feature_dim=den.feature_dim, **GEOMETRY)
            for s in range(SEEDS):
                indicator = IndicatorModel.init(cfg, np.random.default_rng(100 + s))
                hyper = TrainHyper(lr=1e-3, batch_size=256, epochs=epochs)
                indicator, history = train(indicator, dataset, hyper, np.random.default_rng(200 + s))
                for eps_phi in EPS_PHIS:
                    ni_cfg = NIConfig(base=DecodeConfig(threshold=0.9), eps_phi=eps_phi)
                    records = harness.gen_data(
                        den, model, prompt_len, gen_len, n_eval, DecodeConfig(), seed=555, indicator=indicator, ni_cfg=ni_cfg
                    )
                    metrics = harness.evaluate(records, eval_refs, model)
                    results.append(
                        {
                            "chain": chain,
                            "layout": layout,
                            "seed": s,
                            "eps_phi": eps_phi,
                            "feature_dim": den.feature_dim,
                            "steps": metrics.steps,
                            "exact_match": metrics.exact_match_rate,
                            "holdout_acc": history[-1]["holdout_acc"],
                        }
                    )
    return results


def spread(values, digits: int) -> str:
    """median [min-max]"""
    return f"{np.median(values):.{digits}f} [{min(values):.{digits}f}-{max(values):.{digits}f}]"


def table(results) -> str:
    """A markdown table of steps / exact match per (chain, eps_phi) and layout,
    then the held-out accuracy per chain and layout."""
    lines = ["| chain, eps_phi | " + " | ".join(f"row {layout}" for layout in LAYOUTS) + " |"]
    lines.append("|---" * (len(LAYOUTS) + 1) + "|")
    for chain in CHAINS:
        for eps_phi in EPS_PHIS:
            cells = []
            for layout in LAYOUTS:
                rows = [r for r in results if (r["chain"], r["layout"], r["eps_phi"]) == (chain, layout, eps_phi)]
                steps, exact = [r["steps"] for r in rows], [r["exact_match"] for r in rows]
                cells.append(f"{spread(steps, 1)} / {spread(exact, 2)}")
            lines.append(f"| {chain}, {eps_phi} | " + " | ".join(cells) + " |")
    lines.append("")
    for chain in CHAINS:
        for layout in LAYOUTS:
            accs = [r["holdout_acc"] for r in results if (r["chain"], r["layout"]) == (chain, layout)]
            lines.append(f"held-out accuracy, {chain}, row {layout}: {spread(accs, 3)}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(run(**FULL)))
