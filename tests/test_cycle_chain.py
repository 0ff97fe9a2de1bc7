"""Where NI's speedup comes from: the noisy long-cycle chain against
criterion 08's saturated fixture.

A noisy single V-cycle (conftest.cycle_chain) has greedy references that
visit every token, and there the merge oracle takes far fewer steps than any
threshold rule at equal exact match; a trained indicator reaches it on every
training seed. Criterion 08's sticky fixture has references that repeat one
token, so its step counts are a saturation result. README: "Where NI's
speedup comes from".
"""

import numpy as np

from conftest import cycle_chain, sticky_chain
from feature_ablation import GEOMETRY
from maskorder import harness
from maskorder.core import final_tokens
from maskorder.denoiser import MarkovDenoiser, TemperedDenoiser
from maskorder.indicator import IndicatorConfig, IndicatorModel, TrainHyper, train
from maskorder.labeling import LabelingConfig, build_dataset
from maskorder.merge import merge_trajectory
from maskorder.ni_sampler import NIConfig
from maskorder.orders import DecodeConfig

V, EPS, CHAIN_SEED = 16, 0.3, 5
PROMPT_LEN, GEN_LEN, N_TRAIN, CUTS, EPOCHS, N_EVAL = 4, 32, 40, 32, 4, 30
SEEDS = 3  # training seeds s: indicator init 100+s, shuffle 200+s


def test_ni_reaches_the_merge_oracle_on_a_noisy_cycle_on_every_seed():
    model = cycle_chain(V, EPS, CHAIN_SEED)
    den = MarkovDenoiser(model)

    def decode(count, cfg, seed, **ni):
        return harness.gen_data(den, model, PROMPT_LEN, GEN_LEN, count, cfg, seed=seed, **ni)

    references = decode(N_EVAL, DecodeConfig(), 555)
    assert all(len(set(final_tokens(r.trajectory))) == V for r in references)  # no reference is a short cycle
    merge_steps = np.mean([merge_trajectory(r.trajectory, r.base(), den)[0].n for r in references])
    threshold = harness.evaluate(decode(N_EVAL, DecodeConfig(threshold=0.3), 555), references, model)
    assert threshold.exact_match_rate == 1.0

    train_refs = decode(N_TRAIN, DecodeConfig(threshold=0.8), 101)
    labeling = LabelingConfig(GEOMETRY["k1"], GEOMETRY["k2"], min_pos_prob=0.0)
    dataset = build_dataset(train_refs, den, CUTS, np.random.default_rng(7), labeling)
    cfg = IndicatorConfig(vocab_size=V, feature_dim=den.feature_dim, **GEOMETRY)
    ni_cfg = NIConfig(base=DecodeConfig(threshold=0.9), eps_phi=0.9)
    for s in range(SEEDS):
        indicator = IndicatorModel.init(cfg, np.random.default_rng(100 + s))
        hyper = TrainHyper(lr=1e-3, batch_size=256, epochs=EPOCHS)
        indicator, _ = train(indicator, dataset, hyper, np.random.default_rng(200 + s))
        ni = harness.evaluate(decode(N_EVAL, DecodeConfig(), 555, indicator=indicator, ni_cfg=ni_cfg), references, model)
        # margins set before the run from ROADMAP item 11's small-size numbers (merge 2.9,
        # threshold 0.3 at 10.4 / 1.00, NI 2.9 / 1.00 on each seed): NI may take 20% more
        # steps than the merge, and must take at most half of threshold 0.3's
        detail = f"seed {s}: NI {ni.steps:.2f} / {ni.exact_match_rate:.2f}, merge {merge_steps:.2f}, threshold 0.3 {threshold.steps:.2f}"
        assert ni.exact_match_rate == 1.0, detail
        assert ni.steps <= 1.2 * merge_steps, detail
        assert ni.steps <= 0.5 * threshold.steps, detail


def test_criterion_08s_references_are_constant_runs():
    # criterion 08's evaluation references (test_acceptance.speedup_ctx): each repeats one token
    model = sticky_chain(8, 0.95)
    den = TemperedDenoiser(MarkovDenoiser(model), temperature=1.0, noise_scale=0.15, seed=42)
    references = harness.gen_data(den, model, 8, 64, 50, DecodeConfig(), seed=555)
    assert [len(set(final_tokens(r.trajectory))) for r in references] == [1] * 50
