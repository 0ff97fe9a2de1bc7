"""The feature ablation script at a tiny size, so that it keeps running."""

import numpy as np

import feature_ablation
from maskorder import harness
from maskorder.core import MaskedSequence
from maskorder.labeling import LabelingConfig, build_dataset
from maskorder.orders import DecodeConfig

TINY = dict(V=8, prompt_len=2, gen_len=8, n_train=4, cuts=4, epochs=1, n_eval=3)


def test_the_kept_layout_is_the_row_before_the_context_columns():
    model = feature_ablation.dirichlet_chain(8)
    for chain in feature_ablation.CHAINS:
        kept = feature_ablation.denoiser(model, chain, "kept")
        dropped = feature_ablation.denoiser(model, chain, "dropped")
        assert (kept.feature_dim, dropped.feature_dim) == (8 + 3, 3)
        seq = MaskedSequence.fully_masked((1, 2), 6, kept.vocab)
        wide, narrow = kept.query(seq), dropped.query(seq)
        assert wide.dists.tobytes() == narrow.dists.tobytes()
        assert wide.features.tobytes() == np.concatenate([narrow.dists, narrow.features], axis=1).tobytes()
        # the layouts decode alike, also several prompts at once, and label the
        # same cuts alike, differing only in the hidden column
        refs = harness.gen_data(dropped, model, 2, 8, 3, DecodeConfig(threshold=0.8), seed=1)
        wide_refs = harness.gen_data(kept, model, 2, 8, 3, DecodeConfig(threshold=0.8), seed=1)
        assert [r.trajectory.steps for r in wide_refs] == [r.trajectory.steps for r in refs]
        labeling = LabelingConfig(4, 8, min_pos_prob=0.0)
        a = build_dataset(refs, kept, 4, np.random.default_rng(0), labeling).columns
        b = build_dataset(refs, dropped, 4, np.random.default_rng(0), labeling).columns
        assert a["hidden"][:, 8:].tobytes() == b["hidden"].tobytes()
        assert all(a[name].tobytes() == b[name].tobytes() for name in b if name != "hidden")


def test_a_tiny_run_fills_every_cell():
    results = feature_ablation.run(**TINY)
    cells = {(r["chain"], r["layout"], r["eps_phi"], r["seed"]) for r in results}
    assert len(results) == len(cells) == 2 * 2 * 2 * feature_ablation.SEEDS
    assert {r["feature_dim"] for r in results if r["layout"] == "kept"} == {8 + 3}
    assert {r["feature_dim"] for r in results if r["layout"] == "dropped"} == {3}
    for r in results:
        assert 1 <= r["steps"] <= 8 and 0 <= r["exact_match"] <= 1 and 0 <= r["holdout_acc"] <= 1
    lines = feature_ablation.table(results).splitlines()
    assert lines[0] == "| chain, eps_phi | row kept | row dropped |"
    assert lines[2].startswith("| exact, 0.9 | ") and lines[5].startswith("| noise 0.3, 0.5 | ")
    assert sum(line.startswith("held-out accuracy, ") for line in lines) == 4
