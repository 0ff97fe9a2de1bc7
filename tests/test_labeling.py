import json
import os

import numpy as np
import pytest

from conftest import make_instance, permutation_chain
from maskorder.core import MaskedSequence, SampleRecord, Vocabulary, apply_steps
from maskorder.denoiser import MarkovDenoiser
from maskorder.labeling import (
    DEFAULT_MIN_POS_PROB,
    LabelingConfig,
    build_dataset,
    label_state,
    load_dataset,
    save_dataset,
)
from maskorder.merge import count_mergeable
from maskorder.orders import DecodeConfig, decode


def record_for(den, prompt, gen_len, seed=0, threshold=None):
    traj = decode(den, prompt, gen_len, DecodeConfig(threshold=threshold, seed=seed))
    return SampleRecord("r", den.vocab, prompt, gen_len, traj)


CFG = LabelingConfig(k1=2, k2=2, min_pos_prob=0.0)


class TestLabelState:
    def test_deterministic_chain_labels_everything_positive(self):
        den = MarkovDenoiser(permutation_chain(5))
        record = record_for(den, (0,), 8)
        examples = label_state(record, 1, den, CFG)
        assert len(examples) == 8
        assert all(ex.label == 1 for ex in examples)

    def test_labels_match_the_mergeable_group(self):
        den, record = make_instance(4)
        traj = record.trajectory
        for k in (1, traj.n // 2, traj.n):
            state = apply_steps(record.base(), traj, k)
            idx = count_mergeable(traj, k, state, den)
            mergeable = {pos for step in traj.steps[k - 1 : idx - 1] for pos, _ in step}
            examples = label_state(record, k, den, CFG)
            assert {ex.pos for ex in examples if ex.label} == mergeable

    def test_min_pos_prob_filter_touches_labels_only(self):
        den, record = make_instance(4)
        loose = label_state(record, 1, den, CFG)
        strict = label_state(record, 1, den, LabelingConfig(k1=2, k2=2, min_pos_prob=1.1))
        assert all(ex.label == 0 for ex in strict)
        for a, b in zip(loose, strict):
            assert np.array_equal(a.top_tokens, b.top_tokens)
            assert np.array_equal(a.hidden, b.hidden)
            assert a.top1_prob == b.top1_prob
        # a filtered positive must actually sit below the cutoff
        filtered = [a for a, b in zip(loose, strict) if a.label == 1]
        assert all(ex.top1_prob <= 1.1 for ex in filtered)

    def test_filter_relabel_uses_strict_inequality(self):
        den, record = make_instance(4)
        examples = label_state(record, 1, den, CFG)
        positives = [ex for ex in examples if ex.label == 1]
        if positives:
            cutoff = min(ex.top1_prob for ex in positives)
            at_cutoff = label_state(record, 1, den, LabelingConfig(2, 2, cutoff))
            kept = {ex.pos for ex in at_cutoff if ex.label == 1}
            assert {ex.pos for ex in positives} == kept

    def test_cut_out_of_range(self):
        den, record = make_instance(0)
        with pytest.raises(ValueError):
            label_state(record, 0, den, CFG)
        with pytest.raises(ValueError):
            label_state(record, record.trajectory.n + 1, den, CFG)

    def test_examples_cover_exactly_the_masked_positions(self):
        den, record = make_instance(6)
        traj = record.trajectory
        k = traj.n // 2
        examples = label_state(record, k, den, CFG)
        already = {pos for step in traj.steps[: k - 1] for pos, _ in step}
        assert {ex.pos for ex in examples} == set(range(record.gen_len)) - already
        assert all(ex.k == k and ex.traj_id == record.id for ex in examples)


class TestBuildDataset:
    def test_cuts_are_distinct_when_possible(self):
        den, record = make_instance(2)
        rng = np.random.default_rng(0)
        n = record.trajectory.n
        ds = build_dataset([record], den, cuts_per_traj=n, rng=rng, cfg=CFG)
        assert {ex.k for ex in ds.examples} == set(range(1, n + 1))

    def test_config_captures_the_shapes(self):
        den, record = make_instance(2)
        ds = build_dataset([record], den, 2, np.random.default_rng(0), CFG)
        assert ds.config["K1"] == 2 and ds.config["K2"] == 2
        assert ds.config["F"] == den.feature_dim
        assert ds.config["V"] == den.vocab.size
        assert ds.config["min_pos_prob"] == 0.0

    def test_deterministic_under_fixed_seed(self):
        den, record = make_instance(2)
        a = build_dataset([record], den, 3, np.random.default_rng(5), CFG)
        b = build_dataset([record], den, 3, np.random.default_rng(5), CFG)
        assert [(ex.k, ex.pos, ex.label) for ex in a.examples] == [
            (ex.k, ex.pos, ex.label) for ex in b.examples
        ]

    def test_positive_fraction(self):
        den = MarkovDenoiser(permutation_chain(5))
        record = record_for(den, (0,), 6)
        ds = build_dataset([record], den, 1, np.random.default_rng(0), CFG)
        assert ds.positive_fraction == 1.0

    def test_empty_inputs_rejected(self):
        den, record = make_instance(2)
        with pytest.raises(ValueError):
            build_dataset([], den, 1, np.random.default_rng(0), CFG)
        with pytest.raises(ValueError):
            build_dataset([record], den, 0, np.random.default_rng(0), CFG)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        den, record = make_instance(3)
        ds = build_dataset([record], den, 3, np.random.default_rng(1), CFG)
        path = tmp_path / "train.npz"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.config == ds.config
        assert len(loaded.examples) == len(ds.examples)
        for a, b in zip(ds.examples, loaded.examples):
            np.testing.assert_array_equal(a.top_tokens, b.top_tokens)
            np.testing.assert_array_equal(a.top_logits, b.top_logits)
            np.testing.assert_array_equal(a.hidden, b.hidden)
            assert (a.label, a.k, a.pos, a.traj_id) == (b.label, b.k, b.pos, b.traj_id)

    def test_default_min_pos_prob_value(self):
        assert LabelingConfig().min_pos_prob == DEFAULT_MIN_POS_PROB == 0.15

    def test_writes_exactly_the_given_path(self, tmp_path):
        den, record = make_instance(3)
        ds = build_dataset([record], den, 2, np.random.default_rng(1), CFG)
        save_dataset(ds, tmp_path / "train.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl", "train.jsonl.meta.json"]
        first = (tmp_path / "train.jsonl").read_bytes()
        save_dataset(ds, tmp_path / "train.jsonl")
        assert (tmp_path / "train.jsonl").read_bytes() == first
        assert len(load_dataset(tmp_path / "train.jsonl").examples) == len(ds.examples)


class TestLoadValidation:
    """load_dataset rejects inconsistent input instead of training on it."""

    @pytest.fixture
    def saved(self, tmp_path):
        den, record = make_instance(3)
        ds = build_dataset([record], den, 2, np.random.default_rng(1), CFG)
        path = tmp_path / "train.npz"
        save_dataset(ds, path)
        return path

    @staticmethod
    def tamper(path, column=None, edit=None, meta=None):
        """Rewrite one column through edit(array), and/or update the meta file."""
        if column:
            with np.load(path) as npz:
                arrays = dict(npz)
            arrays[column] = edit(arrays[column].copy())
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
        if meta:
            meta_path = f"{path}.meta.json"
            with open(meta_path) as fh:
                config = json.load(fh)
            with open(meta_path, "w") as fh:
                json.dump({**config, **meta}, fh)

    @staticmethod
    def set_entry(index, value):
        def edit(a):
            a[index] = value
            return a

        return edit

    def test_negative_token_id(self, saved):
        self.tamper(saved, "top_tokens", self.set_entry((0, 0), -1))
        with pytest.raises(ValueError, match=r"train\.npz.*token ids"):
            load_dataset(saved)

    def test_token_id_past_the_vocabulary(self, saved):
        self.tamper(saved, "top_tokens", self.set_entry((-1, 1), 8))  # V is 8
        with pytest.raises(ValueError, match="token ids"):
            load_dataset(saved)

    def test_label_outside_zero_one(self, saved):
        self.tamper(saved, "label", self.set_entry(0, 7))
        with pytest.raises(ValueError, match=r"train\.npz.*labels"):
            load_dataset(saved)

    def test_meta_width_disagrees_with_the_columns(self, saved):
        self.tamper(saved, meta={"K1": 3})  # rows have width 2
        with pytest.raises(ValueError, match=r"train\.npz.*top_tokens"):
            load_dataset(saved)
        self.tamper(saved, meta={"K1": 2, "F": 99})
        with pytest.raises(ValueError, match="hidden"):
            load_dataset(saved)

    def test_columns_of_unequal_length(self, saved):
        self.tamper(saved, "k", lambda a: a[:-1])
        with pytest.raises(ValueError, match=r"column k\b"):
            load_dataset(saved)

    def test_column_of_the_wrong_dtype(self, saved):
        self.tamper(saved, "top_tokens", lambda a: a.astype(np.float64))
        with pytest.raises(ValueError, match="column top_tokens has dtype float64"):
            load_dataset(saved)

    def test_missing_meta_file(self, saved):
        os.remove(f"{saved}.meta.json")
        with pytest.raises(ValueError, match="meta"):
            load_dataset(saved)

    def test_meta_file_without_the_geometry(self, saved):
        with open(f"{saved}.meta.json", "w") as fh:
            json.dump({"K1": 2}, fh)
        with pytest.raises(ValueError, match="lacks K2, F, V"):
            load_dataset(saved)

    def test_old_jsonl_dataset_gets_a_clear_error(self, saved):
        saved.write_text(json.dumps({"top_tokens": [0, 1], "label": 1}) + "\n")
        with pytest.raises(ValueError, match=r"train\.npz: not a dataset \.npz archive"):
            load_dataset(saved)
