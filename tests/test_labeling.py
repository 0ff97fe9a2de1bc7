import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, permutation_chain, random_chain, sticky_chain, traced_peak
from maskorder import labeling
from maskorder.core import MaskedSequence, SampleRecord, Trajectory, Vocabulary, apply_steps, save_archive
from maskorder.denoiser import DenoiserOutput, MarkovDenoiser, TemperedDenoiser, extract_features
from maskorder.indicator import (
    IndicatorConfig,
    IndicatorModel,
    TrainHyper,
    batch_arrays,
    loss_and_grad,
    save_checkpoint,
    train,
)
from maskorder.labeling import (
    DEFAULT_MIN_POS_PROB,
    DatasetFile,
    LabeledExample,
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
            idx = count_mergeable(traj, k, state, den.query(state))
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

    def test_a_reference_revealing_fewer_positions_than_gen_len_is_an_error(self):
        den = MarkovDenoiser(sticky_chain(4, 0.9))
        short = Trajectory((frozenset({(0, 1)}), frozenset({(1, 1)})))
        record = SampleRecord("short", den.vocab, (1,), 5, short)
        with pytest.raises(ValueError, match="the reference reveals 2 positions, the base has 5"):
            label_state(record, 1, den, CFG)

    def test_an_answer_that_is_not_the_cuts_masked_positions_is_an_error(self):
        den, record = make_instance(6)

        class DropsLastRow:
            def query(self, state):
                out = den.query(state)
                return DenoiserOutput(out.positions[:-1], out.dists[:-1], out.features[:-1])

        k = record.trajectory.n // 2
        masked = int(np.count_nonzero(record.trajectory.step_of >= k))
        message = rf"record 'inst-6', cut {k}: .* {masked - 1} positions, not exactly the state's {masked} masked"
        with pytest.raises(ValueError, match=message):
            label_state(record, k, DropsLastRow(), CFG)
        with pytest.raises(ValueError, match=r"record 'inst-6', cut 1: "):
            label_state(record, 1, DropsLastRow(), CFG)

        class ShiftsPositions:
            def query(self, state):
                out = den.query(state)
                return DenoiserOutput(out.positions + 1, out.dists, out.features)  # the last one past the region

        with pytest.raises(ValueError, match=r"cut 1: .* 64 positions, not exactly the state's 64 masked"):
            label_state(record, 1, ShiftsPositions(), CFG)

    def test_examples_cover_exactly_the_masked_positions(self):
        den, record = make_instance(6)
        traj = record.trajectory
        k = traj.n // 2
        examples = label_state(record, k, den, CFG)
        already = {pos for step in traj.steps[: k - 1] for pos, _ in step}
        assert {ex.pos for ex in examples} == set(range(record.gen_len)) - already
        assert all(ex.k == k and ex.traj_id == record.id for ex in examples)

    def test_min_pos_prob_must_be_finite_and_keeps_its_meaning(self):
        for value in (float("nan"), np.inf, -np.inf):
            with pytest.raises(ValueError, match="min_pos_prob must be finite"):
                LabelingConfig(min_pos_prob=value)
        # at or below 0 it filters nothing, above 1 every positive
        den, record = make_instance(4)
        labels = [
            label_state(record, 1, den, LabelingConfig(2, 2, value)).columns["label"].tolist()
            for value in (0.0, -1.0, -1e300, 1.1, 1e300)
        ]
        assert 0 < sum(labels[0]) and labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == [0] * len(labels[0])

    def test_a_cut_is_a_one_record_dataset(self):
        den, record = make_instance(6)
        cut = label_state(record, 3, den, CFG)
        assert type(cut) is DatasetFile and cut.examples is cut
        assert cut.config == build_dataset([record], den, 1, np.random.default_rng(0), CFG).config
        assert cut.config["traj_ids"] == [record.id] and set(cut.columns["traj_id"].tolist()) == {0}

    def test_a_cut_round_trips_through_save_and_load(self, tmp_path):
        den, record = make_instance(6)
        cut = label_state(record, 3, den, CFG)
        save_dataset(cut, tmp_path / "cut.npz")
        loaded = load_dataset(tmp_path / "cut.npz")
        assert loaded.config == cut.config
        assert list(loaded.columns) == list(cut.columns)
        for name, a in cut.columns.items():
            b = loaded.columns[name]
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), name


def reference_label_state(record, k, denoiser, cfg):
    """label_state as a per-row loop over indices, one field dict per example."""
    traj = record.trajectory
    state = apply_steps(record.base(), traj, k)
    out = denoiser.query(state)
    idx = count_mergeable(traj, k, state, out)
    mergeable = {pos for step in traj.steps[k - 1 : idx - 1] for pos, _ in step}
    features = extract_features(out, slice(None), cfg.k1, cfg.k2)
    top1 = out.dists.max(axis=1).tolist()
    rows = []
    for j, pos in enumerate(out.positions.tolist()):
        label = 1 if pos in mergeable else 0
        if label == 1 and top1[j] < cfg.min_pos_prob:
            label = 0
        rows.append(
            dict(
                top_tokens=features.top_tokens[j].astype(np.int32),  # token ids are stored as int32
                top_logits=features.top_logits[j],
                hidden=features.hidden[j],
                label=label,
                top1_prob=top1[j],
                traj_id=record.id,
                k=k,
                pos=pos,
            )
        )
    return rows


@st.composite
def labeling_instances(draw):
    V = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["sticky", "random", "permutation"]))
    if kind == "sticky":
        model = sticky_chain(V, draw(st.sampled_from([0.5, 0.8, 0.95])))
    elif kind == "random":
        model = random_chain(V, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        model = permutation_chain(V)
    noise = draw(st.sampled_from([0.0, 0.5]))
    den = TemperedDenoiser(MarkovDenoiser(model), noise_scale=noise, seed=draw(st.integers(0, 9)))
    prompt = model.sample_sequence(draw(st.integers(1, 3)), np.random.default_rng(draw(st.integers(0, 99))))
    threshold = draw(st.sampled_from([None, 0.5, 0.9]))
    gen_len = draw(st.integers(1, 10))
    record = record_for(den, prompt, gen_len, seed=draw(st.integers(0, 99)), threshold=threshold)
    k1, k2 = draw(st.integers(1, V)), draw(st.integers(1, V))
    return den, record, k1, k2


class TestLabelStateIsPinned:
    @settings(max_examples=60, deadline=None)
    @given(instance=labeling_instances(), min_pos_prob=st.sampled_from([0.0, DEFAULT_MIN_POS_PROB, 1.1]))
    def test_every_cut_matches_the_per_row_loop(self, instance, min_pos_prob):
        den, record, k1, k2 = instance
        cfg = LabelingConfig(k1, k2, min_pos_prob)
        for k in range(1, record.trajectory.n + 1):
            examples = label_state(record, k, den, cfg)
            expected = reference_label_state(record, k, den, cfg)
            assert len(examples) == len(expected)
            for ex, want in zip(examples, expected):
                assert type(ex) is LabeledExample and ex._asdict().keys() == want.keys()
                for name, value in want.items():
                    got = getattr(ex, name)
                    if isinstance(value, np.ndarray):
                        assert got.dtype == value.dtype and got.shape == value.shape, name
                        assert got.tobytes() == value.tobytes(), name
                    else:
                        assert type(got) is type(value) and got == value, name

    def test_positional_construction_and_attribute_access(self):
        den, record = make_instance(4)
        ex = next(iter(label_state(record, 1, den, CFG)))
        copy = LabeledExample(*ex)
        fields = ("top_tokens", "top_logits", "hidden", "label", "top1_prob", "traj_id", "k", "pos")
        assert LabeledExample._fields == fields == tuple(labeling._COLUMNS)
        assert all(getattr(copy, name) is getattr(ex, name) for name in fields)
        assert copy.k == 1 and copy.traj_id == record.id
        assert not hasattr(ex, "__dict__")


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

    def test_the_build_holds_little_beyond_its_columns(self):
        # each column is allocated once at its final length, and the build
        # holds one cut's answer beyond the columns
        den, record = make_instance(3)  # V 8, gen_len 64
        records = [
            SampleRecord(f"r{i}", den.vocab, record.prompt, 64, decode(den, record.prompt, 64, DecodeConfig(seed=i)))
            for i in range(4)
        ]

        def build():
            return build_dataset(records, den, 16, np.random.default_rng(0), LabelingConfig(4, 8, 0.0))

        columns = build().columns  # also fills the trajectories' position tables
        assert len(columns["label"]) > 1500
        assert traced_peak(build) <= 1.25 * sum(a.nbytes for a in columns.values())

    def test_the_id_table_has_one_entry_per_record(self):
        den, record = make_instance(2)
        empty = SampleRecord("e", record.vocab, record.prompt, 0, Trajectory(()))
        ds = build_dataset([record, empty, record], den, 2, np.random.default_rng(0), CFG)
        # records that share an id stay distinct, and a record without a step keeps its entry
        assert ds.config["traj_ids"] == [record.id, "e", record.id]
        indices = ds.columns["traj_id"].tolist()
        assert indices == sorted(indices) and set(indices) == {0, 2}
        assert {ex.traj_id for ex in ds.examples} == {record.id}

    def test_empty_inputs_rejected(self):
        den, record = make_instance(2)
        with pytest.raises(ValueError):
            build_dataset([], den, 1, np.random.default_rng(0), CFG)
        with pytest.raises(ValueError):
            build_dataset([record], den, 0, np.random.default_rng(0), CFG)
        empty = SampleRecord("e", record.vocab, record.prompt, 0, Trajectory(()))
        with pytest.raises(ValueError, match="no trajectory has a step"):
            build_dataset([empty], den, 1, np.random.default_rng(0), CFG)


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


# the dataset layout: each field's column dtype, spelled out here so that a
# change to labeling._COLUMNS fails the tests that compare against it
LAYOUT = {
    "top_tokens": np.int32,
    "top_logits": np.float64,
    "hidden": np.float64,
    "label": np.int32,
    "top1_prob": np.float64,
    "traj_id": np.int32,
    "k": np.int32,
    "pos": np.int32,
}


def reference_dataset_arrays(records, den, cuts_per_traj, rng, cfg):
    """The row-stacking writer's arrays: build_dataset's cuts labeled by the
    per-row loop, each row's traj_id replaced by its record's index in
    records, and each field stacked with np.asarray over the list of rows in
    its LAYOUT dtype."""
    rows = []
    for i, record in enumerate(records):
        n = record.trajectory.n
        cuts = rng.choice(n, size=min(cuts_per_traj, n), replace=False) + 1
        for k in sorted(int(c) for c in cuts):
            rows.extend({**row, "traj_id": i} for row in reference_label_state(record, k, den, cfg))
    return {name: np.asarray([row[name] for row in rows], LAYOUT[name]) for name in LabeledExample._fields}


@st.composite
def labeled_records(draw):
    """A labeling instance whose trajectory is shared by records with ids of
    different lengths (the empty id included)."""
    den, record, k1, k2 = draw(labeling_instances())
    ids = draw(st.lists(st.text("ab7-\u00e4", max_size=6), min_size=1, max_size=3))
    records = [SampleRecord(i, record.vocab, record.prompt, record.gen_len, record.trajectory) for i in ids]
    return den, records, LabelingConfig(k1, k2, draw(st.sampled_from([0.0, DEFAULT_MIN_POS_PROB])))


class TestColumnarDataset:
    """A dataset is its columns; these pin it against the row-by-row code it
    replaced."""

    @staticmethod
    def build_and_save(path):
        den, record = make_instance(3)
        built = build_dataset([record], den, 3, np.random.default_rng(1), CFG)
        save_dataset(built, path)
        return built

    @pytest.fixture
    def datasets(self, tmp_path):
        built = self.build_and_save(tmp_path / "train.npz")
        return built, load_dataset(tmp_path / "train.npz")

    @settings(max_examples=40, deadline=None)
    @given(instance=labeled_records(), cuts=st.integers(1, 4), seed=st.integers(0, 99))
    def test_save_writes_the_row_stacking_writers_bytes(self, instance, cuts, seed):
        den, records, cfg = instance
        ds = build_dataset(records, den, cuts, np.random.default_rng(seed), cfg)
        arrays = reference_dataset_arrays(records, den, cuts, np.random.default_rng(seed), cfg)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = os.path.join(tmp, "new.npz"), os.path.join(tmp, "old.npz")
            save_dataset(ds, new)
            save_archive(old, arrays, ds.config)
            with open(new, "rb") as a, open(old, "rb") as b:
                assert a.read() == b.read()
            # the id table is every record's id in input order, and survives
            # the meta file's JSON, empty and non-ASCII ids included
            loaded = load_dataset(new)
        assert ds.config["traj_ids"] == loaded.config["traj_ids"] == [r.id for r in records]
        ids = [records[i].id for i in arrays["traj_id"].tolist()]
        assert [ex.traj_id for ex in ds.examples] == [ex.traj_id for ex in loaded.examples] == ids

    def test_load_returns_the_columns_without_building_rows(self, tmp_path, monkeypatch):
        built = self.build_and_save(tmp_path / "train.npz")
        # every row is a LabeledExample looked up in the module at call time
        monkeypatch.setattr(labeling, "LabeledExample", None)
        loaded = load_dataset(tmp_path / "train.npz")
        monkeypatch.undo()
        assert list(loaded.columns) == list(built.columns) == list(LabeledExample._fields)
        for name, a in built.columns.items():
            b = loaded.columns[name]
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), name
        assert loaded.config == built.config

    def test_batch_arrays_returns_the_columns_themselves(self, datasets):
        for ds in datasets:
            for view in (ds, ds.examples):
                arrays = batch_arrays(view)
                assert [a is ds.columns[name] for a, name in zip(arrays, LabeledExample._fields)] == [True] * 4
            # the same bytes as stacking the rows, as training on a list of rows did
            stacked = (
                np.asarray([getattr(ex, name) for ex in ds.examples], labeling._COLUMNS[name][0])
                for name in LabeledExample._fields
            )
            for a, b in zip(arrays, stacked):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_positive_fraction_is_the_mean_label(self, datasets):
        for ds in datasets:
            labels = [ex.label for ex in ds.examples]
            assert 0 < sum(labels) < len(labels)
            fraction = ds.positive_fraction
            assert type(fraction) is float and fraction == sum(labels) / len(labels)

    def test_columns_reject_writes(self, datasets):
        for ds in datasets:
            for name, a in ds.columns.items():
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]
            with pytest.raises(ValueError, match="read-only"):
                next(iter(ds.examples)).hidden[0] = 1.0


class TestCompactLayout:
    """Integer columns are int32 and traj_id indexes the meta's id table: an
    example takes 4*K1 + 8*K2 + 8*F + 24 bytes, and training reads the same
    values as from int64 columns."""

    @pytest.mark.parametrize("k1, k2, per_example", [(4, 8, 128), (2, 2, 72)])  # (4, 8): the benchmark's
    def test_an_example_takes_exactly_its_layouts_bytes(self, k1, k2, per_example):
        den, record = make_instance(3)  # V 8, F 3
        cfg = LabelingConfig(k1, k2, 0.0)
        ds = build_dataset([record], den, 4, np.random.default_rng(0), cfg)
        assert per_example == 4 * k1 + 8 * k2 + 8 * ds.config["F"] + 24
        n = len(ds.columns["label"])
        assert n > 100 and sum(a.nbytes for a in ds.columns.values()) == n * per_example
        layout = {name: np.dtype(dtype) for name, dtype in LAYOUT.items()}
        cut = label_state(record, 1, den, cfg).columns
        assert {name: a.dtype for name, a in ds.columns.items()} == layout
        assert {name: a.dtype for name, a in cut.items()} == layout

    def test_training_matches_training_on_int64_columns(self, tmp_path):
        den, record = make_instance(3)
        ds = build_dataset([record], den, 6, np.random.default_rng(2), LabelingConfig(4, 8, 0.0))
        wide = DatasetFile(
            {name: a.astype(np.int64) if a.dtype.kind == "i" else a.copy() for name, a in ds.columns.items()},
            ds.config,
        )
        assert ds.columns["top_tokens"].dtype == np.int32 and wide.columns["top_tokens"].dtype == np.int64
        cfg = IndicatorConfig(vocab_size=8, k1=4, k2=8, feature_dim=3, emb_dim=8, hidden_dim=24, depth=2)
        model = IndicatorModel.init(cfg, np.random.default_rng(0))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=3)
        narrow_model, narrow_history = train(model, ds, hyper, np.random.default_rng(1))
        wide_model, wide_history = train(model, wide, hyper, np.random.default_rng(1))
        assert narrow_history == wide_history
        save_checkpoint(narrow_model, tmp_path / "narrow.ckpt")
        save_checkpoint(wide_model, tmp_path / "wide.ckpt")
        assert (tmp_path / "narrow.ckpt").read_bytes() == (tmp_path / "wide.ckpt").read_bytes()

        # the trained head is not zero, so the gradients and scores are informative
        tok_ids, logits, hidden, labels = batch_arrays(ds)
        loss32, grads32 = loss_and_grad(narrow_model, tok_ids, logits, hidden, labels)
        loss64, grads64 = loss_and_grad(narrow_model, tok_ids.astype(np.int64), logits, hidden, labels.astype(np.int64))
        assert loss32 == loss64
        assert all(grads32[name].tobytes() == grads64[name].tobytes() for name in grads64)
        scores32 = narrow_model.score_batch(tok_ids, logits, hidden)
        scores64 = narrow_model.score_batch(tok_ids.astype(np.int64), logits, hidden)
        assert scores32.tobytes() == scores64.tobytes() and len(np.unique(scores32)) > 1


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

    def test_an_empty_dataset_names_its_file(self, saved):
        # build_dataset never writes one, and train could only say "dataset is empty"
        with np.load(saved) as npz:
            arrays = {name: a[:0] for name, a in npz.items()}
        with open(saved, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=r"train\.npz: the dataset holds no examples"):
            load_dataset(saved)

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

    def test_meta_without_the_id_table(self, saved):
        with open(f"{saved}.meta.json") as fh:
            config = json.load(fh)
        del config["traj_ids"]
        with open(f"{saved}.meta.json", "w") as fh:
            json.dump(config, fh)
        with pytest.raises(ValueError, match=r"train\.npz\.meta\.json lacks traj_ids as a list of strings"):
            load_dataset(saved)

    @pytest.mark.parametrize("value", ["inst-3", [3], ["inst-3", None], {"0": "inst-3"}, None])
    def test_id_table_that_is_not_a_list_of_strings(self, saved, value):
        self.tamper(saved, meta={"traj_ids": value})
        with pytest.raises(ValueError, match=r"train\.npz\.meta\.json lacks traj_ids as a list of strings"):
            load_dataset(saved)

    @pytest.mark.parametrize("value", [-1, 1])  # the table holds one id
    def test_traj_id_outside_the_id_table(self, saved, value):
        self.tamper(saved, "traj_id", self.set_entry(-1, value))
        with pytest.raises(ValueError, match=r"train\.npz: traj_id indices must lie in \[0, 1\)"):
            load_dataset(saved)

    def test_cut_index_below_one(self, saved):
        self.tamper(saved, "k", self.set_entry(0, 0))
        with pytest.raises(ValueError, match=r"train\.npz: cut indices k must be at least 1"):
            load_dataset(saved)

    def test_negative_position(self, saved):
        self.tamper(saved, "pos", self.set_entry(-1, -3))
        with pytest.raises(ValueError, match=r"train\.npz: positions must not be negative"):
            load_dataset(saved)

    @pytest.mark.parametrize("value", [7.0, -0.25, 1.0 + 1e-12])
    def test_top1_prob_outside_the_unit_interval(self, saved, value):
        self.tamper(saved, "top1_prob", self.set_entry(0, value))
        with pytest.raises(ValueError, match=r"train\.npz: top-1 probabilities must lie in \[0, 1\]"):
            load_dataset(saved)

    def test_top1_prob_at_the_ends_of_the_unit_interval_loads(self, saved):
        self.tamper(saved, "top1_prob", lambda a: np.where(np.arange(len(a)) % 2, 0.0, 1.0))
        assert set(load_dataset(saved).columns["top1_prob"].tolist()) == {0.0, 1.0}

    def test_a_dataset_in_the_old_layout_is_rejected(self, saved):
        """The layout before int32 columns: int64 integers, the record id on
        every row as a fixed-width string, and no id table in the meta."""
        with np.load(saved) as npz:
            arrays = dict(npz)
        with open(f"{saved}.meta.json") as fh:
            config = json.load(fh)
        ids = config.pop("traj_ids")
        old = {name: a.astype(np.int64) if a.dtype.kind == "i" else a for name, a in arrays.items()}
        old["traj_id"] = np.asarray(ids)[arrays["traj_id"]]
        assert old["traj_id"].dtype == np.dtype("<U6")
        save_archive(saved, old, config)
        with pytest.raises(ValueError, match=r"train\.npz\.meta\.json lacks traj_ids"):
            load_dataset(saved)
        # an id table alone does not make the old columns load
        save_archive(saved, old, {**config, "traj_ids": ids})
        with pytest.raises(ValueError, match=r"train\.npz: column top_tokens has dtype int64 .* expected int32"):
            load_dataset(saved)
        save_archive(saved, {**arrays, "traj_id": old["traj_id"]}, {**config, "traj_ids": ids})
        with pytest.raises(ValueError, match=r"train\.npz: column traj_id has dtype <U6 .* expected int32"):
            load_dataset(saved)

    def test_meta_width_disagrees_with_the_columns(self, saved):
        self.tamper(saved, meta={"K1": 3})  # rows have width 2
        with pytest.raises(ValueError, match=r"train\.npz.*top_tokens"):
            load_dataset(saved)
        self.tamper(saved, meta={"K1": 2, "F": 99})
        with pytest.raises(ValueError, match="hidden"):
            load_dataset(saved)

    def test_top_k_wider_than_the_vocabulary(self, saved):
        self.tamper(saved, meta={"K1": 3, "V": 2})
        with pytest.raises(ValueError, match=r"train\.npz\.meta\.json: K1=3 and K2=2 must not exceed V=2"):
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
        with pytest.raises(ValueError, match=r"train\.npz: not an intact \.npz archive"):
            load_dataset(saved)

    @pytest.mark.parametrize("text", ['{"K1": 2,', "5", '["K1", 2]'])
    def test_meta_file_that_is_not_a_json_object(self, saved, text):
        with open(f"{saved}.meta.json", "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=r"train\.npz\.meta\.json: "):
            load_dataset(saved)

    @pytest.mark.parametrize("value", [0, 2.0, "8", None, True])
    def test_geometry_that_is_not_a_positive_integer(self, saved, value):
        self.tamper(saved, meta={"V": value})
        with pytest.raises(ValueError, match=r"train\.npz\.meta\.json lacks V as positive integers"):
            load_dataset(saved)

    def test_extra_or_missing_column(self, saved):
        with np.load(saved) as npz:
            arrays = dict(npz)
        for edited in ({**arrays, "weight": arrays["k"]}, {k: v for k, v in arrays.items() if k != "pos"}):
            with open(saved, "wb") as fh:
                np.savez(fh, **edited)
            with pytest.raises(ValueError, match=r"train\.npz: holds arrays"):
                load_dataset(saved)

    @pytest.mark.parametrize("column", ["top_logits", "hidden", "top1_prob"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_value_that_is_not_finite(self, saved, column, value):
        self.tamper(saved, column, self.set_entry(-1, value))
        with pytest.raises(ValueError, match=rf"train\.npz: column {column} holds NaN or infinite values"):
            load_dataset(saved)

    def test_flipped_byte_fails_the_crc(self, saved):
        with np.load(saved) as npz:
            hidden = npz["hidden"]
        blob = bytearray(saved.read_bytes())
        at = blob.find(hidden.tobytes())
        assert at > 0
        blob[at + 9] ^= 0x10
        saved.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"train\.npz: not an intact .*CRC"):
            load_dataset(saved)
