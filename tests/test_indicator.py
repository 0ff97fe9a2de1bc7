import numpy as np
import pytest

from maskorder.denoiser import FeatureBundle
from maskorder.labeling import LabeledExample
from maskorder.indicator import (
    CheckpointError,
    IndicatorConfig,
    IndicatorModel,
    TrainHyper,
    TrainState,
    adamw_step,
    batch_arrays,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    train,
)

SMALL = IndicatorConfig(vocab_size=6, k1=2, k2=3, feature_dim=4, emb_dim=5, hidden_dim=9, depth=2)


def random_batch(cfg, B, rng):
    tok_ids = rng.integers(0, cfg.vocab_size, size=(B, cfg.k1))
    logits = rng.normal(size=(B, cfg.k2))
    hidden = rng.normal(size=(B, cfg.feature_dim))
    labels = rng.integers(0, 2, size=B)
    return tok_ids, logits, hidden, labels


def randomized_head(model, rng):
    """Copy of the model with a non-zero head so gradients are informative."""
    params = {k: p.copy() for k, p in model.params.items()}
    params["w_head"] = rng.normal(0.0, 0.3, size=params["w_head"].shape)
    params["b_head"] = rng.normal(0.0, 0.3, size=params["b_head"].shape)
    return IndicatorModel(model.config, params)


def separable_dataset(cfg, N, rng):
    """Label 1 exactly when the top log-probability is above its median."""
    logits = np.sort(rng.normal(size=(N, cfg.k2)), axis=1)[:, ::-1]
    cutoff = np.median(logits[:, 0])
    examples = []
    for i in range(N):
        top_tokens = rng.integers(0, cfg.vocab_size, size=cfg.k1)
        hidden = rng.normal(size=cfg.feature_dim)
        label = int(logits[i, 0] > cutoff)
        examples.append(LabeledExample(top_tokens, logits[i], hidden, label, 0.0, "synthetic", 1, i))
    return examples


class TestModelBasics:
    def test_untrained_score_is_exactly_half(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        tok_ids, logits, hidden, _ = random_batch(SMALL, 16, np.random.default_rng(1))
        assert np.all(model.score_batch(tok_ids, logits, hidden) == 0.5)

    def test_group_widths_partition_the_backbone(self):
        for H in (3, 9, 128, 768):
            cfg = IndicatorConfig(vocab_size=6, k1=2, k2=3, feature_dim=4, hidden_dim=H)
            assert sum(cfg.group_widths) == H

    def test_num_params_counts_every_array(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        assert model.num_params == sum(p.size for p in model.params.values())
        assert model.num_params > 0

    def test_geometry_mismatch_raises(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        tok_ids, logits, hidden, _ = random_batch(SMALL, 4, np.random.default_rng(1))
        with pytest.raises(ValueError, match="top tokens"):
            model.score_batch(tok_ids[:, :1], logits, hidden)
        with pytest.raises(ValueError, match="feature dimension"):
            model.score_batch(tok_ids, logits, hidden[:, :2])

    def test_bad_config_values(self):
        with pytest.raises(ValueError):
            IndicatorConfig(vocab_size=4, k1=5)
        with pytest.raises(ValueError):
            IndicatorConfig(vocab_size=4, depth=0)

    def test_scores_are_deterministic(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(3))
        model = randomized_head(model, np.random.default_rng(4))
        tok_ids, logits, hidden, _ = random_batch(SMALL, 8, np.random.default_rng(5))
        a = model.score_batch(tok_ids, logits, hidden)
        b = model.score_batch(tok_ids, logits, hidden)
        assert np.array_equal(a, b)
        assert np.all((a > 0) & (a < 1))

    def test_score_bundles_scores_each_row(self):
        model = randomized_head(IndicatorModel.init(SMALL, np.random.default_rng(3)), np.random.default_rng(4))
        tok_ids, logits, hidden, _ = random_batch(SMALL, 8, np.random.default_rng(5))
        scores = model.score_bundles(FeatureBundle(tok_ids, logits, hidden))
        assert np.array_equal(scores, model.score_batch(tok_ids, logits, hidden))

    def test_paper_scale_forward_pass(self):
        cfg = IndicatorConfig(vocab_size=32, k1=4, k2=8, feature_dim=35, hidden_dim=768, depth=5)
        model = IndicatorModel.init(cfg, np.random.default_rng(0))
        model = randomized_head(model, np.random.default_rng(1))
        tok_ids, logits, hidden, _ = random_batch(cfg, 4, np.random.default_rng(2))
        scores = model.score_batch(tok_ids, logits, hidden)
        assert scores.shape == (4,)
        assert np.all(np.isfinite(scores))


class TestGradients:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(0)
        model = randomized_head(IndicatorModel.init(SMALL, rng), rng)
        tok_ids, logits, hidden, labels = random_batch(SMALL, 12, rng)
        loss, grads = loss_and_grad(model, tok_ids, logits, hidden, labels)
        assert 0.1 < loss < 5.0
        h = 1e-6
        for name in ("w_head", "w1_0", "w_tok", "emb", "b2_1"):
            flat_idx = int(rng.integers(model.params[name].size))
            idx = np.unravel_index(flat_idx, model.params[name].shape)
            for sign in (1, -1):
                model.params[name][idx] += sign * h
                bumped, _ = loss_and_grad(model, tok_ids, logits, hidden, labels)
                model.params[name][idx] -= sign * h
                if sign == 1:
                    up = bumped
                else:
                    down = bumped
            numeric = (up - down) / (2 * h)
            analytic = grads[name][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-5, name

    def test_gradient_of_untouched_embedding_row_is_zero(self):
        rng = np.random.default_rng(1)
        model = randomized_head(IndicatorModel.init(SMALL, rng), rng)
        tok_ids = np.zeros((4, SMALL.k1), dtype=np.int64)  # only row 0 is used
        logits = rng.normal(size=(4, SMALL.k2))
        hidden = rng.normal(size=(4, SMALL.feature_dim))
        _, grads = loss_and_grad(model, tok_ids, logits, hidden, np.array([0, 1, 0, 1]))
        assert np.all(grads["emb"][1:] == 0.0)
        assert np.any(grads["emb"][0] != 0.0)

    def test_empty_batch_rejected(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        with pytest.raises(ValueError):
            loss_and_grad(model, np.zeros((0, 2), dtype=int), np.zeros((0, 3)), np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestAdamW:
    def test_first_step_hand_computed(self):
        hyper = TrainHyper(lr=0.1, beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.01)
        state = TrainState.fresh({"w": np.array([1.0])}, hyper)
        new = adamw_step(state, {"w": np.array([1.0])})
        # m_hat = v_hat = 1 after bias correction, so the Adam part moves by lr
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8) - 0.1 * 0.01 * 1.0
        assert new.params["w"][0] == pytest.approx(expected, abs=1e-12)
        assert new.step == 1

    def test_decay_is_decoupled_from_the_gradient(self):
        hyper = TrainHyper(lr=0.1, weight_decay=0.5)
        state = TrainState.fresh({"w": np.array([2.0])}, hyper)
        new = adamw_step(state, {"w": np.array([0.0])})
        # zero gradient: only the decay term fires
        assert new.params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_shape_mismatch(self):
        state = TrainState.fresh({"w": np.zeros(3)}, TrainHyper())
        with pytest.raises(ValueError):
            adamw_step(state, {"w": np.zeros(4)})

    def test_repeated_steps_descend_a_quadratic(self):
        hyper = TrainHyper(lr=0.05, weight_decay=0.0)
        state = TrainState.fresh({"w": np.array([3.0])}, hyper)
        for _ in range(200):
            state = adamw_step(state, {"w": 2.0 * state.params["w"]})
        assert abs(state.params["w"][0]) < 0.5


class TestTraining:
    def test_learns_a_separable_problem(self):
        rng = np.random.default_rng(0)
        examples = separable_dataset(SMALL, 600, rng)
        model = IndicatorModel.init(SMALL, np.random.default_rng(1))
        hyper = TrainHyper(lr=3e-3, batch_size=64, epochs=40)
        trained, history = train(model, examples, hyper, np.random.default_rng(2))
        assert history[-1]["holdout_acc"] >= 0.95
        assert history[-1]["train_acc"] >= 0.97
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_training_is_bit_reproducible(self):
        rng = np.random.default_rng(3)
        examples = separable_dataset(SMALL, 200, rng)
        model = IndicatorModel.init(SMALL, np.random.default_rng(1))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=3)
        a, hist_a = train(model, examples, hyper, np.random.default_rng(7))
        b, hist_b = train(model, examples, hyper, np.random.default_rng(7))
        assert hist_a == hist_b
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_empty_dataset_rejected(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train(model, [], TrainHyper(), np.random.default_rng(0))

    def test_batch_arrays_shapes(self):
        rng = np.random.default_rng(0)
        examples = separable_dataset(SMALL, 10, rng)
        tok_ids, logits, hidden, labels = batch_arrays(examples)
        assert tok_ids.shape == (10, SMALL.k1)
        assert logits.shape == (10, SMALL.k2)
        assert hidden.shape == (10, SMALL.feature_dim)
        assert set(labels) <= {0, 1}


class TestCheckpoints:
    def _model(self):
        rng = np.random.default_rng(0)
        return randomized_head(IndicatorModel.init(SMALL, rng), rng)

    def test_bitwise_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in (len(blob) // 2, len(blob) - 8):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_vocab_mismatch(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path, expected_vocab_size=99)
