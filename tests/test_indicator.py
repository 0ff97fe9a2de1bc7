import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain, traced_peak
from maskorder.denoiser import FeatureBundle, MarkovDenoiser
from maskorder.labeling import DatasetFile
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
    """A labeled dataset of N rows whose label is 1 exactly when the top
    log-probability is above its median."""
    logits = np.sort(rng.normal(size=(N, cfg.k2)), axis=1)[:, ::-1]
    cutoff = np.median(logits[:, 0])
    rows = [(rng.integers(0, cfg.vocab_size, size=cfg.k1), rng.normal(size=cfg.feature_dim)) for _ in range(N)]
    columns = {
        "top_tokens": np.array([tokens for tokens, _ in rows], np.int32),
        "top_logits": np.ascontiguousarray(logits),
        "hidden": np.array([hidden for _, hidden in rows]),
        "label": (logits[:, 0] > cutoff).astype(np.int32),
        "top1_prob": np.zeros(N),
        "traj_id": np.zeros(N, np.int32),
        "k": np.ones(N, np.int32),
        "pos": np.arange(N, dtype=np.int32),
    }
    return DatasetFile(columns, {"traj_ids": ["synthetic"]})


class TestModelBasics:
    def test_untrained_score_is_exactly_half(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        tok_ids, logits, hidden, _ = random_batch(SMALL, 16, np.random.default_rng(1))
        assert np.all(model.score_batch(tok_ids, logits, hidden) == 0.5)

    def test_group_widths_partition_the_backbone(self):
        for H in (3, 9, 128, 768):
            cfg = IndicatorConfig(vocab_size=6, k1=2, k2=3, feature_dim=4, hidden_dim=H)
            assert sum(cfg.group_widths) == H

    @pytest.mark.parametrize("V", [8, 16, 32])
    def test_the_default_feature_dim_fits_a_markov_denoiser(self, V):
        den = MarkovDenoiser(random_chain(V, np.random.default_rng(V)))
        assert IndicatorConfig(vocab_size=V).feature_dim == den.feature_dim

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

    @pytest.mark.parametrize("bad", [-1, SMALL.vocab_size])
    def test_token_ids_outside_the_vocabulary_are_rejected(self, bad):
        # id -1 would index the embedding table from the end and score as id V-1
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        tok_ids, logits, hidden, labels = random_batch(SMALL, 4, np.random.default_rng(1))
        tok_ids[2, 1] = bad
        message = rf"token id {bad} lies outside \[0, 6\)"
        with pytest.raises(ValueError, match=message):
            model.score_batch(tok_ids, logits, hidden)
        with pytest.raises(ValueError, match=message):
            loss_and_grad(model, tok_ids, logits, hidden, labels)

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
        # β1 = 0.9, β2 = 0.95, ε = 1e-8 and weight decay 0.01 are fixed
        hyper = TrainHyper(lr=0.1)
        state = TrainState.fresh({"w": np.array([1.0])}, hyper)
        new = adamw_step(state, {"w": np.array([1.0])})
        # m_hat = v_hat = 1 after bias correction, so the Adam part moves by lr
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8) - 0.1 * 0.01 * 1.0
        assert new.params["w"][0] == pytest.approx(expected, abs=1e-12)
        assert new.step == 1

    def test_decay_is_decoupled_from_the_gradient(self):
        hyper = TrainHyper(lr=0.1)
        state = TrainState.fresh({"w": np.array([2.0])}, hyper)
        new = adamw_step(state, {"w": np.array([0.0])})
        # zero gradient: only the decay term fires
        assert new.params["w"][0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_shape_mismatch(self):
        state = TrainState.fresh({"w": np.zeros(3)}, TrainHyper())
        with pytest.raises(ValueError):
            adamw_step(state, {"w": np.zeros(4)})

    def test_state_is_one_vector_with_parameter_views(self):
        state = TrainState.fresh({"a": np.ones((2, 3)), "b": np.full(4, 2.0)}, TrainHyper())
        new = adamw_step(state, {"a": np.ones((2, 3)), "b": np.ones(4)})
        assert new.flat.shape == new.m.shape == new.v.shape == (10,)
        assert new.params["a"].shape == (2, 3) and np.shares_memory(new.params["b"], new.flat)
        assert np.array_equal(state.flat, [1.0] * 6 + [2.0] * 4)  # the old state is unchanged

    @pytest.mark.parametrize(
        "bad",
        [
            {"batch_size": 0},
            {"epochs": 0},
            {"lr": 0.0},
            {"lr": -1e-3},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_hyperparameters_out_of_range(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainHyper(**bad)

    def test_hyperparameter_edges_are_accepted(self):
        TrainHyper(batch_size=1, epochs=1)

    def test_repeated_steps_descend_a_quadratic(self):
        hyper = TrainHyper(lr=0.05)
        state = TrainState.fresh({"w": np.array([3.0])}, hyper)
        for _ in range(200):
            state = adamw_step(state, {"w": 2.0 * state.params["w"]})
        assert abs(state.params["w"][0]) < 0.5


class TestTraining:
    def test_learns_a_separable_problem(self):
        rng = np.random.default_rng(0)
        dataset = separable_dataset(SMALL, 600, rng)
        model = IndicatorModel.init(SMALL, np.random.default_rng(1))
        hyper = TrainHyper(lr=3e-3, batch_size=64, epochs=40)
        trained, history = train(model, dataset, hyper, np.random.default_rng(2))
        assert all(set(entry) == {"epoch", "train_loss", "holdout_acc"} for entry in history)
        assert history[-1]["holdout_acc"] >= 0.95
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        # train() holds out the first tenth of rng.permutation(N), drawn first
        tr = np.random.default_rng(2).permutation(600)[60:]
        tok_ids, logits, hidden, labels = (a[tr] for a in batch_arrays(dataset))
        train_acc = np.mean((trained.score_batch(tok_ids, logits, hidden) >= 0.5) == (labels == 1))
        assert train_acc >= 0.97

    def test_training_is_bit_reproducible(self):
        rng = np.random.default_rng(3)
        dataset = separable_dataset(SMALL, 200, rng)
        model = IndicatorModel.init(SMALL, np.random.default_rng(1))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=3)
        a, hist_a = train(model, dataset, hyper, np.random.default_rng(7))
        b, hist_b = train(model, dataset, hyper, np.random.default_rng(7))
        assert hist_a == hist_b
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_empty_dataset_rejected(self):
        model = IndicatorModel.init(SMALL, np.random.default_rng(0))
        columns = separable_dataset(SMALL, 4, np.random.default_rng(0)).columns
        empty = DatasetFile({name: a[:0] for name, a in columns.items()})
        with pytest.raises(ValueError, match="dataset is empty"):
            train(model, empty, TrainHyper(), np.random.default_rng(0))

    def test_batch_arrays_shapes(self):
        rng = np.random.default_rng(0)
        tok_ids, logits, hidden, labels = batch_arrays(separable_dataset(SMALL, 10, rng))
        assert tok_ids.shape == (10, SMALL.k1)
        assert logits.shape == (10, SMALL.k2)
        assert hidden.shape == (10, SMALL.feature_dim)
        assert set(labels) <= {0, 1}


# -- reference: the per-parameter update and the 2-D embedding scatter -----


def reference_forward(cfg, p, tok_ids, logits, hidden):
    """Class probabilities with fresh arrays at every step; returns
    (probs, e_flat, blocks, x), each block being (x_in, u, a)."""
    B = len(tok_ids)
    e_flat = p["emb"][tok_ids].reshape(B, -1)
    x = np.concatenate(
        [e_flat @ p["w_tok"] + p["b_tok"], logits @ p["w_log"] + p["b_log"], hidden @ p["w_hid"] + p["b_hid"]],
        axis=1,
    )
    blocks = []
    for i in range(cfg.depth):
        u = x @ p[f"w1_{i}"] + p[f"b1_{i}"]
        a = u * (1.0 / (1.0 + np.exp(-u)))
        blocks.append((x, u, a))
        x = x + a @ p[f"w2_{i}"] + p[f"b2_{i}"]
    z = x @ p["w_head"] + p["b_head"]
    z = z - z.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, e_flat, blocks, x


def reference_loss_and_grad(cfg, p, tok_ids, logits, hidden, labels):
    """Loss and gradients as a straightforward per-block, per-row computation
    (sigmoid recomputed in the backward pass, embedding rows scattered as rows)."""
    B = len(labels)
    probs, e_flat, blocks, x = reference_forward(cfg, p, tok_ids, logits, hidden)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(B), labels], 1e-300))))

    grads = {}
    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    grads["w_head"] = x.T @ dz
    grads["b_head"] = dz.sum(axis=0)
    dx = dz @ p["w_head"].T
    for i in reversed(range(cfg.depth)):
        x_in, u, a = blocks[i]
        grads[f"w2_{i}"] = a.T @ dx
        grads[f"b2_{i}"] = dx.sum(axis=0)
        s = 1.0 / (1.0 + np.exp(-u))
        du = (dx @ p[f"w2_{i}"].T) * (s * (1.0 + u * (1.0 - s)))
        grads[f"w1_{i}"] = x_in.T @ du
        grads[f"b1_{i}"] = du.sum(axis=0)
        dx = dx + du @ p[f"w1_{i}"].T
    d_tok, d_log, _ = cfg.group_widths
    dt, dl, dh = dx[:, :d_tok], dx[:, d_tok : d_tok + d_log], dx[:, d_tok + d_log :]
    grads["w_tok"] = e_flat.T @ dt
    grads["b_tok"] = dt.sum(axis=0)
    grads["w_log"] = logits.T @ dl
    grads["b_log"] = dl.sum(axis=0)
    grads["w_hid"] = hidden.T @ dh
    grads["b_hid"] = dh.sum(axis=0)
    de = (dt @ p["w_tok"].T).reshape(B, cfg.k1, cfg.emb_dim)
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], tok_ids.reshape(-1), de.reshape(-1, cfg.emb_dim))
    return loss, grads


def reference_adamw_step(h, t, params, m, v, grads):
    """Step t (from 1) of AdamW, one parameter at a time, with β1 = 0.9,
    β2 = 0.95, ε = 1e-8 and weight decay 0.01; returns (params, m, v)."""
    new_params, new_m, new_v = {}, {}, {}
    for key, w in params.items():
        g = grads[key]
        new_m[key] = 0.9 * m[key] + (1 - 0.9) * g
        new_v[key] = 0.95 * v[key] + (1 - 0.95) * g * g
        m_hat = new_m[key] / (1 - 0.9**t)
        v_hat = new_v[key] / (1 - 0.95**t)
        w_new = w - h.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        new_params[key] = w_new - h.lr * 0.01 * w
    return new_params, new_m, new_v


def assert_bitwise_equal(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].shape == b[name].shape and a[name].dtype == b[name].dtype, name
        assert a[name].tobytes() == b[name].tobytes(), name


@st.composite
def small_configs(draw):
    V = draw(st.integers(1, 6))
    return IndicatorConfig(
        vocab_size=V,
        k1=draw(st.integers(1, V)),
        k2=draw(st.integers(1, V)),
        feature_dim=draw(st.integers(1, 4)),
        emb_dim=draw(st.integers(1, 4)),
        hidden_dim=draw(st.integers(3, 10)),
        depth=draw(st.integers(1, 3)),
    )


class TestBitEquality:
    """The vectorised update and gradients are bitwise equal to the reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        cfg=small_configs(),
        B=st.integers(1, 12),
        steps=st.integers(1, 4),
        lr=st.sampled_from([1e-3, 3e-2, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_steps_match_the_reference(self, cfg, B, steps, lr, seed):
        rng = np.random.default_rng(seed)
        model = randomized_head(IndicatorModel.init(cfg, rng), rng)
        hyper = TrainHyper(lr=lr)
        state = TrainState.fresh(model.params, hyper)
        params = {k: p.copy() for k, p in model.params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, steps + 1):
            tok_ids, logits, hidden, labels = random_batch(cfg, B, rng)
            tok_ids = tok_ids % min(cfg.vocab_size, 2)  # many repeated ids per column and row
            loss, grads = loss_and_grad(IndicatorModel(cfg, state.params), tok_ids, logits, hidden, labels)
            ref_loss, ref_grads = reference_loss_and_grad(cfg, params, tok_ids, logits, hidden, labels)
            assert loss == ref_loss
            assert_bitwise_equal(grads, ref_grads)
            state = adamw_step(state, grads)
            params, m, v = reference_adamw_step(hyper, t, params, m, v, ref_grads)
            assert state.step == t
            assert_bitwise_equal(state.params, params)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_training_matches_a_reference_loop(self, seed):
        dataset = separable_dataset(SMALL, 150, np.random.default_rng(seed))
        model = IndicatorModel.init(SMALL, np.random.default_rng(seed + 10))
        hyper = TrainHyper(lr=3e-3, batch_size=32, epochs=3)
        trained, _ = train(model, dataset, hyper, np.random.default_rng(seed + 20))

        rng = np.random.default_rng(seed + 20)
        tok_ids, logits, hidden, labels = batch_arrays(dataset)
        tr = rng.permutation(len(labels))[max(1, len(labels) // 10) :]
        params = {k: p.copy() for k, p in model.params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        t = 0
        for _ in range(hyper.epochs):
            order = tr[rng.permutation(len(tr))]
            for start in range(0, len(order), hyper.batch_size):
                idx = order[start : start + hyper.batch_size]
                _, grads = reference_loss_and_grad(SMALL, params, tok_ids[idx], logits[idx], hidden[idx], labels[idx])
                t += 1
                params, m, v = reference_adamw_step(hyper, t, params, m, v, grads)
        assert_bitwise_equal(trained.params, params)


# the indicator geometry of the label-train and ni-short benchmark workloads
BENCH = IndicatorConfig(vocab_size=8, k1=4, k2=8, feature_dim=3, emb_dim=16, hidden_dim=64, depth=2)


class TestBitEqualityAtBenchGeometry:
    """BLAS may take other kernels at the benchmark's sizes than at the tiny
    configs above, so these sizes are pinned to the reference explicitly."""

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(5)
        return randomized_head(IndicatorModel.init(BENCH, rng), rng)

    @pytest.mark.parametrize("B", [256, 1303])
    def test_loss_and_grad_matches_the_reference(self, model, B):
        batch = random_batch(BENCH, B, np.random.default_rng(B))
        loss, grads = loss_and_grad(model, *batch)
        ref_loss, ref_grads = reference_loss_and_grad(BENCH, model.params, *batch)
        assert loss == ref_loss
        assert_bitwise_equal(grads, ref_grads)

    @pytest.mark.parametrize("B", [1, 35, 1303])
    def test_score_batch_matches_the_reference_forward(self, model, B):
        tok_ids, logits, hidden, _ = random_batch(BENCH, B, np.random.default_rng(B))
        probs = reference_forward(BENCH, model.params, tok_ids, logits, hidden)[0]
        scores = model.score_batch(tok_ids, logits, hidden)
        assert scores.shape == (B,) and scores.tobytes() == probs[:, 1].tobytes()

    def test_scoring_keeps_no_backward_cache(self, model):
        # a (1303, 64) float64 array is 0.64 MiB; the training cache holds
        # four per residual block, which scoring must not keep
        tok_ids, logits, hidden, _ = random_batch(BENCH, 1303, np.random.default_rng(3))
        tracemalloc.start()
        try:
            model.score_batch(tok_ids, logits, hidden)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_scoring_runs_each_block_in_two_buffers(self, model):
        # a (1303, 64) float64 array is 0.64 MiB; scoring holds at most three
        # at once: a block's input and its two buffers, or the token
        # embeddings, their projections and the backbone input
        tok_ids, logits, hidden, _ = random_batch(BENCH, 1303, np.random.default_rng(3))
        assert traced_peak(model.score_batch, tok_ids, logits, hidden) < 2.25 * 2**20

    def test_inputs_params_and_grads_are_left_unchanged(self, model):
        batch = random_batch(BENCH, 256, np.random.default_rng(9))
        saved_batch = [a.copy() for a in batch]
        saved_params = {k: p.copy() for k, p in model.params.items()}
        _, grads = loss_and_grad(model, *batch)
        model.score_batch(*batch[:3])
        for a, b in zip(batch, saved_batch):
            assert a.tobytes() == b.tobytes()
        assert_bitwise_equal(model.params, saved_params)

        state = adamw_step(TrainState.fresh(model.params, TrainHyper(lr=1e-2)), grads)  # nonzero moments
        saved_grads = {k: g.copy() for k, g in grads.items()}
        saved_state = [state.flat.copy(), state.m.copy(), state.v.copy()]
        adamw_step(state, grads)
        assert_bitwise_equal(grads, saved_grads)
        for a, b in zip((state.flat, state.m, state.v), saved_state):
            assert a.tobytes() == b.tobytes()
        assert_bitwise_equal(model.params, saved_params)


class TestCheckpoints:
    def _model(self):
        rng = np.random.default_rng(0)
        return randomized_head(IndicatorModel.init(SMALL, rng), rng)

    def _saved(self, tmp_path):
        path = tmp_path / "ind.ckpt"
        save_checkpoint(self._model(), path)
        return path

    @staticmethod
    def rewrite(path, edit):
        """Replace the checkpoint's parameter arrays with edit(dict of arrays)."""
        with np.load(path) as npz:
            params = dict(npz)
        with open(path, "wb") as fh:
            np.savez(fh, **edit(params))

    @staticmethod
    def rewrite_meta(path, edit):
        meta_path = f"{path}.meta.json"
        with open(meta_path) as fh:
            meta = json.load(fh)
        with open(meta_path, "w") as fh:
            json.dump(edit(meta), fh)

    def test_bitwise_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_writes_the_archive_and_the_config_as_its_meta(self, tmp_path):
        path = self._saved(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ind.ckpt", "ind.ckpt.meta.json"]
        assert json.loads((tmp_path / "ind.ckpt.meta.json").read_text()) == asdict(SMALL)

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
            with pytest.raises(CheckpointError, match=r"ind\.ckpt: not an intact \.npz archive"):
                load_checkpoint(path)

    def test_flipped_byte_inside_a_parameter(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        at = blob.find(model.params["w_head"].tobytes())
        assert at > 0
        blob[at + 5] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: .*CRC"):
            load_checkpoint(path)

    def test_extra_array(self, tmp_path):
        path = self._saved(tmp_path)
        self.rewrite(path, lambda p: {**p, "w_extra": np.zeros(3)})
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: .*extra \['w_extra'\]"):
            load_checkpoint(path)

    def test_missing_array(self, tmp_path):
        path = self._saved(tmp_path)
        self.rewrite(path, lambda p: {k: v for k, v in p.items() if k != "b_head"})
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: .*missing \['b_head'\]"):
            load_checkpoint(path)

    def test_wrong_shape(self, tmp_path):
        path = self._saved(tmp_path)
        self.rewrite(path, lambda p: {**p, "w_head": p["w_head"][:-1]})
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: column w_head has dtype float64 and shape \(\d+, 2\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, ">f8"])
    def test_parameter_that_is_not_float64(self, tmp_path, dtype):
        path = self._saved(tmp_path)
        self.rewrite(path, lambda p: {**p, "b_tok": p["b_tok"].astype(dtype)})
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: column b_tok has dtype .* expected float64"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_parameter_that_is_not_finite(self, tmp_path, value):
        # a NaN weight scores NaN on every row, which never opens NI's gate
        path = self._saved(tmp_path)

        def poison(params):
            params["w_head"].flat[0] = value
            return params

        self.rewrite(path, poison)
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: column w_head holds NaN or infinite values"):
            load_checkpoint(path)

    def test_missing_meta_file(self, tmp_path):
        path = self._saved(tmp_path)
        (tmp_path / "ind.ckpt.meta.json").unlink()
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: meta file .* is missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ['{"vocab_size": 6,', "5", "[1, 2]"])
    def test_meta_file_that_is_not_a_json_object(self, tmp_path, text):
        path = self._saved(tmp_path)
        (tmp_path / "ind.ckpt.meta.json").write_text(text)
        with pytest.raises(CheckpointError, match=r"ind\.ckpt\.meta\.json: "):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: {k: v for k, v in m.items() if k != "k1"},
            lambda m: {**m, "param_order": []},
            lambda m: {**m, "k1": 2.0},
            lambda m: {**m, "depth": "2"},
            lambda m: {**m, "depth": True},
        ],
        ids=["missing-key", "extra-key", "float", "string", "bool"],
    )
    def test_meta_that_is_not_an_integer_config(self, tmp_path, edit):
        path = self._saved(tmp_path)
        self.rewrite_meta(path, edit)
        with pytest.raises(CheckpointError, match=r"ind\.ckpt\.meta\.json: expected integer values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [{"k1": 0}, {"k2": 99}, {"hidden_dim": 2}])
    def test_meta_with_an_invalid_config(self, tmp_path, edit):
        path = self._saved(tmp_path)
        self.rewrite_meta(path, lambda m: {**m, **edit})
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: "):
            load_checkpoint(path)

    def test_meta_that_disagrees_with_the_parameters(self, tmp_path):
        path = self._saved(tmp_path)
        self.rewrite_meta(path, lambda m: {**m, "k1": 3})
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: column w_tok has dtype float64 and shape"):
            load_checkpoint(path)

    def test_feature_dim_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        assert load_checkpoint(path, expected_feature_dim=SMALL.feature_dim).config == SMALL
        with pytest.raises(CheckpointError, match=r"ind\.ckpt: feature dimension 4 does not match the denoiser's 7"):
            load_checkpoint(path, 6, 7)

    def test_vocab_mismatch(self, tmp_path):
        model = self._model()
        path = tmp_path / "ind.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path, expected_vocab_size=99)
