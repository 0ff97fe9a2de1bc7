import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_posterior, permutation_chain, random_chain, sticky_chain
from maskorder.core import MaskedSequence, Vocabulary
from maskorder.denoiser import (
    LOG_FLOOR,
    DenoiserError,
    DenoiserOutput,
    MarkovDenoiser,
    MarkovModel,
    RecordingDenoiser,
    ReplayDenoiser,
    TemperedDenoiser,
    extract_features,
    markov_posterior,
    temper,
)
from maskorder.orders import DecodeConfig, decode

M = 8  # mask id for V=8 cases


def forward_backward_posterior(model: MarkovModel, seq: MaskedSequence) -> np.ndarray:
    """Reference: the rescaled forward-backward loop the closed form replaced.

    Returns one posterior row per masked position, in ascending order.
    """
    V, L = model.V, len(seq)
    evidence = np.ones((L, V))
    for i, t in enumerate(seq.tokens):
        if t != seq.vocab.mask_id:
            evidence[i] = 0.0
            evidence[i, t] = 1.0
    T = model.transition
    alpha = np.empty((L, V))
    a = model.initial * evidence[0]
    alpha[0] = a / a.sum()
    for i in range(1, L):
        a = (alpha[i - 1] @ T) * evidence[i]
        alpha[i] = a / a.sum()
    beta = np.empty((L, V))
    beta[L - 1] = 1.0
    for i in range(L - 2, -1, -1):
        b = T @ (beta[i + 1] * evidence[i + 1])
        beta[i] = b / b.sum()
    p = (alpha * beta)[seq.masked_positions()]
    return p / p.sum(axis=1, keepdims=True)


def sparse_chain(V: int, rng: np.random.Generator) -> MarkovModel:
    """Random chain with about half its entries exactly zero."""
    T = rng.dirichlet(np.ones(V), size=V) * (rng.random((V, V)) < 0.5)
    T[np.arange(V), rng.integers(0, V, size=V)] += 0.1  # every row keeps a nonzero
    initial = rng.dirichlet(np.ones(V)) * (rng.random(V) < 0.5)
    initial[rng.integers(0, V)] += 0.1
    return MarkovModel(initial / initial.sum(), T / T.sum(axis=1, keepdims=True))


CHAINS = {
    "random": lambda V, rng: random_chain(V, rng),
    "sticky": lambda V, rng: sticky_chain(V, 0.9),
    "sparse": sparse_chain,
    "permutation": lambda V, rng: permutation_chain(V),
}


def observed_masked_sequence(model, L, prompt_len, n_masked, rng) -> MaskedSequence:
    """A chain sample of length L with n_masked generation positions masked."""
    tokens = list(model.sample_sequence(L, rng))
    for pos in rng.choice(np.arange(prompt_len, L), size=n_masked, replace=False):
        tokens[pos] = model.V
    return MaskedSequence(tuple(tokens), prompt_len, Vocabulary(model.V))


class TestMarkovModel:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(DenoiserError, match="sum"):
            MarkovModel(np.array([0.5, 0.5]), np.array([[0.9, 0.2], [0.1, 0.9]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(DenoiserError):
            MarkovModel(np.array([1.1, -0.1]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["initial", "transition"])
    def test_rejects_non_finite_entries(self, field, bad):
        d = sticky_chain(3, 0.8).to_dict()
        if field == "initial":
            d["initial"][1] = bad
        else:
            d["transition"][2][0] = bad
        with pytest.raises(DenoiserError, match="finite"):
            MarkovModel.from_dict(d)

    def test_rejects_nan_in_a_config_file(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text('{"V": 2, "initial": [0.5, 0.5], "transition": [[NaN, 0.5], [0.5, 0.5]]}')
        with pytest.raises(DenoiserError, match="finite"):
            MarkovModel.load(path)

    def test_config_file_round_trip(self, tmp_path):
        model = sticky_chain(4, 0.9)
        path = tmp_path / "chain.json"
        model.save(path)
        loaded = MarkovModel.load(path)
        assert np.array_equal(loaded.transition, model.transition)


class TestMarkovPosterior:
    def test_symmetric_chain_middle_position(self):
        model = MarkovModel(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        seq = MaskedSequence((0, 2, 0), 1, Vocabulary(2))
        out = markov_posterior(model, seq)
        # brute force over both completions: (0.81, 0.01) / 0.82
        np.testing.assert_allclose(out.row(1), [0.81 / 0.82, 0.01 / 0.82], atol=1e-12)

    def test_leading_masked_position(self):
        model = MarkovModel(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        seq = MaskedSequence((2, 0), 0, Vocabulary(2))
        np.testing.assert_allclose(markov_posterior(model, seq).row(0), [0.9, 0.1], atol=1e-12)

    def test_deterministic_chain_gives_delta_posteriors(self):
        model = permutation_chain(5)
        seq = MaskedSequence((2, 5, 5, 5), 1, Vocabulary(5))
        out = markov_posterior(model, seq)
        for pos in (1, 2, 3):
            assert out.row(pos).max() == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
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
            np.testing.assert_allclose(out.row(pos), expected, atol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        chain=st.sampled_from(sorted(CHAINS)),
        seed=st.integers(0, 2**32 - 1),
        V=st.integers(2, 4),
        L=st.integers(1, 8),
        data=st.data(),
    )
    def test_matches_brute_force_on_every_chain_kind(self, chain, seed, V, L, data):
        rng = np.random.default_rng(seed)
        model = CHAINS[chain](V, rng)
        prompt_len = data.draw(st.integers(0, L - 1), label="prompt_len")
        n_masked = data.draw(st.integers(1, min(L - prompt_len, 6)), label="n_masked")
        seq = observed_masked_sequence(model, L, prompt_len, n_masked, rng)
        out = markov_posterior(model, seq)
        expected = brute_force_posterior(model, seq)
        assert out.positions == tuple(expected)
        assert np.max(np.abs(out.dists - np.stack(list(expected.values())))) < 1e-10

    @pytest.mark.parametrize(
        "chain, V, L",
        [("random", 64, 600), ("random", 32, 264), ("sticky", 16, 600), ("sparse", 8, 500), ("random", 2, 600)],
    )
    def test_matches_forward_backward_at_long_lengths(self, chain, V, L):
        rng = np.random.default_rng(V * L)
        model = CHAINS[chain](V, rng)
        for prompt_len, n_masked in ((0, L), (8, L - 8), (8, L // 2), (0, 3)):
            seq = observed_masked_sequence(model, L, prompt_len, n_masked, rng)
            rows = markov_posterior(model, seq).dists
            assert np.max(np.abs(rows - forward_backward_posterior(model, seq))) < 1e-12

    def test_zero_probability_evidence_in_the_middle(self):
        model = permutation_chain(3)  # 0 -> 1 -> 2 -> 0
        vocab = Vocabulary(3)
        for tokens in ((0, 3, 0), (0, 3, 3, 2), (1, 0, 3), (0, 1, 3, 3, 0)):
            with pytest.raises(DenoiserError, match="zero probability"):
                markov_posterior(model, MaskedSequence(tokens, 0, vocab))

    def test_zero_probability_first_token(self):
        model = MarkovModel([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
        vocab = Vocabulary(2)
        for tokens, prompt_len in (((1, 2), 1), ((1, 2, 2), 0)):
            with pytest.raises(DenoiserError, match="zero probability"):
                markov_posterior(model, MaskedSequence(tokens, prompt_len, vocab))
        # the first observation is not at position 0: token 1 is unreachable from 0
        absorbing = MarkovModel([1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(DenoiserError, match="zero probability"):
            markov_posterior(absorbing, MaskedSequence((2, 1, 2), 0, vocab))
        # under the first chain token 1 is reachable after the first position
        out = markov_posterior(model, MaskedSequence((2, 1, 2), 0, vocab))
        np.testing.assert_allclose(out.dists, [[1.0, 0.0], [0.5, 0.5]])

    def test_cache_holds_as_many_powers_as_the_longest_query(self):
        model = random_chain(5, np.random.default_rng(0))
        den = MarkovDenoiser(model)
        for L, longest in ((10, 10), (50, 50), (30, 50), (51, 51)):
            den.query(MaskedSequence.fully_masked((1,), L - 1, den.vocab))
            t_pows, pi_pows = model._powers
            assert t_pows.shape == (longest, 5, 5) and pi_pows.shape == (longest, 5)
        for k in (0, 1, 7, 50):
            np.testing.assert_allclose(t_pows[k], np.linalg.matrix_power(model.transition, k), atol=1e-14)
            np.testing.assert_allclose(pi_pows[k], model.initial @ t_pows[k], atol=1e-14)
        assert not t_pows.flags.writeable and not pi_pows.flags.writeable

    def test_cache_is_freed_with_the_model(self):
        model = random_chain(5, np.random.default_rng(0))
        den = TemperedDenoiser(MarkovDenoiser(model), temperature=2.0)
        out = den.query(MaskedSequence.fully_masked((1,), 40, den.vocab))
        ref = weakref.ref(model)
        del model, den
        gc.collect()
        assert ref() is None
        assert np.all(np.isfinite(out.dists))

    def test_no_masked_positions_is_an_error(self):
        with pytest.raises(DenoiserError, match="no masked"):
            markov_posterior(sticky_chain(4, 0.9), MaskedSequence((0, 1), 0, Vocabulary(4)))

    def test_feature_dimension_and_finiteness(self):
        model = sticky_chain(8, 0.9)
        den = MarkovDenoiser(model)
        assert den.feature_dim == 8 + 3
        seq = MaskedSequence((3, M, M, 1, M), 1, Vocabulary(8))
        out = den.query(seq)
        assert out.features.shape == (3, 11)
        assert np.all(np.isfinite(out.features))

    def test_context_feature_values(self):
        model = sticky_chain(8, 0.9)
        seq = MaskedSequence((3, M, M, M, M), 1, Vocabulary(8))
        out = markov_posterior(model, seq)
        L = 5
        # position 2: nearest unmasked left is 0, no unmasked right
        np.testing.assert_allclose(out.features[out.index_of(2)][8:], [2 / L, 1.0, 1.0])

    def test_reveal_argmax_and_requery_stays_normalized(self):
        rng = np.random.default_rng(3)
        model = random_chain(4, rng)
        den = MarkovDenoiser(model)
        seq = MaskedSequence.fully_masked(model.sample_sequence(2, rng), 6, den.vocab)
        while seq.masked_positions():
            out = den.query(seq)
            assert np.all(np.isfinite(out.dists))
            np.testing.assert_allclose(out.dists.sum(axis=1), 1.0, atol=1e-9)
            pos = out.positions[0]
            seq = seq.reveal([(pos - seq.prompt_len, int(np.argmax(out.row(pos))))])


class TestTemper:
    def setup_method(self):
        self.out = markov_posterior(
            sticky_chain(4, 0.9), MaskedSequence((1, 4, 4), 1, Vocabulary(4))
        )

    def test_identity_at_unit_temperature(self):
        rng = np.random.default_rng(0)
        tempered = temper(self.out, 1.0, 0.0, rng)
        np.testing.assert_allclose(tempered.dists, self.out.dists, atol=1e-12)

    def test_high_temperature_flattens_monotonically(self):
        rng = np.random.default_rng(0)
        maxima = [
            temper(self.out, t, 0.0, rng).dists[0].max() for t in (1.0, 2.0, 10.0, 1000.0)
        ]
        assert maxima == sorted(maxima, reverse=True)
        assert maxima[-1] == pytest.approx(0.25, abs=1e-3)

    def test_noise_is_reproducible_given_the_seed(self):
        a = temper(self.out, 1.0, 0.5, np.random.default_rng(42)).dists
        b = temper(self.out, 1.0, 0.5, np.random.default_rng(42)).dists
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(DenoiserError):
            temper(self.out, 0.0, 0.0, np.random.default_rng(0))

    def test_features_track_new_rows(self):
        tempered = temper(self.out, 3.0, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(tempered.features[:, :4], tempered.dists)
        np.testing.assert_array_equal(tempered.features[:, 4:], self.out.features[:, 4:])

    def test_wrapper_is_pure_in_the_state(self):
        den = TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.9)), 1.1, 0.5, seed=7)
        seq = MaskedSequence((1, 4, 4), 1, Vocabulary(4))
        assert np.array_equal(den.query(seq).dists, den.query(seq).dists)


@st.composite
def distributions(draw):
    """(M, V) probability rows, with ties and exact zeros."""
    M, V = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    weights = draw(st.lists(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=V, max_size=V), min_size=M, max_size=M))
    rows = np.asarray(weights, dtype=np.float64)
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def outputs(draw):
    """DenoiserOutput of distributions() over ascending positions."""
    rows = draw(distributions())
    M, V = rows.shape
    positions = tuple(sorted(draw(st.sets(st.integers(0, 20), min_size=M, max_size=M))))
    return DenoiserOutput(positions, rows, np.arange(M * (V + 3), dtype=np.float64).reshape(M, V + 3))


class TestExtractFeatures:
    def _single_row_output(self, row):
        row = np.asarray(row, dtype=np.float64)
        return DenoiserOutput((0,), row[None, :], np.zeros((1, len(row) + 3)))

    def test_hand_computed_top_slices(self):
        out = self._single_row_output([0.7, 0.2, 0.1])
        fb = extract_features(out, [0], k1=2, k2=2)
        assert fb.top_tokens.tolist() == [[0, 1]]
        np.testing.assert_allclose(fb.top_logits, [[np.log(0.7), np.log(0.2)]])

    def test_uniform_tie_breaks_toward_low_ids(self):
        fb = extract_features(self._single_row_output([0.25] * 4), [0], k1=2, k2=1)
        assert fb.top_tokens.tolist() == [[0, 1]]

    def test_top_logit_recovers_row_maximum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            row = rng.dirichlet(np.ones(6))
            fb = extract_features(self._single_row_output(row), [0], 3, 3)
            assert np.exp(fb.top_logits[0, 0]) == pytest.approx(row.max(), abs=1e-9)
            assert np.all(np.diff(fb.top_logits[0]) <= 0)

    def test_k_larger_than_vocab(self):
        with pytest.raises(DenoiserError):
            extract_features(self._single_row_output([0.5, 0.5]), [0], k1=3, k2=1)

    def test_k_below_one(self):
        with pytest.raises(DenoiserError):
            extract_features(self._single_row_output([0.5, 0.5]), [0], k1=1, k2=0)

    @settings(max_examples=60, deadline=None)
    @given(outputs(), st.data())
    def test_equals_a_per_row_stable_argsort(self, out, data):
        V = out.dists.shape[1]
        k1, k2 = data.draw(st.integers(1, V)), data.draw(st.integers(1, V))
        rows = data.draw(st.lists(st.integers(0, len(out.positions) - 1), unique=True))
        fb = extract_features(out, rows, k1, k2)
        assert len(fb) == len(rows)
        assert fb.top_tokens.shape == (len(rows), k1) and fb.top_logits.shape == (len(rows), k2)
        for i, j in enumerate(rows):
            order = np.argsort(-out.dists[j], kind="stable")
            assert fb.top_tokens[i].tolist() == order[:k1].tolist()
            assert fb.top_logits[i].tolist() == np.log(np.maximum(out.dists[j][order[:k2]], LOG_FLOOR)).tolist()
            assert fb.hidden[i].tolist() == out.features[j].tolist()
        whole = extract_features(out, slice(None), k1, k2)
        for name in ("top_tokens", "top_logits", "hidden"):
            assert getattr(whole, name)[rows].tolist() == getattr(fb, name).tolist()


class TestDenoiserOutput:
    @settings(max_examples=30, deadline=None)
    @given(outputs(), st.integers(0, 21))
    def test_index_of_finds_exactly_the_covered_positions(self, out, pos):
        if pos in out.positions:
            assert out.positions[out.index_of(pos)] == pos
        else:
            with pytest.raises(KeyError):
                out.index_of(pos)


class TestReplay:
    def test_round_trip_reproduces_the_decode_exactly(self, tmp_path):
        model = sticky_chain(4, 0.85)
        log = tmp_path / "dist.jsonl"
        cfg = DecodeConfig(threshold=0.8, seed=1)
        prompt = (2, 2)
        with RecordingDenoiser(MarkovDenoiser(model), log) as rec_den:
            reference = decode(rec_den, prompt, 8, cfg)
        replay = ReplayDenoiser(log, Vocabulary(4))
        assert decode(replay, prompt, 8, cfg).steps == reference.steps

    def test_strict_mode_round_trip(self, tmp_path):
        model = sticky_chain(4, 0.85)
        log = tmp_path / "dist.jsonl"
        cfg = DecodeConfig(seed=0)
        with RecordingDenoiser(MarkovDenoiser(model), log) as rec_den:
            reference = decode(rec_den, (1,), 6, cfg)
        replay = ReplayDenoiser(log, Vocabulary(4), strict=True)
        assert decode(replay, (1,), 6, cfg).steps == reference.steps

    def test_unknown_state_is_an_error(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        replay = ReplayDenoiser(log, Vocabulary(4))
        with pytest.raises(DenoiserError, match="no recorded"):
            replay.query(MaskedSequence((1, 4), 1, Vocabulary(4)))

    def test_vocabulary_mismatch(self, tmp_path):
        model = sticky_chain(8, 0.9)
        log = tmp_path / "dist.jsonl"
        with RecordingDenoiser(MarkovDenoiser(model), log) as rec_den:
            decode(rec_den, (1,), 4, DecodeConfig(seed=0))
        with pytest.raises(DenoiserError, match="mismatch"):
            ReplayDenoiser(log, Vocabulary(16))
