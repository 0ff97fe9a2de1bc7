import gc
import hashlib
import itertools
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_posterior, permutation_chain, random_chain, row_at, sticky_chain
from maskorder.core import MaskedSequence, Vocabulary, load_archive, save_archive
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
    state_hash,
    temper,
)
from maskorder.merge import final_results_preserving, merge_trajectory
from maskorder.orders import RULES, DecodeConfig, decode

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

    def test_sample_sequence_lengths(self):
        model = sticky_chain(4, 0.9)
        assert model.sample_sequence(0, np.random.default_rng(0)) == ()
        with pytest.raises(ValueError, match="nonnegative"):
            model.sample_sequence(-2, np.random.default_rng(0))
        # positive lengths draw the chain's first token, then one per transition
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        tokens = [int(reference.choice(4, p=model.initial))]
        for _ in range(5):
            tokens.append(int(reference.choice(4, p=model.transition[tokens[-1]])))
        assert model.sample_sequence(6, rng) == tuple(tokens)

    def test_config_file_round_trip(self, tmp_path):
        model = sticky_chain(4, 0.9)
        path = tmp_path / "chain.json"
        model.save(path)
        loaded = MarkovModel.load(path)
        assert np.array_equal(loaded.transition, model.transition)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"V": 2, "initial": [0.5, 0.5],', "Expecting"),
            ("", "Expecting value"),
            ("[0.5, 0.5]", "expected a JSON object, got list"),
            ("5", "expected a JSON object, got int"),
            ('{"initial": [0.5, 0.5], "transition": [[1, 0], [0, 1]]}', r"missing keys \['V'\]"),
            ('{"V": 2, "initial": [0.5, 0.5]}', r"missing keys \['transition'\]"),
            ('{"V": 3, "initial": [0.5, 0.5], "transition": [[1, 0], [0, 1]]}', "declared V=3"),
            ('{"V": "2", "initial": [0.5, 0.5], "transition": [[1, 0], [0, 1]]}', "declared V='2'"),
            ('{"V": 2, "initial": ["a", "b"], "transition": [[1, 0], [0, 1]]}', "numeric arrays"),
            ('{"V": 2, "initial": [0.5, 0.5], "transition": [[1, 0], [0]]}', "numeric arrays"),
            ('{"V": 2, "initial": {"a": 1}, "transition": [[1, 0], [0, 1]]}', "numeric arrays"),
            ('{"V": 2, "initial": [[0.25, 0.25], [0.25, 0.25]], "transition": [[1, 0], [0, 1]]}', "vector"),
            ('{"V": 0, "initial": [], "transition": []}', "vector"),
            ('{"V": 2, "initial": 1.0, "transition": [[1, 0], [0, 1]]}', "vector"),
            ('{"V": 2, "initial": [0.5, 0.5], "transition": [1, 0]}', "transition must be 2x2"),
        ],
        ids=[
            "bad-json", "empty", "list", "number", "no-V", "no-transition", "wrong-V", "string-V",
            "strings", "ragged", "object", "matrix-initial", "empty-initial", "scalar-initial", "vector-transition",
        ],
    )
    def test_malformed_config_file_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "chain.json"
        path.write_text(text)
        with pytest.raises(DenoiserError, match=rf"chain\.json: .*{message}"):
            MarkovModel.load(path)


class TestMarkovPosterior:
    def test_symmetric_chain_middle_position(self):
        model = MarkovModel(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        seq = MaskedSequence((0, 2, 0), 1, Vocabulary(2))
        out = markov_posterior(model, seq)
        # brute force over both completions: (0.81, 0.01) / 0.82
        np.testing.assert_allclose(row_at(out, 0), [0.81 / 0.82, 0.01 / 0.82], atol=1e-12)

    def test_leading_masked_position(self):
        model = MarkovModel(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]]))
        seq = MaskedSequence((2, 0), 0, Vocabulary(2))
        np.testing.assert_allclose(row_at(markov_posterior(model, seq), 0), [0.9, 0.1], atol=1e-12)

    def test_deterministic_chain_gives_delta_posteriors(self):
        model = permutation_chain(5)
        seq = MaskedSequence((2, 5, 5, 5), 1, Vocabulary(5))
        out = markov_posterior(model, seq)
        for pos in (0, 1, 2):
            assert row_at(out, pos).max() == pytest.approx(1.0)

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
            np.testing.assert_allclose(row_at(out, pos - seq.prompt_len), expected, atol=1e-10)

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
        assert out.positions.tolist() == [pos - prompt_len for pos in expected]
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
        assert den.feature_dim == 3  # the context columns only; the rows are dists
        seq = MaskedSequence((3, M, M, 1, M), 1, Vocabulary(8))
        out = den.query(seq)
        assert out.features.shape == (3, 3)
        assert np.all(np.isfinite(out.features))

    def test_context_feature_values(self):
        model = sticky_chain(8, 0.9)
        seq = MaskedSequence((3, M, M, M, M), 1, Vocabulary(8))
        out = markov_posterior(model, seq)
        L = 5
        # position 2: nearest unmasked left is 0, no unmasked right
        np.testing.assert_allclose(out.features[out.positions.tolist().index(1)], [2 / L, 1.0, 1.0])

    def test_reveal_argmax_and_requery_stays_normalized(self):
        rng = np.random.default_rng(3)
        model = random_chain(4, rng)
        den = MarkovDenoiser(model)
        seq = MaskedSequence.fully_masked(model.sample_sequence(2, rng), 6, den.vocab)
        while seq.masked_positions():
            out = den.query(seq)
            assert np.all(np.isfinite(out.dists))
            np.testing.assert_allclose(out.dists.sum(axis=1), 1.0, atol=1e-9)
            seq = seq.reveal([(int(out.positions[0]), int(np.argmax(out.dists[0])))])


@st.composite
def distributions(draw):
    """(M, V) probability rows, with ties and exact zeros."""
    M, V = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    weights = draw(st.lists(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=V, max_size=V), min_size=M, max_size=M))
    rows = np.asarray(weights, dtype=np.float64)
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


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

    @pytest.mark.parametrize("temperature", [np.inf, np.nan])
    def test_rejects_a_non_finite_temperature(self, temperature):
        with pytest.raises(DenoiserError):
            temper(self.out, temperature, 0.0, np.random.default_rng(0))
        with pytest.raises(DenoiserError):
            TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.9)), temperature)

    @pytest.mark.parametrize("noise_scale", [-0.5, np.inf, np.nan])
    def test_rejects_a_negative_or_non_finite_noise_scale(self, noise_scale):
        with pytest.raises(DenoiserError, match="noise_scale must be nonnegative and finite"):
            temper(self.out, 1.0, noise_scale, np.random.default_rng(0))
        with pytest.raises(DenoiserError, match="noise_scale must be nonnegative and finite"):
            TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.9)), 1.0, noise_scale)

    @settings(max_examples=40, deadline=None)
    @given(distributions(), st.floats(0.05, 1e6), st.floats(0.0, 2.0))
    def test_zeros_stay_exactly_zero(self, rows, temperature, noise_scale):
        out = DenoiserOutput(tuple(range(len(rows))), rows, np.zeros((len(rows), rows.shape[1] + 3)))
        tempered = temper(out, temperature, noise_scale, np.random.default_rng(0)).dists
        assert np.array_equal(tempered == 0, rows == 0)

    def test_flattened_deterministic_chain_still_decodes(self):
        # flattened rows keep their zeros, so no draw reaches evidence of
        # probability 0
        den = TemperedDenoiser(MarkovDenoiser(permutation_chain(4)), temperature=100.0)
        for seed in range(100):
            decode(den, (0,), 8, DecodeConfig(temperature=1.0, seed=seed))

    def test_features_pass_through_shared_and_read_only(self):
        assert temper(self.out, 3.0, 0.5, np.random.default_rng(0)).features is self.out.features
        seq = MaskedSequence((1, 4, 4), 1, Vocabulary(4))
        inner = MarkovDenoiser(sticky_chain(4, 0.9))
        features = TemperedDenoiser(inner, 3.0, 0.5, seed=1).query(seq).features
        assert features.tobytes() == inner.query(seq).features.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 0.0

    def test_an_inner_denoiser_with_fewer_features_than_tokens_is_tempered(self, tmp_path):
        # an archive of every state of a 4-position generation after prompt (0,),
        # narrowed to its masked-fraction column: F = 1 < V = 3
        model = random_chain(3, np.random.default_rng(4))
        wide, narrow, again = tmp_path / "wide.npz", tmp_path / "narrow.npz", tmp_path / "again.npz"
        with RecordingDenoiser(MarkovDenoiser(model), wide) as rec_den:
            for gen in itertools.product(range(4), repeat=4):
                if 3 in gen:
                    rec_den.query(MaskedSequence((0,) + gen, 1, Vocabulary(3)))
        arrays, meta = load_archive(wide)
        arrays["hidden"] = arrays["hidden"][:, 2:]
        save_archive(narrow, arrays, {**meta, "F": 1})
        live = TemperedDenoiser(MarkovDenoiser(model), 2.0, 0.4, seed=3)
        tempered = TemperedDenoiser(ReplayDenoiser(narrow), 2.0, 0.4, seed=3)
        assert tempered.feature_dim == 1
        narrow_hidden = dict(zip(arrays["state"].tolist(), np.split(arrays["hidden"], arrays["offsets"][1:-1])))
        for cfg in (DecodeConfig(seed=0), DecodeConfig(threshold=0.5, temperature=1.0, seed=1)):
            with RecordingDenoiser(tempered, again) as rec_den:
                traj = decode(rec_den, (0,), 4, cfg)
            assert traj == decode(live, (0,), 4, cfg) == decode(ReplayDenoiser(again), (0,), 4, cfg)
            served, _ = load_archive(again)
            for h, hidden in zip(served["state"].tolist(), np.split(served["hidden"], served["offsets"][1:-1])):
                assert hidden.tobytes() == narrow_hidden[h].tobytes()
        seq = MaskedSequence((0, 3, 1, 3, 3), 1, Vocabulary(3))
        out, narrow_out = tempered.query(seq), ReplayDenoiser(narrow).query(seq)
        assert out.dists.tobytes() == live.query(seq).dists.tobytes()
        assert out.features.tobytes() == narrow_out.features.tobytes()
        assert out.features.shape == (3, 1) and not out.features.flags.writeable

    def test_wrapper_is_pure_in_the_state(self):
        den = TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.9)), 1.1, 0.5, seed=7)
        seq = MaskedSequence((1, 4, 4), 1, Vocabulary(4))
        assert np.array_equal(den.query(seq).dists, den.query(seq).dists)


# -- reference: the query path with boolean-mask gathers and stacked features --


def reference_posterior(model: MarkovModel, seq: MaskedSequence) -> DenoiserOutput:
    """The closed-form posterior gathered through boolean masks, with the
    context columns built apart and concatenated to the rows."""
    V, L = model.V, len(seq)
    tokens = np.asarray(seq.tokens)
    observed = tokens != seq.vocab.mask_id
    pos = np.flatnonzero(~observed)
    t_pows, pi_pows = model.transition_powers(L)
    idx = np.arange(L)
    left = np.maximum.accumulate(np.where(observed, idx, -1))[pos]
    right = np.minimum.accumulate(np.where(observed, idx, L)[::-1])[::-1][pos]
    has_left, has_right = left >= 0, right < L
    p = pi_pows[pos]
    p[has_left] = t_pows[(pos - left)[has_left], tokens[left[has_left]]]
    p[has_right] *= t_pows[(right - pos)[has_right], :, tokens[right[has_right]]]
    rows = p / p.sum(axis=1, keepdims=True)
    dl = np.where(left >= 0, (pos - left) / L, 1.0)
    dr = np.where(right < L, (right - pos) / L, 1.0)
    masked_frac = np.full(len(pos), len(pos) / max(seq.gen_len, 1))
    return DenoiserOutput(pos - seq.prompt_len, rows, np.stack([dl, dr, masked_frac], axis=1))


def reference_temper(out: DenoiserOutput, temperature, noise_scale, rng) -> DenoiserOutput:
    """Tempering on fresh arrays, always dividing; the features are kept."""
    with np.errstate(divide="ignore"):
        logp = np.log(out.dists) / temperature
    if noise_scale > 0:
        logp = logp + rng.normal(0.0, noise_scale, size=logp.shape)
    logp -= logp.max(axis=1, keepdims=True)
    rows = np.exp(logp)
    rows /= rows.sum(axis=1, keepdims=True)
    return DenoiserOutput(out.positions, rows, out.features)


def assert_bitwise_equal(out: DenoiserOutput, ref: DenoiserOutput) -> None:
    assert out.positions.dtype == np.int64 and not out.positions.flags.writeable
    assert not out.features.flags.writeable
    assert out.positions.tolist() == ref.positions.tolist()
    for name in ("dists", "features"):
        a, b = getattr(out, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


QUERY_CHAINS = ("random", "sticky", "permutation")


@settings(max_examples=200, deadline=None)
@given(
    chain=st.sampled_from(QUERY_CHAINS),
    seed=st.integers(0, 2**32 - 1),
    V=st.integers(2, 40),
    L=st.integers(1, 80),
    prompt_len=st.integers(0, 79),
    n_masked=st.integers(1, 80),
    trailing=st.booleans(),
    temperature=st.sampled_from([1.0, 0.5, 1.3, 7.0]),
    noise_scale=st.sampled_from([0.0, 0.2, 1.5]),
)
@example(chain="sticky", seed=0, V=4, L=6, prompt_len=0, n_masked=6, trailing=True, temperature=1.0, noise_scale=0.0)
@example(chain="random", seed=1, V=9, L=30, prompt_len=0, n_masked=12, trailing=False, temperature=1.0, noise_scale=0.2)
@example(chain="permutation", seed=2, V=5, L=20, prompt_len=3, n_masked=7, trailing=True, temperature=0.5, noise_scale=0.0)
@example(chain="random", seed=3, V=32, L=72, prompt_len=8, n_masked=32, trailing=True, temperature=1.3, noise_scale=1.5)
def test_the_query_path_is_bitwise_unchanged(
    chain, seed, V, L, prompt_len, n_masked, trailing, temperature, noise_scale
):
    """markov_posterior, temper and TemperedDenoiser.query give the bits of the
    mask-gathered reference, with and without neighbours on either side."""
    rng = np.random.default_rng(seed)
    model = CHAINS[chain](V, rng)
    prompt_len = min(prompt_len, L - 1)
    n_masked = min(n_masked, L - prompt_len)
    if trailing:  # the last n_masked positions: rows without a right neighbour
        tokens = list(model.sample_sequence(L, rng))
        tokens[L - n_masked :] = [V] * n_masked
        seq = MaskedSequence(tuple(tokens), prompt_len, Vocabulary(V))
    else:
        seq = observed_masked_sequence(model, L, prompt_len, n_masked, rng)
    out = markov_posterior(model, seq)
    ref = reference_posterior(model, seq)
    assert_bitwise_equal(out, ref)
    assert_bitwise_equal(
        temper(out, temperature, noise_scale, np.random.default_rng(seed)),
        reference_temper(ref, temperature, noise_scale, np.random.default_rng(seed)),
    )
    den = TemperedDenoiser(MarkovDenoiser(model), temperature, noise_scale, seed=seed % 1000)
    key = int(state_hash(seq)[:16], 16)
    assert_bitwise_equal(
        den.query(seq), reference_temper(ref, temperature, noise_scale, np.random.default_rng((seed % 1000, key)))
    )


def test_state_hash_is_the_sha256_of_the_header_and_the_int64_tokens():
    seq = MaskedSequence.fully_masked((1, 2), 3, Vocabulary(4)).reveal([(1, 3)])
    tokens = np.array([1, 2, 4, 3, 4], dtype=np.int64)
    assert state_hash(seq) == hashlib.sha256(b"2|4|" + tokens.tobytes()).hexdigest()


@st.composite
def outputs(draw):
    """DenoiserOutput of distributions() over ascending positions."""
    rows = draw(distributions())
    M, V = rows.shape
    positions = np.array(sorted(draw(st.sets(st.integers(0, 20), min_size=M, max_size=M))), dtype=np.int64)
    return DenoiserOutput(positions, rows, np.arange(M * (V + 3), dtype=np.float64).reshape(M, V + 3))


class TestExtractFeatures:
    def _single_row_output(self, row):
        row = np.asarray(row, dtype=np.float64)
        return DenoiserOutput(np.zeros(1, dtype=np.int64), row[None, :], np.zeros((1, len(row) + 3)))

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


def _decode_and_merge(den, prompts, gen_len, cfg):
    """Every trajectory and merge report a decode of each prompt and both
    merge analyses of it produce through den."""
    results = []
    for prompt in prompts:
        traj = decode(den, prompt, gen_len, cfg)
        base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
        merged, report = merge_trajectory(traj, base, den)
        final, final_report = final_results_preserving(traj, base, den)
        results.append((traj.steps, merged.steps, report, final.steps, final_report))
    return results


def _flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _swap_first_positions(arrays, meta):
    arrays["positions"][[0, 1]] = arrays["positions"][[1, 0]]


class TestReplay:
    def test_round_trip_reproduces_the_decode_exactly(self, tmp_path):
        model = sticky_chain(4, 0.85)
        log = tmp_path / "dist.npz"
        cfg = DecodeConfig(threshold=0.8, seed=1)
        prompt = (2, 2)
        with RecordingDenoiser(MarkovDenoiser(model), log) as rec_den:
            reference = decode(rec_den, prompt, 8, cfg)
        replay = ReplayDenoiser(log)
        assert (replay.vocab.size, replay.feature_dim) == (4, 3)
        assert decode(replay, prompt, 8, cfg).steps == reference.steps

    @settings(max_examples=40, deadline=None)
    @given(
        chain=st.sampled_from(["sticky", "random", "permutation"]),
        tempered=st.booleans(),
        rule=st.sampled_from(RULES),
        threshold=st.sampled_from([None, 0.6, 0.9]),
        temperature=st.sampled_from([None, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_replay_reproduces_decodes_and_merge_analyses(
        self, tmp_path_factory, chain, tempered, rule, threshold, temperature, seed
    ):
        rng = np.random.default_rng(seed)
        model = CHAINS[chain](5, rng)
        den = MarkovDenoiser(model)
        if tempered:
            den = TemperedDenoiser(den, temperature=1.5, noise_scale=0.4, seed=seed)
        prompts = [model.sample_sequence(2, rng) for _ in range(3)]
        cfg = DecodeConfig(rule=rule, threshold=threshold, temperature=temperature, seed=seed)
        log = tmp_path_factory.mktemp("replay") / "log.npz"
        with RecordingDenoiser(den, log) as recorder:
            recorded = _decode_and_merge(recorder, prompts, 7, cfg)
        assert recorded == _decode_and_merge(den, prompts, 7, cfg)
        assert _decode_and_merge(ReplayDenoiser(log), prompts, 7, cfg) == recorded

    def test_the_archive_holds_absolute_positions_and_replay_serves_relative_ones(self, tmp_path):
        den = TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.85)), 1.2, 0.3, seed=5)
        log = tmp_path / "log.npz"
        base = MaskedSequence.fully_masked((1, 2, 3), 5, den.vocab)
        states = [base, base.reveal([(0, 1), (3, 2)]), base.reveal([(4, 0)])]
        with RecordingDenoiser(den, log) as rec_den:
            for state in states:
                rec_den.query(state)
        arrays, _ = load_archive(log)
        live = [den.query(state) for state in states]
        assert arrays["positions"].tolist() == [3 + pos for out in live for pos in out.positions.tolist()]
        assert arrays["positions"].tolist() == [i for state in states for i in state.masked_positions()]
        replay = ReplayDenoiser(log)
        for state, out in zip(states, live):
            served = replay.query(state)
            assert served.positions.dtype == np.int64 and not served.positions.flags.writeable
            assert served.positions.tolist() == out.positions.tolist() == [i - 3 for i in state.masked_positions()]
            assert served.dists.tobytes() == out.dists.tobytes()

    def test_each_distinct_state_is_recorded_once(self, tmp_path):
        den = MarkovDenoiser(sticky_chain(4, 0.85))
        once, twice = tmp_path / "once.npz", tmp_path / "twice.npz"
        for path, repeats in ((once, 1), (twice, 2)):
            with RecordingDenoiser(den, path) as rec_den:
                for _ in range(repeats):
                    decode(rec_den, (1,), 6, DecodeConfig(seed=0))
        arrays, meta = load_archive(twice)
        assert arrays["state"].size == 6  # full-step decode: one query per position
        assert meta == {"V": 4, "F": 3, "denoiser": "markov"}
        assert once.read_bytes() == twice.read_bytes()

    def test_unknown_state_is_an_error(self, tmp_path):
        log = tmp_path / "empty.npz"
        RecordingDenoiser(MarkovDenoiser(sticky_chain(4, 0.9)), log).close()
        replay = ReplayDenoiser(log)
        with pytest.raises(DenoiserError, match="no recorded"):
            replay.query(MaskedSequence((1, 4), 1, Vocabulary(4)))

    def test_vocabulary_mismatch(self, tmp_path):
        model = sticky_chain(8, 0.9)
        log = tmp_path / "dist.npz"
        with RecordingDenoiser(MarkovDenoiser(model), log) as rec_den:
            decode(rec_den, (1,), 4, DecodeConfig(seed=0))
        with pytest.raises(DenoiserError, match="vocabulary mismatch: log V=8, sequence V=16"):
            ReplayDenoiser(log).query(MaskedSequence((1, 16), 1, Vocabulary(16)))

    @pytest.fixture
    def log(self, tmp_path):
        log = tmp_path / "log.npz"
        with RecordingDenoiser(MarkovDenoiser(sticky_chain(4, 0.9)), log) as rec_den:
            decode(rec_den, (1, 2), 6, DecodeConfig(seed=0))
        ReplayDenoiser(log)  # intact
        return log

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda path: path.write_text('{"id": "ab", "step": 0}\n'), "not an intact .npz archive"),
            (_flip_a_byte, "not an intact .npz archive"),
            (lambda path: Path(f"{path}.meta.json").unlink(), r"meta file .*log\.npz\.meta\.json is missing"),
        ],
        ids=["not-an-archive", "flipped-byte", "missing-meta"],
    )
    def test_damaged_file_names_the_file(self, log, damage, message):
        damage(log)
        with pytest.raises(DenoiserError, match=rf"log\.npz.*{message}"):
            ReplayDenoiser(log)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a, m: m.pop("V"), "lacks V >= 2 and F >= 1"),
            (lambda a, m: m.update(F=7.0), "lacks V >= 2 and F >= 1"),
            (lambda a, m: a.pop("hidden"), "holds arrays"),
            (lambda a, m: a.update(step=np.zeros(3)), "holds arrays"),
            (lambda a, m: a.update(state=np.arange(a["state"].size)), "column state has dtype int64"),
            (lambda a, m: a.update(positions=a["positions"] * 1.0), "column positions has dtype float64"),
            (lambda a, m: a.update(rows=a["rows"].astype(str)), "column rows has dtype <U"),
            (lambda a, m: a.update(rows=np.pad(a["rows"], ((0, 0), (0, 1)))), r"column rows .*shape \(\d+, 4\)"),
            (lambda a, m: a.update(hidden=a["hidden"][:, 1:]), r"column hidden .*shape \(\d+, 3\)"),
            (lambda a, m: a.update(offsets=a["offsets"][:-1]), "column offsets"),
            (lambda a, m: a.update(offsets=a["offsets"] + 1), "offsets must rise strictly from 0"),
            (lambda a, m: a["offsets"].__setitem__(1, 0), "offsets must rise strictly from 0"),
            (_swap_first_positions, "positions must be nonnegative and ascending"),
            (lambda a, m: a["positions"].__setitem__(0, -1), "positions must be nonnegative and ascending"),
            (lambda a, m: a["state"].__setitem__(1, a["state"][0]), "a state is recorded twice"),
            (lambda a, m: a["rows"].__setitem__(-1, np.nan), "rows must hold finite, nonnegative probabilities"),
            (lambda a, m: a["rows"].__setitem__(0, [-0.5, 1.5, 0, 0]), "rows must hold finite, nonnegative"),
            (lambda a, m: a["rows"].__setitem__(0, a["rows"][0] * (1 + 2e-6)), "every row must sum to 1 within 1e-6"),
            (lambda a, m: a["hidden"].__setitem__((1, 2), np.inf), "column hidden holds NaN or infinite values"),
        ],
        ids=[
            "meta-without-V", "float-F", "missing-column", "extra-column", "int-state", "float-positions",
            "string-rows", "rows-wider-than-V", "hidden-narrower-than-F", "short-offsets",
            "offsets-not-from-zero", "empty-query", "unsorted-positions", "negative-position", "duplicate-state",
            "nan-rows", "negative-probability", "row-sum-off-one", "infinite-hidden",
        ],
    )
    def test_inconsistent_archive_names_the_file(self, log, change, message):
        arrays, meta = load_archive(log)
        change(arrays, meta)
        save_archive(log, arrays, meta)
        with pytest.raises(DenoiserError, match=rf"log\.npz(\.meta\.json)?: {message}"):
            ReplayDenoiser(log)
