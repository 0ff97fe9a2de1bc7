import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permutation_chain, random_chain, sticky_chain
from test_denoiser import distributions
from maskorder.core import final_tokens, validate_partition
from maskorder.denoiser import LOG_FLOOR, DenoiserOutput, MarkovDenoiser
from maskorder.orders import (
    RULES,
    DecodeConfig,
    decode,
    position_scores,
    sample_tokens,
    select_positions,
)


def output_for(rows):
    """An output over positions 3, 4, ..., so that a row index is not its position."""
    rows = np.asarray(rows, dtype=np.float64)
    return DenoiserOutput(np.arange(3, 3 + len(rows)), rows, np.zeros((len(rows), rows.shape[1] + 3)))


def score_row(row, rule):
    """Per-row reference for position_scores: the loop the batch code replaced."""
    if rule == "prob":
        return row.max()
    if rule == "margin":
        top2 = np.partition(row, -2)[-2:]
        return top2[1] - top2[0]
    return np.sum(row * np.log(np.maximum(row, LOG_FLOOR)))


class TestPositionScore:
    def test_hand_computed(self):
        rows = np.array([[0.7, 0.2, 0.1]])
        assert position_scores(rows, "prob")[0] == pytest.approx(0.7)
        assert position_scores(rows, "margin")[0] == pytest.approx(0.5)

    def test_uniform_row(self):
        rows = np.full((1, 5), 0.2)
        assert position_scores(rows, "margin")[0] == pytest.approx(0.0)
        assert position_scores(rows, "negentropy")[0] == pytest.approx(-np.log(5))

    def test_delta_row(self):
        rows = np.array([[0.0, 1.0, 0.0]])
        assert position_scores(rows, "prob")[0] == 1.0
        assert position_scores(rows, "margin")[0] == 1.0
        assert position_scores(rows, "negentropy")[0] == pytest.approx(0.0, abs=1e-10)

    def test_unnormalized_row_rejected(self):
        with pytest.raises(ValueError):
            position_scores(np.array([[0.7, 0.7]]), "prob")
        # one bad row among good ones is enough
        with pytest.raises(ValueError):
            position_scores(np.array([[0.5, 0.5], [0.7, 0.7]]), "prob")

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize(
        "bad_row",
        [[0.5, 0.5, np.nan], [np.inf, 0.0, 0.0], [1.25, -0.25, 0.0]],  # the last one sums to 1 exactly
        ids=["nan", "inf", "negative"],
    )
    def test_a_nan_inf_or_negative_entry_is_rejected(self, rule, bad_row):
        good = [0.5, 0.25, 0.25]
        for rows in ([bad_row], [good, bad_row], [bad_row, good, good]):
            with pytest.raises(ValueError, match="not a normalized distribution"):
                position_scores(np.array(rows), rule)
            with pytest.raises(ValueError, match="not a normalized distribution"):
                select_positions(output_for(rows), DecodeConfig(rule=rule, threshold=0.9))

    @pytest.mark.parametrize("rule", RULES)
    def test_an_empty_batch_scores_to_an_empty_vector(self, rule):
        scores = position_scores(np.empty((0, 4)), rule)
        assert scores.shape == (0,)

    def test_negentropy_argmax_is_the_minimum_entropy_position(self):
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(6), size=10)
        scores = position_scores(rows, "negentropy")
        entropies = [-(r * np.log(r)).sum() for r in rows]
        assert int(np.argmax(scores)) == int(np.argmin(entropies))

    @settings(max_examples=60, deadline=None)
    @given(distributions())
    def test_equals_the_per_row_formula(self, rows):
        for rule in RULES:
            scores = [score_row(row, rule) for row in rows]
            assert position_scores(rows, rule).tolist() == scores
            # the full-step pick is the first best-scoring position
            assert select_positions(output_for(rows), DecodeConfig(rule=rule)).tolist() == [scores.index(max(scores))]


class TestSelectPositions:
    def test_threshold_keeps_only_confident_positions(self):
        out = output_for([[0.95, 0.05], [0.6, 0.4]])
        assert select_positions(out, DecodeConfig(threshold=0.9)).tolist() == [0]
        assert select_positions(out, DecodeConfig(threshold=0.5)).tolist() == [0, 1]

    def test_threshold_comparison_is_inclusive(self):
        out = output_for([[0.9, 0.1]])
        assert select_positions(out, DecodeConfig(threshold=0.9)).tolist() == [0]

    def test_empty_threshold_set_falls_back_to_best_position(self):
        out = output_for([[0.4, 0.6], [0.3, 0.7]])
        assert select_positions(out, DecodeConfig(threshold=0.9)).tolist() == [1]

    def test_full_step_tie_breaks_toward_low_position(self):
        out = output_for([[0.6, 0.4], [0.6, 0.4]])
        assert select_positions(out, DecodeConfig()).tolist() == [0]

    def test_a_block_mixes_states_with_confident_rows_and_states_that_fall_back(self):
        states = [[[0.95, 0.05], [0.6, 0.4], [0.92, 0.08]], [[0.4, 0.6], [0.3, 0.7]], [[0.99, 0.01]]]
        block = output_for([row for rows in states for row in rows])
        assert select_positions(block, DecodeConfig(threshold=0.9), [0, 3, 5]).tolist() == [0, 2, 4, 5]
        assert select_positions(block, DecodeConfig(), [0, 3, 5]).tolist() == [0, 4, 5]

    @settings(max_examples=60, deadline=None)
    @given(distributions(), st.data())
    def test_each_state_of_a_block_picks_as_it_picks_alone(self, rows, data):
        starts = sorted({0} | set(data.draw(st.lists(st.integers(1, len(rows) - 1), max_size=3)) if len(rows) > 1 else {0}))
        bounds = list(zip(starts, [*starts[1:], len(rows)]))
        for rule in RULES:
            for threshold in (None, 0.2, 0.5, 0.9, 1.0):
                cfg = DecodeConfig(rule=rule, threshold=threshold)
                alone = [a + select_positions(output_for(rows[a:b]), cfg) for a, b in bounds]
                assert select_positions(output_for(rows), cfg, starts).tolist() == np.concatenate(alone).tolist()

    def test_a_state_without_rows_is_rejected(self):
        rows = [[0.95, 0.05], [0.6, 0.4]]
        for starts in ([0, 2], [0, 1, 1], []):
            with pytest.raises(ValueError, match="no masked positions"):
                select_positions(output_for(rows), DecodeConfig(threshold=0.9), starts)
        with pytest.raises(ValueError, match="no masked positions"):
            select_positions(output_for(np.empty((0, 2))), DecodeConfig())


class _RiggedGenerator:
    """Stands in for a numpy Generator whose every uniform is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestSampleTokens:
    def test_greedy_takes_the_argmax_of_every_row(self):
        rows = np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4]])
        assert sample_tokens(rows, None, None).tolist() == [1, 0]

    def test_delta_row_is_deterministic(self):
        rng = np.random.default_rng(0)
        assert all(sample_tokens(np.array([[0.0, 1.0]]), 1.0, [rng])[0] == 1 for _ in range(20))

    def test_reproducible_under_fixed_seed(self):
        rows = np.full((6, 2), 0.5)
        a = sample_tokens(rows, 1.0, [np.random.default_rng(9)])
        b = sample_tokens(rows, 1.0, [np.random.default_rng(9)])
        assert a.tolist() == b.tolist()

    def test_empirical_frequency(self):
        rng = np.random.default_rng(1)
        rows = np.tile([0.9, 0.1], (100_000, 1))
        draws = sample_tokens(rows, 1.0, [rng])
        assert np.mean(draws == 0) == pytest.approx(0.9, abs=0.01)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            sample_tokens(np.array([[1.0, 0.0]]), 0.0, [np.random.default_rng(0)])

    @pytest.mark.parametrize("temperature", [-1.0, float("inf"), float("nan")])
    def test_rejects_a_negative_or_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError):
            sample_tokens(np.array([[1.0, 0.0]]), temperature, [np.random.default_rng(0)])

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 100.0, 1e300])
    def test_the_largest_uniform_draws_the_last_possible_token(self, temperature):
        rows = np.array([[0.3, 0.7, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 1.0, 0.0]])
        tokens = sample_tokens(rows, temperature, [_RiggedGenerator(1.0 - 2.0**-53)])
        assert tokens.tolist() == [1, 0, 3, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        distributions(),
        st.floats(0.05, 1e6),
        st.sampled_from([0.0, 1.0 - 2.0**-53]) | st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_never_draws_a_token_of_probability_zero(self, rows, temperature, u):
        tokens = sample_tokens(rows, temperature, [_RiggedGenerator(u)])
        assert np.all(rows[np.arange(len(rows)), tokens] > 0)

    def test_each_state_of_a_block_draws_from_its_own_generator(self):
        rows = np.random.default_rng(3).dirichlet(np.ones(4), size=9)
        starts, seeds = [0, 2, 7], [5, 6, 7]
        rngs = [np.random.default_rng(s) for s in seeds]
        tokens = sample_tokens(rows, 1.3, rngs, starts)
        refs = [np.random.default_rng(s) for s in seeds]
        alone = [sample_tokens(rows[a:b], 1.3, [ref]) for ref, a, b in zip(refs, starts, [2, 7, 9])]
        assert tokens.tolist() == np.concatenate(alone).tolist()
        assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]

    def test_one_call_advances_the_generator_as_one_uniform_per_row(self):
        rows = np.random.default_rng(3).dirichlet(np.ones(5), size=7)
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        sample_tokens(rows, 1.3, [rng])
        reference.random(7)
        assert rng.random(3).tolist() == reference.random(3).tolist()


class TestDecode:
    def test_a_negative_seed_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            DecodeConfig(seed=-1)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            DecodeConfig(threshold=0.9, temperature=1.0, seed=-3)

    def test_full_step_takes_gen_len_singleton_steps(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        traj = decode(den, (1, 2), 10, DecodeConfig(seed=0))
        assert traj.n == 10
        assert all(len(s) == 1 for s in traj.steps)
        assert validate_partition(traj, range(10)).ok

    def test_threshold_one_equals_full_step_on_subdeterministic_rows(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))  # no posterior ever reaches 1.0
        full = decode(den, (1, 2), 8, DecodeConfig(seed=0))
        thr = decode(den, (1, 2), 8, DecodeConfig(threshold=1.0, seed=0))
        assert full.steps == thr.steps

    def test_deterministic_chain_decodes_in_one_step(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = decode(den, (0,), 12, DecodeConfig(threshold=0.9, seed=0))
        assert traj.n == 1

    def test_greedy_decode_is_bit_deterministic(self):
        rng = np.random.default_rng(5)
        den = MarkovDenoiser(random_chain(6, rng))
        prompt = (3, 1)
        a = decode(den, prompt, 16, DecodeConfig(threshold=0.7, seed=2))
        b = decode(den, prompt, 16, DecodeConfig(threshold=0.7, seed=2))
        assert a.steps == b.steps

    def test_meta_records_the_run(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        traj = decode(den, (1,), 4, DecodeConfig(threshold=0.5, seed=3))
        assert traj.meta["sampler"] == "threshold"
        assert traj.meta["seed"] == 3
        assert traj.meta["denoiser"] == "markov"

    @pytest.mark.parametrize("seed", range(8))
    def test_step_count_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        model = random_chain(5, rng, diag_boost=rng.uniform(0, 3))
        den = MarkovDenoiser(model)
        prompt = model.sample_sequence(4, rng)
        counts = [
            decode(den, prompt, 24, DecodeConfig(threshold=eps, seed=seed)).n
            for eps in (0.9, 0.7, 0.5, 0.3)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_random_decodes_never_commit_an_impossible_token(self):
        model = permutation_chain(4)
        den = MarkovDenoiser(model)
        for seed in range(200):
            cfg = DecodeConfig(threshold=0.9 if seed % 2 else None, temperature=100.0, seed=seed)
            tokens = (0, *final_tokens(decode(den, (0,), 8, cfg)))
            assert all(model.transition[a, b] > 0 for a, b in zip(tokens, tokens[1:]))

    def test_random_mode_varies_with_seed(self):
        den = MarkovDenoiser(sticky_chain(4, 0.5))
        first_steps = {
            decode(den, (0,), 12, DecodeConfig(temperature=1.0, seed=s)).steps[0]
            for s in range(8)
        }
        assert len(first_steps) > 1
