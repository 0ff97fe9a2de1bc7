import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_instance,
    min_steps,
    naive_count_mergeable,
    permutation_chain,
    random_chain,
    resimulate_merge,
    sticky_chain,
)
from maskorder.core import (
    MaskedSequence,
    SampleRecord,
    Trajectory,
    Vocabulary,
    apply_steps,
    final_tokens,
    validate_partition,
)
from maskorder.denoiser import DenoiserOutput, MarkovDenoiser, TemperedDenoiser
from maskorder.labeling import LabelingConfig, label_state
from maskorder.merge import count_mergeable, final_results_preserving, merge_trajectory
from maskorder.orders import RULES, DecodeConfig, decode


def full_step_reference(den, prompt, gen_len, seed=0):
    return decode(den, prompt, gen_len, DecodeConfig(seed=seed))


class Always0:
    """Stub denoiser whose argmax is always token 0."""

    vocab = Vocabulary(4)
    config_id = "stub"

    def query(self, seq):
        pos = np.array(seq.masked_positions()) - seq.prompt_len
        rows = np.tile(np.array([0.7, 0.1, 0.1, 0.1]), (len(pos), 1))
        return DenoiserOutput(pos, rows, np.zeros((len(pos), 7)))


class TestCountMergeable:
    def test_deterministic_chain_merges_everything_from_the_start(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 8)
        base = MaskedSequence.fully_masked((0,), 8, den.vocab)
        assert count_mergeable(traj, 1, base, den.query(base)) == traj.n + 1

    def test_counts_advance_as_the_state_does(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 6)
        base = MaskedSequence.fully_masked((0,), 6, den.vocab)
        state = apply_steps(base, traj, 3)
        assert count_mergeable(traj, 3, state, den.query(state)) == traj.n + 1

    def test_k_out_of_range(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 4)
        base = MaskedSequence.fully_masked((0,), 4, den.vocab)
        for k in (0, traj.n + 1):
            with pytest.raises(ValueError):
                count_mergeable(traj, k, base, den.query(base))

    def test_inconsistent_state_is_rejected(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 4)
        wrong = MaskedSequence.fully_masked((0,), 4, den.vocab).reveal([(0, 3)])
        with pytest.raises(ValueError, match="inconsistent"):
            count_mergeable(traj, 1, wrong, None)  # the state is checked before the answer is read

    def test_inconsistent_state_names_the_first_bad_position(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 4)  # position p holds token p + 1
        base = MaskedSequence.fully_masked((0,), 4, den.vocab)
        state = apply_steps(base, traj, 3)  # positions 0 and 1 revealed
        # position 1 has a wrong token, position 3 is revealed though still masked in the prefix
        tokens = list(state.tokens)
        tokens[1 + 1], tokens[1 + 3] = 4, 2
        wrong = MaskedSequence(tuple(tokens), 1, den.vocab)
        with pytest.raises(ValueError, match=r"inconsistent .* at position 1: have 4, expected 2$"):
            count_mergeable(traj, 3, wrong, None)
        tokens[1 + 1] = 2  # only the revealed position is left
        with pytest.raises(ValueError, match=r"at position 3: have 2, expected 5$"):
            count_mergeable(traj, 3, MaskedSequence(tuple(tokens), 1, den.vocab), None)

    def test_a_reference_revealing_fewer_positions_than_the_state_is_an_error(self):
        den = MarkovDenoiser(sticky_chain(4, 0.9))
        short = Trajectory((frozenset({(0, 1)}), frozenset({(1, 1)})))
        base = MaskedSequence.fully_masked((1,), 5, den.vocab)
        with pytest.raises(ValueError, match="the reference reveals 2 positions, the base has 5"):
            count_mergeable(short, 1, base, den.query(base))

    def test_shared_query_matches_a_fresh_one(self):
        # merge_trajectory counts each group from the query its decode step made
        den, record = make_instance(11)
        base = record.base()
        _, report = merge_trajectory(record.trajectory, base, den)
        assert report.per_group[0][1] + 1 == count_mergeable(record.trajectory, 1, base, den.query(base))


class TestMergeTrajectory:
    def test_deterministic_chain_collapses_to_one_step(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 10)
        merged, report = merge_trajectory(traj, MaskedSequence.fully_masked((0,), 10, den.vocab), den)
        assert merged.n == 1
        assert report.merged_steps == 1
        assert report.speedup == pytest.approx(10.0)
        assert report.preserved

    @pytest.mark.parametrize("seed", range(12))
    def test_tokens_and_validity_are_preserved(self, seed):
        den, record = make_instance(seed)
        merged, report = merge_trajectory(record.trajectory, record.base(), den)
        assert report.preserved
        assert final_tokens(merged) == final_tokens(record.trajectory)
        assert validate_partition(merged, range(record.gen_len)).ok
        assert merged.n <= record.trajectory.n

    @pytest.mark.parametrize("seed", range(12))
    def test_group_ranges_tile_the_reference(self, seed):
        den, record = make_instance(seed)
        _, report = merge_trajectory(record.trajectory, record.base(), den)
        starts = [g[0] for g in report.per_group]
        ends = [g[1] for g in report.per_group]
        assert starts[0] == 1 and ends[-1] == record.trajectory.n
        assert all(s <= e for s, e in report.per_group)
        assert all(ends[i] + 1 == starts[i + 1] for i in range(len(starts) - 1))

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_naive_resimulation(self, seed):
        den, record = make_instance(seed)
        _, report = merge_trajectory(record.trajectory, record.base(), den)
        assert list(report.per_group) == resimulate_merge(record, den)

    def test_merging_is_idempotent(self):
        den, record = make_instance(7)
        merged, _ = merge_trajectory(record.trajectory, record.base(), den)
        again, report = merge_trajectory(merged, record.base(), den)
        assert again.steps == merged.steps
        assert report.speedup == pytest.approx(1.0)

    def test_meta_marks_the_sampler(self):
        den, record = make_instance(1)
        merged, _ = merge_trajectory(record.trajectory, record.base(), den)
        assert merged.meta["sampler"].startswith("merge(")


class TestFinalResultsPreserving:
    def test_deterministic_chain_takes_one_step(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 10)
        frp, report = final_results_preserving(traj, MaskedSequence.fully_masked((0,), 10, den.vocab), den)
        assert frp.n == 1
        assert report.preserved

    @pytest.mark.parametrize("seed", range(12))
    def test_result_is_preserved_and_never_slower(self, seed):
        den, record = make_instance(seed)
        frp, report = final_results_preserving(record.trajectory, record.base(), den)
        assert report.preserved
        assert final_tokens(frp) == final_tokens(record.trajectory)
        assert validate_partition(frp, range(record.gen_len)).ok
        assert frp.n <= record.trajectory.n

    def test_fallback_reveals_reference_order_when_nothing_matches(self):
        # the stub's argmax is always token 0; reference finals are 1
        wrong = Trajectory(tuple(frozenset({(pos, 1)}) for pos in (2, 0, 1)))
        base = MaskedSequence.fully_masked((0,), 3, Vocabulary(4))
        frp, report = final_results_preserving(wrong, base, Always0())
        assert frp.n == 3
        assert [sorted(s) for s in frp.steps] == [[(2, 1)], [(0, 1)], [(1, 1)]]
        assert report.preserved


@st.composite
def references(draw, temperatures=(None,)):
    """A reference decode over an exact or tempered random chain; greedy
    unless a temperature is drawn from temperatures."""
    V = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_chain(V, rng, diag_boost=draw(st.sampled_from([0.0, 1.0, 4.0])))
    den = MarkovDenoiser(model)
    if draw(st.booleans()):
        den = TemperedDenoiser(den, draw(st.floats(0.7, 1.5)), noise_scale=0.3, seed=draw(st.integers(0, 99)))
    prompt = model.sample_sequence(draw(st.integers(0, 2)), rng)
    gen_len = draw(st.integers(1, 8))
    cfg = DecodeConfig(
        rule=draw(st.sampled_from(RULES)),
        threshold=draw(st.sampled_from([None, 0.5, 0.8])),
        temperature=draw(st.sampled_from(temperatures)),
        seed=draw(st.integers(0, 99)),
    )
    return den, SampleRecord("ref", den.vocab, prompt, gen_len, decode(den, prompt, gen_len, cfg))


@settings(max_examples=100, deadline=None)
@given(references(temperatures=(None, 1.0)))
def test_count_mergeable_equals_the_naive_loop_at_every_cut(instance):
    den, record = instance
    traj = record.trajectory
    for k in range(1, traj.n + 1):
        state = apply_steps(record.base(), traj, k)
        out = den.query(state)
        assert count_mergeable(traj, k, state, out) == naive_count_mergeable(traj, k, state, out)


@pytest.mark.parametrize("analysis", [merge_trajectory, final_results_preserving])
def test_a_base_of_another_length_is_an_error(analysis):
    den = MarkovDenoiser(sticky_chain(4, 0.8))
    traj = full_step_reference(den, (1,), 4)
    for gen_len in (3, 6):
        with pytest.raises(ValueError, match=f"the reference reveals 4 positions, the base has {gen_len}"):
            analysis(traj, MaskedSequence.fully_masked((1,), gen_len, den.vocab), den)


class BentAnswers:
    """A denoiser whose every answer departs from its state's masked positions through bend(out)."""

    def __init__(self, inner, bend):
        self.inner, self.bend = inner, bend
        self.vocab, self.feature_dim, self.config_id = inner.vocab, inner.feature_dim, "bent"

    def query(self, seq):
        return self.bend(self.inner.query(seq))


BENDS = {
    "drops-last-row": lambda out: DenoiserOutput(out.positions[:-1], out.dists[:-1], out.features[:-1]),
    "shifts-positions": lambda out: DenoiserOutput(out.positions + 1, out.dists, out.features),  # the last past the region
}


@pytest.mark.parametrize("bend", BENDS.values(), ids=BENDS)
def test_every_reference_analysis_rejects_an_answer_off_the_masked_positions(bend):
    # denoiser.check_answer, which count_mergeable and the final-preserving policy call
    den, record = make_instance(6)
    traj, bent = record.trajectory, BentAnswers(den, bend)
    answered = "the denoiser answered (63|64) positions, not exactly the state's 64 masked positions"
    for analysis in (merge_trajectory, final_results_preserving):
        with pytest.raises(ValueError, match=rf"^step 1: {answered}$"):
            analysis(traj, record.base(), bent)
    # labeling reads the answer through count_mergeable, and names the record and the cut too
    k = traj.n // 2
    masked = int(np.count_nonzero(traj.step_of >= k))
    with pytest.raises(ValueError, match=rf"^record 'inst-6', cut {k}: step {k}: .* the state's {masked} masked"):
        label_state(record, k, bent, LabelingConfig())


class TestMinimumSteps:
    """The exact optimum (conftest.min_steps) bounds both merge analyses from
    below on greedy references: every merge group and every final-preserving
    step is one of the search's moves."""

    def test_a_deterministic_chain_needs_one_step(self):
        den = MarkovDenoiser(permutation_chain(5))
        traj = full_step_reference(den, (0,), 8)
        assert min_steps(SampleRecord("p", den.vocab, (0,), 8, traj), den) == 1

    def test_without_a_match_each_step_reveals_one_position(self):
        wrong = Trajectory(tuple(frozenset({(pos, 1)}) for pos in (2, 0, 1)))
        assert min_steps(SampleRecord("w", Vocabulary(4), (0,), 3, wrong), Always0()) == 3

    @settings(max_examples=150, deadline=None)
    @given(references())
    def test_no_order_beats_the_optimum(self, instance):
        den, record = instance
        optimum = min_steps(record, den)
        merged, _ = merge_trajectory(record.trajectory, record.base(), den)
        final, _ = final_results_preserving(record.trajectory, record.base(), den)
        assert 1 <= optimum <= merged.n <= record.trajectory.n
        assert optimum <= final.n
