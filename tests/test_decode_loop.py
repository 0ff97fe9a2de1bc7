"""Property tests of the decode loop that every sampler shares (orders.run_steps).

Each sampler is a reveal policy on that loop; these properties hold for every
policy, chain, prompt, rule, threshold and seed hypothesis draws. Decoding
several prompts in lockstep gives each the trajectory it gets alone.

The step ordering final-preserving <= merge is not asserted: it is an
empirical property, not a theorem. Even with the exact posterior, random
chains give counterexamples (6 in 20,000 drawn instances), and the
final-preserving order can take more steps than the reference itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from conftest import ConstantIndicator, oracle_indicator_decode, permutation_chain, random_chain, row_at
from maskorder import harness, orders
from maskorder.core import MaskedSequence, SampleRecord, Vocabulary, apply_steps, final_tokens, validate_partition
from maskorder.denoiser import DenoiserError, DenoiserOutput, MarkovDenoiser, TemperedDenoiser
from maskorder.merge import final_results_preserving, merge_trajectory
from maskorder.ni_sampler import NIConfig, ni_decode
from maskorder.orders import RULES, DecodeConfig, decode, decode_many, run_steps

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def instances(draw):
    """(denoiser, prompt, gen_len, base decode config) over a small random chain."""
    V = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_chain(V, rng, diag_boost=draw(st.floats(0.0, 4.0)))
    den = MarkovDenoiser(model)
    if draw(st.booleans()):
        den = TemperedDenoiser(
            den,
            temperature=draw(st.floats(0.7, 1.5)),
            noise_scale=draw(st.floats(0.0, 0.5)),
            seed=draw(st.integers(0, 1000)),
        )
    prompt = model.sample_sequence(draw(st.integers(1, 3)), rng)
    cfg = DecodeConfig(
        rule=draw(st.sampled_from(RULES)),
        threshold=draw(st.none() | st.floats(0.05, 1.0)),
        temperature=draw(st.none() | st.floats(0.5, 2.0)),
        seed=draw(st.integers(0, 10_000)),
    )
    return den, prompt, draw(st.integers(1, 10)), cfg


def _is_partition(traj, gen_len):
    return validate_partition(traj, range(gen_len)).ok


@SETTINGS
@given(instances(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_every_policy_returns_a_partition(instance, score, eps_phi):
    den, prompt, gen_len, cfg = instance
    reference = decode(den, prompt, gen_len, cfg)
    assert _is_partition(reference, gen_len)
    ni_cfg = NIConfig(base=cfg, eps_phi=eps_phi)
    gated = ni_decode(den, ConstantIndicator(score), prompt, gen_len, ni_cfg)
    assert _is_partition(gated, gen_len)
    record = SampleRecord("r", den.vocab, tuple(prompt), gen_len, reference)
    for traj in (
        merge_trajectory(reference, record.base(), den)[0],
        final_results_preserving(reference, record.base(), den)[0],
        oracle_indicator_decode(den, record),
    ):
        assert _is_partition(traj, gen_len)


@SETTINGS
@given(instances())
def test_merge_analyses_keep_the_reference_output(instance):
    den, prompt, gen_len, cfg = instance
    reference = decode(den, prompt, gen_len, cfg)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
    merged, merge_report = merge_trajectory(reference, base, den)
    final, final_report = final_results_preserving(reference, base, den)
    finals = final_tokens(reference)
    assert final_tokens(merged) == finals and merge_report.preserved
    assert final_tokens(final) == finals and final_report.preserved
    assert merged.n <= reference.n and merge_report.merged_steps == merged.n
    # the groups cover the reference steps 1..n in order, without gaps
    starts = [start for start, _ in merge_report.per_group]
    ends = [end for _, end in merge_report.per_group]
    assert starts == [1] + [end + 1 for end in ends[:-1]] and ends[-1] == reference.n
    # the oracle decode reaches the merge result through the labeling path
    record = SampleRecord("r", den.vocab, tuple(prompt), gen_len, reference)
    assert oracle_indicator_decode(den, record).steps == merged.steps


@SETTINGS
@given(instances(), st.floats(0.01, 1.0))
def test_a_closed_gate_reduces_ni_to_its_base_sampler(instance, eps_phi):
    den, prompt, gen_len, cfg = instance
    ni_cfg = NIConfig(base=cfg, eps_phi=eps_phi)
    gated = ni_decode(den, ConstantIndicator(0.0), prompt, gen_len, ni_cfg)
    plain = decode(den, prompt, gen_len, cfg)
    assert gated.steps == plain.steps


@SETTINGS
@given(instances(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_greedy_policies_commit_the_argmax_of_the_revealing_state(instance, score, eps_phi):
    den, prompt, gen_len, cfg = instance
    cfg = DecodeConfig(rule=cfg.rule, threshold=cfg.threshold, seed=cfg.seed)
    ni_cfg = NIConfig(base=cfg, eps_phi=eps_phi)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
    for traj in (
        decode(den, prompt, gen_len, cfg),
        ni_decode(den, ConstantIndicator(score), prompt, gen_len, ni_cfg),
    ):
        for k_step, step in enumerate(traj.steps, start=1):
            state = apply_steps(base, traj, k_step)
            out = den.query(state)
            for pos, tok in step:
                assert tok == int(np.argmax(row_at(out, pos)))


def zeros(outs):
    """Token 0 for every row of the answers laid end to end."""
    return np.zeros(sum(len(out.positions) for out in outs), dtype=np.int64)


class _Counting:
    def __init__(self, inner):
        self.inner, self.vocab, self.queries = inner, inner.vocab, 0

    def query(self, seq):
        self.queries += 1
        return self.inner.query(seq)


@SETTINGS
@given(instances())
def test_the_loop_queries_once_per_step(instance):
    den, prompt, gen_len, cfg = instance
    counting = _Counting(den)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)

    def first_masked(live, outs, states):
        return [0], zeros(outs)

    steps = run_steps(counting, [base], first_masked, gen_len)[0]
    assert len(steps) == gen_len == counting.queries


@SETTINGS
@given(instances(), st.integers(1, 4))
def test_the_loop_stops_when_a_multi_position_policy_reveals_the_last_position(instance, per_step):
    den, prompt, gen_len, _ = instance
    counting = _Counting(den)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
    seen = []

    def leftmost(live, outs, states):
        seen.append(len(outs[0].positions))
        return np.arange(min(per_step, len(outs[0].positions))), zeros(outs)

    expected = -(-gen_len // per_step)
    # a budget of exactly the steps needed: one more iteration would exceed it
    steps = run_steps(counting, [base], leftmost, expected)[0]
    assert len(steps) == counting.queries == expected
    assert seen == list(range(gen_len, 0, -per_step))
    assert sorted(pos for step in steps for pos, _ in step) == list(range(gen_len))


@SETTINGS
@given(instances())
def test_a_policy_that_reveals_everything_at_once_takes_one_step(instance):
    den, prompt, gen_len, _ = instance
    counting = _Counting(den)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)

    def everything(live, outs, states):
        return np.ones(len(outs[0].positions), dtype=bool), zeros(outs)

    steps = run_steps(counting, [base], everything, 1)[0]
    assert len(steps) == counting.queries == 1
    assert steps[0] == frozenset((pos, 0) for pos in range(gen_len))


def test_a_stalled_policy_exhausts_the_step_budget():
    den = MarkovDenoiser(random_chain(3, np.random.default_rng(0)))
    base = MaskedSequence.fully_masked((0,), 4, den.vocab)
    with pytest.raises(RuntimeError, match="step budget of 3"):
        run_steps(den, [base], lambda live, outs, states: ([], zeros(outs)), 3)


def test_a_row_chosen_twice_is_an_error():
    den = MarkovDenoiser(random_chain(3, np.random.default_rng(0)))
    base = MaskedSequence.fully_masked((0,), 4, den.vocab)
    with pytest.raises(ValueError, match="already revealed"):
        run_steps(den, [base], lambda live, outs, states: ([1, 1], zeros(outs)), 4)


@SETTINGS
@given(instances(), st.data())
def test_a_mask_and_its_index_array_give_the_same_step(instance, data):
    den, prompt, gen_len, _ = instance
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=gen_len, max_size=gen_len)))
    mask[data.draw(st.integers(0, gen_len - 1))] = True
    # one token per generation position
    tokens = np.array(data.draw(st.lists(st.integers(0, den.vocab.size - 1), min_size=gen_len, max_size=gen_len)))

    def first_then_the_rest(first):
        def choose(live, outs, states):
            (out,) = outs
            rows = first if len(out.positions) == gen_len else np.arange(len(out.positions))
            return rows, tokens[out.positions]

        return choose

    steps = [run_steps(den, [base], first_then_the_rest(rows), 2)[0] for rows in (mask, np.flatnonzero(mask))]
    assert steps[0] == steps[1]
    assert steps[0][0] == frozenset(zip(np.flatnonzero(mask).tolist(), tokens[mask].tolist()))


# -- lockstep: several sequences on one loop decode as each does alone --


@st.composite
def lockstep_instances(draw):
    """(denoiser, prompt model, prompt_len, gen_len, count, config, seed) over a small random chain."""
    V = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_chain(V, rng, diag_boost=draw(st.floats(0.0, 4.0)))
    den = MarkovDenoiser(model)
    if draw(st.booleans()):
        den = TemperedDenoiser(den, temperature=draw(st.floats(0.7, 1.5)), noise_scale=0.3, seed=draw(st.integers(0, 99)))
    cfg = DecodeConfig(
        rule=draw(st.sampled_from(RULES)),
        threshold=draw(st.none() | st.floats(0.05, 1.0)),
        temperature=draw(st.none() | st.floats(0.5, 2.0)),
    )
    return den, model, draw(st.integers(0, 3)), draw(st.integers(1, 9)), draw(st.integers(2, 6)), cfg, draw(st.integers(0, 999))


def _assert_gen_data_decodes_as_prompt_by_prompt(den, model, prompt_len, gen_len, count, cfg, seed):
    records = harness.gen_data(den, model, prompt_len, gen_len, count, cfg, seed)
    prompts = harness.sample_prompts(model, prompt_len, count, seed)
    alone = [
        decode(den, prompt, gen_len, replace(cfg, seed=seed * 100003 + i)) for i, prompt in enumerate(prompts)
    ]
    assert [r.to_json() for r in records] == [
        SampleRecord(f"s{seed}-{i}", den.vocab, prompt, gen_len, traj).to_json()
        for i, (prompt, traj) in enumerate(zip(prompts, alone))
    ]


@SETTINGS
@given(lockstep_instances())
def test_gen_data_writes_the_records_of_per_prompt_decodes(instance):
    _assert_gen_data_decodes_as_prompt_by_prompt(*instance)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("threshold", [None, 0.6])
@pytest.mark.parametrize("temperature", [None, 1.0])
@pytest.mark.parametrize("tempered", [False, True])
@pytest.mark.parametrize("prompt_len", [0, 2])
def test_gen_data_writes_the_records_of_per_prompt_decodes_in_every_mode(
    rule, threshold, temperature, tempered, prompt_len
):
    model = random_chain(4, np.random.default_rng(3), diag_boost=2.0)
    den = MarkovDenoiser(model)
    if tempered:
        den = TemperedDenoiser(den, temperature=1.2, noise_scale=0.3, seed=5)
    cfg = DecodeConfig(rule=rule, threshold=threshold, temperature=temperature)
    _assert_gen_data_decodes_as_prompt_by_prompt(den, model, prompt_len, 8, 5, cfg, 11)


@SETTINGS
@given(lockstep_instances(), st.data())
def test_decode_many_gives_each_prompt_its_own_decode(instance, data):
    den, model, _, gen_len, count, cfg, seed = instance
    rng = np.random.default_rng(seed)
    prompts = [model.sample_sequence(data.draw(st.integers(0, 3)), rng) for _ in range(count)]
    seeds = data.draw(st.lists(st.integers(0, 10_000), min_size=count, max_size=count))
    together = decode_many(den, prompts, gen_len, cfg, seeds)
    alone = [decode(den, prompt, gen_len, replace(cfg, seed=s)) for prompt, s in zip(prompts, seeds)]
    assert [(t.steps, t.meta) for t in together] == [(t.steps, t.meta) for t in alone]


def test_decode_many_takes_one_nonnegative_seed_per_prompt():
    den = MarkovDenoiser(random_chain(3, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="2 prompts but 1 seeds"):
        decode_many(den, [(0,), (1,)], 4, DecodeConfig(), [0])
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        decode_many(den, [(0,), (1,)], 4, DecodeConfig(), [0, -1])


def test_gen_data_decodes_a_long_prompt_list_group_by_group(monkeypatch):
    den = TemperedDenoiser(MarkovDenoiser(random_chain(4, np.random.default_rng(1))), noise_scale=0.3, seed=2)
    cfg = DecodeConfig(threshold=0.7, temperature=1.0)
    whole = harness.gen_data(den, den.inner.model, 2, 6, 7, cfg, seed=4)
    calls = []
    monkeypatch.setattr(harness, "_LOCKSTEP_PROMPTS", 3)
    monkeypatch.setattr(harness, "decode_many", lambda den, prompts, *rest: calls.append(len(prompts)) or decode_many(den, prompts, *rest))
    grouped = harness.gen_data(den, den.inner.model, 2, 6, 7, cfg, seed=4)
    assert calls == [3, 3, 1]
    assert [r.to_json() for r in grouped] == [r.to_json() for r in whole]


def test_lockstep_raises_the_error_of_a_prompt_decoded_alone():
    # under 0 -> 1 -> 2 -> 0, the sampled prompts (from a uniform chain) are
    # mostly impossible: the first query of the batch meets them
    den = MarkovDenoiser(permutation_chain(3))
    uniform = random_chain(3, np.random.default_rng(0))
    prompts = harness.sample_prompts(uniform, 3, 4, 0)
    assert any(p[1] != (p[0] + 1) % 3 or p[2] != (p[1] + 1) % 3 for p in prompts)
    with pytest.raises(DenoiserError) as alone:
        for i, prompt in enumerate(prompts):
            decode(den, prompt, 4, DecodeConfig(seed=i))
    with pytest.raises(DenoiserError) as together:
        harness.gen_data(den, uniform, 3, 4, 4, DecodeConfig(), seed=0)
    assert str(together.value) == str(alone.value)


def test_a_stalled_policy_exhausts_the_step_budget_in_lockstep():
    den = MarkovDenoiser(random_chain(3, np.random.default_rng(0)))
    bases = [MaskedSequence.fully_masked((0,), n, den.vocab) for n in (4, 2)]
    # the first sequence reveals a row each step, the second none
    with pytest.raises(RuntimeError, match="step budget of 3"):
        run_steps(den, bases, lambda live, outs, states: ([0], zeros(outs)), 3)


class _CountingMany(_Counting):
    def query_many(self, seqs):
        self.batches.append(len(seqs))
        return self.inner.query_many(seqs)


def test_the_loop_queries_the_live_sequences_together_and_one_alone():
    den = _CountingMany(MarkovDenoiser(random_chain(3, np.random.default_rng(0))))
    den.batches = []
    bases = [MaskedSequence.fully_masked((0,), n, den.vocab) for n in (3, 1, 2)]
    bases.append(bases[0].reveal([(0, 1), (1, 1), (2, 1)]))  # nothing to decode

    def first_masked_of_each(live, outs, states):
        return np.cumsum([0] + [len(out.positions) for out in outs[:-1]]), zeros(outs)

    steps = run_steps(den, bases, first_masked_of_each, 3)
    assert [len(s) for s in steps] == [3, 1, 2, 0]
    assert den.batches == [3, 2] and den.queries == 1  # the third step has one live sequence


def test_a_lockstep_step_scores_the_block_once(monkeypatch):
    den = TemperedDenoiser(MarkovDenoiser(random_chain(4, np.random.default_rng(2))), noise_scale=0.3, seed=1)
    prompts = [(0,), (1, 2), (3,), (2,), (0, 0)]
    calls = {"position_scores": 0, "select_positions": 0}

    def counted(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    for name in calls:
        monkeypatch.setattr(orders, name, counted(name, getattr(orders, name)))
    for cfg in (DecodeConfig(threshold=0.7), DecodeConfig(rule="margin", threshold=0.7, temperature=1.0), DecodeConfig()):
        calls.update(position_scores=0, select_positions=0)
        trajs = decode_many(den, prompts, 8, cfg, range(len(prompts)))
        steps = max(t.n for t in trajs)
        assert calls == {"position_scores": steps, "select_positions": steps}


class _Scripted:
    """A denoiser whose rows depend on the prompt's first token: after 0, the
    even positions are confident and the odd ones are not; after 1, no row
    reaches 0.9 and each row's top probability falls with its position."""

    vocab, feature_dim, config_id = Vocabulary(3), 1, "scripted"

    def query(self, state):
        positions = np.flatnonzero(state.token_array[state.prompt_len :] == self.vocab.mask_id)
        if state.tokens[0] == 0:
            rows = np.where((positions % 2 == 0)[:, None], [0.96, 0.02, 0.02], [0.4, 0.35, 0.25])
        else:
            rows = np.stack([0.5 - 0.01 * positions, 0.3 + 0.01 * positions, np.full(len(positions), 0.2)], axis=1)
        return DenoiserOutput(positions, rows, np.zeros((len(positions), 1)))

    def query_many(self, states):
        return [self.query(state) for state in states]


@pytest.mark.parametrize("temperature", [None, 1.0])
def test_a_lockstep_step_mixes_prompts_that_fall_back_with_confident_ones(temperature):
    den, cfg = _Scripted(), DecodeConfig(threshold=0.9, temperature=temperature)
    prompts, seeds = [(0,), (1,), (0, 2), (1, 1)], [3, 4, 5, 6]
    together = decode_many(den, prompts, 6, cfg, seeds)
    alone = [decode(den, prompt, 6, replace(cfg, seed=s)) for prompt, s in zip(prompts, seeds)]
    assert [t.steps for t in together] == [t.steps for t in alone]
    # the first step: every even position after a 0, and the fallback's single row after a 1
    assert [sorted(pos for pos, _ in t.steps[0]) for t in together] == [[0, 2, 4], [0], [0, 2, 4], [0]]


class _NaNForPrompt:
    """Wraps a denoiser and gives the first row of every state whose prompt is `prompt` NaNs."""

    def __init__(self, inner, prompt):
        self.inner, self.prompt = inner, prompt
        self.vocab, self.feature_dim, self.config_id = inner.vocab, inner.feature_dim, inner.config_id

    def _spoil(self, state, out):
        if state.tokens[: state.prompt_len] != self.prompt:
            return out
        dists = out.dists.copy()
        dists[0] = np.nan
        return DenoiserOutput(out.positions, dists, out.features)

    def query(self, state):
        return self._spoil(state, self.inner.query(state))

    def query_many(self, states):
        return [self._spoil(s, out) for s, out in zip(states, self.inner.query_many(states))]


@pytest.mark.parametrize("threshold", [None, 0.6])
def test_a_nan_row_in_one_state_of_a_batch_raises_as_decoding_that_prompt_alone(threshold):
    den = _NaNForPrompt(MarkovDenoiser(random_chain(3, np.random.default_rng(0))), (2,))
    cfg = DecodeConfig(threshold=threshold)
    with pytest.raises(ValueError) as alone:
        decode(den, (2,), 5, cfg)
    with pytest.raises(ValueError) as together:
        decode_many(den, [(0,), (2,), (1,)], 5, cfg, [0, 1, 2])
    assert str(together.value) == str(alone.value) == "a row is not a normalized distribution"
