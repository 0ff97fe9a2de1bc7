"""Property tests of the decode loop that every sampler shares (orders.run_steps).

Each sampler is a reveal policy on that loop; these properties hold for every
policy, chain, prompt, rule, threshold and seed hypothesis draws.

The step ordering final-preserving <= merge is not asserted: it is an
empirical property, not a theorem. Even with the exact posterior, random
chains give counterexamples (6 in 20,000 drawn instances), and the
final-preserving order can take more steps than the reference itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain
from maskorder.core import MaskedSequence, SampleRecord, apply_steps, final_tokens, validate_partition
from maskorder.denoiser import MarkovDenoiser, TemperedDenoiser
from maskorder.merge import final_results_preserving, merge_trajectory
from maskorder.ni_sampler import ConstantIndicator, NIConfig, ni_decode, oracle_indicator_decode
from maskorder.orders import RULES, DecodeConfig, decode, run_steps

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
    k = min(2, den.vocab.size)
    ni_cfg = NIConfig(base=cfg, eps_phi=eps_phi, k1=k, k2=k)
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
    k = min(2, den.vocab.size)
    ni_cfg = NIConfig(base=cfg, eps_phi=eps_phi, k1=k, k2=k)
    gated = ni_decode(den, ConstantIndicator(0.0), prompt, gen_len, ni_cfg)
    plain = decode(den, prompt, gen_len, cfg)
    assert gated.steps == plain.steps


@SETTINGS
@given(instances(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_greedy_policies_commit_the_argmax_of_the_revealing_state(instance, score, eps_phi):
    den, prompt, gen_len, cfg = instance
    cfg = DecodeConfig(rule=cfg.rule, threshold=cfg.threshold, seed=cfg.seed)
    k = min(2, den.vocab.size)
    ni_cfg = NIConfig(base=cfg, eps_phi=eps_phi, k1=k, k2=k)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
    for traj in (
        decode(den, prompt, gen_len, cfg),
        ni_decode(den, ConstantIndicator(score), prompt, gen_len, ni_cfg),
    ):
        for k_step, step in enumerate(traj.steps, start=1):
            state = apply_steps(base, traj, k_step)
            out = den.query(state)
            for pos, tok in step:
                assert tok == int(np.argmax(out.row(state.prompt_len + pos)))


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

    def first_masked(out, state):
        return {out.positions[0] - state.prompt_len: 0}

    steps = run_steps(counting, base, first_masked, gen_len)
    assert len(steps) == gen_len == counting.queries


@SETTINGS
@given(instances(), st.integers(1, 4))
def test_the_loop_stops_when_a_multi_position_policy_reveals_the_last_position(instance, per_step):
    den, prompt, gen_len, _ = instance
    counting = _Counting(den)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)
    seen = []

    def leftmost(out, state):
        seen.append(len(out.positions))
        return {pos - state.prompt_len: 0 for pos in out.positions[:per_step]}

    expected = -(-gen_len // per_step)
    # a budget of exactly the steps needed: one more iteration would exceed it
    steps = run_steps(counting, base, leftmost, expected)
    assert len(steps) == counting.queries == expected
    assert seen == list(range(gen_len, 0, -per_step))
    assert sorted(pos for step in steps for pos, _ in step) == list(range(gen_len))


@SETTINGS
@given(instances())
def test_a_policy_that_reveals_everything_at_once_takes_one_step(instance):
    den, prompt, gen_len, _ = instance
    counting = _Counting(den)
    base = MaskedSequence.fully_masked(prompt, gen_len, den.vocab)

    def everything(out, state):
        return {pos - state.prompt_len: 0 for pos in out.positions}

    steps = run_steps(counting, base, everything, 1)
    assert len(steps) == counting.queries == 1
    assert steps[0] == frozenset((pos, 0) for pos in range(gen_len))


def test_a_stalled_policy_exhausts_the_step_budget():
    den = MarkovDenoiser(random_chain(3, np.random.default_rng(0)))
    base = MaskedSequence.fully_masked((0,), 4, den.vocab)
    with pytest.raises(RuntimeError, match="step budget of 3"):
        run_steps(den, base, lambda out, state: {}, 3)
