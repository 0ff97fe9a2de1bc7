import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskorder.core import (
    MaskedSequence,
    SampleRecord,
    Trajectory,
    Vocabulary,
    apply_steps,
    final_tokens,
    load_records,
    save_records,
    validate_partition,
)


def traj(*steps):
    return Trajectory(tuple(frozenset(s) for s in steps))


class TestVocabulary:
    def test_mask_id_is_one_past_last_token(self):
        v = Vocabulary(5)
        assert v.mask_id == 5
        assert v.is_token(4) and not v.is_token(5)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Vocabulary(1)


class TestMaskedSequence:
    def test_prompt_never_masked(self):
        with pytest.raises(ValueError, match="prompt"):
            MaskedSequence((4, 0), 1, Vocabulary(4))

    def test_out_of_vocab_token(self):
        with pytest.raises(ValueError, match="out of vocabulary"):
            MaskedSequence((9, 0), 0, Vocabulary(4))

    def test_reveal_rejects_double_reveal(self):
        seq = MaskedSequence.fully_masked((1,), 2, Vocabulary(4))
        seq = seq.reveal([(0, 2)])
        with pytest.raises(ValueError, match="already revealed"):
            seq.reveal([(0, 3)])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reveal_equals_direct_construction(self, data):
        V = data.draw(st.integers(2, 6), label="V")
        vocab = Vocabulary(V)
        prompt = data.draw(st.lists(st.integers(0, V - 1), max_size=3), label="prompt")
        gen_len = data.draw(st.integers(1, 8), label="gen_len")
        order = data.draw(st.permutations(range(gen_len)), label="order")
        as_numpy = data.draw(st.booleans(), label="numpy ints")
        state = MaskedSequence.fully_masked(prompt, gen_len, vocab)
        tokens = list(state.tokens)
        i = 0
        while i < gen_len:
            size = data.draw(st.integers(1, gen_len - i))
            step = [(pos, data.draw(st.integers(0, V - 1))) for pos in order[i : i + size]]
            if as_numpy:
                step = [(np.int64(pos), np.int64(tok)) for pos, tok in step]
            state = state.reveal(step)
            for pos, tok in step:
                tokens[len(prompt) + pos] = int(tok)
            direct = MaskedSequence(tuple(tokens), len(prompt), vocab)
            assert state == direct
            assert all(type(t) is int for t in state.tokens)
            assert state.masked_positions() == direct.masked_positions()
            i += size

    @pytest.mark.parametrize(
        "step, match",
        [
            ([(-1, 0)], "outside generation region"),
            ([(3, 0)], "outside generation region"),
            ([(0, 4)], "out of vocabulary"),
            ([(0, -1)], "out of vocabulary"),
            ([(1, 0), (1, 2)], "already revealed"),
        ],
    )
    def test_reveal_rejects_bad_assignments(self, step, match):
        seq = MaskedSequence.fully_masked((1,), 3, Vocabulary(4))
        with pytest.raises(ValueError, match=match):
            seq.reveal(step)
        assert seq.tokens == (1, 4, 4, 4)


class TestValidatePartition:
    def test_minimal_legal_partition(self):
        assert validate_partition(traj({(0, 1)}, {(1, 2)}), range(2)).ok

    def test_overlap_reports_disjointness_and_coverage(self):
        report = validate_partition(traj({(0, 1)}, {(0, 2)}), range(2))
        rules = {rule for rule, _ in report.violations}
        assert not report.ok
        assert "disjointness" in rules and "coverage" in rules

    def test_empty_step_set(self):
        report = validate_partition(traj(set(), {(0, 1)}), range(1))
        assert ("empty-step", "step 1 is empty") in report.violations

    def test_all_violations_reported_not_just_first(self):
        report = validate_partition(traj(set(), {(0, 1)}, {(0, 2)}), range(3))
        assert len(report.violations) >= 3


class TestApplySteps:
    def setup_method(self):
        self.base = MaskedSequence.fully_masked((1, 0), 2, Vocabulary(8))
        self.traj = traj({(0, 2)}, {(1, 5)})

    def test_k1_is_identity(self):
        assert apply_steps(self.base, self.traj, 1) == self.base

    def test_full_application_has_no_masks(self):
        state = apply_steps(self.base, self.traj, 3)
        assert not state.masked_positions()

    def test_hand_replayed_intermediate_state(self):
        state = apply_steps(self.base, self.traj, 2)
        assert state.tokens[2] == 2
        assert state.tokens[3] == state.vocab.mask_id

    def test_out_of_range_k(self):
        for k in (0, 4):
            with pytest.raises(ValueError):
                apply_steps(self.base, self.traj, k)


class TestFinalTokens:
    def test_one_step(self):
        assert final_tokens(traj({(0, 3), (1, 4)})) == [3, 4]

    def test_order_independent(self):
        assert final_tokens(traj({(1, 4)}, {(0, 3)})) == [3, 4]

    def test_invalid_partition_raises(self):
        with pytest.raises(ValueError, match="invalid partition"):
            final_tokens(traj({(0, 1)}, {(0, 2)}))


@st.composite
def partitions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(n)))
    tokens = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    steps, i = [], 0
    while i < n:
        size = draw(st.integers(1, n - i))
        steps.append(frozenset((pos, tokens[pos]) for pos in order[i : i + size]))
        i += size
    return Trajectory(tuple(steps))


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_random_partitions_validate_and_apply_monotonically(t):
    n_pos = sum(len(s) for s in t.steps)
    assert validate_partition(t, range(n_pos)).ok
    base = MaskedSequence.fully_masked((0,), n_pos, Vocabulary(8))
    prev = set()
    for k in range(1, t.n + 2):
        state = apply_steps(base, t, k)
        revealed = {i for i in range(n_pos) if state.tokens[1 + i] != 8}
        assert prev <= revealed
        prev = revealed
    assert final_tokens(t) == [apply_steps(base, t, t.n + 1).tokens[1 + i] for i in range(n_pos)]


def test_jsonl_round_trip(tmp_path):
    t = Trajectory(
        (frozenset({(1, 3), (0, 2)}), frozenset({(2, 0)})),
        meta={"sampler": "threshold", "seed": 7, "denoiser": "markov"},
    )
    rec = SampleRecord("r0", Vocabulary(4), (1, 2), 3, t)
    path = tmp_path / "traj.jsonl"
    save_records([rec], path)
    (loaded,) = load_records(path)
    assert loaded == rec
    assert loaded.trajectory.meta["seed"] == 7
    # steps serialize in ascending position order
    assert '"steps": [[[0, 2], [1, 3]], [[2, 0]]]' in rec.to_json()


class TestRecordValidation:
    def _line(self, **changes):
        steps = tuple(frozenset({(pos, pos % 4)}) for pos in range(8))
        rec = SampleRecord("r7", Vocabulary(4), (1, 2), 8, Trajectory(steps, meta={"sampler": "full"}))
        d = json.loads(rec.to_json())
        d.update(changes)
        return json.dumps(d)

    def test_valid_record_loads(self):
        assert SampleRecord.from_json(self._line()).trajectory.n == 8

    def test_missing_last_step_is_rejected(self):
        d = json.loads(self._line())
        with pytest.raises(ValueError, match=r"record 'r7'.*never revealed: \[7\]"):
            SampleRecord.from_json(self._line(steps=d["steps"][:-1]))

    def test_position_outside_gen_len_is_rejected(self):
        d = json.loads(self._line())
        with pytest.raises(ValueError, match=r"record 'r7'.*outside region"):
            SampleRecord.from_json(self._line(steps=d["steps"] + [[[8, 0]]]))

    def test_token_outside_vocabulary_is_rejected(self):
        d = json.loads(self._line())
        d["steps"][3] = [[3, 4]]
        with pytest.raises(ValueError, match=r"record 'r7'.*tokens \[4\] outside"):
            SampleRecord.from_json(self._line(steps=d["steps"]))

    def test_prompt_outside_vocabulary_is_rejected(self):
        with pytest.raises(ValueError, match=r"record 'r7'.*tokens \[9\] outside"):
            SampleRecord.from_json(self._line(prompt=[1, 9]))

    def test_load_records_rejects_a_truncated_trajectory(self, tmp_path):
        d = json.loads(self._line())
        path = tmp_path / "traj.jsonl"
        path.write_text(self._line() + "\n" + self._line(id="r8", steps=d["steps"][:-1]) + "\n")
        with pytest.raises(ValueError, match="record 'r8'"):
            load_records(path)
