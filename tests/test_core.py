import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_table
from maskorder.core import (
    MaskedSequence,
    SampleRecord,
    Trajectory,
    Vocabulary,
    apply_steps,
    check_members,
    final_tokens,
    load_archive,
    load_records,
    save_archive,
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
            arr = state.token_array  # built for each copy, not carried over from the state revealed
            assert arr.dtype == np.int64 and not arr.flags.writeable and arr.tolist() == tokens
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

    @pytest.mark.parametrize("bad", [1.5, True, np.bool_(False), 2.0, "1", None], ids=repr)
    def test_a_token_that_is_not_an_integer_is_rejected(self, bad):
        # int() would truncate 1.5 to 1 and read True as 1
        with pytest.raises(TypeError, match="must be an integer"):
            MaskedSequence((bad, 4, 4), 1, Vocabulary(4))
        with pytest.raises(TypeError, match="must be an integer"):
            MaskedSequence((1, 4, bad), 1, Vocabulary(4))

    @pytest.mark.parametrize("step", [[(0, 2.9)], [(0.0, 1)], [(True, 1)], [(0, np.True_)], [(1, 2), (0, 1.5)]])
    def test_reveal_rejects_a_position_or_token_that_is_not_an_integer(self, step):
        seq = MaskedSequence.fully_masked((1,), 3, Vocabulary(4))
        with pytest.raises(TypeError, match="must be an integer"):
            seq.reveal(step)

    def test_numpy_integers_are_accepted_as_python_ints(self):
        seq = MaskedSequence((np.int64(1), np.int32(4), np.uint8(2)), 1, Vocabulary(4))
        assert seq.tokens == (1, 4, 2) and all(type(t) is int for t in seq.tokens)
        revealed = seq.reveal([(np.int64(0), np.int16(3))])
        assert revealed.tokens == (1, 3, 2) and all(type(t) is int for t in revealed.tokens)


class TestTrajectoryPairs:
    @pytest.mark.parametrize(
        "step", [frozenset({(0, 1.7), (1.2, True)}), [(0, 1), (1, True)], [(0.0, 1)], [(np.bool_(True), 0)]]
    )
    def test_a_position_or_token_that_is_not_an_integer_is_rejected(self, step):
        with pytest.raises(TypeError, match="must be an integer"):
            Trajectory((step,))

    def test_numpy_integers_are_accepted_as_python_ints(self):
        t = Trajectory(([(np.int64(1), np.uint8(0))], [[np.int32(0), 2]]))
        assert t.steps == (frozenset({(1, 0)}), frozenset({(0, 2)}))
        assert all(type(v) is int for step in t.steps for pair in step for v in pair)


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

    def test_prefix_revealing_a_position_twice_is_rejected(self):
        bad = traj({(0, 2)}, {(0, 5)}, {(1, 1)})
        assert apply_steps(self.base, bad, 2).tokens[2] == 2
        with pytest.raises(ValueError, match="position 0 already revealed"):
            apply_steps(self.base, bad, 3)


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


@st.composite
def step_lists(draw):
    """Steps that partition 0..n-1, or ones broken by an empty step, a repeated
    position, a gap or a negative position."""
    n = draw(st.integers(0, 10))
    order = draw(st.permutations(range(n)))
    tokens = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    steps, i = [], 0
    while i < n:
        size = draw(st.integers(1, n - i))
        steps.append([(pos, tokens[pos]) for pos in order[i : i + size]])
        i += size
    fault = draw(st.sampled_from([None, "empty", "repeat", "gap", "negative"]))
    if fault == "empty" or not steps:
        steps.insert(draw(st.integers(0, len(steps))), [])
    elif fault is not None:
        step = steps[draw(st.integers(0, len(steps) - 1))]
        if fault == "repeat":  # a pair already in that step is no repeat, and the steps stay valid
            step.append((draw(st.integers(0, n - 1)), draw(st.integers(0, 7))))
        else:
            step[0] = (n + draw(st.integers(0, 2)) if fault == "gap" else -draw(st.integers(1, 3)), step[0][1])
    return Trajectory(tuple(frozenset(step) for step in steps))


@settings(max_examples=200, deadline=None)
@given(step_lists())
def test_the_position_table_equals_the_dict_derivation(t):
    try:
        want = reference_table(t)
    except ValueError as exc:
        for name in ("finals", "step_of"):
            with pytest.raises(ValueError, match="invalid partition") as raised:
                getattr(t, name)
            assert str(raised.value) == str(exc)
        return
    for got, expected in zip((t.finals, t.step_of), want):
        assert got.dtype == np.int64 and got.tolist() == expected
        with pytest.raises(ValueError, match="read-only"):
            got[:] = 0
    assert t.finals is t.finals and t.step_of is t.step_of  # built once
    assert final_tokens(t) == want[0]


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
        path.write_text(self._line() + "\n\n" + self._line(id="r8", steps=d["steps"][:-1]) + "\n")
        with pytest.raises(ValueError, match=r"traj\.jsonl:3: record 'r8'"):
            load_records(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d.pop("sampler"), r"record 'r7': keys \['sampler'\] are missing or invalid"),
            (lambda d: [d.pop(k) for k in ("seed", "denoiser")], r"record 'r7': keys \['seed', 'denoiser'\] are missing"),
            (lambda d: d.pop("id"), r"record None: keys \['id'\] are missing"),
            (lambda d: d["steps"][2].__setitem__(0, [2, 1.5]), r"record 'r7': keys \['steps'\] are missing or invalid"),
            (lambda d: d["steps"][2].__setitem__(0, [2, 1, 2]), r"record 'r7': keys \['steps'\] are missing or invalid"),
            (lambda d: d["steps"].__setitem__(2, [2, 1]), r"record 'r7': keys \['steps'\] are missing or invalid"),
            (lambda d: d["steps"][2].__setitem__(0, [2, True]), r"record 'r7': keys \['steps'\] are missing or invalid"),
            (lambda d: d.update(prompt=[1.0, 2]), r"record 'r7': keys \['prompt'\]"),
            (lambda d: d.update(gen_len="8", seed=None), r"record 'r7': keys \['gen_len', 'seed'\]"),
            (lambda d: d.update(id=7), r"record 7: keys \['id'\]"),
            (lambda d: d.update(vocab_size=1), r"record 'r7': keys \['vocab_size'\]"),
            (lambda d: d.update(gen_len=-1), r"record 'r7': keys \['gen_len'\]"),
            (lambda d: d.update(gen_len=0, steps=[]), r"record 'r7': keys \['gen_len'\]"),
        ],
        ids=[
            "no-sampler", "no-seed-denoiser", "no-id", "float-token", "triple", "flat-step", "bool-token",
            "float-prompt", "string-gen-len", "int-id", "vocab-size-1", "negative-gen-len", "zero-gen-len",
        ],
    )
    def test_malformed_record_names_the_record(self, change, message):
        d = json.loads(self._line())
        change(d)
        with pytest.raises(ValueError, match=message):
            SampleRecord.from_json(json.dumps(d))

    @pytest.mark.parametrize("text", ["[1, 2]", '"r7"', "7"])
    def test_a_line_that_is_not_an_object_names_the_line(self, tmp_path, text):
        path = tmp_path / "traj.jsonl"
        path.write_text(self._line() + "\n" + text + "\n")
        with pytest.raises(ValueError, match=r"traj\.jsonl:2: expected a JSON object"):
            load_records(path)

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text(self._line()[:-5] + "\n")
        with pytest.raises(ValueError, match=r"traj\.jsonl:1: Expecting"):
            load_records(path)


class TestArchive:
    ARRAYS = {"a": np.arange(6, dtype=np.int64).reshape(2, 3), "b": np.array([0.5, -1.25]), "c": np.array(["x", "yz"])}

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "thing.bin"
        save_archive(path, self.ARRAYS, {"K": 3, "name": "t"})
        return path

    def test_round_trip_at_exactly_the_given_path(self, saved):
        assert sorted(p.name for p in saved.parent.iterdir()) == ["thing.bin", "thing.bin.meta.json"]
        arrays, meta = load_archive(saved)
        assert meta == {"K": 3, "name": "t"}
        assert list(arrays) == list(self.ARRAYS)
        for name, a in self.ARRAYS.items():
            assert arrays[name].dtype == a.dtype
            np.testing.assert_array_equal(arrays[name], a)

    def test_output_is_byte_stable(self, saved):
        first = saved.read_bytes()
        save_archive(saved, self.ARRAYS, {"K": 3, "name": "t"})
        assert saved.read_bytes() == first

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_meta_that_is_not_strict_json_writes_nothing(self, tmp_path, value):
        with pytest.raises(ValueError, match="JSON compliant"):
            save_archive(tmp_path / "thing.bin", self.ARRAYS, {"K": 3, "x": [value]})
        assert list(tmp_path.iterdir()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match=r"nothing\.npz: not an intact \.npz archive"):
            load_archive(tmp_path / "nothing.npz")

    def test_not_a_zip_archive(self, saved):
        saved.write_text("{}\n")
        with pytest.raises(ValueError, match=r"thing\.bin: not an intact \.npz archive \(bad magic\)"):
            load_archive(saved)

    def test_single_npy_array_is_not_an_archive(self, saved):
        with open(saved, "wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(ValueError, match="bad magic"):
            load_archive(saved)

    def test_truncated_archive(self, saved):
        blob = saved.read_bytes()
        for cut in (4, len(blob) // 2, len(blob) - 8):
            saved.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=r"thing\.bin: not an intact"):
                load_archive(saved)

    def test_flipped_byte_fails_the_crc(self, saved):
        blob = bytearray(saved.read_bytes())
        at = blob.find(self.ARRAYS["b"].tobytes())
        assert at > 0
        blob[at + 3] ^= 0x40
        saved.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"thing\.bin: not an intact.*CRC"):
            load_archive(saved)

    def test_member_that_is_not_an_npy_array(self, saved):
        with zipfile.ZipFile(saved, "w") as zf:
            zf.writestr("notes.txt", "hello")
        with pytest.raises(ValueError, match="not an .npy array"):
            load_archive(saved)

    def test_pickled_member_is_refused(self, saved):
        with open(saved, "wb") as fh:
            np.savez(fh, a=np.array([{"x": 1}], dtype=object))
        with pytest.raises(ValueError, match=r"thing\.bin: not an intact"):
            load_archive(saved)

    def test_missing_meta_file(self, saved):
        (saved.parent / "thing.bin.meta.json").unlink()
        with pytest.raises(ValueError, match=r"thing\.bin: meta file .*thing\.bin\.meta\.json is missing"):
            load_archive(saved)

    @pytest.mark.parametrize("text", ["{K: 3", "", "\xff"])
    def test_meta_file_that_is_not_json(self, saved, text):
        (saved.parent / "thing.bin.meta.json").write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=r"thing\.bin\.meta\.json: not a JSON meta file"):
            load_archive(saved)

    @pytest.mark.parametrize("value", [5, [1, 2], "K", None])
    def test_meta_that_is_not_an_object(self, saved, value):
        (saved.parent / "thing.bin.meta.json").write_text(json.dumps(value))
        with pytest.raises(ValueError, match=r"thing\.bin\.meta\.json: holds a JSON \w+, not an object"):
            load_archive(saved)


class TestCheckMembers:
    MEMBERS = {"a": (np.dtype(np.int64), (2, 3)), "b": (np.dtype(np.float64), (2,)), "c": (np.dtype("<U2"), (2,))}

    def test_the_arrays_save_archive_wrote_pass(self, tmp_path):
        path = tmp_path / "thing.bin"
        save_archive(path, TestArchive.ARRAYS, {})
        check_members(path, load_archive(path)[0], self.MEMBERS)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("b"), r"holds arrays \['a', 'c'\], expected \['a', 'b', 'c'\]: missing \['b'\], extra \[\]"),
            (lambda a: a.update(d=a["b"]), r"holds arrays .*: missing \[\], extra \['d'\]"),
            (lambda a: a.update(a=a["a"].astype(np.int32)), r"column a has dtype int32 and shape \(2, 3\), expected int64"),
            (lambda a: a.update(b=a["b"].astype(">f8")), r"column b has dtype >f8"),
            (lambda a: a.update(c=np.array(["x", "yzw"])), r"column c has dtype <U3"),
            (lambda a: a.update(a=a["a"].T), r"column a has dtype int64 and shape \(3, 2\), expected int64 and shape \(2, 3\)"),
            (lambda a: a.update(b=np.array([0.5, np.nan])), "column b holds NaN or infinite values"),
            (lambda a: a.update(b=np.array([-np.inf, 1.0])), "column b holds NaN or infinite values"),
        ],
        ids=["missing", "extra", "dtype", "byte-order", "string-width", "shape", "nan", "infinite"],
    )
    def test_each_departure_raises_the_callers_error_naming_the_path(self, edit, message):
        class ReaderError(Exception):
            pass

        arrays = dict(TestArchive.ARRAYS)
        edit(arrays)
        with pytest.raises(ReaderError, match=rf"^thing\.bin: {message}"):
            check_members("thing.bin", arrays, self.MEMBERS, ReaderError)
        with pytest.raises(ValueError, match=rf"^thing\.bin: {message}"):
            check_members("thing.bin", arrays, self.MEMBERS)
