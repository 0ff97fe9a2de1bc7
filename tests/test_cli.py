import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import sticky_chain
from maskorder import harness
from maskorder.cli import _check, build_parser, main
from maskorder.core import (
    SampleRecord,
    Trajectory,
    Vocabulary,
    final_tokens,
    load_archive,
    load_records,
    save_archive,
    save_records,
)
from maskorder.denoiser import MarkovDenoiser, RecordingDenoiser, TemperedDenoiser
from maskorder.indicator import IndicatorConfig, IndicatorModel, load_checkpoint, save_checkpoint
from maskorder.labeling import load_dataset
from maskorder.ni_sampler import NIConfig
from maskorder.orders import RULES, DecodeConfig, decode


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    sticky_chain(8, 0.9).save(path)
    return str(path)


def run(*argv):
    main(list(argv))


class TestPipeline:
    def test_end_to_end(self, tmp_path, chain_file, capsys):
        traj = tmp_path / "traj.jsonl"
        data = tmp_path / "train.npz"
        ckpt = tmp_path / "ind.ckpt"

        run(
            "gen-data", "--denoiser", chain_file, "--count", "4", "--prompt-len", "2",
            "--gen-len", "12", "--epsilon", "0.8", "--out", str(traj),
        )
        records = load_records(traj)
        assert len(records) == 4
        assert all(r.gen_len == 12 for r in records)
        assert "wrote 4 trajectories" in capsys.readouterr().out

        run(
            "label", "--denoiser", chain_file, "--traj", str(traj), "--cuts", "3",
            "--min-pos-prob", "0", "--out", str(data),
        )
        ds = load_dataset(data)
        assert ds.examples and ds.config["V"] == 8
        assert (tmp_path / "train.npz.meta.json").exists()

        run(
            "train", "--data", str(data), "--epochs", "3", "--lr", "1e-3",
            "--batch", "64", "--emb-dim", "8", "--hidden-dim", "12", "--depth", "1",
            "--out", str(ckpt),
        )
        model = load_checkpoint(ckpt)
        assert model.config.vocab_size == 8
        assert "3 epochs" in capsys.readouterr().out

        ni_out = tmp_path / "ni.jsonl"
        run(
            "sample", "--denoiser", chain_file, "--ckpt", str(ckpt),
            "--count", "3", "--prompt-len", "2", "--gen-len", "12", "--out", str(ni_out),
        )
        assert len(load_records(ni_out)) == 3

        report = tmp_path / "merge.csv"
        run(
            "analyze-merge", "--denoiser", chain_file, "--traj", str(traj),
            "--mode", "traj", "--report", str(report),
        )
        lines = report.read_text().splitlines()
        assert lines[0] == "id,original_steps,merged_steps,speedup,preserved"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [r.id for r in records]
        assert [int(row[1]) for row in rows] == [r.trajectory.n for r in records]
        assert all(int(row[2]) <= int(row[1]) for row in rows)
        assert all(row[4] == "true" for row in rows)

        sweep_csv = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        run(
            "sweep", "--denoiser", chain_file, "--ckpt", str(ckpt), "--count", "2",
            "--prompt-len", "2", "--gen-len", "8", "--out", str(sweep_csv),
            "--summary", str(summary),
        )
        assert len(sweep_csv.read_text().splitlines()) == 1 + 7 + 8
        assert "pareto_ok" in json.loads(summary.read_text())

        run("self-bleu", "--traj", str(traj), "--n", "1")
        out = capsys.readouterr().out
        assert "self-bleu-1:" in out


class TestSelfBleuCommand:
    @pytest.mark.parametrize(
        "records, n, message",
        [(1, 1, "self-BLEU needs at least two samples"), (2, 2, "sample shorter than the n-gram order")],
        ids=["one-record", "shorter-than-n"],
    )
    def test_an_input_it_cannot_score_names_the_file(self, tmp_path, capsys, records, n, message):
        vocab = Vocabulary(4)
        path = tmp_path / "traj.jsonl"
        traj = Trajectory((frozenset({(0, 1)}),))
        save_records([SampleRecord(f"r{i}", vocab, (0,), 1, traj) for i in range(records)], path)
        err = _input_error(capsys, "self-bleu", "--traj", str(path), "--n", str(n))
        assert re.search(rf"traj\.jsonl: {message}$", err)


def _drop_the_last_row_of_the_first_answer(arrays):
    end = arrays["offsets"][1]
    for name in ("positions", "rows", "hidden"):
        arrays[name] = np.delete(arrays[name], end - 1, axis=0)
    arrays["offsets"][1:] -= 1


def _shift_the_first_answer(arrays):
    arrays["positions"][: arrays["offsets"][1]] += 1


class TestReplayCommand:
    def _log_and_records(self, tmp_path):
        den = MarkovDenoiser(sticky_chain(4, 0.85))
        log = tmp_path / "dist.npz"
        records = []
        with RecordingDenoiser(den, log) as rec_den:
            for i in range(3):
                traj = decode(rec_den, (i % 4,), 6, DecodeConfig(threshold=0.8, seed=i))
                records.append(SampleRecord(f"r{i}", den.vocab, (i % 4,), 6, traj))
        path = tmp_path / "traj.jsonl"
        save_records(records, path)
        return log, path, records

    def test_faithful_replay_exits_cleanly(self, tmp_path, capsys):
        log, path, _ = self._log_and_records(tmp_path)
        run("replay", "--log", str(log), "--traj", str(path))
        assert "0 differ" in capsys.readouterr().out

    @pytest.mark.parametrize("rule", ["prob", "margin"])
    def test_full_step_records_replay_full_step_without_a_flag(self, tmp_path, capsys, rule):
        model = sticky_chain(4, 0.94)
        log, path = tmp_path / "dist.npz", tmp_path / "traj.jsonl"
        with RecordingDenoiser(MarkovDenoiser(model), log) as rec_den:  # what `gen-data --sampler full` decodes
            save_records(harness.gen_data(rec_den, model, 2, 8, 3, DecodeConfig(rule=rule), seed=0), path)
        run("replay", "--log", str(log), "--traj", str(path), "--rule", rule)
        assert "replayed 3 trajectories; 0 differ" in capsys.readouterr().out

    @pytest.mark.parametrize("sampler", ["ni", "merge(threshold)", ""], ids=["ni", "merge", "external"])
    def test_a_record_of_another_sampler_is_rejected_before_any_is_decoded(self, tmp_path, capsys, sampler):
        log, path, records = self._log_and_records(tmp_path)
        first, last = records[0], records[2]
        records[0] = SampleRecord(first.id, first.vocab, (3,), first.gen_len, first.trajectory)  # would leave the log
        meta = {**last.trajectory.meta, "sampler": sampler}
        records[2] = SampleRecord(last.id, last.vocab, last.prompt, last.gen_len, Trajectory(last.trajectory.steps, meta))
        save_records(records, path)
        out = tmp_path / "out.jsonl"
        err = _input_error(capsys, "replay", "--log", str(log), "--traj", str(path), "--out", str(out))
        assert re.search(rf"traj\.jsonl: record 'r2' has sampler {re.escape(repr(sampler))}, not full or threshold$", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, answered",
        [(_drop_the_last_row_of_the_first_answer, 5), (_shift_the_first_answer, 6)],
        ids=["drops-last-row", "shifts-positions"],
    )
    def test_a_log_answer_off_the_masked_positions_names_the_log_and_the_state(self, tmp_path, capsys, damage, answered):
        log, path, _ = self._log_and_records(tmp_path)
        arrays, meta = load_archive(log)
        damage(arrays)  # the first recorded answer is at a state of 6 masked positions
        save_archive(log, arrays, meta)
        err = _input_error(capsys, "replay", "--log", str(log), "--traj", str(path))
        state = r"state [0-9a-f]{64}"
        message = rf"{answered} positions, not exactly the state's 6 masked positions"
        assert re.search(rf"record 'r\d': .*dist\.npz: {state}: the denoiser answered {message}$", err)

    def test_mismatch_exits_nonzero(self, tmp_path):
        log, path, records = self._log_and_records(tmp_path)
        tampered = records[0].trajectory
        bad_steps = (frozenset({(p, (t + 1) % 4) for p, t in tampered.steps[0]}),) + tampered.steps[1:]
        records[0] = SampleRecord(
            "r0", records[0].vocab, records[0].prompt, 6,
            Trajectory(bad_steps, meta=tampered.meta),
        )
        save_records(records, path)
        with pytest.raises(SystemExit) as exc:
            run("replay", "--log", str(log), "--traj", str(path))
        assert exc.value.code == 1

    def test_record_with_another_vocabulary_is_rejected_by_id(self, tmp_path, capsys):
        log, path, records = self._log_and_records(tmp_path)
        ref = records[1]
        records[1] = SampleRecord(ref.id, Vocabulary(5), ref.prompt, ref.gen_len, ref.trajectory)
        save_records(records, path)
        out = tmp_path / "out.jsonl"
        err = _input_error(capsys, "replay", "--log", str(log), "--traj", str(path), "--out", str(out))
        assert re.search(r"record 'r1' has vocab_size 5, the log .*dist\.npz has V=4", err)
        assert not out.exists()

    def test_a_replay_that_leaves_the_log_names_the_log_and_the_record(self, tmp_path, capsys):
        log, path, records = self._log_and_records(tmp_path)
        ref = records[1]
        records[1] = SampleRecord(ref.id, ref.vocab, (3,), ref.gen_len, ref.trajectory)  # a prompt never recorded
        save_records(records, path)
        err = _input_error(capsys, "replay", "--log", str(log), "--traj", str(path))
        assert re.search(r"record 'r1': .*dist\.npz: no recorded distribution for state [0-9a-f]{64}$", err)

    def test_malformed_log_names_the_file(self, tmp_path, capsys):
        _, path, _ = self._log_and_records(tmp_path)
        err = _input_error(capsys, "replay", "--log", str(path), "--traj", str(path))
        assert re.search(r"traj\.jsonl: not an intact \.npz archive", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("replay", "--log", "l", "--traj", "t", "--vocab-size", "4"),
            ("replay", "--log", "l", "--traj", "t", "--strict"),
            ("replay", "--log", "l", "--traj", "t", "--seed", "1"),
            ("analyze-merge", "--denoiser", "c", "--traj", "t", "--report", "r", "--seed", "1"),
            ("self-bleu", "--traj", "t", "--seed", "1"),
        ],
    )
    def test_options_that_were_never_read_are_gone(self, capsys, argv):
        assert "unrecognized arguments" in _usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--denoiser", "c", "--ckpt", "k", "--out", "o", "--sampler", "ni"),
            ("sample", "--denoiser", "c", "--ckpt", "k", "--out", "o", "--sampler", "threshold"),
            ("replay", "--log", "l", "--traj", "t", "--sampler", "full"),
        ],
        ids=["sample-ni", "sample-threshold", "replay"],
    )
    def test_sample_and_replay_take_no_sampler_flag(self, capsys, argv):
        # sample is the NI decode, and replay reads each record's sampler
        assert "unrecognized arguments: --sampler" in _usage_error(capsys, *argv)


class TestConfigDefaults:
    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path, chain_file):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"epsilon": 0.5, "gen-len": 10}))
        a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
        run(
            "--config", str(cfg), "gen-data", "--denoiser", chain_file,
            "--count", "2", "--prompt-len", "2", "--out", str(a),
        )
        run(
            "gen-data", "--denoiser", chain_file, "--count", "2", "--prompt-len", "2",
            "--gen-len", "10", "--epsilon", "0.5", "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()
        # an explicit flag overrides the config file
        run(
            "--config", str(cfg), "gen-data", "--denoiser", chain_file, "--count", "2",
            "--prompt-len", "2", "--epsilon", "0.9", "--out", str(c),
        )
        assert c.read_bytes() != a.read_bytes()

    def test_abbreviated_flag_wins_over_the_config_file(self, tmp_path, chain_file):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"epsilon": 0.5, "gen-len": 10}))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(
            "--config", str(cfg), "gen-data", "--denoiser", chain_file, "--count", "2",
            "--prompt-len", "2", "--gen", "6", "--out", str(a),
        )
        run(
            "gen-data", "--denoiser", chain_file, "--count", "2", "--prompt-len", "2",
            "--gen-len", "6", "--epsilon", "0.5", "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()
        assert all(r.gen_len == 6 for r in load_records(a))

    def test_abbreviated_epochs_flag_wins(self, tmp_path, chain_file, capsys):
        traj, data, ckpt = (tmp_path / name for name in ("t.jsonl", "d.npz", "c.ckpt"))
        run(
            "gen-data", "--denoiser", chain_file, "--count", "2", "--prompt-len", "2",
            "--gen-len", "6", "--out", str(traj),
        )
        run("label", "--denoiser", chain_file, "--traj", str(traj), "--cuts", "2", "--out", str(data))
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"epochs": 5, "emb-dim": 4, "hidden-dim": 4, "depth": 1}))
        capsys.readouterr()
        run("--config", str(cfg), "train", "--data", str(data), "--epoch", "1", "--out", str(ckpt))
        assert "for 1 epochs" in capsys.readouterr().out

    def test_keys_of_other_subcommands_are_ignored(self, tmp_path, chain_file):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"epochs": 5, "func": "nothing", "command": "train"}))
        out = tmp_path / "a.jsonl"
        run(
            "--config", str(cfg), "gen-data", "--denoiser", chain_file, "--count", "2",
            "--prompt-len", "2", "--gen-len", "6", "--out", str(out),
        )
        assert len(load_records(out)) == 2

    def test_sample_takes_its_checkpoint_from_the_config_file(self, tmp_path, chain_file, ckpt_file):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"ckpt": ckpt_file}))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ("--denoiser", chain_file, "--count", "2", "--gen-len", "6")
        run("--config", str(cfg), "sample", *argv, "--out", str(a))
        run("sample", *argv, "--ckpt", ckpt_file, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_command_is_rejected(self):
        with pytest.raises(SystemExit):
            run("frobnicate")


class TestConfigValidation:
    """--config values pass the same type and choices checks as flags."""

    def _gen_data(self, capsys, tmp_path, chain_file, config_text):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(config_text)
        err = _usage_error(
            capsys, "--config", str(cfg), "gen-data", "--denoiser", chain_file, "--count", "1",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert not (tmp_path / "a.jsonl").exists()
        return err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"sampler": "bogus"}, "sampler"),
            ({"rule": "entropy"}, "rule"),
            ({"count": 1.5}, "count"),
            ({"gen-len": "ten"}, "gen-len"),
            ({"seed": True}, "seed"),
            ({"epsilon": [0.5]}, "epsilon"),
            ({"out": 5}, "out"),
            ({"temperature": None}, "temperature"),
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, chain_file, capsys, config, key):
        err = self._gen_data(capsys, tmp_path, chain_file, json.dumps(config))
        assert f"invalid value {next(iter(config.values()))!r} for --{key}" in err
        assert "defaults.json" in err

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"epsilon"', '{"epsilon": 0.5', ""])
    def test_file_that_is_not_a_json_object_names_the_file(self, tmp_path, chain_file, capsys, text):
        err = self._gen_data(capsys, tmp_path, chain_file, text)
        assert "--config" in err and "defaults.json" in err

    def test_missing_file_is_a_usage_error(self, tmp_path, chain_file, capsys):
        err = _usage_error(
            capsys, "--config", str(tmp_path / "none.json"), "gen-data", "--denoiser", chain_file,
            "--count", "1", "--out", str(tmp_path / "a.jsonl"),
        )
        assert "none.json" in err

    def test_fractional_epochs_are_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"epochs": 1.5}))
        err = _usage_error(capsys, "--config", str(cfg), "train", "--data", "d.npz", "--out", "c.ckpt")
        assert "invalid value 1.5 for --epochs" in err

    def test_store_true_option_needs_a_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"timings": "yes"}))
        err = _usage_error(
            capsys, "--config", str(cfg), "sweep", "--denoiser", "c", "--ckpt", "k", "--out", "o", "--summary", "s"
        )
        assert "invalid value 'yes' for --timings" in err

    def test_values_are_converted_like_flags(self, tmp_path, chain_file):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"gen_len": "10", "epsilon": 1, "sampler": "full"}))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("--config", str(cfg), "gen-data", "--denoiser", chain_file, "--count", "2", "--out", str(a))
        run(
            "gen-data", "--denoiser", chain_file, "--count", "2", "--gen-len", "10", "--epsilon", "1.0",
            "--sampler", "full", "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()

    def test_a_value_is_checked_only_against_the_chosen_subcommand(self, tmp_path, chain_file, ckpt_file):
        # `sampler` is an option of `gen-data` only ("ni" is none of its
        # choices), and `timings` of `sweep` only, so neither value is checked here
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"sampler": "ni", "timings": "no"}))
        out = tmp_path / "a.jsonl"
        run(
            "--config", str(cfg), "sample", "--denoiser", chain_file, "--ckpt", ckpt_file,
            "--count", "1", "--gen-len", "4", "--out", str(out),
        )
        assert len(load_records(out)) == 1


class TestSweepCommand:
    def test_sweep_uses_the_k1_k2_of_the_checkpoint(self, tmp_path, chain_file):
        traj, data, ckpt = (tmp_path / name for name in ("t.jsonl", "d.npz", "c.ckpt"))
        run(
            "gen-data", "--denoiser", chain_file, "--count", "2", "--prompt-len", "2",
            "--gen-len", "6", "--out", str(traj),
        )
        run(
            "label", "--denoiser", chain_file, "--traj", str(traj), "--cuts", "2",
            "--k1", "2", "--k2", "3", "--out", str(data),
        )
        run(
            "train", "--data", str(data), "--epochs", "1", "--emb-dim", "4", "--hidden-dim", "6",
            "--depth", "1", "--out", str(ckpt),
        )
        cfg = load_checkpoint(ckpt).config
        assert (cfg.k1, cfg.k2) == (2, 3)
        sweep_csv, summary = tmp_path / "sweep.csv", tmp_path / "summary.json"
        run(
            "sweep", "--denoiser", chain_file, "--ckpt", str(ckpt), "--count", "2",
            "--prompt-len", "2", "--gen-len", "6", "--out", str(sweep_csv), "--summary", str(summary),
        )
        assert len(sweep_csv.read_text().splitlines()) == 1 + 7 + 8


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def _input_error(capsys, command, *argv):
    """stderr of a run that a malformed input file ends: exit 1 and one
    `maskorder <command>: error:` line, no traceback."""
    with pytest.raises(SystemExit) as exc:
        run(command, *argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"maskorder {command}: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestUsageErrors:
    @pytest.mark.parametrize("value", ["0", "-1.5", "inf", "nan"])
    def test_nonpositive_dtemp_is_rejected(self, tmp_path, chain_file, capsys, value):
        err = _usage_error(
            capsys, "gen-data", "--denoiser", chain_file, "--dtemp", value, "--count", "1",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "--dtemp must be positive" in err
        assert not (tmp_path / "a.jsonl").exists()

    def test_nonpositive_dtemp_from_the_config_file_is_rejected(self, tmp_path, chain_file, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"dtemp": 0}))
        err = _usage_error(
            capsys, "--config", str(cfg), "gen-data", "--denoiser", chain_file, "--count", "1",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "--dtemp must be positive" in err

    @pytest.mark.parametrize("value", ["-1", "-0.5", "inf", "nan"])
    def test_negative_or_non_finite_dnoise_is_rejected(self, tmp_path, chain_file, capsys, value):
        argv = ("gen-data", "--denoiser", chain_file, "--count", "1", "--out", str(tmp_path / "a.jsonl"))
        err = _usage_error(capsys, *argv, "--dnoise", value)
        assert f"--dnoise must be nonnegative and finite, got {float(value)}" in err
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"dnoise": value}))
        err = _usage_error(capsys, "--config", str(cfg), *argv)
        assert "--dnoise must be nonnegative and finite" in err
        assert not (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("gen-data", "--count", "0", "--out", "a.jsonl"), "invalid value 0 for --count: must be positive"),
            (("label", "--traj", "t.jsonl", "--cuts", "0", "--out", "d.npz"), "invalid value 0 for --cuts: must be positive"),
        ],
        ids=["gen-data-count", "label-cuts"],
    )
    def test_a_zero_count_is_rejected(self, tmp_path, chain_file, capsys, argv, message):
        # gen-data's --count is required, so it can only come as a flag
        assert message in _usage_error(capsys, argv[0], "--denoiser", chain_file, *argv[1:])

    @pytest.mark.parametrize("flag, value", [("--k1", "9"), ("--k2", "5"), ("--k1", "0"), ("--k2", "-1")])
    def test_label_k1_k2_beyond_the_vocabulary_are_rejected(self, tmp_path, capsys, flag, value):
        chain, traj, out = (str(tmp_path / name) for name in ("chain4.json", "t.jsonl", "d.npz"))
        sticky_chain(4, 0.9).save(chain)
        run("gen-data", "--denoiser", chain, "--count", "2", "--gen-len", "6", "--out", traj)
        argv = ("label", "--denoiser", chain, "--traj", traj, "--out", out)
        message = f"invalid value {value} for {flag}: must lie in 1..4, the chain's vocabulary size"
        assert message in _usage_error(capsys, *argv, flag, value)
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({flag[2:]: int(value)}))
        assert message in _usage_error(capsys, "--config", str(cfg), *argv)
        assert not Path(out).exists()
        run(*argv, "--k1", "4", "--k2", "4")  # V itself is allowed
        assert Path(out).exists()

    def test_ni_sampler_needs_a_checkpoint(self, tmp_path, chain_file, capsys):
        err = _usage_error(
            capsys, "sample", "--denoiser", chain_file,
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "--ckpt" in err

    def test_sample_has_no_merge_oracle(self, tmp_path, chain_file, capsys):
        out = tmp_path / "a.jsonl"
        argv = ("sample", "--denoiser", chain_file, "--out", str(out))
        err = _usage_error(capsys, *argv, "--sampler", "merge-oracle", "--traj", str(out))
        assert "unrecognized arguments: --sampler merge-oracle" in err
        err = _usage_error(capsys, *argv, "--ckpt", "c.ckpt", "--traj", str(out))
        assert "unrecognized arguments: --traj" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--batch", "0", "batch_size must be at least 1"),
            ("--epochs", "0", "epochs must be at least 1"),
            ("--lr", "nan", "lr must be finite and positive"),
            ("--lr", "-0.1", "lr must be finite and positive"),
            ("--emb-dim", "0", "emb_dim must be positive"),
            ("--depth", "0", "depth must be positive"),
            ("--hidden-dim", "2", "hidden_dim must be >= 3"),
            ("--seed", "-1", "must be nonnegative"),
        ],
    )
    def test_training_hyperparameters_are_checked(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "c.ckpt"
        err = _usage_error(capsys, "train", "--data", "d.npz", flag, value, "--out", str(out))
        assert f"invalid value {value} for {flag}: {message}" in err
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({flag[2:]: float(value) if flag == "--lr" else int(value)}))
        err = _usage_error(capsys, "--config", str(cfg), "train", "--data", "d.npz", "--out", str(out))
        assert f"for {flag}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("gen-data", "--temperature", "nan", "temperature must be positive and finite"),
            ("gen-data", "--temperature", "inf", "temperature must be positive and finite"),
            ("gen-data", "--temperature", "0.0", "temperature must be positive and finite"),
            ("gen-data", "--epsilon", "1.5", "threshold must be in (0, 1]"),
            ("gen-data", "--prompt-len", "-2", "must be nonnegative"),
            ("sample", "--temperature", "nan", "temperature must be positive and finite"),
            ("sample", "--epsilon", "0.0", "threshold must be in (0, 1]"),
            ("sample", "--eps-phi", "1.5", "eps_phi must be in [0, 1]"),
            ("sample", "--prompt-len", "-1", "must be nonnegative"),
            ("sweep", "--prompt-len", "-2", "must be nonnegative"),
            ("gen-data", "--gen-len", "0", "must be positive"),
            *((command, flag, "0", "must be positive") for command in ("sample", "sweep") for flag in ("--count", "--gen-len")),
            ("sample", "--count", "-3", "must be positive"),
            ("label", "--min-pos-prob", "nan", "min_pos_prob must be finite"),
            ("label", "--min-pos-prob", "inf", "min_pos_prob must be finite"),
            ("gen-data", "--seed", "-1", "must be nonnegative"),
            ("gen-data", "--dseed", "-3", "must be nonnegative"),
            ("sample", "--seed", "-1", "must be nonnegative"),
            ("label", "--seed", "-1", "must be nonnegative"),
        ],
    )
    def test_decode_values_are_checked(self, tmp_path, chain_file, capsys, command, flag, value, message):
        out = tmp_path / "a.jsonl"
        argv = {
            "gen-data": ("--count", "1", "--out", str(out)),
            "sample": ("--ckpt", "c.ckpt", "--out", str(out)),
            "sweep": ("--ckpt", "c.ckpt", "--out", str(out), "--summary", str(tmp_path / "s.json")),
            "label": ("--traj", "t.jsonl", "--out", str(out)),
        }[command]
        err = _usage_error(capsys, command, "--denoiser", chain_file, flag, value, *argv)
        assert f"invalid value {value} for {flag}: {message}" in err
        cfg = tmp_path / "defaults.json"
        integer = flag in ("--prompt-len", "--count", "--gen-len", "--seed", "--dseed")
        cfg.write_text(json.dumps({flag[2:]: int(value) if integer else float(value)}))
        err = _usage_error(capsys, "--config", str(cfg), command, "--denoiser", chain_file, *argv)
        assert f"for {flag}: {message}" in err
        assert not out.exists()

    def test_an_empty_prompt_is_allowed(self, tmp_path, chain_file):
        out = tmp_path / "a.jsonl"
        run("gen-data", "--denoiser", chain_file, "--prompt-len", "0", "--count", "2", "--gen-len", "5", "--out", str(out))
        records = load_records(out)
        assert [r.prompt for r in records] == [(), ()]
        assert all(len(final_tokens(r.trajectory)) == 5 for r in records)

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_checkpoint_with_another_feature_dim_names_the_file(self, tmp_path, chain_file, capsys, command):
        ckpt = tmp_path / "ind.ckpt"
        feature_dim = MarkovDenoiser(sticky_chain(8, 0.9)).feature_dim + 1
        cfg = IndicatorConfig(vocab_size=8, k1=2, k2=3, feature_dim=feature_dim, emb_dim=4, hidden_dim=4, depth=1)
        save_checkpoint(IndicatorModel.init(cfg, np.random.default_rng(0)), ckpt)
        argv = {
            "sample": ("--out", str(tmp_path / "a.jsonl")),
            "sweep": ("--out", str(tmp_path / "s.csv"), "--summary", str(tmp_path / "s.json")),
        }[command]
        err = _input_error(capsys, command, "--denoiser", chain_file, "--ckpt", str(ckpt), "--count", "1", *argv)
        assert re.search(rf"ind\.ckpt: feature dimension {feature_dim} does not match", err)

    def test_sample_has_no_mode_flag(self, tmp_path, chain_file, capsys):
        err = _usage_error(
            capsys, "sample", "--denoiser", chain_file, "--ckpt", "c.ckpt", "--mode", "random",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "unrecognized arguments" in err


class TestInputErrors:
    """A malformed or missing input file ends the run with exit 1 and one
    error line naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "case",
        ["denoiser-bool-initial", "denoiser-one-token", "traj-int-id", "traj-zero-gen-len", "traj-missing", "data-not-an-archive"],
    )
    def test_malformed_input_exits_1_with_one_line(self, tmp_path, chain_file, capsys, case):
        chain, v1, traj, empty, missing, data, out = (
            tmp_path / name for name in ("b.json", "v1.json", "t.jsonl", "e.jsonl", "none.jsonl", "d.npz", "out")
        )
        chain.write_text(json.dumps({"V": 2, "initial": [True, False], "transition": [[0.5, 0.5], [0.5, 0.5]]}))
        v1.write_text(json.dumps({"V": 1, "initial": [1.0], "transition": [[1.0]]}))
        traj.write_text('{"id": 1}\n')
        empty.write_text(SampleRecord("e", Vocabulary(8), (1,), 0, Trajectory(())).to_json() + "\n")
        data.write_text("not an archive\n")
        named, argv = {
            "denoiser-bool-initial": (chain, ("gen-data", "--denoiser", str(chain), "--count", "1")),
            "denoiser-one-token": (v1, ("gen-data", "--denoiser", str(v1), "--count", "1")),
            "traj-int-id": (traj, ("label", "--denoiser", chain_file, "--traj", str(traj))),
            "traj-zero-gen-len": (empty, ("label", "--denoiser", chain_file, "--traj", str(empty))),
            "traj-missing": (missing, ("label", "--denoiser", chain_file, "--traj", str(missing))),
            "data-not-an-archive": (data, ("train", "--data", str(data))),
        }[case]
        assert named.name in _input_error(capsys, *argv, "--out", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["label", "analyze-merge"])
    def test_a_record_of_another_vocabulary_names_the_file_and_the_record(self, tmp_path, chain_file, capsys, command):
        chain3, traj, out = (tmp_path / name for name in ("chain3.json", "t.jsonl", "out"))
        sticky_chain(3, 0.9).save(chain3)
        run("gen-data", "--denoiser", str(chain3), "--count", "2", "--gen-len", "6", "--out", str(traj))
        capsys.readouterr()
        out_flag = {"label": "--out", "analyze-merge": "--report"}[command]
        err = _input_error(capsys, command, "--denoiser", chain_file, "--traj", str(traj), out_flag, str(out))
        assert re.search(r"t\.jsonl: record 's0-0' has vocab_size 3, the chain .*chain\.json has V=8", err)
        assert not out.exists()


@pytest.fixture
def ckpt_file(tmp_path):
    """An untrained indicator for the 8-token sticky chain of chain_file."""
    path = tmp_path / "ind.ckpt"
    feature_dim = MarkovDenoiser(sticky_chain(8, 0.9)).feature_dim
    cfg = IndicatorConfig(vocab_size=8, k1=4, k2=8, feature_dim=feature_dim, emb_dim=4, hidden_dim=4, depth=1)
    save_checkpoint(IndicatorModel.init(cfg, np.random.default_rng(0)), path)
    return str(path)


class TestNISampler:
    """`sample` decodes with its own decode flags as NI's base."""

    @pytest.mark.parametrize("epsilon", ["0.5", "0.9"])
    @pytest.mark.parametrize("rule", RULES)
    def test_rule_and_epsilon_set_the_base_sampler(self, tmp_path, chain_file, ckpt_file, rule, epsilon):
        out, expected = tmp_path / "ni.jsonl", tmp_path / "expected.jsonl"
        run(
            "sample", "--denoiser", chain_file, "--dnoise", "0.5", "--ckpt", ckpt_file,
            "--rule", rule, "--epsilon", epsilon, "--eps-phi", "0.6", "--count", "4", "--prompt-len", "2",
            "--gen-len", "16", "--seed", "3", "--out", str(out),
        )
        model = sticky_chain(8, 0.9)
        den = TemperedDenoiser(MarkovDenoiser(model), noise_scale=0.5)
        base = DecodeConfig(rule=rule, threshold=float(epsilon), seed=3)
        ni_cfg = NIConfig(base=base, eps_phi=0.6)
        records = harness.gen_data(den, model, 2, 16, 4, base, 3, load_checkpoint(ckpt_file), ni_cfg)
        save_records(records, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_base_epsilon_is_gone(self, tmp_path, chain_file, ckpt_file, capsys):
        err = _usage_error(
            capsys, "sample", "--denoiser", chain_file, "--ckpt", ckpt_file,
            "--base-epsilon", "0.5", "--out", str(tmp_path / "a.jsonl"),
        )
        assert "unrecognized arguments: --base-epsilon" in err


class TestRandomMode:
    @pytest.mark.parametrize("sampler", ["full", "ni"])
    def test_temperature_alone_selects_random_sampling(self, tmp_path, chain_file, ckpt_file, sampler):
        command = ("sample", "--ckpt", ckpt_file, "--eps-phi", "0") if sampler == "ni" else ("gen-data", "--sampler", "full")
        finals = []
        for temperature in ((), ("--temperature", "2.0")):
            out = tmp_path / f"{len(temperature)}.jsonl"
            run(
                *command, "--denoiser", chain_file, "--count", "6",
                "--prompt-len", "2", "--gen-len", "12", *temperature, "--out", str(out),
            )
            finals.append([final_tokens(r.trajectory) for r in load_records(out)])
        assert finals[0] != finals[1]


def _readme_commands():
    """Every `maskorder ...` command in the README's fenced sh blocks, with
    backslash continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("maskorder "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_the_readme_has_a_walkthrough():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_parse(argv):
    parser = build_parser()
    _check(parser, parser.parse_args(argv))


def test_every_readme_option_exists():
    """Every --option the README names is a flag of some subcommand, of a
    bench script, or of pip."""
    root = Path(__file__).resolve().parent.parent
    bench_flags = {
        flag
        for path in (root / "bench").glob("*.py")
        for flag in re.findall(r'add_argument\(\s*"(--[\w-]+)"', path.read_text())
    }
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices.values()
    options = {flag for p in (parser, *commands) for action in p._actions for flag in action.option_strings}
    known = options | bench_flags | {"--no-build-isolation"}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (root / "README.md").read_text()))
    assert sorted(named - known) == []
