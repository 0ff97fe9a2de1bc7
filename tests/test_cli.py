import json

import numpy as np
import pytest

from conftest import sticky_chain
from maskorder.cli import main
from maskorder.core import SampleRecord, Trajectory, final_tokens, load_records, save_records
from maskorder.denoiser import MarkovDenoiser, RecordingDenoiser
from maskorder.indicator import IndicatorConfig, IndicatorModel, load_checkpoint, save_checkpoint
from maskorder.labeling import load_dataset
from maskorder.orders import DecodeConfig, decode


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
            "sample", "--denoiser", chain_file, "--sampler", "ni", "--ckpt", str(ckpt),
            "--count", "3", "--prompt-len", "2", "--gen-len", "12", "--out", str(ni_out),
        )
        assert len(load_records(ni_out)) == 3

        merged_out = tmp_path / "merged.jsonl"
        run(
            "sample", "--denoiser", chain_file, "--sampler", "merge-oracle",
            "--traj", str(traj), "--out", str(merged_out),
        )
        merged = load_records(merged_out)
        assert [r.id for r in merged] == [r.id for r in records]
        assert all(m.trajectory.n <= r.trajectory.n for m, r in zip(merged, records))

        report = tmp_path / "merge.csv"
        run(
            "analyze-merge", "--denoiser", chain_file, "--traj", str(traj),
            "--mode", "traj", "--report", str(report),
        )
        lines = report.read_text().splitlines()
        assert lines[0] == "id,original_steps,merged_steps,speedup,preserved"
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

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


class TestReplayCommand:
    def _log_and_records(self, tmp_path):
        den = MarkovDenoiser(sticky_chain(4, 0.85))
        log = tmp_path / "dist.jsonl"
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
        run("replay", "--log", str(log), "--traj", str(path), "--vocab-size", "4")
        assert "0 differ" in capsys.readouterr().out

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
            run("replay", "--log", str(log), "--traj", str(path), "--vocab-size", "4")
        assert exc.value.code == 1


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

    def test_unknown_command_is_rejected(self):
        with pytest.raises(SystemExit):
            run("frobnicate")


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("value", ["0", "-1.5"])
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

    def test_ni_sampler_needs_a_checkpoint(self, tmp_path, chain_file, capsys):
        err = _usage_error(
            capsys, "sample", "--denoiser", chain_file, "--sampler", "ni",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "--ckpt" in err

    def test_merge_oracle_needs_reference_trajectories(self, tmp_path, chain_file, capsys):
        err = _usage_error(
            capsys, "sample", "--denoiser", chain_file, "--sampler", "merge-oracle",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "--traj" in err

    def test_sample_has_no_mode_flag(self, tmp_path, chain_file, capsys):
        err = _usage_error(
            capsys, "sample", "--denoiser", chain_file, "--sampler", "full", "--mode", "random",
            "--out", str(tmp_path / "a.jsonl"),
        )
        assert "unrecognized arguments" in err


class TestRandomMode:
    @pytest.mark.parametrize("sampler", ["full", "ni"])
    def test_temperature_alone_selects_random_sampling(self, tmp_path, chain_file, sampler):
        extra = ()
        if sampler == "ni":
            ckpt = tmp_path / "ind.ckpt"
            feature_dim = MarkovDenoiser(sticky_chain(8, 0.9)).feature_dim
            cfg = IndicatorConfig(vocab_size=8, k1=4, k2=8, feature_dim=feature_dim, emb_dim=4, hidden_dim=4, depth=1)
            save_checkpoint(IndicatorModel.init(cfg, np.random.default_rng(0)), ckpt)
            extra = ("--ckpt", str(ckpt), "--eps-phi", "0")
        finals = []
        for temperature in ((), ("--temperature", "2.0")):
            out = tmp_path / f"{len(temperature)}.jsonl"
            run(
                "sample", "--denoiser", chain_file, "--sampler", sampler, "--count", "6",
                "--prompt-len", "2", "--gen-len", "12", *extra, *temperature, "--out", str(out),
            )
            finals.append([final_tokens(r.trajectory) for r in load_records(out)])
        assert finals[0] != finals[1]
