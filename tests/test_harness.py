import numpy as np
import pytest

from conftest import sticky_chain
from maskorder.core import SampleRecord, Trajectory, Vocabulary
from maskorder.denoiser import MarkovDenoiser, MarkovModel
from maskorder.harness import (
    INDICATOR_GRID,
    THRESHOLD_GRID,
    dominance_summary,
    evaluate,
    gen_data,
    self_bleu,
    sweep,
    write_sweep_csv,
)
from maskorder.ni_sampler import ConstantIndicator
from maskorder.orders import DecodeConfig


def record(ident, prompt, steps):
    traj = Trajectory(tuple(frozenset(s) for s in steps))
    gen_len = sum(len(s) for s in steps)
    return SampleRecord(ident, Vocabulary(4), prompt, gen_len, traj)


class TestGrids:
    def test_threshold_grid(self):
        assert THRESHOLD_GRID == (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_indicator_grid(self):
        assert INDICATOR_GRID == (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestEvaluate:
    def setup_method(self):
        self.model = sticky_chain(4, 0.9)
        self.recs = [
            record("a", (0,), [{(0, 0)}, {(1, 0)}]),
            record("b", (1,), [{(0, 1), (1, 1)}]),
        ]

    def test_mean_steps_and_counts(self):
        m = evaluate(self.recs, None, self.model)
        assert m.steps == pytest.approx(1.5)
        assert m.exact_match_rate == 1.0
        assert m.config["count"] == 2

    def test_seq_logprob_is_the_chain_logprob_of_prompt_plus_output(self):
        m = evaluate(self.recs[:1], None, self.model)
        expected = self.model.sequence_logprob([0, 0, 0])
        assert m.seq_logprob == pytest.approx(expected)
        assert expected == pytest.approx(np.log(0.25) + 2 * np.log(0.9))

    def test_exact_match_against_a_reference(self):
        ref = [
            record("a", (0,), [{(0, 0), (1, 0)}]),  # same finals, different steps
            record("b", (1,), [{(0, 2), (1, 1)}]),  # different finals
        ]
        m = evaluate(self.recs, ref, self.model)
        assert m.exact_match_rate == pytest.approx(0.5)

    def test_prompt_mismatch_is_an_error(self):
        ref = [record("a", (3,), [{(0, 0)}, {(1, 0)}]), self.recs[1]]
        with pytest.raises(ValueError, match="prompt mismatch"):
            evaluate(self.recs, ref, self.model)

    def test_wall_time_drives_throughput(self):
        m = evaluate(self.recs, None, self.model, wall_time=2.0)
        assert m.tokens_per_second == pytest.approx(4 / 2.0)
        assert evaluate(self.recs, None, self.model).tokens_per_second == 0.0

    def test_empty_input(self):
        with pytest.raises(ValueError):
            evaluate([], None, self.model)


class TestGenData:
    def setup_method(self):
        self.model = sticky_chain(4, 0.8)
        self.den = MarkovDenoiser(self.model)

    def test_shapes_and_ids(self):
        recs = gen_data(self.den, self.model, 2, 6, 5, DecodeConfig(threshold=0.8), seed=3)
        assert len(recs) == 5
        assert [r.id for r in recs] == [f"s3-{i}" for i in range(5)]
        assert all(len(r.prompt) == 2 and r.gen_len == 6 for r in recs)

    def test_deterministic_given_seed(self):
        a = gen_data(self.den, self.model, 2, 6, 4, DecodeConfig(temperature=1.0), seed=9)
        b = gen_data(self.den, self.model, 2, 6, 4, DecodeConfig(temperature=1.0), seed=9)
        assert [r.trajectory.steps for r in a] == [r.trajectory.steps for r in b]

    def test_per_record_seeds_differ(self):
        recs = gen_data(self.den, self.model, 2, 6, 4, DecodeConfig(temperature=1.0), seed=9)
        assert len({r.trajectory.meta["seed"] for r in recs}) == 4

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gen_data(self.den, self.model, 2, 6, 0, DecodeConfig(), seed=0)


class TestSweep:
    def _run(self, timings=False):
        model = sticky_chain(8, 0.85)
        den = MarkovDenoiser(model)
        return sweep(den, model, ConstantIndicator(0.5), 2, 8, 3, seed=0, timings=timings)

    def test_row_layout(self):
        rows, summary = self._run()
        thr = [r for r in rows if r["method"] == "threshold"]
        ni = [r for r in rows if r["method"] == "ni"]
        assert len(thr) == 7 and len(ni) == 8
        assert [r["threshold"] for r in thr] == list(THRESHOLD_GRID)
        assert [r["threshold"] for r in ni] == list(INDICATOR_GRID)
        assert set(summary) == {"ni_points", "ni_points_dominating", "pareto_ok"}

    def test_csv_is_byte_identical_across_reruns(self, tmp_path):
        rows_a, _ = self._run()
        rows_b, _ = self._run()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows_a, pa)
        write_sweep_csv(rows_b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert b"\r" not in pa.read_bytes()

    def test_timings_populate_wall_time(self):
        rows, _ = self._run(timings=True)
        assert all(r["wall_time"] > 0 for r in rows)

    def test_csv_formatting(self, tmp_path):
        rows = [
            {
                "method": "threshold",
                "threshold": 0.3,
                "steps": 4.25,
                "exact_match_rate": 1.0,
                "seq_logprob": -3.5,
                "wall_time": 0.0,
            }
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,threshold,steps,exact_match_rate,seq_logprob,wall_time"
        assert lines[1] == "threshold,0.30,4.250000,1.000000,-3.500000,0.000000"


class TestDominance:
    def test_hand_built_comparison(self):
        rows = [
            {"method": "threshold", "threshold": 0.9, "steps": 10.0, "exact_match_rate": 0.9},
            {"method": "threshold", "threshold": 0.5, "steps": 6.0, "exact_match_rate": 0.5},
            {"method": "ni", "threshold": 0.8, "steps": 5.0, "exact_match_rate": 0.95},
            {"method": "ni", "threshold": 0.2, "steps": 4.0, "exact_match_rate": 0.4},
        ]
        summary = dominance_summary(rows)
        by_eps = {p["eps_phi"]: p for p in summary["ni_points"]}
        assert by_eps[0.8]["dominates_thresholds"] == [0.9, 0.5]
        assert by_eps[0.2]["dominates_thresholds"] == []
        assert summary["ni_points_dominating"] == 1
        assert summary["pareto_ok"] is False


class TestSelfBleu:
    def test_hand_computed_unigram_value(self):
        assert self_bleu([["a", "b", "a"], ["a", "c"]], 1) == pytest.approx(5 / 12)

    def test_identical_samples_score_one(self):
        assert self_bleu([[1, 2, 3]] * 3, 2) == 1.0

    def test_disjoint_samples_score_zero(self):
        assert self_bleu([[1, 1], [2, 2], [3, 3]], 1) == 0.0

    def test_bigram_clipping(self):
        # hyp [1,1,1] has bigram (1,1) twice; reference supplies it only once
        assert self_bleu([[1, 1, 1], [1, 1, 2]], 2) == pytest.approx((0.5 + 0.5) / 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            self_bleu([[1, 2]], 1)
        with pytest.raises(ValueError):
            self_bleu([[1], [1, 2]], 2)
