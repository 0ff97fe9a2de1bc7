import numpy as np
import pytest

from conftest import make_instance, sticky_chain
from maskorder.core import final_tokens, validate_partition
from maskorder.denoiser import LOG_FLOOR, MarkovDenoiser, extract_features
from maskorder.merge import merge_trajectory
from maskorder.ni_sampler import ConstantIndicator, NIConfig, ni_decode, oracle_indicator_decode
from maskorder.orders import DecodeConfig, commit_token, decode, select_positions


class CountingDenoiser:
    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.config_id = inner.config_id
        self.queries = 0
        self.outs = []

    def query(self, seq):
        self.queries += 1
        self.outs.append(self.inner.query(seq))
        return self.outs[-1]


class AlternatingIndicator:
    """Gate that fires on every other row it scores and keeps each batch."""

    def __init__(self):
        self.batches = []

    def score_bundles(self, features):
        self.batches.append(features)
        return (np.arange(len(features)) % 2).astype(np.float64)


class TestNIConfig:
    def test_eps_phi_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                NIConfig(eps_phi=bad)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            NIConfig(base=DecodeConfig(temperature=0.0))

    def test_defaults(self):
        cfg = NIConfig()
        assert cfg.base.threshold == 0.9
        assert cfg.eps_phi == 0.9
        assert (cfg.k1, cfg.k2) == (4, 8)


class TestGateIdentities:
    def test_disabled_gate_reduces_to_the_base_sampler(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        base_cfg = DecodeConfig(threshold=0.7, seed=0)
        reference = decode(den, (1, 2), 16, base_cfg)
        gated = ni_decode(den, ConstantIndicator(0.0), (1, 2), 16, NIConfig(base=base_cfg, k1=2, k2=2))
        assert gated.steps == reference.steps

    def test_always_on_gate_decodes_in_one_step(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        traj = ni_decode(den, ConstantIndicator(1.0), (1,), 12, NIConfig(k1=2, k2=2))
        assert traj.n == 1
        assert len(traj.steps[0]) == 12

    def test_zero_threshold_gate_also_fires_everywhere(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        traj = ni_decode(den, ConstantIndicator(0.0), (1,), 8, NIConfig(eps_phi=0.0, k1=2, k2=2))
        assert traj.n == 1

    def test_gate_fires_at_exact_equality(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        traj = ni_decode(den, ConstantIndicator(0.9), (1,), 8, NIConfig(eps_phi=0.9, k1=2, k2=2))
        assert traj.n == 1


class TestNIDecode:
    def test_one_query_per_step(self):
        den = CountingDenoiser(MarkovDenoiser(sticky_chain(4, 0.8)))
        traj = ni_decode(den, ConstantIndicator(0.0), (1,), 10, NIConfig(k1=2, k2=2))
        assert den.queries == traj.n

    def test_output_is_a_valid_partition(self):
        den = MarkovDenoiser(sticky_chain(6, 0.6))
        traj = ni_decode(den, ConstantIndicator(0.5), (0, 3), 20, NIConfig(eps_phi=0.5, k1=3, k2=3))
        assert validate_partition(traj, range(20)).ok

    def test_meta_fields(self):
        den = MarkovDenoiser(sticky_chain(4, 0.8))
        traj = ni_decode(den, ConstantIndicator(0.0), (1,), 4, NIConfig(k1=2, k2=2))
        assert traj.meta["sampler"] == "ni"
        assert traj.meta["eps_phi"] == 0.9

    def test_random_mode_is_reproducible(self):
        den = MarkovDenoiser(sticky_chain(4, 0.6))
        cfg = NIConfig(base=DecodeConfig(threshold=0.7, temperature=1.0, seed=5), k1=2, k2=2)
        a = ni_decode(den, ConstantIndicator(0.95), (0,), 12, cfg)
        b = ni_decode(den, ConstantIndicator(0.95), (0,), 12, cfg)
        assert a.steps == b.steps
        assert validate_partition(a, range(12)).ok

    def test_random_mode_commits_the_sampled_token_through_the_gate(self):
        # with an always-on gate everything is revealed in step 1 from sampled
        # tokens, so different seeds should eventually produce different outputs
        den = MarkovDenoiser(sticky_chain(4, 0.5))
        outs = set()
        for seed in range(8):
            cfg = NIConfig(base=DecodeConfig(temperature=1.5, seed=seed), eps_phi=0.0, k1=2, k2=2)
            traj = ni_decode(den, ConstantIndicator(0.0), (0,), 6, cfg)
            assert traj.n == 1
            outs.add(tuple(final_tokens(traj)))
        assert len(outs) > 1


class TestIndicatorBatches:
    @pytest.mark.parametrize("temperature", [None, 1.0])
    def test_one_batch_per_step_over_the_positions_the_base_rule_left(self, temperature):
        den = CountingDenoiser(MarkovDenoiser(sticky_chain(5, 0.6)))
        base = DecodeConfig(threshold=0.8, temperature=temperature, seed=3)
        indicator = AlternatingIndicator()
        prompt = (0, 2)
        traj = ni_decode(den, indicator, prompt, 16, NIConfig(base=base, eps_phi=0.9, k1=3, k2=4))
        # the per-position loop the batch code replaced, drawing from the
        # generator in the same order: base picks, then every other position
        rng = np.random.default_rng(base.seed)
        batches = iter(indicator.batches)
        for out, step in zip(den.outs, traj.steps):
            committed = dict(step)
            picked = sorted(select_positions(out, base))
            for pos in picked:
                assert committed[pos - len(prompt)] == commit_token(out.row(pos), temperature, rng)
            rest = [j for j, pos in enumerate(out.positions) if pos not in picked]
            if not rest:
                continue
            features = next(batches)
            assert len(features) == len(rest)
            ranked = extract_features(out, rest, 3, 4)
            for i, j in enumerate(rest):
                pos = out.positions[j] - len(prompt)
                tok = commit_token(out.dists[j], temperature, rng)
                assert features.top_tokens[i, 0] == tok
                assert features.top_logits[i, 0] == np.log(max(out.dists[j, tok], LOG_FLOOR))
                # the gate fired on odd rows only
                assert committed.get(pos) == (tok if i % 2 else None)
            if temperature is None:
                assert np.array_equal(features.top_tokens, ranked.top_tokens)
                assert np.array_equal(features.top_logits, ranked.top_logits)
            else:
                # only the top-1 slots hold the sampled token
                assert np.array_equal(features.top_tokens[:, 1:], ranked.top_tokens[:, 1:])
                assert np.array_equal(features.top_logits[:, 1:], ranked.top_logits[:, 1:])
            assert np.array_equal(features.hidden, ranked.hidden)
        assert next(batches, None) is None
        assert len(indicator.batches) >= 2


class TestOracleIndicatorDecode:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_merge_oracle(self, seed):
        den, record = make_instance(seed)
        merged, _ = merge_trajectory(record.trajectory, record.base(), den)
        oracle = oracle_indicator_decode(den, record)
        assert oracle.steps == merged.steps

    @pytest.mark.parametrize("seed", range(6))
    def test_preserves_the_reference_output(self, seed):
        den, record = make_instance(seed)
        oracle = oracle_indicator_decode(den, record)
        assert final_tokens(oracle) == final_tokens(record.trajectory)
        assert validate_partition(oracle, range(record.gen_len)).ok

    def test_meta_marks_the_sampler(self):
        den, record = make_instance(0)
        assert oracle_indicator_decode(den, record).meta["sampler"] == "oracle-indicator"
