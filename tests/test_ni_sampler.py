import numpy as np
import pytest

from conftest import make_instance, sticky_chain
from maskorder.core import final_tokens, validate_partition
from maskorder.denoiser import MarkovDenoiser
from maskorder.merge import merge_trajectory
from maskorder.ni_sampler import ConstantIndicator, NIConfig, ni_decode, oracle_indicator_decode
from maskorder.orders import DecodeConfig, decode


class CountingDenoiser:
    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.config_id = inner.config_id
        self.queries = 0

    def query(self, seq):
        self.queries += 1
        return self.inner.query(seq)


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
