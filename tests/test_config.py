"""Configuration and preset tests (Table 8, Section 4.1 derivations)."""

import dataclasses
import pickle

import pytest

from repro.common.config import (
    CacheLevelConfig,
    HybridMemoryConfig,
    MDMConfig,
    MemTimings,
    ProFessConfig,
    STCConfig,
    SystemConfig,
    paper_quad_core,
    paper_single_core,
)
from repro.common.errors import ConfigError
from repro.common.units import KB, MB


class TestMemTimings:
    def test_dram_defaults_match_table8(self):
        t = MemTimings.dram()
        assert t.t_rcd_ns == 13.75
        assert t.t_wr_ns == 15.0
        assert t.cl_ns == 13.75
        assert t.t_rp_ns == 13.75

    def test_nvm_derivation(self):
        nvm = MemTimings.nvm_from_dram()
        assert nvm.t_rcd_ns == pytest.approx(137.5)
        assert nvm.t_wr_ns == pytest.approx(275.0)
        assert nvm.cl_ns == 13.75

    def test_cycles(self):
        t = MemTimings.dram()
        assert t.t_rcd == 44
        assert t.line_burst == 16  # 5 ns

    def test_read_latencies(self):
        t = MemTimings.dram()
        assert t.read_hit_latency() == t.cl + t.line_burst
        assert t.read_miss_latency() == t.t_rp + t.t_rcd + t.cl + t.line_burst


class TestHybridGeometry:
    def test_group_size_is_nine(self):
        assert HybridMemoryConfig().group_size == 9

    def test_groups_per_channel(self):
        cfg = HybridMemoryConfig(m1_capacity_per_channel=2 * MB)
        assert cfg.groups_per_channel == 1024

    def test_blocks_per_row(self):
        assert HybridMemoryConfig().blocks_per_row == 4

    def test_lines_per_block(self):
        assert HybridMemoryConfig().lines_per_block == 32

    def test_translation_bits(self):
        # ceil(log2 9) = 4, as in Section 2.3.
        assert HybridMemoryConfig().translation_bits_per_location == 4

    def test_rejects_non_power_of_two_regions(self):
        with pytest.raises(ConfigError):
            HybridMemoryConfig(num_regions=100)

    def test_rejects_too_small_m1(self):
        with pytest.raises(ConfigError):
            HybridMemoryConfig(m1_capacity_per_channel=256 * KB)

    def test_rejects_non_power_of_two_groups_per_channel(self):
        # 1,536 groups: a multiple of the block size, not a power of two.
        with pytest.raises(ConfigError, match="groups per channel"):
            HybridMemoryConfig(m1_capacity_per_channel=3 * MB)

    def test_rejects_non_power_of_two_lines_per_block(self):
        # 1.5-KB blocks of 24 lines, 3-KB pages.
        with pytest.raises(ConfigError, match="lines per block"):
            HybridMemoryConfig(
                m1_capacity_per_channel=1024 * 1536,
                block_size=1536,
                page_size=3072,
            )


class TestSystemDerived:
    def test_total_capacity_is_nine_m1(self):
        cfg = paper_quad_core(scale=64)
        assert cfg.total_capacity == 9 * cfg.total_m1_capacity

    def test_paper_swap_latency_about_796ns(self):
        cfg = paper_quad_core(scale=64)
        latency_ns = cfg.swap_latency_cycles() / 3.2
        # Section 4.1: analytic 796.25 ns, observed ~820 ns (within 3%).
        assert latency_ns == pytest.approx(796.25, rel=0.05)

    def test_derived_k_is_seven(self):
        # Section 4.1: K = ceil(796.25 / 123.75) = 7 (the paper rounds to 8).
        assert paper_quad_core(scale=64).derived_k() == 7

    def test_pom_k_default_is_eight(self):
        assert paper_quad_core().pom.k == 8

    def test_min_benefit_matches_k(self):
        cfg = paper_quad_core()
        assert cfg.mdm.min_benefit == cfg.pom.k

    def test_write_weight_is_eight(self):
        assert paper_quad_core().write_access_weight == 8


class TestPresets:
    def test_quad_shape(self):
        cfg = paper_quad_core(scale=64)
        assert cfg.num_cores == 4
        assert cfg.num_channels == 2
        assert cfg.hybrid.m1_capacity_per_channel == 2 * MB

    def test_single_shape(self):
        cfg = paper_single_core(scale=64)
        assert cfg.num_cores == 1
        assert cfg.num_channels == 1
        assert cfg.hybrid.m1_capacity_per_channel == 1 * MB

    def test_unscaled_matches_paper(self):
        cfg = paper_quad_core()
        assert cfg.total_m1_capacity == 256 * MB
        assert cfg.stc.capacity == 64 * KB
        assert cfg.stc.num_entries == 8 * 1024
        assert cfg.rsm.m_samp == 128 * 1024

    def test_scale_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            paper_quad_core(scale=48)

    def test_stc_scales_with_m1(self):
        big = paper_quad_core(scale=1)
        small = paper_quad_core(scale=64)
        ratio_groups = big.total_groups / small.total_groups
        ratio_stc = big.stc.num_entries / small.stc.num_entries
        assert ratio_groups == ratio_stc

    def test_ratio_override(self):
        cfg = paper_quad_core(scale=64, m2_to_m1_ratio=4)
        assert cfg.hybrid.group_size == 5
        assert cfg.total_capacity == 5 * cfg.total_m1_capacity

    def test_m_samp_override(self):
        cfg = paper_quad_core(scale=64, m_samp=9999)
        assert cfg.rsm.m_samp == 9999

    def test_with_overrides(self):
        cfg = dataclasses.replace(paper_quad_core(scale=64), frfcfs_cap=2)
        assert cfg.frfcfs_cap == 2

    def test_rejects_frfcfs_cap_below_one(self):
        # Rejected where the config is built, before any cache token is
        # minted or a channel is constructed.
        with pytest.raises(ConfigError, match="frfcfs_cap"):
            dataclasses.replace(paper_quad_core(scale=64), frfcfs_cap=0)

    def test_configs_are_frozen(self):
        cfg = paper_quad_core(scale=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_cores = 2


class TestSubConfigs:
    def test_mdm_qac_value_count(self):
        assert MDMConfig().num_qac_values == 4

    def test_mdm_counter_max(self):
        assert MDMConfig().access_counter_max == 63

    def test_profess_factors(self):
        p = ProFessConfig()
        assert p.sf_factor == pytest.approx(1.03125)
        assert p.product_factor == pytest.approx(1.0625)

    def test_stc_entry_count(self):
        assert STCConfig(capacity=64 * KB).num_entries == 8192

    def test_cache_level_sets(self):
        cfg = CacheLevelConfig(32 * KB, 4, 2)
        assert cfg.num_sets == 128

    def test_cache_level_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(1000, 3, 2)

    def test_system_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)

    @pytest.mark.parametrize("channels", [0, 3, 6])
    def test_system_rejects_non_power_of_two_channels(self, channels):
        with pytest.raises(ConfigError, match="num_channels"):
            dataclasses.replace(
                paper_quad_core(scale=64), num_channels=channels
            )

    def test_stc_rejects_a_same_cycle_probe(self):
        with pytest.raises(ConfigError, match="latency_cycles"):
            STCConfig(latency_cycles=0)


class TestTokenMemo:
    """``cache_token()`` digests once per instance; the memo is not a
    field."""

    def test_equal_configs_share_a_token(self):
        first, second = paper_quad_core(scale=64), paper_quad_core(scale=64)
        assert first is not second
        assert first.cache_token() == second.cache_token()
        assert "_cache_token" in vars(first)

    def test_second_call_does_not_digest(self, monkeypatch):
        from repro.common import config as config_module

        config = paper_single_core(scale=128)
        token = config.cache_token()
        monkeypatch.setattr(
            config_module,
            "canonical_digest",
            lambda value: pytest.fail("digested twice"),
        )
        assert config.cache_token() == token

    def test_memo_survives_pickling(self, monkeypatch):
        from repro.common import config as config_module

        config = paper_quad_core(scale=128)
        token = config.cache_token()
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        monkeypatch.setattr(
            config_module,
            "canonical_digest",
            lambda value: pytest.fail("digested after unpickling"),
        )
        assert restored.cache_token() == token

    def test_replace_recomputes(self):
        config = paper_quad_core(scale=128)
        token = config.cache_token()
        changed = dataclasses.replace(config, frfcfs_cap=config.frfcfs_cap + 1)
        assert "_cache_token" not in vars(changed)
        assert changed.cache_token() != token
        assert dataclasses.replace(config).cache_token() == token
        assert "_cache_token" not in vars(dataclasses.replace(config))

    def test_memo_leaves_equality_hash_and_repr_unchanged(self):
        memoized, plain = paper_quad_core(scale=64), paper_quad_core(scale=64)
        before_hash, before_repr = hash(memoized), repr(memoized)
        memoized.cache_token()
        assert memoized == plain
        assert hash(memoized) == hash(plain) == before_hash
        assert repr(memoized) == repr(plain) == before_repr
