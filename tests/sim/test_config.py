"""SimConfig: Table 1 defaults, derived quantities, validation rules."""

import pytest

from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode, SimConfig


class TestTable1Defaults:
    """The config's defaults ARE Table 1 of the paper."""

    def test_link_bandwidth(self):
        assert SimConfig().link_bandwidth_gbps == 2.5

    def test_ports_per_switch(self):
        assert SimConfig().ports_per_switch == 5

    def test_vls_per_link(self):
        assert SimConfig().num_vls == 16

    def test_mtu(self):
        assert SimConfig().mtu_bytes == 1024

    def test_sixteen_nodes(self):
        assert SimConfig().num_nodes == 16

    def test_four_partitions(self):
        assert SimConfig().num_partitions == 4


class TestDerived:
    def test_byte_time_at_2g5(self):
        # 8 bits / 2.5 Gbps = 3.2 ns = 3200 ps
        assert SimConfig().byte_time_ps == 3200

    def test_byte_time_at_10g(self):
        assert SimConfig(link_bandwidth_gbps=10.0).byte_time_ps == 800

    def test_time_conversions(self):
        cfg = SimConfig(sim_time_us=1500.5, warmup_us=2.25)
        assert cfg.sim_time_ps == 1_500_500_000
        assert cfg.warmup_ps == 2_250_000


class TestValidation:
    def test_default_is_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_bandwidth_gbps": 0},
            {"link_bandwidth_gbps": -1},
            {"mesh_width": 0},
            {"num_attackers": 17},
            {"num_attackers": -1},
            {"attack_duty_cycle": 1.5},
            {"num_partitions": 0},
            {"num_partitions": 20},
            {"vl_buffer_packets": 0},
            {"num_vls": 1},
            {"mtu_bytes": 32},
            {"mtu_bytes": 8192},
            {"partition_layout": "diagonal"},
            {"attacker_classes": ("warp-speed",)},
            {"attack_dest_strategy": "broadcast"},
            {"bloom_bits": 4},
            {"bloom_hashes": 0},
            {"bloom_hashes": 17},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs).validate()

    def test_horizon_must_outlast_warmup(self):
        """A run that ends inside its warmup records no delivery, so it
        would print a table of zeros."""
        for sim_time_us in (50.0, 100.0):
            with pytest.raises(ValueError, match="must exceed warmup_us=100"):
                SimConfig(sim_time_us=sim_time_us).validate()
        SimConfig(sim_time_us=100.5).validate()
        SimConfig(sim_time_us=50.0, warmup_us=0.0).validate()

    def test_fat_tree_k_must_fit_the_route_table_byte(self):
        """Ports are route-table bytes and 0xFF means no route, so a k-port
        fat-tree switch needs k <= 254."""
        SimConfig(topology="fat_tree", fat_tree_k=254).validate()
        with pytest.raises(ValueError, match="fat_tree_k=256 exceeds 254"):
            SimConfig(topology="fat_tree", fat_tree_k=256).validate()

    def test_inpacket_tag_requires_bloom_mode(self):
        with pytest.raises(ValueError):
            SimConfig(bloom_inpacket_tag=True).validate()
        with pytest.raises(ValueError):
            SimConfig(
                enforcement=EnforcementMode.SIF, bloom_inpacket_tag=True
            ).validate()
        SimConfig(
            enforcement=EnforcementMode.BLOOM, bloom_inpacket_tag=True
        ).validate()

    def test_bloom_params_valid_in_any_mode(self):
        """bloom_bits/bloom_hashes are plain knobs — harmless outside bloom
        mode so sweeps can vary them alongside the enforcement axis."""
        SimConfig(bloom_bits=8, bloom_hashes=1).validate()
        SimConfig(
            enforcement=EnforcementMode.BLOOM, bloom_bits=4096, bloom_hashes=16
        ).validate()

    def test_mac_requires_keymgmt(self):
        with pytest.raises(ValueError):
            SimConfig(auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.NONE).validate()

    def test_mac_with_keymgmt_ok(self):
        SimConfig(auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.PARTITION).validate()
        SimConfig(auth=AuthMode.HMAC_SHA1, keymgmt=KeyMgmtMode.QP).validate()

    def test_replace_validates(self):
        cfg = SimConfig()
        with pytest.raises(ValueError):
            cfg.replace(num_partitions=0)

    def test_replace_returns_new(self):
        cfg = SimConfig()
        new = cfg.replace(seed=99)
        assert new.seed == 99
        assert cfg.seed != 99


class TestShardValidation:
    def _shard_cfg(self, **overrides):
        base = dict(topology="fat_tree", fat_tree_k=4, shards=2)
        base.update(overrides)
        return SimConfig(**base)

    def test_valid_sharded_config_passes(self):
        self._shard_cfg().validate()
        self._shard_cfg(shards=4, shard_transport="process").validate()

    def test_shards_require_fat_tree(self):
        with pytest.raises(ValueError, match="requires topology"):
            self._shard_cfg(topology="mesh").validate()

    def test_shards_must_divide_k(self):
        with pytest.raises(ValueError, match="must divide"):
            self._shard_cfg(shards=3).validate()

    def test_zero_lookahead_rejected(self):
        # any zero-latency crossing kind collapses the conservative
        # window to nothing — each must be caught at validate() time
        for knob in ("wire_delay_ns", "credit_return_delay_ns",
                     "sm_trap_latency_us"):
            with pytest.raises(ValueError, match="nonzero minimum"):
                self._shard_cfg(**{knob: 0.0}).validate()

    def test_keymgmt_incompatible_with_shards(self):
        with pytest.raises(ValueError, match="keymgmt == NONE"):
            self._shard_cfg(
                auth=AuthMode.UMAC, keymgmt=KeyMgmtMode.PARTITION
            ).validate()

    def test_bad_transport_and_count(self):
        with pytest.raises(ValueError, match="'inline' or 'process'"):
            self._shard_cfg(shard_transport="thread").validate()
        with pytest.raises(ValueError, match=">= 1"):
            self._shard_cfg(shards=0).validate()

    def test_single_shard_unconstrained(self):
        # shards=1 is the classic engine: no fat-tree requirement
        SimConfig(topology="mesh", shards=1).validate()


class TestEnums:
    def test_enforcement_values(self):
        assert {m.value for m in EnforcementMode} == {
            "none", "dpt", "if", "sif", "bloom",
        }

    def test_auth_values(self):
        assert {m.value for m in AuthMode} == {
            "icrc", "umac", "hmac_md5", "hmac_sha1", "pmac", "stream", "aes_cmac",
        }

    def test_keymgmt_values(self):
        assert {m.value for m in KeyMgmtMode} == {"none", "partition", "qp"}
