"""Port filters: the DPT/IF table filter's accept/drop decisions and lookup
costs, the trap-driven control plane SIF and Bloom share (trap → enable →
age out), SIF's whitelist flip, the Bloom never-under-filters contract, and
fabric wiring."""

import random

import pytest

from repro.core import (
    BloomPortFilter,
    SIFPortFilter,
    TablePortFilter,
    install_enforcement,
)
from repro.iba.keys import PKey
from repro.iba.switch import HCA_PORT
from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.engine import Engine, PS_PER_US

from tests.conftest import make_packet

VALID = {1, 2, 3}


class TestTablePortFilter:
    """The always-on filter behind DPT (a subnet-wide table) and IF (a
    node-scoped table)."""

    def test_valid_accepted_with_lookup_cost(self):
        f = TablePortFilter(VALID, lookup_ns=50.0)
        ok, cost = f.process(make_packet(pkey=PKey(0x8001)), 0)
        assert ok and cost == 50.0
        assert f.lookups == 1

    def test_invalid_dropped_still_costs(self):
        f = TablePortFilter(VALID, lookup_ns=50.0)
        ok, cost = f.process(make_packet(pkey=PKey(0x8777)), 0)
        assert not ok and cost == 50.0
        assert f.drops == 1

    def test_membership_bit_ignored_for_filtering(self):
        f = TablePortFilter(VALID, lookup_ns=1.0)
        ok, _ = f.process(make_packet(pkey=PKey(0x0001)), 0)  # limited member
        assert ok

    def test_management_packets_pass(self):
        f = TablePortFilter(VALID, lookup_ns=1.0)
        ok, _ = f.process(make_packet(pkey=PKey(0xFFFF)), 0)
        assert ok

    def test_node_scoped_table(self):
        f = TablePortFilter({2}, lookup_ns=10.0)
        assert f.process(make_packet(pkey=PKey(0x8002)), 0)[0]
        assert not f.process(make_packet(pkey=PKey(0x8001)), 0)[0]

    def test_management_passes(self):
        f = TablePortFilter(set(), lookup_ns=10.0)
        assert f.process(make_packet(pkey=PKey(0xFFFF)), 0)[0]


class SIFStore:
    """Builds SIF filters and reads their exact Invalid_P_Key_Table."""

    @staticmethod
    def make(engine, partitions={1}, timeout_us=100.0):
        return SIFPortFilter(engine, partitions, lookup_ns=25.0, idle_timeout_us=timeout_us)

    @staticmethod
    def holds(f, pkey):
        return pkey.index in f.invalid_table

    @staticmethod
    def is_clear(f):
        return f.invalid_table == set()


class BloomStore:
    """Builds Bloom filters and reads their bit array."""

    @staticmethod
    def make(engine, partitions={1, 5}, timeout_us=1e6, bits=1024, hashes=4, **kw):
        return BloomPortFilter(
            engine, partitions, lookup_ns=25.0, idle_timeout_us=timeout_us,
            bloom_bits=bits, bloom_hashes=hashes, **kw,
        )

    @staticmethod
    def holds(f, pkey):
        return pkey.index in f.bloom

    @staticmethod
    def is_clear(f):
        return f.bloom.bits_set == 0 and f.registered_count == 0


class ControlPlaneCases:
    """The trap-driven control plane SIF and Bloom share, run against each
    filter by the test classes that mix in its store."""

    def test_idle_timeout_disables_and_clears(self, engine):
        f = self.make(engine, timeout_us=50.0)
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.enabled
        engine.run(until=round(200 * PS_PER_US))
        assert not f.enabled
        assert self.is_clear(f)
        assert f.deactivations == 1

    def test_violations_keep_it_alive(self, engine):
        f = self.make(engine, timeout_us=50.0)
        f.register_invalid(PKey(0x8999), engine.now)

        def attack_tick():
            f.process(make_packet(pkey=PKey(0x8999)), engine.now)
            if engine.now < 300 * PS_PER_US:
                engine.schedule(round(20 * PS_PER_US), attack_tick)

        attack_tick()
        engine.run(until=round(250 * PS_PER_US))
        assert f.enabled  # counter kept increasing

    def test_reactivation_after_timeout(self, engine):
        f = self.make(engine, timeout_us=50.0)
        f.register_invalid(PKey(0x8999), engine.now)
        engine.run(until=round(200 * PS_PER_US))
        assert not f.enabled
        f.register_invalid(PKey(0x8777), engine.now)
        assert f.enabled
        assert f.activations == 2


class TestSIFStateMachine(SIFStore, ControlPlaneCases):

    def test_idle_costs_nothing(self, engine):
        f = self.make(engine)
        ok, cost = f.process(make_packet(pkey=PKey(0x8999)), 0)
        assert ok and cost == 0.0  # disabled: attack passes, but free
        assert f.lookups == 0

    def test_registration_enables(self, engine):
        f = self.make(engine, partitions={1, 5})
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.enabled
        assert f.activations == 1
        ok, cost = f.process(make_packet(pkey=PKey(0x8999)), engine.now)
        assert not ok and cost == 25.0
        assert f.violation_counter == 1

    def test_blacklist_mode_lets_valid_through(self, engine):
        f = self.make(engine, partitions={1, 5})
        f.register_invalid(PKey(0x8999), engine.now)
        assert not f.whitelist_mode
        ok, _ = f.process(make_packet(pkey=PKey(0x8001)), engine.now)
        assert ok

    def test_blacklist_misses_unregistered_invalid(self, engine):
        """Until the table flips to whitelist, an unregistered random P_Key
        still leaks — the window the paper's Figure 5 discussion is about."""
        f = self.make(engine, partitions={1, 5})
        f.register_invalid(PKey(0x8999), engine.now)
        ok, _ = f.process(make_packet(pkey=PKey(0x8888)), engine.now)
        assert ok  # leak: not registered yet, table still below p entries

    def test_whitelist_flip_at_table_parity(self, engine):
        """'The Invalid_P_Key_Table should be used as long as the number of
        entries is smaller than the partition table.'"""
        f = self.make(engine, partitions={1})
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.whitelist_mode  # 1 invalid entry >= 1 partition entry
        assert not f.process(make_packet(pkey=PKey(0x8888)), engine.now)[0]
        assert f.process(make_packet(pkey=PKey(0x8001)), engine.now)[0]

    def test_management_always_passes(self, engine):
        f = self.make(engine, partitions={1})
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.process(make_packet(pkey=PKey(0xFFFF)), engine.now)[0]


class TestInstallEnforcement:
    def _fabric(self, mode):
        from repro.sim.runner import build_experiment

        cfg = SimConfig(
            mesh_width=2, mesh_height=2, num_partitions=2,
            enable_realtime=False, enable_best_effort=False,
            enforcement=mode, sim_time_us=100.0, warmup_us=0.0, seed=1,
        )
        engine, fabric, *_ = build_experiment(cfg)
        return fabric

    def test_none_installs_nothing(self):
        fabric = self._fabric(EnforcementMode.NONE)
        for sw in fabric.all_switches():
            assert all(f is None for f in sw.filters)

    def test_dpt_on_every_port(self):
        fabric = self._fabric(EnforcementMode.DPT)
        subnet = fabric.sm.valid_pkey_indices()
        for sw in fabric.all_switches():
            for port in range(sw.num_ports):
                assert sw.filters[port].partition_table == subnet

    def test_if_only_on_hca_ports(self):
        fabric = self._fabric(EnforcementMode.IF)
        for lid in fabric.lids:
            sw = fabric.ingress_switch(lid)
            assert fabric.ingress_port(lid) == HCA_PORT
            assert sw.filters[HCA_PORT].partition_table == fabric.sm.partitions_of(lid)
            assert all(f is None for f in sw.filters[HCA_PORT + 1 :])
        assert not fabric.sm.registration_hooks  # always on: no trap wiring

    def test_sif_wires_sm_hooks(self):
        fabric = self._fabric(EnforcementMode.SIF)
        assert set(fabric.sm.registration_hooks) == set(fabric.lids)
        for lid in fabric.lids:
            sw = fabric.ingress_switch(lid)
            assert isinstance(sw.filters[HCA_PORT], SIFPortFilter)

    def test_if_tables_are_node_scoped(self):
        fabric = self._fabric(EnforcementMode.IF)
        sm = fabric.sm
        for lid in fabric.lids:
            filt = fabric.ingress_switch(lid).filters[HCA_PORT]
            assert filt.partition_table == sm.partitions_of(lid)

    def test_dpt_tables_are_subnet_wide(self):
        fabric = self._fabric(EnforcementMode.DPT)
        sm = fabric.sm
        filt = fabric.all_switches()[0].filters[0]
        assert filt.partition_table == sm.valid_pkey_indices()


class TestSIFSprayRegression:
    """Bugfix: `register_invalid` must stop inserting once whitelist mode
    is reached — a wide P_Key spray used to grow Invalid_P_Key_Table
    without bound, defeating the paper's own table-size rationale."""

    def test_invalid_table_bounded_under_10k_pkey_spray(self, engine):
        partitions = {1, 2, 3}
        f = SIFPortFilter(engine, partitions, lookup_ns=25.0, idle_timeout_us=1e6)
        for i in range(10_000):
            f.register_invalid(PKey((i + 1) | PKey.FULL_MEMBER_BIT), engine.now)
        assert len(f.invalid_table) <= len(f.partition_table)
        assert f.whitelist_mode
        assert f.enabled

    def test_rejected_registrations_counted(self, engine):
        f = SIFPortFilter(engine, {1}, lookup_ns=25.0, idle_timeout_us=1e6)
        for i in range(50):
            f.register_invalid(PKey((i + 1) | PKey.FULL_MEMBER_BIT), engine.now)
        assert len(f.invalid_table) == 1  # parity with the partition table
        assert f.rejected_registrations == 49

    def test_whitelist_still_rejects_sprayed_pkeys(self, engine):
        """The bound loses nothing: whitelist mode already drops every
        P_Key outside the partition table, registered or not."""
        f = SIFPortFilter(engine, {1, 2}, lookup_ns=25.0, idle_timeout_us=1e6)
        for i in range(100):
            f.register_invalid(PKey((i + 10) | PKey.FULL_MEMBER_BIT), engine.now)
        assert not f.process(make_packet(pkey=PKey(0x5000 | PKey.FULL_MEMBER_BIT)), engine.now)[0]
        assert f.process(make_packet(pkey=PKey(0x0001 | PKey.FULL_MEMBER_BIT)), engine.now)[0]


class TestSIFZeroPartitionRegression:
    """Bugfix: the whitelist flip used ``max(1, len(partition_table))``, so
    a node the SM put in *no* partition flipped to an **empty whitelist** on
    its very first registration — silently dropping every non-management
    packet forever.  The paper's flip rationale (table parity) gives a
    zero-partition port no whitelist to flip to; it now stays a blacklist
    capped at one entry."""

    def test_first_registration_does_not_flip_to_empty_whitelist(self, engine):
        f = SIFPortFilter(engine, set(), lookup_ns=25.0, idle_timeout_us=1e6)
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.enabled
        assert not f.whitelist_mode
        # the registered key dies; an unrelated key still passes
        assert not f.process(make_packet(pkey=PKey(0x8999)), engine.now)[0]
        assert f.process(make_packet(pkey=PKey(0x8042)), engine.now)[0]

    def test_blacklist_capped_at_one_entry(self, engine):
        f = SIFPortFilter(engine, set(), lookup_ns=25.0, idle_timeout_us=1e6)
        for i in range(20):
            f.register_invalid(PKey((i + 1) | PKey.FULL_MEMBER_BIT), engine.now)
        assert len(f.invalid_table) == 1
        assert f.rejected_registrations == 19
        assert not f.whitelist_mode

    def test_management_still_passes(self, engine):
        f = SIFPortFilter(engine, set(), lookup_ns=25.0, idle_timeout_us=1e6)
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.process(make_packet(pkey=PKey(0xFFFF)), engine.now)[0]


class ReactivationRaceCases:
    """Bugfix: a registration landing between two idle checks — with no
    drop-driven counter movement in the window — used to be invisible to
    the next ``_idle_check``, which deactivated on its stale counter
    snapshot and silently discarded the just-registered key."""

    def test_registration_between_checks_keeps_filter_alive(self, engine):
        f = self.make(engine, {1, 5}, timeout_us=50.0)
        f.register_invalid(PKey(0x8999), engine.now)
        # second trap lands just before the 50 us idle check; no violations
        # (drops) occur in between, so only the race guard keeps it alive
        engine.schedule(
            round(49 * PS_PER_US),
            lambda: f.register_invalid(PKey(0x8777), engine.now),
        )
        engine.run(until=round(60 * PS_PER_US))
        assert f.enabled
        assert self.holds(f, PKey(0x8777))
        # ...and with no further activity the *next* check does deactivate
        engine.run(until=round(160 * PS_PER_US))
        assert not f.enabled

    def test_full_reactivation_cycle(self, engine):
        f = self.make(engine, {1, 5}, timeout_us=50.0)
        f.register_invalid(PKey(0x8999), engine.now)
        engine.run(until=round(120 * PS_PER_US))
        assert not f.enabled and self.is_clear(f)
        f.register_invalid(PKey(0x8777), engine.now)
        assert f.enabled
        # no stale first-cycle key
        assert self.holds(f, PKey(0x8777)) and not self.holds(f, PKey(0x8999))
        engine.run(until=round(300 * PS_PER_US))
        assert not f.enabled
        assert f.activations == 2 and f.deactivations == 2


class TestSIFReactivationRace(SIFStore, ReactivationRaceCases):
    pass


class TestBloomReactivationRace(BloomStore, ReactivationRaceCases):
    pass


class TestBloomPortFilter(BloomStore, ControlPlaneCases):

    def test_idle_costs_nothing(self, engine):
        f = self.make(engine)
        ok, cost = f.process(make_packet(pkey=PKey(0x8999)), 0)
        assert ok and cost == 0.0
        assert f.lookups == 0

    def test_registration_enables_and_drops(self, engine):
        f = self.make(engine)
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.enabled and f.activations == 1
        ok, cost = f.process(make_packet(pkey=PKey(0x8999)), engine.now)
        assert not ok and cost == 25.0
        assert f.violation_counter == 1

    def test_management_always_passes(self, engine):
        f = self.make(engine)
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.process(make_packet(pkey=PKey(0xFFFF)), engine.now)[0]

    def test_memory_constant_under_spray(self, engine):
        """The design point: a 10k-P_Key spray leaves the modeled hardware
        state at exactly m/8 bytes."""
        f = self.make(engine, partitions=set(), bits=256, hashes=4)
        for i in range(10_000):
            f.register_invalid(PKey((i + 1) | PKey.FULL_MEMBER_BIT), engine.now)
        assert f.bloom.memory_bytes == 32
        assert not f.whitelist_mode  # zero-partition port never flips

    def test_whitelist_flips_on_raw_count(self, engine):
        """Raw registrations ≥ distinct keys, so the flip is never later
        than SIF's — here it is strictly earlier (same key twice)."""
        f = self.make(engine, partitions={1, 5})
        f.register_invalid(PKey(0x8999), engine.now)
        assert not f.whitelist_mode
        f.register_invalid(PKey(0x8999), engine.now)
        assert f.whitelist_mode
        assert not f.process(make_packet(pkey=PKey(0x8888)), engine.now)[0]

    def test_whitelist_still_honours_bloom(self, engine):
        """A partition-valid key registered via trap (the dlid-swap case)
        keeps dying after the whitelist flip."""
        f = self.make(engine, partitions={1, 5})
        f.register_invalid(PKey(0x8001), engine.now)  # valid key, trapped
        f.register_invalid(PKey(0x8999), engine.now)  # flip
        assert f.whitelist_mode
        assert not f.process(make_packet(pkey=PKey(0x8001)), engine.now)[0]
        assert f.process(make_packet(pkey=PKey(0x8005)), engine.now)[0]
        assert f.false_positive_drops == 0  # both drops are exact

    def test_false_positive_counted_separately(self, engine):
        f = self.make(engine, partitions=set(range(1, 12)), bits=8, hashes=1)
        reg = PKey(0x8999)
        f.register_invalid(reg, engine.now)
        target = f.bloom.positions(reg.index)
        collider = next(
            k for k in range(0x100, 0x1000)
            if k != reg.index and f.bloom.positions(k) == target
        )
        ok, _ = f.process(
            make_packet(pkey=PKey(collider | PKey.FULL_MEMBER_BIT)), engine.now
        )
        assert not ok
        assert f.drops == 1 and f.false_positive_drops == 1

    def test_never_under_filters_vs_sif(self, engine):
        """The contract, on one interleaved registration/packet stream: any
        packet SIF drops, Bloom drops too (over-filtering is allowed, the
        reverse never)."""
        parts = {1, 2, 3}
        sif = SIFPortFilter(engine, parts, lookup_ns=1.0, idle_timeout_us=1e6)
        blm = BloomPortFilter(
            engine, parts, lookup_ns=1.0, idle_timeout_us=1e6,
            bloom_bits=64, bloom_hashes=2,  # tiny: false positives do occur
        )
        rng = random.Random(7)
        for _ in range(400):
            if rng.random() < 0.15:
                key = PKey(rng.randrange(1, 0x7FFF) | PKey.FULL_MEMBER_BIT)
                sif.register_invalid(key, engine.now)
                blm.register_invalid(key, engine.now)
            pkt = make_packet(
                pkey=PKey(rng.randrange(1, 0x7FFF) | PKey.FULL_MEMBER_BIT)
            )
            s_ok, _ = sif.process(pkt, engine.now)
            b_ok, _ = blm.process(pkt, engine.now)
            assert not (not s_ok and b_ok), "Bloom under-filtered vs SIF"
        assert int(blm.drops) >= int(sif.drops)
        assert int(blm.false_positive_drops) <= int(blm.drops)

    def test_idle_timeout_clears_all_state(self, engine):
        f = BloomPortFilter(
            engine, {1, 5}, lookup_ns=25.0, idle_timeout_us=50.0,
            bloom_bits=256, bloom_hashes=4,
        )
        f.register_invalid(PKey(0x8999), engine.now)
        engine.run(until=round(200 * PS_PER_US))
        assert not f.enabled
        assert f.bloom.bits_set == 0
        assert f.registered_count == 0
        assert f.deactivations == 1
        f.register_invalid(PKey(0x8777), engine.now)
        assert f.enabled and f.activations == 2
        assert PKey(0x8999).index not in f.bloom  # no stale first-cycle state


class TestBloomInPacketTag:
    def make(self, engine, **kw):
        return BloomPortFilter(
            engine, {1, 5}, lookup_ns=25.0, idle_timeout_us=1e6,
            bloom_bits=1024, bloom_hashes=4, salt=b"port-secret",
            inpacket_tag=True, **kw,
        )

    def test_untagged_packet_dropped_while_active(self, engine):
        """An attacker's raw injection bypasses HCA.submit and carries no
        tag — the capability variant kills it on the first probe.  With a
        partition-valid P_Key that is *over*-filtering relative to SIF
        (which would have passed it), so it lands in the fp counter."""
        f = self.make(engine)
        f.register_invalid(PKey(0x8999), engine.now)
        ok, _ = f.process(make_packet(pkey=PKey(0x8001)), engine.now)
        assert not ok
        assert f.tag_failures == 1
        assert f.false_positive_drops == 1

    def test_untagged_invalid_pkey_is_an_exact_drop(self, engine):
        """A sprayed (non-partition) key dying on the missing tag is not
        over-filtering — an exact whitelist kills it too."""
        f = self.make(engine)
        f.register_invalid(PKey(0x8999), engine.now)
        ok, _ = f.process(make_packet(pkey=PKey(0x8777)), engine.now)
        assert not ok
        assert f.tag_failures == 1
        assert f.false_positive_drops == 0

    def test_stamped_packet_passes(self, engine):
        f = self.make(engine)
        f.register_invalid(PKey(0x8999), engine.now)
        pkt = make_packet(pkey=PKey(0x8001))
        f.stamp_tag(pkt)
        assert pkt.bloom_tag is not None
        assert f.process(pkt, engine.now)[0]

    def test_stamper_refuses_invalid_pkeys(self, engine):
        """The prover only vouches for keys the node holds — a sprayed key
        gets no tag, so it cannot survive the verifier."""
        f = self.make(engine)
        pkt = make_packet(pkey=PKey(0x8999))  # not in partition table
        f.stamp_tag(pkt)
        assert pkt.bloom_tag is None

    def test_forged_tag_rejected(self, engine):
        f = self.make(engine)
        f.register_invalid(PKey(0x8999), engine.now)
        pkt = make_packet(pkey=PKey(0x8001))
        pkt.bloom_tag = 0xDEADBEEF
        assert not f.process(pkt, engine.now)[0]
        assert f.tag_failures == 1

    def test_inactive_filter_ignores_tags(self, engine):
        f = self.make(engine)
        assert f.process(make_packet(pkey=PKey(0x8001)), engine.now)[0]


class TestInstallBloom:
    def _fabric(self, **cfg_kw):
        from repro.sim.runner import build_experiment

        cfg = SimConfig(
            mesh_width=2, mesh_height=2, num_partitions=2,
            enable_realtime=False, enable_best_effort=False,
            enforcement=EnforcementMode.BLOOM, sim_time_us=100.0,
            warmup_us=0.0, seed=1, **cfg_kw,
        )
        engine, fabric, *_ = build_experiment(cfg)
        return fabric

    def test_bloom_wires_sm_hooks(self):
        fabric = self._fabric()
        assert set(fabric.sm.registration_hooks) == set(fabric.lids)
        for lid in fabric.lids:
            sw = fabric.ingress_switch(lid)
            filt = sw.filters[HCA_PORT]
            assert isinstance(filt, BloomPortFilter)
            assert filt.bloom.num_bits == SimConfig().bloom_bits

    def test_salts_are_per_port_distinct(self):
        fabric = self._fabric()
        salts = {
            fabric.ingress_switch(lid).filters[HCA_PORT].bloom.salt
            for lid in fabric.lids
        }
        assert len(salts) == len(set(fabric.lids))

    def test_inpacket_tag_wires_hca_stampers(self):
        fabric = self._fabric(bloom_inpacket_tag=True)
        for lid in fabric.lids:
            filt = fabric.ingress_switch(lid).filters[HCA_PORT]
            assert fabric.hca(lid).bloom_stamper == filt.stamp_tag

    def test_no_tag_no_stamper(self):
        fabric = self._fabric()
        assert all(fabric.hca(lid).bloom_stamper is None for lid in fabric.lids)


class TestInstallIdempotency:
    """Bugfix: a second ``install_enforcement`` used to silently rebuild
    every filter (colliding counter scopes, orphaned idle timers, clobbered
    SM hooks).  Same mode is now a no-op; a different mode is a hard error."""

    def _fabric(self, mode):
        from repro.sim.runner import build_experiment

        cfg = SimConfig(
            mesh_width=2, mesh_height=2, num_partitions=2,
            enable_realtime=False, enable_best_effort=False,
            enforcement=mode, sim_time_us=100.0, warmup_us=0.0, seed=1,
        )
        engine, fabric, *_ = build_experiment(cfg)
        return fabric

    @pytest.mark.parametrize(
        "mode",
        [EnforcementMode.NONE, EnforcementMode.DPT, EnforcementMode.IF,
         EnforcementMode.SIF, EnforcementMode.BLOOM],
    )
    def test_reinstall_same_mode_is_noop(self, mode):
        fabric = self._fabric(mode)
        before = [list(sw.filters) for sw in fabric.all_switches()]
        hooks_before = dict(fabric.sm.registration_hooks)
        install_enforcement(fabric, mode)  # second install: no-op
        after = [list(sw.filters) for sw in fabric.all_switches()]
        assert all(
            a is b for row_a, row_b in zip(before, after)
            for a, b in zip(row_a, row_b)
        )
        assert fabric.sm.registration_hooks == hooks_before

    def test_reinstall_different_mode_errors(self):
        fabric = self._fabric(EnforcementMode.SIF)
        with pytest.raises(RuntimeError, match="already installed"):
            install_enforcement(fabric, EnforcementMode.BLOOM)

    def test_mode_recorded_on_fabric(self):
        fabric = self._fabric(EnforcementMode.BLOOM)
        assert fabric.enforcement_installed is EnforcementMode.BLOOM
