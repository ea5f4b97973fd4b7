"""Switch-level partition enforcement: DPT, IF, SIF (paper Section 3.3),
and the Bloom-filter fourth design.

All four designs share the same goal — invalid-P_Key packets must die at
(or near) the edge instead of crossing the fabric — and differ in *where the
partition state lives* and *what it costs*:

* DPT (Duplicate Partition Table): every input port of every switch holds
  the whole subnet's partition table and checks every packet.  Memory n·p
  per switch, one f(n·p) lookup per packet per hop.
* IF (Ingress Filtering): only the HCA-facing port of the ingress switch
  filters, with just the attached node's p entries.  One f(p) lookup per
  packet — still paid by every legitimate packet forever.

  Both are one :class:`TablePortFilter`; :func:`install_enforcement` alone
  decides which table it holds and where it sits.
* :class:`SIFPortFilter` (Stateful Ingress Filtering — the proposal):
  normally *disabled, zero cost*.  A destination HCA's P_Key-violation trap
  makes the SM register the bad P_Key here and switch filtering on; an
  Ingress P_Key Violation Counter ages it back off when the attack stops
  (the :class:`TrapDrivenPortFilter` control plane).
  When the attacker sprays so many distinct P_Keys that the
  Invalid_P_Key_Table would outgrow the partition table, the filter flips
  from blacklist to whitelist mode ("the Invalid_P_Key_Table should be used
  as long as the number of entries is smaller than the partition table").
* :class:`BloomPortFilter` (the fourth design — ROADMAP's "in-packet Bloom
  filters", after arXiv 0908.3574 / 1901.00955): SIF's control plane,
  but the invalid-key state is a **fixed-size Bloom filter** — constant
  memory no matter how wide the spray — at the price of a tunable
  false-positive rate.  Its contract, checked by the fuzz oracle: it may
  *over*-filter (false positives, counted separately) but never
  *under*-filters relative to SIF on the same packet stream.  An optional
  capability variant verifies an **in-packet membership tag** stamped by
  the sender's salt-holding HCA (the verifiable-filter shape).

Every filter lets subnet-management packets (default P_Key 0xFFFF) through:
partition enforcement never gates the management plane.
"""

from __future__ import annotations

from repro.core.bloom import BloomFilter
from repro.iba.keys import PKey
from repro.iba.packet import DataPacket
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_US
from repro.sim.trace import Tracer


def _is_management(pkey: PKey) -> bool:
    return pkey.value == PKey.DEFAULT


class TablePortFilter:
    """Always-on filter over a fixed partition table — DPT and IF alike.

    The two designs differ only in the table and where it sits, which
    :func:`install_enforcement` decides: the whole subnet's table on every
    port (DPT) or the node's own partitions at its ingress port (IF)."""

    def __init__(
        self,
        pkey_indices: set[int],
        lookup_ns: float,
        registry: CounterRegistry | None = None,
        scope: str = "filter.table",
    ) -> None:
        self.partition_table = set(pkey_indices)
        self.lookup_ns = lookup_ns
        self.registry = registry if registry is not None else CounterRegistry()
        self.lookups = self.registry.counter(f"{scope}.lookups")
        self.drops = self.registry.counter(f"{scope}.drops")

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        self.lookups.inc()
        if _is_management(packet.pkey) or packet.pkey.index in self.partition_table:
            return True, self.lookup_ns
        self.drops.inc()
        return False, self.lookup_ns


class TrapDrivenPortFilter:
    """The control plane SIF and Bloom share (paper Section 3.3).

    Normally *disabled, zero cost*.  The SM registers a trapped P_Key
    (:meth:`register_invalid`), which switches filtering on and arms the
    idle check; the check ages filtering back off, clearing the invalid-key
    store, once the Ingress P_Key Violation Counter stops rising.

    A subclass supplies its own ``process`` and the invalid-key store:
    ``_insert(pkey)`` stores a trapped P_Key (False when the store refuses
    it), ``_registered_detail(pkey)`` describes an accepted registration
    for the trace, and ``_clear()`` forgets every key when the filter goes
    idle.
    """

    #: Trace kinds are ``<prefix>_registered``, ``_activated`` and
    #: ``_deactivated``.
    trace_prefix = ""

    def __init__(
        self,
        engine: Engine,
        node_pkey_indices: set[int],
        lookup_ns: float,
        idle_timeout_us: float,
        registry: CounterRegistry | None,
        scope: str,
        tracer: Tracer | None,
    ) -> None:
        self.engine = engine
        self.partition_table = set(node_pkey_indices)
        self.lookup_ns = lookup_ns
        self.idle_timeout_ps = round(idle_timeout_us * PS_PER_US)
        self.enabled = False
        self.scope = scope
        self.tracer = tracer
        self._counter_at_last_check = 0
        self._timer_armed = False
        #: Same-instant race guard: a registration that lands between two
        #: idle checks is attack-activity evidence even when it produced no
        #: drop yet, so the next check must not deactivate on its stale
        #: counter snapshot (it would silently discard the registered key).
        self._registered_since_check = False
        # statistics (registry-owned; see repro.sim.counters)
        self.registry = registry if registry is not None else CounterRegistry()
        #: Ingress P_Key Violation Counter (paper Section 3.3) — modeled
        #: hardware state the idle-timeout check *reads*.
        self.violation_counter = self.registry.counter(f"{scope}.violation_counter")
        self.lookups = self.registry.counter(f"{scope}.lookups")
        self.drops = self.registry.counter(f"{scope}.drops")
        self.activations = self.registry.counter(f"{scope}.activations")
        self.deactivations = self.registry.counter(f"{scope}.deactivations")

    # -- SM-facing control --------------------------------------------------

    def register_invalid(self, pkey: PKey, now_ps: int) -> None:
        """SM registers a trapped P_Key and enables filtering (Section 3.3)."""
        if self._insert(pkey) and self.tracer is not None:
            self.tracer.record(
                self.engine.now, f"{self.trace_prefix}_registered", self.scope,
                detail=self._registered_detail(pkey),
            )
        if not self.enabled:
            self.enabled = True
            self.activations.inc()
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, f"{self.trace_prefix}_activated", self.scope,
                    detail=f"pkey=0x{pkey.value:04x}",
                )
        if self._timer_armed:
            self._registered_since_check = True
        else:
            self._timer_armed = True
            self._registered_since_check = False
            self._counter_at_last_check = int(self.violation_counter)
            self.engine.schedule(self.idle_timeout_ps, self._idle_check)

    def _idle_check(self) -> None:
        # Only this check ever disables the filter, and it disarms the
        # timer when it does, so it never runs on a disabled filter.
        idle = (
            self.violation_counter == self._counter_at_last_check
            and not self._registered_since_check
        )
        self._registered_since_check = False
        if idle:
            # "If this counter does not increase for some time, the switch
            # disables ingress filtering by itself."
            self.enabled = False
            self._clear()
            self.deactivations.inc()
            self._timer_armed = False
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, f"{self.trace_prefix}_deactivated", self.scope,
                    detail=f"idle>{self.idle_timeout_ps}ps",
                )
            return
        self._counter_at_last_check = int(self.violation_counter)
        self.engine.schedule(self.idle_timeout_ps, self._idle_check)


class SIFPortFilter(TrapDrivenPortFilter):
    """Trap-activated, self-disabling ingress filter — the paper's design."""

    trace_prefix = "sif"

    def __init__(
        self,
        engine: Engine,
        node_pkey_indices: set[int],
        lookup_ns: float,
        idle_timeout_us: float,
        registry: CounterRegistry | None = None,
        scope: str = "filter.sif",
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(
            engine, node_pkey_indices, lookup_ns, idle_timeout_us,
            registry, scope, tracer,
        )
        #: Invalid_P_Key_Table — P_Key indices the SM registered.
        self.invalid_table: set[int] = set()
        self.rejected_registrations = self.registry.counter(
            f"{scope}.rejected_registrations"
        )

    # -- data path ----------------------------------------------------------

    @property
    def whitelist_mode(self) -> bool:
        """True once the invalid table is no longer *smaller than* the
        partition table — the paper's flip threshold, verbatim.

        A zero-partition port (a node the SM put in no partition) never
        flips: its "whitelist" would be empty and would silently drop every
        non-management packet, far beyond the trap-driven design.  Such a
        port stays a blacklist whose table is capped at one entry (see
        :meth:`_insert`)."""
        return bool(self.partition_table) and len(self.invalid_table) >= len(
            self.partition_table
        )

    @property
    def _table_full(self) -> bool:
        """No further Invalid_P_Key_Table growth is allowed.

        With partitions, that is exactly :attr:`whitelist_mode`; a
        zero-partition port caps the blacklist at a single entry — the
        partition-table-parity rationale gives it no more room than that."""
        if not self.partition_table:
            return len(self.invalid_table) >= 1
        return self.whitelist_mode

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        if not self.enabled:
            return True, 0.0  # SIF idle: no lookup, no stall
        self.lookups.inc()
        if _is_management(packet.pkey):
            return True, self.lookup_ns
        idx = packet.pkey.index
        if self.whitelist_mode:
            ok = idx in self.partition_table
        else:
            ok = idx not in self.invalid_table
        if not ok:
            self.drops.inc()
            self.violation_counter.inc()
            return False, self.lookup_ns
        return True, self.lookup_ns

    # -- invalid-key store --------------------------------------------------

    def _insert(self, pkey: PKey) -> bool:
        """The Invalid_P_Key_Table is bounded by the partition table: "the
        Invalid_P_Key_Table should be used as long as the number of entries
        is smaller than the partition table".  Once :attr:`whitelist_mode`
        is reached, further registrations are redundant — the whitelist
        already rejects every invalid P_Key — and are *not* inserted, so a
        wide P_Key spray cannot grow the table without bound."""
        if self._table_full:
            self.rejected_registrations.inc()
            return False
        self.invalid_table.add(pkey.index)
        return True

    def _registered_detail(self, pkey: PKey) -> str:
        return f"pkey=0x{pkey.value:04x} entries={len(self.invalid_table)}"

    def _clear(self) -> None:
        self.invalid_table.clear()


class BloomPortFilter(TrapDrivenPortFilter):
    """Trap-activated ingress filter with constant-memory Bloom state.

    The control plane is SIF's, unchanged: disabled (zero cost) until the
    SM registers a trapped P_Key, self-disabling when the violation counter
    goes quiet.  The data plane replaces the exact Invalid_P_Key_Table with
    an ``m``-bit, ``k``-hash Bloom filter, giving fixed ingress memory at a
    swept false-positive rate.

    **Never-under-filters contract** (the fuzz oracle's invariant), held by
    construction against a SIF filter fed the identical registration and
    packet stream:

    * every registration is inserted — a Bloom filter never needs to reject
      for growth, so its member set is always a superset of SIF's table;
    * Bloom filters have no false negatives, so every blacklist drop SIF
      makes, this filter makes;
    * the whitelist flip counts *raw* accepted registrations (a Bloom
      filter cannot count distinct keys in constant memory) — raw ≥
      distinct, so it flips **no later** than SIF — and whitelist mode
      additionally keeps dropping everything the Bloom contains;
    * its violation counter advances a superset of SIF's instants, so the
      idle timeout can only outlive SIF's, never fire earlier.

    False positives are over-filtering and are counted in a dedicated
    ``false_positive_drops`` counter, classified against ``_exact_registered``
    — a simulator-side *telemetry* shadow of the exact registered set that
    plays no part in any drop decision (modeled hardware state is the bit
    array alone).

    With ``inpacket_tag=True`` the filter is the capability variant of
    arXiv 1901.00955: while active it also requires each non-management
    packet to carry the in-packet Bloom membership tag its P_Key hashes to
    under the port's secret salt.  Salt-holding HCAs stamp tags only for
    P_Keys in their own partition table, so a sprayed or forged key cannot
    present a verifiable tag and dies at ingress immediately — strictly
    more filtering, never less.
    """

    trace_prefix = "bloom"

    def __init__(
        self,
        engine: Engine,
        node_pkey_indices: set[int],
        lookup_ns: float,
        idle_timeout_us: float,
        bloom_bits: int,
        bloom_hashes: int,
        salt: bytes = b"",
        inpacket_tag: bool = False,
        registry: CounterRegistry | None = None,
        scope: str = "filter.bloom",
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(
            engine, node_pkey_indices, lookup_ns, idle_timeout_us,
            registry, scope, tracer,
        )
        self.inpacket_tag = inpacket_tag
        #: The constant-memory invalid-key state (replaces Invalid_P_Key_Table).
        self.bloom = BloomFilter(bloom_bits, bloom_hashes, salt)
        # raw accepted registrations — the whitelist-flip clock (see class
        # doc); mechanism state, not a statistic, hence not registry-owned
        self._registered_count = 0
        #: Telemetry-only exact shadow of the registered set, used solely to
        #: classify drops as true vs false positive.  Never consulted by
        #: :meth:`process` for the accept/drop decision.
        self._exact_registered: set[int] = set()
        self.false_positive_drops = self.registry.counter(
            f"{scope}.false_positive_drops"
        )
        self.tag_failures = self.registry.counter(f"{scope}.tag_failures")
        self.registrations = self.registry.counter(f"{scope}.registrations")

    # -- data path ----------------------------------------------------------

    @property
    def whitelist_mode(self) -> bool:
        """Flips on *raw* accepted registrations reaching partition-table
        parity — never later than SIF's distinct-count flip (raw ≥ distinct).
        A zero-partition port never flips, mirroring SIF's defined case."""
        return bool(self.partition_table) and self._registered_count >= len(
            self.partition_table
        )

    @property
    def registered_count(self) -> int:
        """Raw accepted registrations since the last deactivation."""
        return self._registered_count

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        if not self.enabled:
            return True, 0.0  # idle: no lookup, no stall — SIF's best property
        self.lookups.inc()
        if _is_management(packet.pkey):
            return True, self.lookup_ns
        idx = packet.pkey.index
        if self.inpacket_tag and not self.bloom.verify_tag(
            idx, packet.bloom_tag
        ):
            self.tag_failures.inc()
            return self._drop(exact_drop=idx not in self.partition_table)
        contained = idx in self.bloom
        if self.whitelist_mode:
            # Whitelist still honours the Bloom: a key registered after the
            # flip must keep dying here even if it is partition-valid.
            ok = idx in self.partition_table and not contained
            exact_drop = idx not in self.partition_table or idx in self._exact_registered
        else:
            ok = not contained
            exact_drop = idx in self._exact_registered
        if not ok:
            return self._drop(exact_drop=exact_drop)
        return True, self.lookup_ns

    def _drop(self, exact_drop: bool) -> tuple[bool, float]:
        if not exact_drop:
            self.false_positive_drops.inc()
        self.drops.inc()
        self.violation_counter.inc()
        return False, self.lookup_ns

    # -- in-packet capability ------------------------------------------------

    def stamp_tag(self, packet: DataPacket) -> None:
        """Stamp the membership tag a salt-holding sender may claim.

        The prover only vouches for P_Keys the node legitimately holds:
        an invalid (sprayed) key gets no tag, which is exactly what the
        verifier rejects.  Wired into :meth:`repro.iba.hca.HCA.submit` by
        :func:`install_enforcement` when ``bloom_inpacket_tag`` is on."""
        idx = packet.pkey.index
        if not _is_management(packet.pkey) and idx in self.partition_table:
            packet.bloom_tag = self.bloom.tag(idx)

    # -- invalid-key store --------------------------------------------------

    def _insert(self, pkey: PKey) -> bool:
        """Unlike SIF there is no growth to bound — insertion is always
        accepted (constant memory), which is one leg of the
        never-under-filters argument."""
        self.bloom.add(pkey.index)
        self._exact_registered.add(pkey.index)
        self._registered_count += 1
        self.registrations.inc()
        return True

    def _registered_detail(self, pkey: PKey) -> str:
        return (
            f"pkey=0x{pkey.value:04x} raw={self._registered_count}"
            f" bits={self.bloom.bits_set}/{self.bloom.num_bits}"
        )

    def _clear(self) -> None:
        self.bloom.clear()
        self._exact_registered.clear()
        self._registered_count = 0


def bloom_port_filter(
    engine: Engine,
    cfg,
    node_pkey_indices: set[int],
    scope: str,
    registry: CounterRegistry | None = None,
    tracer: Tracer | None = None,
) -> BloomPortFilter:
    """The Bloom ingress filter *cfg* configures for the port named *scope*.

    The port's secret salt for the in-packet tag is a domain-separated KDF
    over *scope*, so every run (and every fuzz leg of the same run)
    derives identical salts without consuming any simulation randomness."""
    from repro.crypto.kdf import derive_key

    return BloomPortFilter(
        engine,
        node_pkey_indices,
        cfg.pkey_lookup_ns,
        cfg.sif_idle_timeout_us,
        bloom_bits=cfg.bloom_bits,
        bloom_hashes=cfg.bloom_hashes,
        salt=derive_key(b"repro.bloom.port-salt", scope.encode("utf-8"), 16),
        inpacket_tag=cfg.bloom_inpacket_tag,
        registry=registry,
        scope=scope,
        tracer=tracer,
    )


def install_enforcement(fabric, mode) -> None:
    """Wire the chosen enforcement mode into *fabric*'s switches.

    Requires fabric.sm to exist with partitions already created.  DPT puts
    the whole subnet's table on every input port of every switch; IF, SIF
    and Bloom put the node's own partitions at its ingress port.  For SIF
    and Bloom the SM's registration hooks are pointed at each node's
    ingress filter.

    Installing twice on one fabric is a hard error: a second pass would
    re-register every filter counter under colliding scopes and silently
    overwrite ``sm.registration_hooks`` (leaking the first install's
    filters as orphaned engine-timer targets).  Build a fresh fabric — or
    re-request the mode already installed, which is a no-op.
    """
    from repro.sim.config import EnforcementMode

    cfg = fabric.config
    sm = fabric.sm
    if sm is None:
        raise RuntimeError("fabric has no subnet manager")
    installed = fabric.enforcement_installed
    if installed is not None:
        if installed is mode:
            return  # idempotent: same mode already wired
        raise RuntimeError(
            f"enforcement already installed on this fabric ({installed.value});"
            f" cannot re-install {mode.value} — build a fresh fabric"
        )
    if mode is EnforcementMode.NONE:
        sites = []
    elif mode is EnforcementMode.DPT:
        subnet = sm.valid_pkey_indices()
        sites = [
            (None, sw, port, subnet)
            for sw in fabric.all_switches()
            for port in range(sw.num_ports)
        ]
    elif mode in (EnforcementMode.IF, EnforcementMode.SIF, EnforcementMode.BLOOM):
        sites = [
            (lid, fabric.ingress_switch(lid), fabric.ingress_port(lid),
             sm.partitions_of(lid))
            for lid in fabric.lids
        ]
    else:
        raise ValueError(f"unknown enforcement mode {mode}")
    for lid, sw, port, table in sites:
        scope = f"filter.{sw.name}.p{port}"
        if mode is EnforcementMode.SIF:
            filt = SIFPortFilter(
                fabric.engine, table, cfg.pkey_lookup_ns, cfg.sif_idle_timeout_us,
                registry=fabric.registry, scope=scope, tracer=fabric.tracer,
            )
        elif mode is EnforcementMode.BLOOM:
            filt = bloom_port_filter(
                fabric.engine, cfg, table, scope, fabric.registry, fabric.tracer
            )
            if cfg.bloom_inpacket_tag:
                fabric.hca(lid).bloom_stamper = filt.stamp_tag
        else:
            filt = TablePortFilter(
                table, cfg.pkey_lookup_ns, registry=fabric.registry, scope=scope
            )
        sw.set_port_filter(port, filt)
        if isinstance(filt, TrapDrivenPortFilter):
            sm.registration_hooks[int(lid)] = filt.register_invalid
    fabric.enforcement_installed = mode
