"""Experiment configuration — every knob of the paper's testbed (Table 1)
plus the security mechanisms under study.

Defaults reproduce Table 1 exactly:

====================================  =========
Physical link bandwidth               2.5 Gbps
Number of physical links per switch   5
Number of VLs per physical link       16
Realtime / best-effort MTU            1024 bytes
====================================  =========

All times inside the simulator are integer picoseconds (see
:mod:`repro.sim.engine`); the config speaks human units (Gbps, µs, bytes)
and converts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.sim.engine import PS_PER_US


class EnforcementMode(enum.Enum):
    """Where (and whether) partition enforcement runs — Section 3.3."""

    NONE = "none"  #: HCA-only checks; switches forward everything (baseline IBA).
    DPT = "dpt"  #: Duplicate Partition Table — every switch filters at every hop.
    IF = "if"  #: Ingress Filtering — only the source node's switch filters, always.
    SIF = "sif"  #: Stateful Ingress Filtering — trap-driven, on-demand (the paper's proposal).
    BLOOM = "bloom"  #: Trap-driven like SIF, but constant-memory Bloom-filter state.


class AuthMode(enum.Enum):
    """What occupies the 32-bit ICRC field — Section 5.1."""

    ICRC = "icrc"  #: Plain CRC-32 over invariant fields (stock IBA; BTH reserved = 0).
    UMAC = "umac"  #: UMAC-2/4 authentication tag (the paper's pick).
    HMAC_MD5 = "hmac_md5"  #: Truncated HMAC-MD5 tag.
    HMAC_SHA1 = "hmac_sha1"  #: Truncated HMAC-SHA1 tag.
    PMAC = "pmac"  #: Section-7 parallelizable MAC over XTEA.
    STREAM = "stream"  #: Section-7 stream-cipher MAC.
    AES_CMAC = "aes_cmac"  #: Section-7 security-processor path (ref [39]).


class KeyMgmtMode(enum.Enum):
    """How authentication secret keys are created and indexed — Section 4."""

    NONE = "none"  #: No secret keys (auth must be ICRC).
    PARTITION = "partition"  #: One secret key per partition, indexed by P_Key (Fig. 2).
    QP = "qp"  #: Per-QP keys, indexed by (Q_Key, source QP) for datagrams (Fig. 3).


@dataclass
class SimConfig:
    """Full experiment description.  See field comments for paper mapping."""

    # --- Table 1 testbed parameters ---------------------------------------
    link_bandwidth_gbps: float = 2.5  #: 1x IBA link.
    ports_per_switch: int = 5  #: 4 mesh neighbours + 1 HCA.
    num_vls: int = 16  #: VLs per physical link.
    mtu_bytes: int = 1024  #: realtime and best-effort MTU.

    # --- topology ----------------------------------------------------------
    topology: str = "mesh"
    """Fabric shape: ``"mesh"`` (the paper's 16-node testbed, dimensions
    below) or ``"fat_tree"`` (k-ary fat tree for scale benchmarks —
    ``fat_tree_k`` pods of k/2 edge + k/2 aggregation switches over
    (k/2)^2 cores, k^3/4 HCAs total)."""
    mesh_width: int = 4
    mesh_height: int = 4
    fat_tree_k: int = 4  #: arity when topology == "fat_tree" (k=4 -> 16 HCAs).

    # --- timing model -------------------------------------------------------
    switch_routing_delay_ns: float = 200.0  #: fixed per-hop pipeline latency.
    pkey_lookup_ns: float = 100.0
    """Partition-table lookup stall when a switch port filters (DPT/IF/SIF).

    The paper argues via CACTI that one lookup is ~1 switch cycle; the
    absolute cycle time of their switch is unpublished, so this is the
    calibration knob for the DPT-vs-IF gap in Figure 5 (see EXPERIMENTS.md).
    """
    credit_return_delay_ns: float = 40.0  #: latency of a flow-control credit update.
    wire_delay_ns: float = 10.0  #: signal propagation per link.
    hca_processing_delay_ns: float = 100.0  #: receive-side CQE/processing cost.
    mac_stage_delay_ns: float = 5.0
    """One extra pipeline stage per authenticated message (Section 6: "one
    additional stage at each end node per message")."""

    # --- buffering / flow control -------------------------------------------
    vl_buffer_packets: int = 4  #: input-buffer capacity (credits) per VL per port.

    # --- partitions ----------------------------------------------------------
    num_partitions: int = 4
    partition_layout: str = "random"  #: "random" (paper) or "quadrant".

    # --- workload -------------------------------------------------------------
    realtime_load: float = 0.10  #: realtime stream rate as fraction of link bw.
    best_effort_load: float = 0.40  #: Poisson injection rate as fraction of link bw.
    enable_realtime: bool = True
    enable_best_effort: bool = True
    vl_arbitration_high_limit: int | None = None
    """None = strict priority for realtime VLs (the paper's testbed).  A
    positive value enables IBA's Limit-of-High-Priority counter: after that
    many consecutive realtime grants on a port, one waiting best-effort
    packet is served, bounding starvation."""
    realtime_backoff_queue: int = 8
    """Realtime sources skip generation when their send queue exceeds this —
    "an application does not send any packet when the current network status
    cannot support the application's bandwidth requirement"."""

    # --- open-loop traffic family --------------------------------------------
    traffic_model: str = "poisson"
    """Best-effort arrival family (all open-loop — none reacts to fabric
    state): ``"poisson"`` (the paper's model), ``"mmpp"`` (two-state on/off
    Markov-modulated Poisson bursts), ``"flash_crowd"`` (rate step at a
    scheduled instant), ``"incast"`` (periodic synchronized fan-in bursts
    at one victim per partition over background Poisson), or
    ``"elephant_mice"`` (bimodal per-source rates with the configured load
    preserved in aggregate)."""
    mmpp_on_us: float = 200.0
    """Mean ON-state sojourn (µs) of the MMPP source.  While ON it sends
    Poisson at ``load * (on + off) / on`` so the long-run rate still equals
    ``best_effort_load``; while OFF it is silent."""
    mmpp_off_us: float = 800.0  #: mean OFF-state sojourn (µs) of the MMPP source.
    flash_crowd_at_us: float = 1000.0
    """Instant of the flash-crowd rate step.  Before it, sources inject at
    ``best_effort_load``; from it on, at ``load * flash_crowd_multiplier``."""
    flash_crowd_multiplier: float = 3.0  #: post-step rate multiplier (>= 1).
    incast_period_us: float = 500.0
    """Period of the synchronized fan-in bursts of the incast model."""
    incast_burst_packets: int = 8
    """Frames each source aims at the partition victim per incast burst
    (back-to-back, on top of background Poisson at ``best_effort_load``)."""
    elephant_fraction: float = 0.25
    """Expected fraction of best-effort sources that are elephants (chosen
    per node from its own named RNG stream)."""
    elephant_boost: float = 3.0
    """Elephant rate multiplier; mice rates are scaled down so the expected
    aggregate injection stays at ``best_effort_load``
    (requires ``elephant_fraction * elephant_boost < 1``)."""

    # --- attack ---------------------------------------------------------------
    num_attackers: int = 0
    attack_duty_cycle: float = 1.0
    """Fraction of simulated time the attack is active.  Figure 1 uses 1.0
    (continuous); Figure 5 uses 0.01 ("we conservatively set the probability
    of DoS attack to 1%")."""
    attack_window_us: float = 50.0  #: length of each active window when duty < 1.
    attacker_classes: tuple[str, ...] = ("realtime", "best_effort")
    """VL classes the flooder sprays; both by default so realtime traffic is
    also disturbed (Figure 1a)."""
    attack_valid_pkey: bool = False  #: Section-7 variant: flood with a *valid* P_Key.
    attack_dest_strategy: str = "spray"
    """'spray' = fresh random destination per packet (Figure 1);
    'victim' = one random node per attack window (Figure 5's bursty hits)."""
    attacker_backlog: int = 32
    """Frames the flooder keeps staged per class.  The attacker *generates*
    at full line speed; this bounds how deep its own send queue grows while
    the fabric withholds credits."""
    attack_start_us: float = 0.0
    """Attack windows before this instant are suppressed — a coordinated
    attack that switches on mid-run (0 = attackers are live from t=0)."""
    attack_ramp_us: float = 0.0
    """Coordinated ramp: once the attack begins (at ``attack_start_us``),
    flooders scale their generation rate linearly from ~0 to full line rate
    over this duration (0 = step to full rate, the original behaviour)."""
    count_attack_in_metrics: bool = False
    """Figure 1 averages queuing time over *all* packets — including the
    attacker's own, whose source queue is where flooding hurts first (attack
    packets are timed at the moment the destination HCA discards them, since
    'they have already gone through the network').  Figure 5 measures 'the
    average ... delay of non-attacking traffic', i.e. False."""

    # --- security mechanisms ----------------------------------------------------
    enforcement: EnforcementMode = EnforcementMode.NONE
    auth: AuthMode = AuthMode.ICRC
    keymgmt: KeyMgmtMode = KeyMgmtMode.NONE
    sm_trap_latency_us: float = 10.0  #: trap MAD transit + SM handling time.
    sif_idle_timeout_us: float = 200.0
    """SIF disables itself when the Ingress P_Key Violation Counter has not
    advanced for this long.  The Bloom filter reuses the same timeout."""
    bloom_bits: int = 1024
    """Bit-array size m of the Bloom enforcement filter (mode ``bloom``).
    Together with ``bloom_hashes`` this fixes the false-positive rate at a
    given spray width — sweep it via :func:`repro.sim.sweep.bloom_fp_axis`."""
    bloom_hashes: int = 4
    """Number of double-hashing probes k per key (mode ``bloom``)."""
    bloom_inpacket_tag: bool = False
    """Capability variant (arXiv 1901.00955): HCAs stamp an in-packet Bloom
    membership tag for their own partitions' P_Keys; an *active* Bloom
    ingress filter drops any non-management packet whose tag does not
    verify.  Only meaningful when ``enforcement`` is ``bloom``."""
    rsa_bits: int = 256
    """Modulus size for the simulated PKI.  256 keeps multi-run sweeps fast;
    examples and tests also exercise 512/1024."""
    qp_key_exchange_rtt: bool = True
    """QP-level key management pays one round-trip per communicating QP pair
    before its first data packet (Figure 6's 'With Key' cost)."""
    replay_protection: bool = False  #: Section-7 nonce/sequence-number check.

    # --- run control ---------------------------------------------------------------
    sim_time_us: float = 3000.0
    warmup_us: float = 100.0  #: deliveries before this are not recorded.
    seed: int = 1
    keep_samples: bool = True

    # --- sharded parallel engine ---------------------------------------------
    shards: int = 1
    """Space-partition the fabric across this many shards (1 = the classic
    single-process engine).  Requires ``topology == "fat_tree"`` with
    ``shards`` dividing ``fat_tree_k`` (each shard owns whole pods), and a
    nonzero minimum inter-shard latency (see
    :func:`repro.sim.partition.lookahead_ps`)."""
    shard_transport: str = "inline"
    """``"inline"`` runs every shard's engine in this process (deterministic,
    test- and 1-core-friendly); ``"process"`` forks one worker per shard and
    exchanges boundary messages over pipes."""

    # --- derived quantities -----------------------------------------------------

    @property
    def byte_time_ps(self) -> int:
        """Picoseconds to serialize one byte at the link rate (3200 at 2.5 Gbps)."""
        return round(8000.0 / self.link_bandwidth_gbps)

    @property
    def num_nodes(self) -> int:
        if self.topology == "fat_tree":
            return self.fat_tree_k ** 3 // 4
        return self.mesh_width * self.mesh_height

    @property
    def sim_time_ps(self) -> int:
        return round(self.sim_time_us * PS_PER_US)

    @property
    def warmup_ps(self) -> int:
        return round(self.warmup_us * PS_PER_US)

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.link_bandwidth_gbps <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.sim_time_us <= self.warmup_us:
            raise ValueError(
                f"sim_time_us={self.sim_time_us:g} must exceed warmup_us="
                f"{self.warmup_us:g}: no delivery would be recorded"
            )
        if self.topology not in ("mesh", "fat_tree"):
            raise ValueError("topology must be 'mesh' or 'fat_tree'")
        if self.topology == "fat_tree":
            if self.fat_tree_k < 2 or self.fat_tree_k % 2:
                raise ValueError("fat_tree_k must be an even integer >= 2")
            if self.fat_tree_k > 254:
                raise ValueError(
                    f"fat_tree_k={self.fat_tree_k} exceeds 254: a k-port "
                    "switch's route table stores ports as bytes below 255"
                )
        elif self.mesh_width < 1 or self.mesh_height < 1:
            raise ValueError("mesh dimensions must be >= 1")
        if not 0 <= self.num_attackers <= self.num_nodes:
            raise ValueError("attacker count out of range")
        if not 0.0 <= self.attack_duty_cycle <= 1.0:
            raise ValueError("attack duty cycle must be in [0, 1]")
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")
        if self.num_partitions > self.num_nodes:
            raise ValueError("more partitions than nodes")
        if self.vl_buffer_packets < 1:
            raise ValueError("need at least one credit per VL")
        if self.num_vls < 2:
            raise ValueError("need >= 2 VLs (one per traffic class)")
        if self.auth is not AuthMode.ICRC and self.keymgmt is KeyMgmtMode.NONE:
            raise ValueError(f"{self.auth} requires a key-management mode")
        if self.bloom_bits < 8:
            raise ValueError("bloom_bits must be >= 8")
        if not 1 <= self.bloom_hashes <= 16:
            raise ValueError("bloom_hashes must be in 1..16")
        if self.bloom_inpacket_tag and self.enforcement is not EnforcementMode.BLOOM:
            raise ValueError("bloom_inpacket_tag requires enforcement mode 'bloom'")
        if self.vl_arbitration_high_limit is not None and self.vl_arbitration_high_limit < 1:
            raise ValueError("vl_arbitration_high_limit must be None or >= 1")
        if self.mtu_bytes < 64 or self.mtu_bytes > 4096:
            raise ValueError("MTU out of IBA range")
        if self.partition_layout not in ("random", "quadrant", "pod"):
            raise ValueError(
                "partition_layout must be 'random', 'quadrant', or 'pod'"
            )
        if self.attack_dest_strategy not in ("spray", "victim"):
            raise ValueError("attack_dest_strategy must be 'spray' or 'victim'")
        if self.traffic_model not in (
            "poisson", "mmpp", "flash_crowd", "incast", "elephant_mice"
        ):
            raise ValueError(f"unknown traffic_model {self.traffic_model!r}")
        if self.mmpp_on_us <= 0 or self.mmpp_off_us < 0:
            raise ValueError("mmpp_on_us must be > 0 and mmpp_off_us >= 0")
        if self.flash_crowd_at_us < 0:
            raise ValueError("flash_crowd_at_us must be >= 0")
        if self.flash_crowd_multiplier < 1.0:
            raise ValueError("flash_crowd_multiplier must be >= 1")
        if self.incast_period_us <= 0:
            raise ValueError("incast_period_us must be positive")
        if self.incast_burst_packets < 1:
            raise ValueError("incast_burst_packets must be >= 1")
        if not 0.0 <= self.elephant_fraction < 1.0:
            raise ValueError("elephant_fraction must be in [0, 1)")
        if self.elephant_boost < 1.0:
            raise ValueError("elephant_boost must be >= 1")
        if self.elephant_fraction * self.elephant_boost >= 1.0:
            raise ValueError(
                "elephant_fraction * elephant_boost must be < 1 "
                "(mice would need a non-positive rate)"
            )
        if self.attack_start_us < 0 or self.attack_ramp_us < 0:
            raise ValueError("attack_start_us/attack_ramp_us must be >= 0")
        unknown = set(self.attacker_classes) - {"realtime", "best_effort"}
        if unknown:
            raise ValueError(f"unknown attacker classes: {unknown}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_transport not in ("inline", "process"):
            raise ValueError("shard_transport must be 'inline' or 'process'")
        if self.shards > 1:
            if self.topology != "fat_tree":
                raise ValueError(
                    "shards > 1 requires topology == 'fat_tree' "
                    "(shards own whole fat-tree pod groups)"
                )
            if self.fat_tree_k % self.shards:
                raise ValueError(
                    f"shards={self.shards} must divide fat_tree_k="
                    f"{self.fat_tree_k} (each shard owns whole pods)"
                )
            from repro.sim.partition import lookahead_ps

            if lookahead_ps(self) <= 0:
                raise ValueError(
                    "shards > 1 needs a nonzero minimum inter-shard latency "
                    "(wire_delay_ns, credit_return_delay_ns and "
                    "sm_trap_latency_us must all be > 0) — zero-latency "
                    "links break conservative lookahead"
                )
            if self.keymgmt is not KeyMgmtMode.NONE:
                raise ValueError(
                    "sharded runs support keymgmt == NONE only (key "
                    "distribution is a construction-time global exchange)"
                )

    def replace(self, **kwargs) -> "SimConfig":
        """Functional update (dataclasses.replace with validation)."""
        import dataclasses

        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg
