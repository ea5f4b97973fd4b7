"""Deterministic scenario synthesis and packet mutation for the fuzzer.

A :class:`Scenario` is a complete, JSON-serializable description of one
randomized experiment: a :class:`~repro.sim.config.SimConfig` draw (mesh
shape, partitions, traffic mix, enforcement/auth modes, attacker placement)
plus schedules of link faults, switch crashes, mid-link packet tampering,
and forged-packet injections.  Scenarios are a pure function of
``(master_seed, index)`` — every random draw flows through one
:class:`~repro.sim.rng.RngStreams` stream — so the same pair always yields
byte-identical scenarios, which is what makes corpus entries replayable.

Mutation catalogue (:data:`MUTATIONS`): every mutation is chosen so a
tampered packet is *guaranteed undeliverable* — either a security checkpoint
(P_Key, Q_Key) rejects it or the ICRC/MAC covering the mutated field fails
verification.  That guarantee is what the auth-soundness oracle checks.
The LRH ``VL`` field is deliberately never mutated: credits are accounted
per VL at every hop, so changing it mid-flight would corrupt flow control
rather than model an attack the receiver could see.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass, field

from repro.iba.keys import PKey, QKey
from repro.iba.packet import DataPacket
from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode, SimConfig
from repro.sim.rng import RngStreams

#: Wire-tamper mutations.  All keep ``wire_length`` unchanged (link timing
#: is part of the scenario, not the attack) and never touch the VL.
MUTATIONS = (
    "payload_bit_flip",
    "payload_truncate",
    "pkey_swap",
    "dlid_swap",
    "qkey_flip",
    "psn_flip",
    "icrc_flip",
)

#: Forged-injection kinds.  Each must die at a known checkpoint in every
#: auth/enforcement combination the generator can draw.
INJECTION_KINDS = ("random_pkey", "bad_qkey", "guessed_tag", "truncated")

#: Schema identity: ``<name>/<version>``.  The version is the compatibility
#: contract for everything that persists or transmits scenarios — corpus
#: entries, ``repro-sim fuzz --replay`` files, and the job service's POST
#: body.  Bump :data:`SCENARIO_SCHEMA_VERSION` (and extend
#: :data:`SUPPORTED_SCHEMA_VERSIONS` if the old shape stays readable)
#: whenever :class:`Scenario`'s serialized shape changes.
SCENARIO_SCHEMA_NAME = "repro.fuzz_scenario"
SCENARIO_SCHEMA_VERSION = 1
SUPPORTED_SCHEMA_VERSIONS = (1,)
SCENARIO_SCHEMA = f"{SCENARIO_SCHEMA_NAME}/{SCENARIO_SCHEMA_VERSION}"


class ScenarioValidationError(ValueError):
    """A scenario dict failed strict validation (the service's 400 path)."""


def parse_schema_version(schema: object) -> int:
    """Extract and check the version from a ``name/version`` schema string.

    Raises :class:`ScenarioValidationError` on anything but a supported
    ``repro.fuzz_scenario/<int>`` spelling.
    """
    if not isinstance(schema, str):
        raise ScenarioValidationError(
            f"schema must be a string, got {type(schema).__name__}"
        )
    name, sep, version_text = schema.partition("/")
    if not sep or name != SCENARIO_SCHEMA_NAME or not version_text.isdigit():
        raise ScenarioValidationError(
            f"unknown scenario schema {schema!r} (expected "
            f"'{SCENARIO_SCHEMA_NAME}/<version>')"
        )
    version = int(version_text)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ScenarioValidationError(
            f"unsupported scenario schema version {version} "
            f"(supported: {list(SUPPORTED_SCHEMA_VERSIONS)})"
        )
    return version


@dataclass(frozen=True)
class LinkFault:
    """Take one named link down at ``fail_us`` (and maybe back up)."""

    link: str
    fail_us: float
    restore_us: float | None = None


@dataclass(frozen=True)
class SwitchCrash:
    """Crash the switch at ``(x, y)`` (keys leak, attached links fail)."""

    x: int
    y: int
    at_us: float
    restore_us: float | None = None


@dataclass(frozen=True)
class PacketTamper:
    """Mutate the ``ordinal``-th packet that crosses ``link``.

    An ``hca*->sw*`` link models tampering at the source HCA's egress; a
    ``sw*->*`` link is classic mid-link (wire) tampering.
    """

    link: str
    ordinal: int
    mutation: str
    param: int


@dataclass(frozen=True)
class ForgedInject:
    """Inject one forged packet at ``src_lid`` toward ``dst_lid`` at ``at_us``."""

    src_lid: int
    dst_lid: int
    at_us: float
    kind: str
    param: int


@dataclass(frozen=True)
class Scenario:
    """One fully-specified fuzz experiment (JSON round-trippable)."""

    name: str
    config: dict = field(default_factory=dict)
    link_faults: tuple[LinkFault, ...] = ()
    switch_crashes: tuple[SwitchCrash, ...] = ()
    tampers: tuple[PacketTamper, ...] = ()
    injections: tuple[ForgedInject, ...] = ()

    @property
    def schedule_free(self) -> bool:
        """True when the scenario is just its config: no fault, crash,
        tamper, or injection schedule to install at run time."""
        return not (self.link_faults or self.switch_crashes or self.tampers
                    or self.injections)

    def build_config(self) -> SimConfig:
        """Materialize the stored config dict into a validated SimConfig."""
        d = dict(self.config)
        d["enforcement"] = EnforcementMode(d.get("enforcement", "none"))
        d["auth"] = AuthMode(d.get("auth", "icrc"))
        d["keymgmt"] = KeyMgmtMode(d.get("keymgmt", "none"))
        cfg = SimConfig(**d)
        cfg.validate()
        return cfg

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema"] = SCENARIO_SCHEMA
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict, strict: bool = False) -> "Scenario":
        """Rebuild a scenario from its :meth:`to_dict` form.

        The default mode is the tolerant corpus/replay reader: a missing
        ``schema`` field is assumed current and unknown keys are ignored.
        ``strict=True`` is the wire-facing contract the job service's
        POST handler uses: the schema-version field is mandatory, every
        unknown key (top-level, config, or schedule entry) is rejected,
        and field types are checked — all failures raise
        :class:`ScenarioValidationError` (a ``ValueError``), which the
        API maps to HTTP 400.
        """
        if strict:
            _validate_scenario_dict(d)
        else:
            schema = d.get("schema", SCENARIO_SCHEMA)
            parse_schema_version(schema)
        if not isinstance(d.get("name"), str):
            raise ScenarioValidationError("'name' must be a string")
        return cls(
            name=d["name"],
            config=dict(d.get("config", {})),
            link_faults=tuple(LinkFault(**f) for f in d.get("link_faults", ())),
            switch_crashes=tuple(SwitchCrash(**c) for c in d.get("switch_crashes", ())),
            tampers=tuple(PacketTamper(**t) for t in d.get("tampers", ())),
            injections=tuple(ForgedInject(**i) for i in d.get("injections", ())),
        )

    @classmethod
    def from_json(cls, text: str, strict: bool = False) -> "Scenario":
        return cls.from_dict(json.loads(text), strict=strict)

    def summary(self) -> str:
        """One deterministic line describing the scenario (CLI output)."""
        c = self.config
        return (
            f"{self.name} mesh={c['mesh_width']}x{c['mesh_height']}"
            f" parts={c['num_partitions']} enf={c['enforcement']}"
            f" auth={c['auth']} attackers={c['num_attackers']}"
            f" t={c['sim_time_us']:g}us faults={len(self.link_faults)}"
            f"+{len(self.switch_crashes)} tampers={len(self.tampers)}"
            f" injections={len(self.injections)}"
        )


# -- strict wire-format validation -------------------------------------------

#: Top-level keys a serialized scenario may carry (exactly ``to_dict``'s).
_TOP_LEVEL_KEYS = frozenset(
    ("schema", "name", "config", "link_faults", "switch_crashes", "tampers",
     "injections")
)

#: Schedule-entry shape: dataclass, {field: kind}, required-field set.
#: Kinds: ``"str"``, ``"int"``, ``"number"``; a ``?`` suffix also admits
#: ``null``.  (Booleans are deliberately *not* numbers here — JSON ``true``
#: in a time field is a client bug, not a timestamp.)
_SCHEDULE_SPECS: dict[str, tuple[type, dict[str, str], frozenset]] = {
    "link_faults": (
        LinkFault,
        {"link": "str", "fail_us": "number", "restore_us": "number?"},
        frozenset(("link", "fail_us")),
    ),
    "switch_crashes": (
        SwitchCrash,
        {"x": "int", "y": "int", "at_us": "number", "restore_us": "number?"},
        frozenset(("x", "y", "at_us")),
    ),
    "tampers": (
        PacketTamper,
        {"link": "str", "ordinal": "int", "mutation": "str", "param": "int"},
        frozenset(("link", "ordinal", "mutation", "param")),
    ),
    "injections": (
        ForgedInject,
        {"src_lid": "int", "dst_lid": "int", "at_us": "number", "kind": "str",
         "param": "int"},
        frozenset(("src_lid", "dst_lid", "at_us", "kind", "param")),
    ),
}


def _kind_ok(value: object, kind: str) -> bool:
    if kind.endswith("?"):
        if value is None:
            return True
        kind = kind[:-1]
    if kind == "str":
        return isinstance(value, str)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise AssertionError(f"unknown kind {kind!r}")


def _validate_scenario_dict(d: object) -> None:
    """Strict structural validation of a wire-format scenario dict.

    Raises :class:`ScenarioValidationError` with a client-actionable
    message on the first problem found.  Semantic config validation
    (value ranges, mode combinations) still happens in
    :meth:`Scenario.build_config` — callers on the 400 path must run
    both.
    """
    if not isinstance(d, dict):
        raise ScenarioValidationError("scenario payload must be a JSON object")
    unknown = set(map(str, d)) - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioValidationError(
            f"unknown top-level keys: {sorted(unknown)}"
        )
    if "schema" not in d:
        raise ScenarioValidationError(
            f"missing required 'schema' field (current: {SCENARIO_SCHEMA!r})"
        )
    parse_schema_version(d["schema"])
    name = d.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioValidationError("'name' must be a non-empty string")
    config = d.get("config", {})
    if not isinstance(config, dict):
        raise ScenarioValidationError("'config' must be a JSON object")
    known_fields = {f.name for f in dataclasses.fields(SimConfig)}
    unknown_cfg = set(map(str, config)) - known_fields
    if unknown_cfg:
        raise ScenarioValidationError(
            f"unknown config keys: {sorted(unknown_cfg)}"
        )
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            if not all(isinstance(v, (str, int, float, bool)) for v in value):
                raise ScenarioValidationError(
                    f"config.{key} list entries must be JSON scalars"
                )
        elif not isinstance(value, (str, int, float, bool)) and value is not None:
            raise ScenarioValidationError(
                f"config.{key} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
    for list_key, (_cls, kinds, required) in _SCHEDULE_SPECS.items():
        entries = d.get(list_key, ())
        if not isinstance(entries, (list, tuple)):
            raise ScenarioValidationError(f"'{list_key}' must be a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ScenarioValidationError(
                    f"{list_key}[{i}] must be a JSON object"
                )
            unknown_entry = set(map(str, entry)) - set(kinds)
            if unknown_entry:
                raise ScenarioValidationError(
                    f"{list_key}[{i}]: unknown keys {sorted(unknown_entry)}"
                )
            missing = required - set(entry)
            if missing:
                raise ScenarioValidationError(
                    f"{list_key}[{i}]: missing required keys {sorted(missing)}"
                )
            for field_name, value in entry.items():
                if not _kind_ok(value, kinds[field_name]):
                    raise ScenarioValidationError(
                        f"{list_key}[{i}].{field_name} must be "
                        f"{kinds[field_name].rstrip('?')}"
                        + (" or null" if kinds[field_name].endswith("?") else "")
                    )


def mesh_link_names(width: int, height: int) -> list[str]:
    """Every directed link name of a width×height mesh, in
    :meth:`~repro.iba.topology.Fabric.all_links` order."""
    from repro.iba.topology import build_mesh
    from repro.sim.config import SimConfig
    from repro.sim.engine import Engine
    from repro.sim.metrics import MetricsCollector

    config = SimConfig(mesh_width=width, mesh_height=height, num_partitions=1)
    fabric = build_mesh(Engine(), config, MetricsCollector())
    return [link.name for link in fabric.all_links()]


def generate_scenario(master_seed: int, index: int) -> Scenario:
    """The ``index``-th random scenario under ``master_seed``.

    Pure: same arguments, same scenario — all randomness comes from one
    named :class:`RngStreams` stream, so generation order doesn't matter.
    """
    rng = RngStreams(master_seed).get("fuzz.scenario", index)

    width = rng.choice((2, 2, 3, 3))
    height = rng.choice((2, 3))
    nodes = width * height
    num_partitions = rng.randint(2, min(4, nodes))
    enforcement = rng.choice(("none", "dpt", "if", "sif", "bloom"))
    auth = rng.choice(("icrc", "icrc", "umac", "hmac_md5"))
    keymgmt = "none" if auth == "icrc" else rng.choice(("partition", "qp"))
    num_attackers = min(rng.choice((0, 0, 1, 1, 2)), nodes - 2)
    sim_time_us = float(rng.choice((120, 160, 200)))

    config = {
        "mesh_width": width,
        "mesh_height": height,
        "num_partitions": num_partitions,
        "partition_layout": "random",
        "enforcement": enforcement,
        "auth": auth,
        "keymgmt": keymgmt,
        "best_effort_load": rng.choice((0.20, 0.30, 0.40)),
        "realtime_load": rng.choice((0.05, 0.10)),
        "num_attackers": num_attackers,
        "attack_duty_cycle": 1.0,
        "attack_valid_pkey": False,
        "replay_protection": auth != "icrc" and rng.random() < 0.25,
        "sif_idle_timeout_us": float(rng.choice((50, 100, 200))),
        "sim_time_us": sim_time_us,
        "warmup_us": 0.0,
        "seed": rng.randrange(1, 2**31),
        "keep_samples": False,
        "rsa_bits": 256,
    }
    if enforcement == "bloom":
        # Small arrays are deliberately in range so false positives actually
        # occur under fuzzing (the dominance oracle must hold regardless).
        config["bloom_bits"] = int(rng.choice((64, 256, 1024)))
        config["bloom_hashes"] = int(rng.choice((2, 3, 4)))
        config["bloom_inpacket_tag"] = bool(rng.random() < 0.5)

    # Open-loop traffic family: every model's parameters are drawn so its
    # characteristic behaviour fits the short 120-200 µs fuzz horizon (the
    # conservation oracle must hold under bursty arrivals too).
    traffic_model = rng.choice(
        ("poisson", "poisson", "mmpp", "flash_crowd", "incast", "elephant_mice")
    )
    config["traffic_model"] = traffic_model
    if traffic_model == "mmpp":
        config["mmpp_on_us"] = float(rng.choice((20, 40, 80)))
        config["mmpp_off_us"] = float(rng.choice((20, 40, 80)))
    elif traffic_model == "flash_crowd":
        config["flash_crowd_at_us"] = round(rng.uniform(0.2, 0.6) * sim_time_us, 3)
        config["flash_crowd_multiplier"] = float(rng.choice((1.5, 2.0, 3.0)))
    elif traffic_model == "incast":
        config["incast_period_us"] = float(rng.choice((20, 40, 60)))
        config["incast_burst_packets"] = int(rng.choice((2, 4, 8)))
    elif traffic_model == "elephant_mice":
        config["elephant_fraction"] = float(rng.choice((0.2, 0.25, 0.4)))
        config["elephant_boost"] = float(rng.choice((1.5, 2.0)))
    if num_attackers and rng.random() < 0.3:
        # mid-run coordinated attacker ramp
        config["attack_start_us"] = round(rng.uniform(0.1, 0.4) * sim_time_us, 3)
        config["attack_ramp_us"] = round(rng.uniform(0.1, 0.3) * sim_time_us, 3)

    links = mesh_link_names(width, height)
    coords = [(x, y) for y in range(height) for x in range(width)]

    def t(lo_frac: float, hi_frac: float) -> float:
        return round(rng.uniform(lo_frac, hi_frac) * sim_time_us, 3)

    link_faults = tuple(
        LinkFault(
            link=rng.choice(links),
            fail_us=t(0.10, 0.50),
            restore_us=t(0.55, 0.85) if rng.random() < 0.5 else None,
        )
        for _ in range(rng.randint(0, 2))
    )
    switch_crashes: tuple[SwitchCrash, ...] = ()
    if rng.random() < 0.35:
        x, y = rng.choice(coords)
        switch_crashes = (
            SwitchCrash(
                x=x, y=y, at_us=t(0.15, 0.45),
                restore_us=t(0.55, 0.85) if rng.random() < 0.5 else None,
            ),
        )
    tampers = tuple(
        PacketTamper(
            link=rng.choice(links),
            ordinal=rng.randint(0, 8),
            mutation=rng.choice(MUTATIONS),
            param=rng.randrange(1, 2**24),
        )
        for _ in range(rng.randint(0, 3))
    )
    injections = tuple(
        ForgedInject(
            src_lid=(pair := rng.sample(range(1, nodes + 1), 2))[0],
            dst_lid=pair[1],
            at_us=t(0.05, 0.80),
            kind=rng.choice(INJECTION_KINDS),
            param=rng.randrange(1, 2**31),
        )
        for _ in range(rng.randint(0, 3))
    )

    return Scenario(
        name=f"fuzz-{master_seed}-{index}",
        config=config,
        link_faults=link_faults,
        switch_crashes=switch_crashes,
        tampers=tampers,
        injections=injections,
    )


def generate_shard_scenario(master_seed: int, index: int) -> Scenario:
    """The ``index``-th random **shard-safe** scenario under ``master_seed``.

    Shard-safe scenarios drive the sharded-vs-single-process differential
    (DESIGN.md §3j), so they draw only from the envelope where the sharded
    engine is bit-identical to the single-process oracle on counters and
    delivery stats:

    * fat-tree topology (the only sharded topology), ``pod`` partition
      layout, two shards on ``k=4``;
    * no faults, tampers, or forged injections (those install through the
      single-process ``setup`` hook);
    * ``keymgmt=none`` / ``auth=icrc`` (key exchange is SM-interactive);
    * at most **one** flooder — multiple saturating attack flows meeting at
      a core switch create same-picosecond arbitration ties whose order is
      scheduling-dependent, which is exactly what the shard-safe guarantee
      excludes.

    Pure in ``(master_seed, index)`` like :func:`generate_scenario`.
    """
    rng = RngStreams(master_seed).get("fuzz.shard_scenario", index)

    enforcement = rng.choice(("none", "dpt", "if", "sif", "bloom"))
    num_attackers = rng.choice((0, 1, 1, 1))
    sim_time_us = float(rng.choice((200, 250, 300)))

    config = {
        "topology": "fat_tree",
        "fat_tree_k": 4,
        "num_partitions": rng.randint(2, 4),
        "partition_layout": "pod",
        "enforcement": enforcement,
        "auth": "icrc",
        "keymgmt": "none",
        "best_effort_load": rng.choice((0.30, 0.40, 0.50)),
        "realtime_load": rng.choice((0.05, 0.10)),
        "num_attackers": num_attackers,
        "attack_valid_pkey": False,
        "sif_idle_timeout_us": float(rng.choice((50, 100, 200))),
        "sim_time_us": sim_time_us,
        "warmup_us": 100.0,
        "seed": rng.randrange(1, 2**31),
        "keep_samples": True,
        "shards": 2,
        "shard_transport": "inline",
    }
    if enforcement == "bloom":
        config["bloom_bits"] = int(rng.choice((1024, 4096)))
        config["bloom_hashes"] = int(rng.choice((2, 3)))
    traffic_model = rng.choice(("poisson", "poisson", "mmpp", "elephant_mice"))
    config["traffic_model"] = traffic_model
    if traffic_model == "mmpp":
        config["mmpp_on_us"] = float(rng.choice((20, 40, 80)))
        config["mmpp_off_us"] = float(rng.choice((20, 40, 80)))
    elif traffic_model == "elephant_mice":
        config["elephant_fraction"] = float(rng.choice((0.2, 0.25)))
        config["elephant_boost"] = float(rng.choice((1.5, 2.0)))

    return Scenario(name=f"shard-fuzz-{master_seed}-{index}", config=config)


# -- mutation application ----------------------------------------------------


@dataclass(frozen=True)
class MutationContext:
    """Fabric facts a mutation may swap values against."""

    valid_pkeys: tuple[PKey, ...]  #: every partition P_Key, sorted by value.
    lids: tuple[int, ...]  #: every node LID, sorted.


def apply_mutation(packet: DataPacket, mutation: str, param: int,
                   ctx: MutationContext) -> str:
    """Mutate *packet* in place; returns the mutation actually applied
    (a guarded mutation may fall back to ``payload_bit_flip``).

    Every path leaves the packet undeliverable: either a swapped field no
    longer matches the receiver's tables, or an ICRC/MAC-covered field
    changed under an unchanged tag.  CRCs and MACs are computed from the
    fields on every check, so a tampered packet is always seen as it is.
    """
    if mutation == "pkey_swap":
        others = tuple(p for p in ctx.valid_pkeys if p.value != packet.pkey.value)
        if others:
            packet.bth.pkey = others[param % len(others)]
            return mutation
        mutation = "payload_bit_flip"
    if mutation == "dlid_swap":
        from repro.iba.types import LID

        others = tuple(l for l in ctx.lids if l != int(packet.dst))
        if others:
            packet.lrh.dlid = LID(others[param % len(others)])
            return mutation
        mutation = "payload_bit_flip"
    if mutation == "qkey_flip":
        if packet.deth is not None:
            flip = (param & 0xFFFFFFFF) or 1
            packet.deth.qkey = QKey(packet.deth.qkey.value ^ flip)
            return mutation
        mutation = "payload_bit_flip"
    if mutation == "psn_flip":
        packet.bth.psn ^= (param & 0xFFFFFF) or 1
        return mutation
    if mutation == "icrc_flip":
        packet.icrc ^= (param & 0xFFFFFFFF) or 1
        return mutation
    if mutation == "payload_truncate":
        if len(packet.payload) > 1:
            packet.payload = packet.payload[:-1]
            return mutation
        mutation = "payload_bit_flip"
    if mutation == "payload_bit_flip":
        data = bytearray(packet.payload)
        if not data:
            data = bytearray(b"\x00")
        bit = param % (len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        packet.payload = bytes(data)
        return mutation
    raise ValueError(f"unknown mutation {mutation!r}")
