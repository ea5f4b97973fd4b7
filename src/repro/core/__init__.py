"""The paper's contributions: switch-level partition enforcement (Section 3),
authentication key management (Section 4), and ICRC-as-MAC authentication
(Section 5), plus the executable threat matrix (Table 3) and the Section-7
extensions (replay protection, alternative fast MACs).
"""

from repro.core.enforcement import (
    BloomPortFilter,
    SIFPortFilter,
    TablePortFilter,
    TrapDrivenPortFilter,
    bloom_port_filter,
    install_enforcement,
)
from repro.core.overhead import EnforcementOverheadModel, OverheadRow
from repro.core.auth import (
    AUTH_FUNCTIONS,
    AuthFunction,
    IcrcAuthService,
    MacAuthService,
    auth_function_for,
)
from repro.core.keymgmt import (
    PartitionLevelKeyManager,
    QPLevelKeyManager,
    NodeDirectory,
)
from repro.core.attacks import RandomPKeyFlooder, SMTrapFlooder, forge_packet
from repro.core.threats import ThreatOutcome, run_threat_matrix
from repro.core.fastmac import PartialDigestFunction
from repro.core.replay import ReplayWindowAnalysis, run_replay_experiment

__all__ = [
    "TablePortFilter",
    "TrapDrivenPortFilter",
    "SIFPortFilter",
    "BloomPortFilter",
    "bloom_port_filter",
    "install_enforcement",
    "EnforcementOverheadModel",
    "OverheadRow",
    "AUTH_FUNCTIONS",
    "AuthFunction",
    "IcrcAuthService",
    "MacAuthService",
    "auth_function_for",
    "PartitionLevelKeyManager",
    "QPLevelKeyManager",
    "NodeDirectory",
    "RandomPKeyFlooder",
    "SMTrapFlooder",
    "forge_packet",
    "ThreatOutcome",
    "run_threat_matrix",
    "PartialDigestFunction",
    "ReplayWindowAnalysis",
    "run_replay_experiment",
]
