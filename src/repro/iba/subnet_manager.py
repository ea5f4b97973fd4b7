"""Subnet Manager — partition owner, trap handler, SIF activator.

In IBA the SM configures every port (protected by its M_Key), assigns
P_Keys, and receives trap MADs.  The paper's SIF design adds one behaviour:
on a P_Key-violation trap, "the SM ... knows who sent the invalid P_Key
packets and locates the switch it is connected to.  SM can register the
invalid P_Key to the Invalid_P_Key_Table of the switch, and then enable the
switch's filtering function."

The SM also models its own finite trap-processing capacity so the Section-7
"DoS attack on the SM by dumping management messages" scenario is
executable: traps beyond the queue bound are dropped and counted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.iba.keys import MKey, PKey
from repro.iba.packet import TrapMAD
from repro.iba.types import LID
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_US


class SubnetManager:
    """The subnet's single SM (paper assumes one; master-SM election is out
    of scope)."""

    def __init__(
        self,
        engine: Engine,
        trap_latency_us: float = 10.0,
        processing_us: float = 2.0,
        queue_limit: int = 64,
        mkey: MKey | None = None,
        registry: CounterRegistry | None = None,
    ) -> None:
        self.engine = engine
        self.trap_latency_ps = round(trap_latency_us * PS_PER_US)
        self.processing_ps = round(processing_us * PS_PER_US)
        self.queue_limit = queue_limit
        self.mkey = mkey or MKey(0)
        #: offender LID -> callable(bad_pkey, now_ps) that registers the
        #: P_Key at the offender's ingress switch filter (wired by the
        #: fabric builder when SIF is active).
        self.registration_hooks: dict[int, Callable[[PKey, int], None]] = {}
        #: partition index -> set of member LIDs.
        self.partitions: dict[int, set[int]] = {}
        self._queue: deque[TrapMAD] = deque()
        self._busy = False
        # statistics (registry-owned; see repro.sim.counters)
        self.registry = registry if registry is not None else CounterRegistry()
        self.traps_received = self.registry.counter("sm.traps_received")
        self.traps_processed = self.registry.counter("sm.traps_processed")
        self.traps_dropped = self.registry.counter("sm.traps_dropped")
        self.registrations = self.registry.counter("sm.registrations")

    # --- partition administration ------------------------------------------

    def create_partition(self, index: int, members: set[int]) -> PKey:
        """Define partition *index* with *members* (LIDs); returns its P_Key
        (full membership)."""
        if not 1 <= index <= 0x7FFE:
            raise ValueError("partition index out of range")
        self.partitions[index] = set(members)
        return PKey(index | PKey.FULL_MEMBER_BIT)

    def valid_pkey_indices(self) -> set[int]:
        return set(self.partitions)

    def partitions_of(self, lid: int) -> set[int]:
        return {idx for idx, members in self.partitions.items() if lid in members}

    # --- trap path ---------------------------------------------------------------

    def submit_trap(self, trap: TrapMAD) -> None:
        """Entry point HCAs call; models management-VL transit then queueing."""
        self.traps_received.inc()
        self.engine.schedule(self.trap_latency_ps, self._arrive, trap)

    def _arrive(self, trap: TrapMAD) -> None:
        if len(self._queue) >= self.queue_limit:
            self.traps_dropped.inc()  # the SM-flood DoS shows up here
            return
        self._queue.append(trap)
        if not self._busy:
            self._busy = True
            self._schedule_next()

    def _process_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        trap = self._queue.popleft()
        self.traps_processed.inc()
        hook = self.registration_hooks.get(int(trap.offender))
        if hook is not None:
            hook(trap.bad_pkey, self.engine.now)
            self.registrations.inc()
        if self._queue:
            self._schedule_next()
        else:
            self._busy = False

    def _schedule_next(self) -> None:
        """Schedule the processing step of the trap at the queue's head.
        Traps are processed in arrival order, so that head is the trap the
        step will pop (the sharded engine posts its registration here)."""
        self.engine.schedule(self.processing_ps, self._process_next)

    # --- management-plane access control (Table 3 threat surface) ----------------

    def subn_set(self, presented: MKey | None) -> bool:
        """A SubnSet() against the SM-protected attributes: M_Key gate."""
        return self.mkey.permits(presented)
