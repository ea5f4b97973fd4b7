"""VL arbitration — who gets the output port next.

IBA arbitration is a two-table scheme (high-priority table, low-priority
table, limit counter).  The paper's testbed uses it in its simplest
effective form: realtime VLs sit in the high-priority table and win over
best-effort whenever they have a packet and a credit — "IBA's VL
arbitration gives higher priority to realtime traffic", the reason Figure 1
shows best-effort hurting more under DoS.

Within one priority class we round-robin across input ports so no input
starves (the fairness a real iterative allocator provides).
"""

from __future__ import annotations

from typing import Sequence

from repro.iba.buffers import InputBuffer, ReadyEntry
from repro.iba.types import VL_BEST_EFFORT, VL_REALTIME

#: Arbitration order over VLs: strict priority, realtime first.
PRIORITY_VLS: tuple[int, ...] = (VL_REALTIME, VL_BEST_EFFORT)


class VLArbiter:
    """Per-output-port arbiter over (input port, VL) candidates.

    ``high_limit=None`` gives strict priority (the paper's testbed
    behaviour: realtime always wins).  A positive ``high_limit`` models
    IBA's two-table arbitration with a Limit-of-High-Priority counter:
    after that many consecutive high-priority grants on a port while
    low-priority traffic waits, one low-priority packet is served —
    bounding best-effort starvation.
    """

    __slots__ = ("_rr_pointer", "high_limit", "_high_streak")

    def __init__(self, num_vls: int, high_limit: int | None = None) -> None:
        # One round-robin pointer per VL (shared across output scans).
        self._rr_pointer = [0] * num_vls
        if high_limit is not None and high_limit < 1:
            raise ValueError("high_limit must be None or >= 1")
        self.high_limit = high_limit
        #: consecutive high-priority grants per output port.
        self._high_streak: dict[int, int] = {}

    def pick(
        self,
        out_port: int,
        inputs: Sequence[InputBuffer],
        credits: Sequence[int],
        heads: Sequence[int],
    ) -> tuple[int, ReadyEntry] | None:
        """Choose the next packet to cross to *out_port*.

        Only FIFO heads are eligible (per-VL order is preserved;
        head-of-line blocking across output ports is real and intended).
        *credits* is the output link's per-VL downstream credit count.
        *heads* is the switch's arbitration index for *out_port*: per VL, a
        bitmask of the input ports whose FIFO head wants *out_port*.  The
        round-robin winner is the first set bit at or after the VL's
        pointer, wrapping to the lowest set bit.

        Returns (input_port, entry) or None; does not mutate buffers.
        """
        order = PRIORITY_VLS
        if self.high_limit is not None:
            streak = self._high_streak.get(out_port, 0)
            if streak >= self.high_limit:
                order = tuple(reversed(PRIORITY_VLS))  # low priority's turn
        for vl in order:
            mask = heads[vl]
            if not mask or credits[vl] <= 0:
                continue
            start = self._rr_pointer[vl]
            ahead = mask >> start << start or mask  # from the pointer on, else all
            in_port = (ahead & -ahead).bit_length() - 1
            self._rr_pointer[vl] = (in_port + 1) % len(inputs)
            if self.high_limit is not None:
                if vl == PRIORITY_VLS[0]:
                    self._high_streak[out_port] = self._high_streak.get(out_port, 0) + 1
                else:
                    self._high_streak[out_port] = 0
            return in_port, inputs[in_port].fifos[vl].ready[0]
        return None
