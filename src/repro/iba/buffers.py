"""Per-VL input buffering for switch and HCA ports.

Each input port has one FIFO per virtual lane.  A packet physically occupies
a slot from the moment the upstream transmitter consumed the credit until
the packet has fully left this buffer downstream — the accounting that makes
credit-based flow control exact.

Packets become *ready* (eligible for output arbitration) only after the
switch's routing/enforcement pipeline has processed them, so the FIFO keeps
two regions: arrived-but-processing, and ready-with-assigned-output.

A port has 16 VLs but traffic uses two of them, so a VL gets its own
:class:`VLFifo` only when its first packet arrives; until then its slot
holds :data:`IDLE_FIFO`, a shared FIFO that is always empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iba.packet import DataPacket


@dataclass
class ReadyEntry:
    packet: DataPacket
    out_port: int


class VLFifo:
    """One VL's FIFO at one input port.

    ``ready`` is a plain list: it never holds more than ``capacity``
    entries, so popping its head is cheap."""

    __slots__ = ("capacity", "ready", "processing")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.ready: list[ReadyEntry] = []
        #: packets that arrived but are still in the routing/enforcement stage.
        self.processing = 0

    @property
    def occupancy(self) -> int:
        return len(self.ready) + self.processing

    def head(self) -> ReadyEntry | None:
        return self.ready[0] if self.ready else None


#: The FIFO of every VL that has not carried a packet yet.  Its ``ready``
#: is an empty tuple, so it reads as empty and cannot be appended to; the
#: buffer swaps in a real FIFO at the VL's first ``begin_processing``.
IDLE_FIFO = VLFifo(0)
IDLE_FIFO.ready = ()


class InputBuffer:
    """All VL FIFOs of one input port."""

    __slots__ = ("fifos", "capacity_per_vl")

    def __init__(self, num_vls: int, capacity_per_vl: int) -> None:
        self.capacity_per_vl = capacity_per_vl
        self.fifos = [IDLE_FIFO] * num_vls

    def begin_processing(self, vl: int) -> None:
        """A packet has physically arrived and entered the pipeline."""
        fifo = self.fifos[vl]
        if fifo is IDLE_FIFO:
            fifo = self.fifos[vl] = VLFifo(self.capacity_per_vl)
        if fifo.occupancy >= fifo.capacity:
            raise RuntimeError(
                f"VL{vl} buffer overflow — credit accounting violated "
                f"(occupancy {fifo.occupancy} >= capacity {fifo.capacity})"
            )
        fifo.processing += 1

    def make_ready(self, packet: DataPacket, out_port: int) -> None:
        """Routing finished: packet may now compete for its output port."""
        fifo = self.fifos[packet.lrh.vl]
        if fifo.processing <= 0:
            raise RuntimeError("make_ready without begin_processing")
        fifo.processing -= 1
        fifo.ready.append(ReadyEntry(packet, out_port))

    def drop_processing(self, vl: int) -> None:
        """Packet was filtered/dropped during the pipeline stage."""
        fifo = self.fifos[vl]
        if fifo.processing <= 0:
            raise RuntimeError("drop_processing without begin_processing")
        fifo.processing -= 1

    def pop_head(self, vl: int) -> ReadyEntry:
        """Remove and return the VL's head entry (IndexError when empty)."""
        ready = self.fifos[vl].ready
        if not ready:
            raise IndexError(f"pop_head on empty VL{vl} FIFO")
        return ready.pop(0)
