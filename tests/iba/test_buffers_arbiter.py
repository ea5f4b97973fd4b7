"""Input buffers (occupancy accounting) and VL arbitration (realtime
priority, round-robin fairness)."""

import random

import pytest

from repro.iba.arbiter import PRIORITY_VLS, VLArbiter
from repro.iba.buffers import IDLE_FIFO, InputBuffer
from repro.iba.types import VL_BEST_EFFORT, VL_REALTIME

from tests.conftest import head_masks, make_packet


class TestInputBuffer:
    def test_processing_then_ready(self):
        buf = InputBuffer(num_vls=2, capacity_per_vl=2)
        buf.begin_processing(0)
        assert buf.fifos[0].occupancy == 1
        p = make_packet(vl=0)
        buf.make_ready(p, out_port=3)
        assert buf.fifos[0].occupancy == 1
        head = buf.fifos[0].head()
        assert head.packet is p and head.out_port == 3

    def test_overflow_raises(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=1)
        buf.begin_processing(0)
        with pytest.raises(RuntimeError):
            buf.begin_processing(0)

    def test_drop_frees_slot(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=1)
        buf.begin_processing(0)
        buf.drop_processing(0)
        buf.begin_processing(0)  # no overflow now

    def test_make_ready_requires_processing(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=4)
        with pytest.raises(RuntimeError):
            buf.make_ready(make_packet(vl=0), 0)

    def test_pop_head_fifo_order(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=4)
        p1, p2 = make_packet(vl=0), make_packet(vl=0)
        buf.begin_processing(0)
        buf.make_ready(p1, 1)
        buf.begin_processing(0)
        buf.make_ready(p2, 1)
        assert buf.pop_head(0).packet is p1
        assert buf.pop_head(0).packet is p2

    def test_vl_isolation(self):
        buf = InputBuffer(num_vls=2, capacity_per_vl=1)
        buf.begin_processing(0)
        buf.begin_processing(1)  # separate VL has its own capacity
        assert buf.fifos[0].occupancy == 1
        assert buf.fifos[1].occupancy == 1


class TestPerVLAllocation:
    """A VL gets its FIFO at its first packet; the other 15 of a 16-VL
    port share the always-empty IDLE_FIFO."""

    def test_fresh_buffer_holds_no_fifo(self):
        buf = InputBuffer(num_vls=16, capacity_per_vl=4)
        assert all(fifo is IDLE_FIFO for fifo in buf.fifos)
        assert all(fifo.occupancy == 0 and fifo.head() is None for fifo in buf.fifos)

    def test_only_the_used_vl_gets_a_fifo(self):
        buf = InputBuffer(num_vls=16, capacity_per_vl=4)
        buf.begin_processing(VL_REALTIME)
        used = [vl for vl, fifo in enumerate(buf.fifos) if fifo is not IDLE_FIFO]
        assert used == [VL_REALTIME]
        assert buf.fifos[VL_REALTIME].capacity == 4

    def test_fifo_order_and_overflow_on_a_lazy_vl(self):
        buf = InputBuffer(num_vls=16, capacity_per_vl=2)
        p1, p2 = make_packet(vl=9), make_packet(vl=9)
        for p in (p1, p2):
            buf.begin_processing(9)
            buf.make_ready(p, 1)
        with pytest.raises(RuntimeError, match="overflow"):
            buf.begin_processing(9)
        assert buf.pop_head(9).packet is p1
        assert buf.pop_head(9).packet is p2
        with pytest.raises(IndexError):
            buf.pop_head(9)

    def test_unused_vl_refuses_writes_and_pops(self):
        buf = InputBuffer(num_vls=16, capacity_per_vl=2)
        with pytest.raises(RuntimeError):
            buf.make_ready(make_packet(vl=3), 0)
        with pytest.raises(RuntimeError):
            buf.drop_processing(3)
        with pytest.raises(IndexError):
            buf.pop_head(3)
        assert IDLE_FIFO.occupancy == 0 and not IDLE_FIFO.ready


def _buffer_with(packets):
    """InputBuffer holding given ready (packet, out_port) entries."""
    vls = max((p.vl for p, _ in packets), default=0) + 1
    buf = InputBuffer(num_vls=max(2, vls), capacity_per_vl=8)
    for p, out in packets:
        buf.begin_processing(p.vl)
        buf.make_ready(p, out)
    return buf


#: One downstream credit on each of the two VLs.
FULL_CREDITS = [1, 1]


class TestArbiter:
    def test_priority_order_constant(self):
        assert PRIORITY_VLS == (VL_REALTIME, VL_BEST_EFFORT)

    def test_realtime_wins(self):
        rt = make_packet(vl=VL_REALTIME)
        be = make_packet(vl=VL_BEST_EFFORT)
        inputs = [_buffer_with([(be, 0)]), _buffer_with([(rt, 0)])]
        arb = VLArbiter(num_vls=2)
        port, entry = arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs))
        assert entry.packet is rt and port == 1

    def test_best_effort_when_no_realtime(self):
        be = make_packet(vl=VL_BEST_EFFORT)
        inputs = [_buffer_with([(be, 0)]), _buffer_with([])]
        arb = VLArbiter(num_vls=2)
        port, entry = arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs))
        assert entry.packet is be

    def test_credit_gate(self):
        rt = make_packet(vl=VL_REALTIME)
        be = make_packet(vl=VL_BEST_EFFORT)
        inputs = [_buffer_with([(rt, 0), (be, 0)])]
        arb = VLArbiter(num_vls=2)
        # no realtime credit: best-effort goes instead
        credits = [0, 0]
        credits[VL_BEST_EFFORT] = 1
        port, entry = arb.pick(0, inputs, credits, head_masks(0, inputs))
        assert entry.packet is be

    def test_wrong_out_port_ignored(self):
        p = make_packet(vl=0)
        inputs = [_buffer_with([(p, 3)])]
        arb = VLArbiter(num_vls=2)
        assert arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs)) is None

    def test_none_when_empty(self):
        arb = VLArbiter(num_vls=2)
        inputs = [_buffer_with([])]
        assert arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs)) is None

    def test_round_robin_across_inputs(self):
        a = make_packet(vl=0)
        b = make_packet(vl=0)
        inputs = [_buffer_with([(a, 0)]), _buffer_with([(b, 0)])]
        arb = VLArbiter(num_vls=2)
        first_port, first = arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs))
        inputs[first_port].pop_head(0)
        second_port, second = arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs))
        assert {first.packet, second.packet} == {a, b}
        assert first_port != second_port

    def test_rr_pointer_rotates_under_contention(self):
        """With both inputs always loaded, grants must alternate."""
        arb = VLArbiter(num_vls=2)
        inputs = [
            _buffer_with([(make_packet(vl=0), 0) for _ in range(4)]),
            _buffer_with([(make_packet(vl=0), 0) for _ in range(4)]),
        ]
        order = []
        for _ in range(6):
            port, entry = arb.pick(0, inputs, FULL_CREDITS, head_masks(0, inputs))
            inputs[port].pop_head(0)
            order.append(port)
        assert order[:4] in ([0, 1, 0, 1], [1, 0, 1, 0])


class ModelArbiter:
    """Brute-force model of :class:`VLArbiter`: strict VL priority (or the
    ``high_limit`` streak's turn for low priority), then a scan of every
    input from the VL's round-robin pointer."""

    def __init__(self, high_limit=None):
        self.high_limit = high_limit
        self.pointer = {vl: 0 for vl in PRIORITY_VLS}
        self.streak = {}

    def pick(self, out_port, inputs, credits):
        order = list(PRIORITY_VLS)
        if self.high_limit is not None and self.streak.get(out_port, 0) >= self.high_limit:
            order.reverse()
        for vl in order:
            if credits[vl] <= 0:
                continue
            for i in range(len(inputs)):
                in_port = (self.pointer[vl] + i) % len(inputs)
                head = inputs[in_port].fifos[vl].head()
                if head is not None and head.out_port == out_port:
                    self.pointer[vl] = (in_port + 1) % len(inputs)
                    if self.high_limit is not None:
                        high = vl == PRIORITY_VLS[0]
                        self.streak[out_port] = self.streak.get(out_port, 0) + 1 if high else 0
                    return in_port, head
        return None


@pytest.mark.parametrize("high_limit", [None, 1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mask_pick_matches_brute_force_model(seed, high_limit):
    """On random FIFO states, credits and output ports, the mask pick
    grants what scanning every input from the pointer grants."""
    rng = random.Random(seed)
    num_inputs, num_outputs = 7, 3
    inputs = [InputBuffer(num_vls=2, capacity_per_vl=64) for _ in range(num_inputs)]
    arb, model = VLArbiter(num_vls=2, high_limit=high_limit), ModelArbiter(high_limit)
    grants = 0
    for _ in range(600):
        for _ in range(rng.randrange(3)):  # new ready packets
            vl = rng.choice(PRIORITY_VLS)
            buf = inputs[rng.randrange(num_inputs)]
            buf.begin_processing(vl)
            buf.make_ready(make_packet(vl=vl), rng.randrange(num_outputs))
        out_port = rng.randrange(num_outputs)
        credits = [rng.choice((0, 1, 1)), rng.choice((0, 1, 1))]
        got = arb.pick(out_port, inputs, credits, head_masks(out_port, inputs))
        assert got == model.pick(out_port, inputs, credits)
        if got is not None:
            in_port, entry = got
            assert inputs[in_port].pop_head(entry.packet.vl) is entry
            grants += 1
    assert grants > 200
