"""Shared fixtures: small fabrics, packets, and common configs."""

import pytest

from repro.iba.keys import PKey, QKey
from repro.iba.packet import (
    BaseTransportHeader,
    DataPacket,
    DatagramExtendedHeader,
    GlobalRouteHeader,
    LocalRouteHeader,
)
from repro.iba.topology import build_mesh
from repro.iba.types import LID, QPN, ServiceType, TrafficClass
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector


def make_packet(
    src=1,
    dst=2,
    pkey=PKey(0x8001),
    qkey=QKey(0x1234),
    dest_qp=0x102,
    src_qp=0x101,
    psn=0,
    vl=0,
    service_level=0,
    payload=b"payload-bytes",
    wire_length=1058,
    traffic_class=TrafficClass.BEST_EFFORT,
) -> DataPacket:
    """A fully-formed UD data packet for unit tests."""
    lrh = LocalRouteHeader(
        vl=vl, service_level=service_level, dlid=LID(dst), slid=LID(src),
        packet_length=(wire_length + 3) // 4,
    )
    bth = BaseTransportHeader(opcode=0x64, pkey=pkey, dest_qp=QPN(dest_qp), psn=psn)
    deth = DatagramExtendedHeader(qkey=qkey, src_qp=QPN(src_qp))
    return DataPacket(
        lrh=lrh, bth=bth, deth=deth, payload=payload,
        wire_length=wire_length, service=ServiceType.UNRELIABLE_DATAGRAM,
        traffic_class=traffic_class,
    )


def head_masks(out_port, inputs, num_vls=2):
    """The arbitration index ``VLArbiter.pick`` takes for *out_port*: per
    VL, the bitmask of the *inputs* whose FIFO head wants *out_port*."""
    masks = [0] * num_vls
    for in_port, buf in enumerate(inputs):
        for vl in range(num_vls):
            head = buf.fifos[vl].head()
            if head is not None and head.out_port == out_port:
                masks[vl] |= 1 << in_port
    return masks


def make_grh_packet() -> DataPacket:
    """:func:`make_packet` with a GRH (inter-subnet packet)."""
    p = make_packet()
    p.grh = GlobalRouteHeader(
        src_gid=bytes(range(16)), dst_gid=bytes(range(16, 32)),
        hop_limit=64, flow_label=0x111,
    )
    return p


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def tiny_config():
    """2x2 mesh, no traffic — fast unit-test fabric."""
    return SimConfig(
        mesh_width=2,
        mesh_height=2,
        num_partitions=2,
        enable_realtime=False,
        enable_best_effort=False,
        sim_time_us=500.0,
        warmup_us=0.0,
        seed=42,
    )


@pytest.fixture
def tiny_fabric(engine, tiny_config):
    metrics = MetricsCollector()
    return build_mesh(engine, tiny_config, metrics)


@pytest.fixture
def paper_config():
    """The paper's 16-node testbed at light load, short horizon."""
    return SimConfig(sim_time_us=400.0, warmup_us=20.0, seed=7, best_effort_load=0.3)
