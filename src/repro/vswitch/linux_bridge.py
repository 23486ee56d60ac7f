"""The in-tenant Linux bridge used by the Baseline.

In the Baseline's p2v/v2v scenarios the tenant VM forwards packets
between its two virtio interfaces with the default Linux bridge (the
paper notes DPDK inside the tenant is not a recommended configuration
without vhost-user backing).  It is a plain learning bridge with a
per-frame kernel cost and interrupt latency, charged to the tenant VM's
cores -- which, with the tenant's two dedicated cores, is never the
bottleneck, but it does add latency versus MTS's in-tenant DPDK l2fwd.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.net.addresses import MacAddress
from repro.net.interfaces import PortPair
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.units import USEC

#: Kernel bridge forwarding cost and latency (netif_rx -> br_forward ->
#: dev_queue_xmit, at low load).
LINUX_BRIDGE_CYCLES = 1500.0
LINUX_BRIDGE_LATENCY = 30.0 * USEC


class LinuxBridge:
    """A learning L2 bridge inside a tenant VM."""

    def __init__(
        self,
        name: str,
        sim: Optional[Simulator] = None,
        freq_hz: float = 2.1e9,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.freq_hz = freq_hz
        self.rng = rng if rng is not None else random.Random(0)
        self._ports: List[PortPair] = []
        self._mac_table: Dict[MacAddress, int] = {}
        self.forwarded = 0
        self.flooded = 0

    def add_port(self, pair: PortPair) -> int:
        index = len(self._ports)
        self._ports.append(pair)
        pair.rx.connect(lambda frame, i=index: self._ingress(i, frame))
        return index

    def _ingress(self, in_index: int, frame: Frame) -> None:
        if not frame.src_mac.is_multicast:
            self._mac_table[frame.src_mac] = in_index
        delay = LINUX_BRIDGE_LATENCY + LINUX_BRIDGE_CYCLES / self.freq_hz
        if self.sim is not None:
            self.sim.tracer.tenant_forward(self.name, frame, delay)
            self.sim.call_later(delay, self._forward, in_index, frame)
        else:
            self._forward(in_index, frame)

    def _forward(self, in_index: int, frame: Frame) -> None:
        hit = self._mac_table.get(frame.dst_mac)
        if frame.dst_mac.is_multicast or hit is None:
            self.flooded += 1
            outs = [i for i in range(len(self._ports)) if i != in_index]
        elif hit == in_index:
            return
        else:
            outs = [hit]
        self.forwarded += 1
        for i, out in enumerate(outs):
            self._ports[out].transmit(
                frame if i == len(outs) - 1 else frame.copy())
