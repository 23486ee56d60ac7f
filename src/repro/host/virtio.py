"""The virtio/vhost path between the Baseline vswitch and tenant VMs.

In the Baseline deployment, tenant VMs attach to the host-resident OVS
through paravirtualized NICs: a frame crossing into or out of the VM
pays a vhost kick (ioeventfd), a context switch into the vhost worker,
and a memory-bus copy.  This is the "software approach over the memory
bus" the paper contrasts with SR-IOV's PCIe path; its per-crossing CPU
cost is the single biggest reason Baseline p2v/v2v throughput trails
MTS.

This module models the crossing as a latency + CPU-cost pair; the cycle
constants live in :mod:`repro.perfmodel.calibration` and are threaded in
by the deployment builder so that the DES and the analytic model agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.interfaces import PortPair
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.units import USEC


@dataclass
class VhostCosts:
    """Per-crossing costs of the virtio/vhost path."""

    #: CPU cycles the host side burns per frame (vhost worker + copy).
    cycles_per_crossing: float = 3000.0
    #: One-way latency of a crossing at low load (ioeventfd kick, vhost
    #: worker wakeup, copy); tens of microseconds at low rate.
    latency: float = 25.0 * USEC


class VhostPath:
    """A bidirectional virtio link: host-side endpoint <-> guest endpoint.

    Both directions are modelled identically: ``latency`` of delay and a
    cycle cost that the owning datapath charges to its compute share.
    The guest side is a :class:`PortPair` the tenant application holds;
    the host side is a :class:`PortPair` the vswitch bridge holds.
    """

    def __init__(self, sim: Simulator, name: str, costs: VhostCosts = VhostCosts()):
        self.sim = sim
        self.name = name
        self.costs = costs
        self.host_side = PortPair(f"{name}.host")
        self.guest_side = PortPair(f"{name}.guest")
        self.host_side.attach_tx(self._to_guest)
        self.guest_side.attach_tx(self._to_host)
        self.crossings = 0

    def _to_guest(self, frame: Frame) -> None:
        self.crossings += 1
        self.sim.tracer.vhost(self.name, frame, "h2g", self.costs.latency)
        self.sim.call_later(self.costs.latency, self.guest_side.rx.receive, frame)

    def _to_host(self, frame: Frame) -> None:
        self.crossings += 1
        self.sim.tracer.vhost(self.name, frame, "g2h", self.costs.latency)
        self.sim.call_later(self.costs.latency, self.host_side.rx.receive, frame)
