"""PCIe bus model.

The paper's discussion section (quoting Neugebauer et al., SIGCOMM'18)
notes that a typical x8 PCIe 3.0 NIC has an effective bi-directional
bandwidth of roughly 50 Gbps, and that MTS's extra NIC round trips make
the PCIe bus a potential bottleneck at 40/100G.  We model the bus as a
shared bandwidth pool with a small per-transfer (DMA + doorbell) latency,
so experiments can sweep lane counts and generations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from repro.units import GBPS, USEC


class PcieGen(Enum):
    """PCIe generation with per-lane effective data rate.

    Values are *effective* (post-encoding) per-lane rates in Gbps; the
    usable fraction below additionally accounts for TLP header overhead at
    a 256 B maximum payload size, following Neugebauer et al.
    """

    GEN3 = 7.877
    GEN4 = 15.754

    @property
    def per_lane_bps(self) -> float:
        return self.value * GBPS


#: Fraction of raw PCIe bandwidth usable for payload with 256 B MPS
#: (TLP header 24 B per 256 B payload, plus flow-control DLLPs).
USABLE_FRACTION = 0.8

#: One-way DMA latency for a small transfer (doorbell + descriptor fetch
#: + payload write), per Neugebauer et al.'s sub-microsecond measurements.
DMA_LATENCY = 0.9 * USEC


@dataclass
class PcieBus:
    """A PCIe endpoint's link: ``lanes`` x ``gen``, shared by all VFs.

    The bus tracks cumulative bytes so experiments can report utilization;
    :meth:`transfer_time` gives the per-frame DMA cost used by the DES,
    and :meth:`effective_bandwidth_bps` the capacity bound used by the
    analytic model.
    """

    gen: PcieGen = PcieGen.GEN3
    lanes: int = 8
    bytes_transferred: int = 0

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid PCIe lane count: {self.lanes}")

    def effective_bandwidth_bps(self) -> float:
        """Usable one-direction payload bandwidth in bits/s.

        x8 Gen3 comes out at ~50 Gbps, matching the figure the paper
        quotes for the usable bi-directional bandwidth of a typical NIC.
        """
        return self.gen.per_lane_bps * self.lanes * USABLE_FRACTION

    def transfer_time(self, size_bytes: int, n: int = 1) -> float:
        """DMA ``n`` same-size frames across the bus: each pays the same
        latency + serialization (returned once); byte accounting covers
        all ``n``.  Per-tenant metering is the NIC port's job."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        self.bytes_transferred += size_bytes * n
        return DMA_LATENCY + size_bytes * 8.0 / self.effective_bandwidth_bps()

    def capacity_pps(self, frame_bytes: int) -> float:
        """Frames/s the bus sustains at a given frame size (per direction)."""
        return self.effective_bandwidth_bps() / (frame_bytes * 8.0)
