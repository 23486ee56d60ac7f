"""Per-tenant metering primitives: the tap object and the usage record.

This module is the import-light bottom of the billing layer -- the
simulator kernel imports it at module load for :data:`NULL_METER`, so
it must not pull in the deployment stack.  Everything that knows about
deployments lives in :mod:`repro.billing.session`.

Two tap implementations share one interface:

``NullMeter``
    The zero-cost default every simulator starts with
    (:data:`NULL_METER`).  ``enabled`` is ``False`` and every tap is a
    no-op; instrumentation sites guard with ``if meter.enabled`` so the
    disabled path costs a few attribute loads and a branch per packet.

``TenantMeter``
    The recording tap a :class:`~repro.billing.session.MeteringSession`
    puts on its deployment's simulator (``sim.meter``) for one run:
    plain dict accumulators keyed by tenant id, harvested (and
    delta'd) at window boundaries.  Unattributable frames (no tenant
    id) land on tenant ``-1`` so conservation checks still close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Bucket for frames that carry no tenant id (control traffic, frames
#: synthesized outside the load generator).
UNATTRIBUTED = -1


class NullMeter:
    """The disabled tap: shared no-ops, nothing recorded."""

    enabled = False

    def cpu(self, tenant: Optional[int], seconds: float,
            n: int = 1) -> None:
        pass

    def pcie(self, tenant: Optional[int], nbytes: int) -> None:
        pass

    def drop(self, tenant: Optional[int], reason: str, n: int = 1) -> None:
        pass

    def fault_drop(self, tenant: Optional[int], n: int = 1) -> None:
        pass


#: The disabled meter every :class:`~repro.sim.kernel.Simulator` starts
#: with (and any component without a simulator uses).
NULL_METER = NullMeter()


class TenantMeter:
    """The recording tap: per-tenant accumulators for one run.

    All methods take the frame's tenant id (``None`` folds into
    :data:`UNATTRIBUTED`).  Totals are monotonically increasing, so a
    window harvest is a snapshot-and-subtract, exactly like the
    counters :class:`~repro.core.accounting.NetworkingMeter` reads.
    """

    enabled = True

    def __init__(self) -> None:
        #: Exact per-packet vswitch CPU (the service time the datapath
        #: actually spent on this tenant's frames), in seconds.
        self.cpu_seconds: Dict[int, float] = {}
        #: Forwarding passes executed per tenant.
        self.passes: Dict[int, int] = {}
        #: PCIe bytes DMA'd across the NIC on the tenant's behalf.
        self.pcie_bytes: Dict[int, int] = {}
        #: (tenant, reason) -> frames dropped by the mediation chain.
        self.drops: Dict[Tuple[int, str], int] = {}
        #: Frames swallowed by an injected fault (crashed vswitch rx).
        self.fault_drops: Dict[int, int] = {}

    @staticmethod
    def _key(tenant: Optional[int]) -> int:
        return UNATTRIBUTED if tenant is None else tenant

    def cpu(self, tenant: Optional[int], seconds: float,
            n: int = 1) -> None:
        """Record ``seconds`` of service time across ``n`` passes (the
        batched tap accumulates a whole bucket in one call)."""
        t = UNATTRIBUTED if tenant is None else tenant
        self.cpu_seconds[t] = self.cpu_seconds.get(t, 0.0) + seconds
        self.passes[t] = self.passes.get(t, 0) + n

    def pcie(self, tenant: Optional[int], nbytes: int) -> None:
        t = UNATTRIBUTED if tenant is None else tenant
        self.pcie_bytes[t] = self.pcie_bytes.get(t, 0) + nbytes

    def drop(self, tenant: Optional[int], reason: str, n: int = 1) -> None:
        key = (UNATTRIBUTED if tenant is None else tenant, reason)
        self.drops[key] = self.drops.get(key, 0) + n

    def fault_drop(self, tenant: Optional[int], n: int = 1) -> None:
        t = UNATTRIBUTED if tenant is None else tenant
        self.fault_drops[t] = self.fault_drops.get(t, 0) + n

    def totals(self) -> Dict[str, dict]:
        """A point-in-time copy of every accumulator (window harvest)."""
        return {
            "cpu": dict(self.cpu_seconds),
            "passes": dict(self.passes),
            "pcie": dict(self.pcie_bytes),
            "drops": dict(self.drops),
            "fault_drops": dict(self.fault_drops),
        }


@dataclass
class UsageRecord:
    """One tenant's metered usage over one accounting window.

    Two CPU numbers deliberately coexist:

    - ``cpu_seconds`` is the **billable** attribution -- the same
      proportional-share estimate :class:`NetworkingMeter` produces
      (exact for single-tenant compartments), so invoices reconcile
      with the accounting ground truth by construction;
    - ``cpu_seconds_exact`` is the per-packet tap's answer -- what the
      datapath *actually* spent on this tenant.  The gap between the
      two is the misattribution the billing report quantifies.
    """

    tenant_id: int
    compartment: int
    #: Window bounds in simulated seconds.
    t0: float
    t1: float
    #: Billable vswitch CPU (accounting-consistent attribution).
    cpu_seconds: float = 0.0
    #: Per-packet exact vswitch CPU from the dataplane tap.
    cpu_seconds_exact: float = 0.0
    #: Physical core-seconds behind ``cpu_seconds`` (busy time divided
    #: by the core's sharers; equals ``cpu_seconds`` on dedicated cores).
    core_seconds: float = 0.0
    #: NIC bytes through the tenant's attachment points (gateway-VF
    #: hardware counters under MTS; flow-rule counters on the Baseline).
    io_bytes: int = 0
    #: PCIe bytes DMA'd for this tenant's frames.
    pcie_bytes: int = 0
    #: Forwarding passes the vswitch executed for this tenant.
    passes: int = 0
    #: Mediation-chain drops by reason.
    drops: Dict[str, int] = field(default_factory=dict)
    #: Recovery work (flow re-sync, ARP re-learn) charged to this
    #: tenant because its compartment faulted, in seconds.
    fault_seconds: float = 0.0
    #: Frames of this tenant swallowed by an injected fault.
    fault_drops: int = 0
    #: Compartment RAM attributed over the window (byte-seconds).
    memory_byte_seconds: float = 0.0
    #: Attribution quality ("exact" / "estimated" / "self-reported").
    quality: str = "estimated"

    @property
    def window_seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu_utilization(self) -> float:
        """Busy fraction of the window; 0 for an empty window (never
        NaN)."""
        window = self.window_seconds
        return self.cpu_seconds / window if window > 0 else 0.0

    @property
    def io_bytes_per_second(self) -> float:
        window = self.window_seconds
        return self.io_bytes / window if window > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": "usage",
            "tenant": self.tenant_id,
            "compartment": self.compartment,
            "t0": self.t0,
            "t1": self.t1,
            "cpu_seconds": self.cpu_seconds,
            "cpu_seconds_exact": self.cpu_seconds_exact,
            "core_seconds": self.core_seconds,
            "io_bytes": self.io_bytes,
            "pcie_bytes": self.pcie_bytes,
            "passes": self.passes,
            "drops": dict(self.drops),
            "fault_seconds": self.fault_seconds,
            "fault_drops": self.fault_drops,
            "memory_byte_seconds": self.memory_byte_seconds,
            "quality": self.quality,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UsageRecord":
        return cls(
            tenant_id=data["tenant"],
            compartment=data.get("compartment", 0),
            t0=data["t0"],
            t1=data["t1"],
            cpu_seconds=data.get("cpu_seconds", 0.0),
            cpu_seconds_exact=data.get("cpu_seconds_exact", 0.0),
            core_seconds=data.get("core_seconds", 0.0),
            io_bytes=data.get("io_bytes", 0),
            pcie_bytes=data.get("pcie_bytes", 0),
            passes=data.get("passes", 0),
            drops=dict(data.get("drops", {})),
            fault_seconds=data.get("fault_seconds", 0.0),
            fault_drops=data.get("fault_drops", 0),
            memory_byte_seconds=data.get("memory_byte_seconds", 0.0),
            quality=data.get("quality", "estimated"),
        )
