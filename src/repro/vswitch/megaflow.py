"""The megaflow/flow cache and its slow path.

OVS-style switches answer most packets from an exact-ish match cache;
a miss *upcalls* to the slow path (classification over the full
OpenFlow pipeline + cache insertion), costing orders of magnitude more
CPU.  This asymmetry is the lever of the Csikor et al. "policy
injection" cloud-dataplane DoS the paper cites as motivation [15]: an
attacker who crafts packets that never hit the cache burns the shared
vswitch's CPU at a tiny packet budget, starving co-located tenants.

The model: an LRU cache keyed by the packet 5-tuple (+ in_port).  Hits
cost nothing extra (the fast-path cost is already in the datapath's
per-pass cycles); misses add ``upcall_cycles``.  Statistics feed the
policy-injection experiment and the accounting of who caused the slow-
path load.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.net.packet import Frame

#: Kernel-OVS upcall to ovs-vswitchd and back: ~70 us of CPU at 2.1 GHz.
KERNEL_UPCALL_CYCLES = 150_000.0

#: OVS-DPDK's miss stays in user space (EMC -> dpcls -> ofproto):
#: far cheaper, but still ~20x a fast-path pass.
DPDK_UPCALL_CYCLES = 12_000.0

#: Default cache capacity (the kernel datapath's flow-table scale).
DEFAULT_CAPACITY = 8192


def flow_signature(frame: Frame, in_port: int) -> Tuple:
    """The microflow key: port + L2 + 5-tuple."""
    return (in_port, frame.src_mac, frame.dst_mac, frame.ethertype,
            frame.src_ip, frame.dst_ip, frame.proto,
            frame.src_port, frame.dst_port)


def emc_signature(frame: Frame, in_port: int) -> Tuple:
    """Exact-match-cache key: the microflow signature extended with the
    remaining fields the OpenFlow pipeline can match on (VLAN tag and
    tunnel id), so two frames share a key only if every rule in the
    table necessarily treats them identically."""
    return (in_port, frame.src_mac, frame.dst_mac, frame.ethertype,
            frame.src_ip, frame.dst_ip, frame.proto,
            frame.src_port, frame.dst_port, frame.vlan, frame.tunnel_id)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MegaflowCache:
    """LRU microflow cache with upcall cost accounting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 upcall_cycles: float = KERNEL_UPCALL_CYCLES) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.upcall_cycles = upcall_cycles
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup_cost(self, frame: Frame, in_port: int, n: int = 1) -> float:
        """Extra cycles the *first* of ``n`` same-key packets costs: 0 on
        a hit, an upcall on a miss (which also installs the entry).

        Replicates ``n`` sequential single-packet calls: at most the
        first misses, the rest hit and cost 0 extra, so the caller only
        needs the one return value.
        """
        key = flow_signature(frame, in_port)
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] += n
            self.stats.hits += n
            return 0.0
        self.stats.misses += 1
        self.stats.hits += n - 1
        self._entries[key] = n
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return self.upcall_cycles

    def invalidate(self) -> None:
        """Flush (flow-table revalidation after rule changes)."""
        self._entries.clear()
