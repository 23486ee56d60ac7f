"""The NIC's embedded L2 switch (IEEE Virtual Ethernet Bridging).

Forwarding model, following the paper's ingress/egress chains (Fig. 3):

- Every function (PF or VF) is an *access* member of exactly one VLAN
  domain: its configured ``vlan`` tag, or the untagged domain.
- On ingress from a function the NIC pushes the function's VLAN tag (VST)
  and looks up the destination MAC in that domain's table.
- On egress to an access function the tag is popped; on egress to the
  physical fabric port the frame keeps whatever tag its domain implies
  (untagged domain frames leave untagged).
- MAC tables hold *static* entries (installed when the host configures a
  VF's MAC) plus learned entries; unknown unicast goes to the fabric
  uplink (the standard VEB behaviour -- edge filters are what keep
  tenants from abusing this), broadcast floods the domain.

The switch is pure forwarding logic; the owning
:class:`repro.sriov.nic.SriovNic` adds timing (PCIe, switch latency) and
security filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.packet import Frame
from repro.sriov.vf import VirtualFunction

#: Sentinel VLAN id for the untagged domain.
UNTAGGED = 0

#: Sentinel destination meaning "out the physical fabric port".
UPLINK = "uplink"


@dataclass
class MacEntry:
    dest: str  # function name or UPLINK
    static: bool = False
    last_seen: float = 0.0


@dataclass
class ForwardingDecision:
    """Where a frame goes: a list of function names and/or UPLINK."""

    destinations: List[str] = field(default_factory=list)
    flooded: bool = False
    reason: str = "hit"


#: Bound on the VEB's cached forwarding decisions.
DECISION_CACHE_CAPACITY = 65536


class VebSwitch:
    """Per-physical-port VEB: VLAN domains with MAC learning tables.

    Forwarding decisions are memoized per ``(ingress, vlan, src_mac,
    dst_mac)`` -- the exact-match-cache shape of the vswitch fast path,
    applied to the hardware switch.  The cache is flushed whenever the
    MAC table or domain membership actually changes (a learn that
    installs or re-homes an entry, ``attach``/``detach``); pure
    ``last_seen`` refreshes keep it warm.  Counters (``lookups``,
    ``floods``, ``unknown_unicasts``) stay exact on cached hits.
    """

    def __init__(self, name: str = "veb") -> None:
        self.name = name
        # (vlan, mac) -> entry
        self._table: Dict[Tuple[int, MacAddress], MacEntry] = {}
        # vlan -> member function names (access members)
        self._members: Dict[int, List[str]] = {}
        self.lookups = 0
        self.floods = 0
        self.unknown_unicasts = 0
        self.forwards = 0
        # (ingress, vlan, src_mac, dst_mac) ->
        #   (destinations, flooded, reason, lookup/flood/unknown deltas)
        self._decisions: Dict[Tuple, Tuple] = {}
        self.decision_cache_hits = 0
        #: Bumped whenever forwarding *content* changes (attach/detach,
        #: a learn that installs or re-homes an entry).  Lets callers
        #: cache derived facts -- e.g. the batched fast path's flush
        #: margins -- and revalidate with one int compare.
        self.epoch = 0

    # -- membership & static entries ------------------------------------

    @staticmethod
    def domain_of(vf: VirtualFunction) -> int:
        return vf.vlan if vf.vlan is not None else UNTAGGED

    def attach(self, vf: VirtualFunction) -> None:
        """Make a function an access member of its VLAN domain and pin a
        static MAC entry for it (hardware installs these on VF config)."""
        domain = self.domain_of(vf)
        members = self._members.setdefault(domain, [])
        if vf.name not in members:
            members.append(vf.name)
        if vf.mac is not None:
            self._table[(domain, vf.mac)] = MacEntry(dest=vf.name, static=True)
        self._decisions.clear()
        self.epoch += 1

    def detach(self, vf: VirtualFunction) -> None:
        """Remove a function from its domain (before re-configuring it)."""
        domain = self.domain_of(vf)
        members = self._members.get(domain, [])
        if vf.name in members:
            members.remove(vf.name)
        stale = [key for key, entry in self._table.items()
                 if entry.dest == vf.name]
        for key in stale:
            del self._table[key]
        self._decisions.clear()
        self.epoch += 1

    def members(self, vlan: int) -> List[str]:
        return list(self._members.get(vlan, []))

    # -- learning & lookup ------------------------------------------------

    def learn(self, vlan: int, mac: MacAddress, dest: str, now: float = 0.0) -> bool:
        """Learn a dynamic entry; static entries are never displaced."""
        key = (vlan, mac)
        existing = self._table.get(key)
        if existing is not None and existing.static:
            return False
        if existing is not None and existing.dest == dest:
            # Pure refresh: the table's forwarding content is unchanged,
            # so cached decisions stay valid.
            existing.last_seen = now
            return True
        self._table[key] = MacEntry(dest=dest, static=False, last_seen=now)
        self._decisions.clear()
        self.epoch += 1
        return True

    def lookup(self, vlan: int, mac: MacAddress) -> Optional[MacEntry]:
        self.lookups += 1
        return self._table.get((vlan, mac))

    def table_size(self) -> int:
        return len(self._table)

    # -- forwarding ---------------------------------------------------------

    def forward(self, ingress: str, vlan: int, frame: Frame,
                now: float = 0.0, n: int = 1) -> ForwardingDecision:
        """Decide egress for ``n`` identical-header frames that entered
        domain ``vlan`` from ``ingress`` (a function name or
        :data:`UPLINK`).

        Counters replicate ``n`` sequential single-frame calls: the
        uncached walk's deltas equal the cached deltas it installs, so
        totals scale by ``n`` either way; only ``decision_cache_hits``
        distinguishes the first (miss) frame.  ``now`` should be the
        *last* member's timestamp -- it only feeds ``last_seen`` aging.
        """
        self.forwards += n
        key = (ingress, vlan, frame.src_mac, frame.dst_mac)
        cached = self._decisions.get(key)
        if cached is not None:
            dests, flooded, reason, d_lookups, d_floods, d_unknown = cached
            self.decision_cache_hits += n
            self.lookups += d_lookups * n
            self.floods += d_floods * n
            self.unknown_unicasts += d_unknown * n
            # The source entry was learned when this decision was cached
            # (any change since would have flushed); refresh its age.
            entry = self._table.get((vlan, frame.src_mac))
            if entry is not None and not entry.static:
                entry.last_seen = now
            return ForwardingDecision(destinations=list(dests),
                                      flooded=flooded, reason=reason)
        before = (self.lookups, self.floods, self.unknown_unicasts)
        decision = self._forward_uncached(ingress, vlan, frame, now)
        deltas = (self.lookups - before[0], self.floods - before[1],
                  self.unknown_unicasts - before[2])
        if len(self._decisions) >= DECISION_CACHE_CAPACITY:
            self._decisions.pop(next(iter(self._decisions)))
        self._decisions[key] = (
            tuple(decision.destinations), decision.flooded, decision.reason,
            *deltas)
        rest = n - 1
        if rest:
            self.decision_cache_hits += rest
            self.lookups += deltas[0] * rest
            self.floods += deltas[1] * rest
            self.unknown_unicasts += deltas[2] * rest
        return decision

    def peek_destinations(self, ingress: str, vlan: int,
                          frame: Frame) -> List[str]:
        """Side-effect-free preview of :meth:`forward`'s destinations.

        No learning, no counters, no cache insert -- used by the batched
        fast path to bound how far a flushed sub-batch travels before
        the next timestamped admission point.  May differ from the next
        real ``forward`` only in that the source is not yet learned
        (which can only *narrow* a later decision, never widen it).
        """
        if frame.dst_mac.is_multicast:
            dests = [m for m in self._members.get(vlan, []) if m != ingress]
            if ingress != UPLINK:
                dests.append(UPLINK)
            return dests
        entry = self._table.get((vlan, frame.dst_mac))
        if entry is not None:
            return [] if entry.dest == ingress else [entry.dest]
        if ingress == UPLINK:
            return [m for m in self._members.get(vlan, []) if m != ingress]
        return [UPLINK]

    def _forward_uncached(self, ingress: str, vlan: int, frame: Frame,
                          now: float = 0.0) -> ForwardingDecision:
        """The uncached forwarding walk (also the fuzz-test oracle)."""
        # Learn the source everywhere, including the uplink -- replies
        # then unicast to the wire instead of flooding.
        self.learn(vlan, frame.src_mac, ingress, now)

        if frame.dst_mac.is_multicast:
            return self._flood(ingress, vlan, reason="multicast")

        entry = self.lookup(vlan, frame.dst_mac)
        if entry is not None:
            if entry.dest == ingress:
                # Hairpin to self: a VEB drops these (no reflection).
                return ForwardingDecision(destinations=[], reason="hairpin")
            return ForwardingDecision(destinations=[entry.dest], reason="hit")

        self.unknown_unicasts += 1
        if ingress == UPLINK:
            # Unknown unicast from the wire: flood the domain (the NIC has
            # no port to learn it towards yet).
            return self._flood(ingress, vlan, reason="unknown_from_uplink")
        # Unknown unicast from a VF: send to the wire, as a VEB does.
        return ForwardingDecision(destinations=[UPLINK], reason="unknown_to_uplink")

    def _flood(self, ingress: str, vlan: int, reason: str) -> ForwardingDecision:
        self.floods += 1
        dests = [m for m in self._members.get(vlan, []) if m != ingress]
        if ingress != UPLINK:
            dests.append(UPLINK)
        return ForwardingDecision(destinations=dests, flooded=True, reason=reason)
