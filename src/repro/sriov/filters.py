"""NIC security filters: source-MAC anti-spoofing and wildcard rules.

The paper's "System support" subsection requires the operator to (i)
enable source MAC address spoofing prevention on all tenant VFs and (ii)
optionally install flow-based wildcard filters in the NIC -- e.g. drop
packets not destined to the tenant's vswitch compartment, or prevent the
Host PF from receiving tenant frames.  Both are modelled here and applied
by the NIC on every VF ingress.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.net.addresses import MacAddress
from repro.net.packet import Frame
from repro.sriov.vf import VirtualFunction


class FilterAction(Enum):
    ALLOW = "allow"
    DROP = "drop"


class FilterVerdict(Enum):
    """Outcome of running a frame through the ingress security chain."""

    PASS = "pass"
    SPOOF_DROP = "spoof_drop"
    FILTER_DROP = "filter_drop"


class SpoofCheck:
    """Source-MAC anti-spoofing: frames must carry the VF's own MAC."""

    @staticmethod
    def permits(vf: VirtualFunction, frame: Frame) -> bool:
        if not vf.spoof_check:
            return True
        return vf.mac is not None and frame.src_mac == vf.mac


@dataclass
class WildcardFilter:
    """A single NIC flow filter; ``None`` fields are wildcards.

    Matching is on the frame as seen at VF ingress (before VST tagging),
    plus the ingress function itself, so operators can write rules like
    "frames from tenant VFs may only go to the gateway VF's MAC".
    """

    action: FilterAction
    priority: int = 0
    ingress_vf: Optional[str] = None
    src_mac: Optional[MacAddress] = None
    dst_mac: Optional[MacAddress] = None
    vlan: Optional[int] = None
    name: str = "filter"

    def matches(self, vf: VirtualFunction, frame: Frame) -> bool:
        if self.ingress_vf is not None and vf.name != self.ingress_vf:
            return False
        if self.src_mac is not None and frame.src_mac != self.src_mac:
            return False
        if self.dst_mac is not None and frame.dst_mac != self.dst_mac:
            return False
        if self.vlan is not None and vf.vlan != self.vlan:
            return False
        return True


class FilterChain:
    """Ordered wildcard filters with a default action.

    Highest priority wins; ties break in installation order (stable sort),
    mirroring how NIC flow tables behave.  The default is ALLOW because
    the NIC's isolation primitive is the VLAN/MAC forwarding itself; the
    filters are the extra, operator-installed guard rails.
    """

    #: Bound on memoized verdicts.
    MEMO_CAPACITY = 65536

    def __init__(self, default: FilterAction = FilterAction.ALLOW) -> None:
        self.default = default
        self._filters: List[WildcardFilter] = []
        self.evaluations = 0
        self.drops = 0
        self.memo_hits = 0
        # Verdicts depend only on (vf.name, vf.vlan, src_mac, dst_mac) --
        # everything WildcardFilter.matches can see -- so the chain walk
        # is memoized per that key and flushed on install/remove.
        self._memo: dict = {}
        #: Bumped whenever the rule set changes; cached route decisions
        #: elsewhere key their validity on it.
        self.epoch = 0

    def install(self, flt: WildcardFilter) -> None:
        self._filters.append(flt)
        self._filters.sort(key=lambda f: -f.priority)
        self._memo.clear()
        self.epoch += 1

    def remove(self, name: str) -> int:
        """Remove all filters with the given name; returns the count."""
        before = len(self._filters)
        self._filters = [f for f in self._filters if f.name != name]
        self._memo.clear()
        self.epoch += 1
        return before - len(self._filters)

    def __len__(self) -> int:
        return len(self._filters)

    def peek(self, vf: VirtualFunction, frame: Frame) -> FilterAction:
        """Side-effect-free verdict preview (no counters, no memo writes).

        Route discovery asks "would this frame pass?" without simulating
        an actual ingress; the real evaluation still happens (in batched
        form) when traffic flows.
        """
        for flt in self._filters:
            if flt.matches(vf, frame):
                return flt.action
        return self.default

    def evaluate(self, vf: VirtualFunction, frame: Frame,
                 n: int = 1) -> FilterAction:
        """First matching filter decides; otherwise the default applies.

        One verdict covers ``n`` identical-header frames; counter bumps
        replicate ``n`` sequential single-frame calls exactly: on a memo
        miss the first frame walks the chain and the remaining ``n - 1``
        hit the memo.
        """
        self.evaluations += n
        key = (vf.name, vf.vlan, frame.src_mac, frame.dst_mac)
        action = self._memo.get(key)
        if action is not None:
            self.memo_hits += n
        else:
            action = self.default
            for flt in self._filters:
                if flt.matches(vf, frame):
                    action = flt.action
                    break
            if len(self._memo) >= self.MEMO_CAPACITY:
                self._memo.pop(next(iter(self._memo)))
            self._memo[key] = action
            self.memo_hits += n - 1
        if action == FilterAction.DROP:
            self.drops += n
        return action
