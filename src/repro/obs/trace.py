"""Per-hop packet tracing across the mediation chain.

A frame's journey through the MTS chain (VM -> virtio/VF -> vswitch VM
-> VF -> VEB -> wire, Fig. 3) is recorded as one :class:`Span` per hop:
link enqueue/transmit, flow-table lookup (with hit/miss outcome and
which cache layer answered), bridge pass (with its service, wait and
queueing), NIC traversal, NIC filter verdict, vhost crossing, tenant
forwarder pass, and every drop with its reason.  The spans of a frame
through one server cover its whole time there: they are the only
per-hop record, and the latency breakdown folds them.  Spans carry the
frame id as trace context (stable along a unicast journey;
:meth:`Frame.copy` on multicast fan-out starts a new trace) plus the
tenant id, so journeys can be grouped per tenant.

The tracer is a tap on one :class:`~repro.sim.kernel.Simulator`
(``sim.tracer``), so two simulators in one process never share spans.
The default is the shared :data:`NULL_TRACER`: every hook is the same
no-op, so an instrumentation site costs its callers two attribute loads
and an empty call -- there are no conditionals in the hot paths.
:func:`repro.obs.enable_tracing` puts a recording :class:`PacketTracer`
on the simulator; its spans read that simulator's clock.

Span ordering is total and deterministic: every span gets a global
sequence number at record time, so spans sharing one simulated
timestamp (common: a whole cached pipeline pass happens at one instant)
still replay in exact causal order.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional


class Span:
    """One hop of one frame's journey."""

    __slots__ = ("trace_id", "seq", "component", "kind", "start", "end",
                 "outcome", "tenant", "attrs")

    def __init__(self, trace_id: int, seq: int, component: str, kind: str,
                 start: float, end: float, outcome: str,
                 tenant: Optional[int], attrs: Optional[dict]) -> None:
        self.trace_id = trace_id
        self.seq = seq
        self.component = component
        self.kind = kind
        self.start = start
        self.end = end
        self.outcome = outcome
        self.tenant = tenant
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {
            "trace_id": self.trace_id,
            "seq": self.seq,
            "component": self.component,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
        }
        if self.tenant is not None:
            d["tenant"] = self.tenant
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(d["trace_id"], d["seq"], d["component"], d["kind"],
                   d["start"], d["end"], d.get("outcome", ""),
                   d.get("tenant"), d.get("attrs"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span #{self.seq} trace={self.trace_id} "
                f"{self.component}/{self.kind} [{self.start:.9f}, "
                f"{self.end:.9f}] {self.outcome}>")


def _noop(*args, **kwargs) -> None:
    return None


class NullTracer:
    """The zero-cost disabled tracer: every hook is a shared no-op."""

    enabled = False

    link_send = staticmethod(_noop)
    flow_lookup = staticmethod(_noop)
    bridge_rx = staticmethod(_noop)
    bridge_tx = staticmethod(_noop)
    veb_forward = staticmethod(_noop)
    nic_filter = staticmethod(_noop)
    vhost = staticmethod(_noop)
    tenant_forward = staticmethod(_noop)
    drop = staticmethod(_noop)


#: The disabled tracer every :class:`~repro.sim.kernel.Simulator` starts
#: with (and any component without a simulator uses).
NULL_TRACER = NullTracer()


#: Raw-record tags: which hook produced a pending record (the
#: materializer switches on these to build the final :class:`Span`).
_T_ENQUEUE = 0
_T_LINK_TX = 1
_T_FLOW = 2
_T_BRIDGE_RX = 3
_T_BRIDGE_TX = 4
_T_VEB = 5
_T_NIC_FILTER = 6
_T_HOLD = 7
_T_DROP = 8


class PacketTracer:
    """Recording tracer: one :class:`Span` per hook invocation.

    Recording is two-phase to keep the hot-path hook cost near an
    append: each hook pushes one raw argument tuple (values frozen at
    record time where the source object mutates later, deferred
    otherwise) onto ``_raw``, and :class:`Span` objects -- allocation,
    sequence numbers, attrs dicts -- are materialized lazily on the
    first query through :attr:`spans`.  Materialization preserves
    append order, so sequence numbers are identical to eager recording.

    ``capacity`` bounds memory on long runs; once reached, further spans
    are counted in ``spans_dropped`` but not stored (the trace stays a
    valid prefix).
    """

    enabled = True

    def __init__(self, sim, capacity: int = 1_000_000) -> None:
        #: The simulator whose clock stamps the spans; hooks read
        #: ``sim._now`` directly (one attribute load instead of a
        #: property descriptor per span).
        self._sim = sim
        self.capacity = capacity
        self._raw: List[tuple] = []
        self._spans: List[Span] = []
        #: Total records accepted (raw + materialized): the capacity
        #: check is one int compare instead of two len() calls.
        self._count = 0
        self.spans_dropped = 0
        self._seq = 0

    # -- recording core ----------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Recorded spans, materializing any pending raw records."""
        if self._raw:
            self._materialize()
        return self._spans

    def _materialize(self) -> None:
        spans = self._spans
        seq = self._seq
        append = spans.append
        for rec in self._raw:
            tag = rec[0]
            seq += 1
            if tag == _T_FLOW:
                _, fid, name, now, rule, source, in_port, tenant = rec
                attrs = {"source": source, "in_port": in_port}
                if rule is None:
                    outcome = "miss"
                else:
                    outcome = "hit"
                    attrs["cookie"] = rule.cookie
                    attrs["priority"] = rule.priority
                append(Span(fid, seq, name, "flowtable.lookup", now, now,
                            outcome, tenant, attrs))
            elif tag == _T_LINK_TX:
                _, fid, name, t_start, t_done, t_arrival, tenant, wire = rec
                append(Span(fid, seq, name, "link.tx", t_start, t_arrival,
                            "sent", tenant,
                            {"bytes": wire,
                             "serialization": t_done - t_start}))
            elif tag == _T_ENQUEUE:
                _, fid, name, t_submit, t_start, tenant = rec
                append(Span(fid, seq, name, "link.enqueue", t_submit,
                            t_start, "queued", tenant, None))
            elif tag == _T_BRIDGE_RX:
                _, fid, name, now, cached, port_no, tenant = rec
                append(Span(fid, seq, name, "vswitch.rx", now, now,
                            "plan_cache_hit" if cached else "pipeline",
                            tenant, {"in_port": port_no}))
            elif tag == _T_BRIDGE_TX:
                _, fid, name, start, now, port_no, tenant, service, wait = rec
                if start is None:  # an untimed pass
                    start = now
                # Anything beyond the pass's wait and service is rx-ring
                # queueing.
                append(Span(fid, seq, name, "vswitch.tx", start, now,
                            "forwarded", tenant,
                            {"out_port": port_no, "service": service,
                             "wait": wait,
                             "queue": max(0.0, now - start - wait - service)}))
            elif tag == _T_VEB:
                (_, fid, name, t_in, now, dma, ingress, vlan, decision,
                 tenant) = rec
                append(Span(fid, seq, name, "veb.forward", t_in, now + dma,
                            decision.reason, tenant,
                            {"ingress": ingress, "vlan": vlan,
                             "destinations": list(decision.destinations),
                             "flooded": decision.flooded}))
            elif tag == _T_NIC_FILTER:
                _, fid, name, now, vf_name, verdict, tenant = rec
                append(Span(fid, seq, name, "nic.filter", now, now,
                            verdict, tenant, {"vf": vf_name}))
            elif tag == _T_HOLD:
                _, fid, name, kind, now, outcome, latency, tenant = rec
                append(Span(fid, seq, name, kind, now, now + latency,
                            outcome, tenant, None))
            else:  # _T_DROP
                _, fid, name, now, reason, tenant = rec
                append(Span(fid, seq, name, "drop", now, now,
                            reason, tenant, None))
        self._seq = seq
        self._raw = []

    # -- hooks (called from the instrumented hot paths) --------------------

    def link_send(self, name: str, frame, t_submit: float, t_start: float,
                  t_done: float, t_arrival: float) -> None:
        """A frame was handed to a link: an enqueue span (head-of-line
        wait) when it had to queue, then the transmit span (serialization
        + propagation)."""
        cap = self.capacity
        if t_start > t_submit:
            if self._count < cap:
                self._count += 1
                self._raw.append((_T_ENQUEUE, frame.frame_id, name,
                                  t_submit, t_start, frame.tenant_id))
            else:
                self.spans_dropped += 1
        if self._count < cap:
            self._count += 1
            # wire_size() depends on headers that mutate down the chain,
            # so it is frozen here rather than deferred.
            self._raw.append((_T_LINK_TX, frame.frame_id, name, t_start,
                              t_done, t_arrival, frame.tenant_id,
                              frame.wire_size()))
        else:
            self.spans_dropped += 1

    def flow_lookup(self, table_name: str, frame, in_port: int,
                    rule, source: str) -> None:
        """One flow-table lookup; ``source`` names the layer that
        answered: ``emc``, ``tss`` (tuple-space search), ``linear``, or
        ``plan`` (replayed from the bridge's pass-plan cache)."""
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_FLOW, frame.frame_id, table_name,
                              self._sim._now, rule, source, in_port,
                              frame.tenant_id))
        else:
            self.spans_dropped += 1

    def bridge_rx(self, bridge_name: str, frame, port_no: int,
                  plan_cached: bool) -> None:
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_BRIDGE_RX, frame.frame_id, bridge_name,
                              self._sim._now, plan_cached, port_no,
                              frame.tenant_id))
        else:
            self.spans_dropped += 1

    def bridge_tx(self, bridge_name: str, frame, port_no: int,
                  t_dispatch: Optional[float] = None, service: float = 0.0,
                  wait: float = 0.0) -> None:
        """A bridge pass left on ``port_no``; a timed one spans from its
        dispatch to a core, with its ``service`` and ``wait`` times."""
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_BRIDGE_TX, frame.frame_id, bridge_name,
                              t_dispatch, self._sim._now, port_no,
                              frame.tenant_id, service, wait))
        else:
            self.spans_dropped += 1

    def veb_forward(self, veb_name: str, frame, ingress: str, vlan: int,
                    decision, t_in: float, dma: float = 0.0) -> None:
        """The NIC's embedded switch decided egress for a frame; the span
        is the NIC traversal, from entry at ``t_in`` to the end of the
        ``dma`` into a receiving function.  ``decision`` is immutable
        after return, so its fields are read lazily at materialization."""
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_VEB, frame.frame_id, veb_name, t_in,
                              self._sim._now, dma, ingress, vlan, decision,
                              frame.tenant_id))
        else:
            self.spans_dropped += 1

    def nic_filter(self, nic_port: str, vf_name: str, frame,
                   verdict: str) -> None:
        """Ingress security chain verdict on a VF transmit (``pass``,
        ``spoof_drop``, ``filter_drop``, ``rate_limited``,
        ``unconfigured``)."""
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_NIC_FILTER, frame.frame_id, nic_port,
                              self._sim._now, vf_name, verdict,
                              frame.tenant_id))
        else:
            self.spans_dropped += 1

    def vhost(self, name: str, frame, direction: str,
              latency: float) -> None:
        self._hold(name, frame, "vhost.crossing", direction, latency)

    def tenant_forward(self, name: str, frame, latency: float) -> None:
        """A tenant's forwarder (l2fwd, Linux bridge) holds the frame
        for ``latency`` before bouncing it back out."""
        self._hold(name, frame, "tenant.forward", "forwarded", latency)

    def _hold(self, name: str, frame, kind: str, outcome: str,
              latency: float) -> None:
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_HOLD, frame.frame_id, name, kind,
                              self._sim._now, outcome, latency,
                              frame.tenant_id))
        else:
            self.spans_dropped += 1

    def drop(self, component: str, frame, reason: str) -> None:
        """A frame left the chain: where and why."""
        if self._count < self.capacity:
            self._count += 1
            self._raw.append((_T_DROP, frame.frame_id, component,
                              self._sim._now, reason, frame.tenant_id))
        else:
            self.spans_dropped += 1

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def trace_ids(self) -> List[int]:
        seen: Dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def journey(self, trace_id: int) -> List[Span]:
        """All spans of one frame in causal order.  Sorting key is
        ``(start, seq)``: sim timestamps first, with the record sequence
        breaking the (frequent) equal-timestamp ties deterministically."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start, s.seq))
        return spans

    def drops(self) -> List[Span]:
        return [s for s in self.spans
                if s.kind == "drop" or s.outcome.endswith("_drop")]

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per span, one span per line."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in self.spans)

    def clear(self) -> None:
        self._raw.clear()
        self._spans.clear()
        self._count = 0
        self.spans_dropped = 0


def journeys_from_jsonl(text: str) -> Dict[int, List[Span]]:
    """Reconstruct per-packet journeys from a JSON-lines span dump."""
    by_trace: Dict[int, List[Span]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        span = Span.from_dict(json.loads(line))
        by_trace.setdefault(span.trace_id, []).append(span)
    for spans in by_trace.values():
        spans.sort(key=lambda s: (s.start, s.seq))
    return by_trace
