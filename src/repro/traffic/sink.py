"""Sink and DAG-style latency monitor.

The paper measures one-way forwarding performance by tapping both the
LG->DUT and DUT->sink links with a passive optical tap into an Endace
DAG card, giving hardware timestamps on both sides.  The
:class:`LatencyMonitor` replicates that: it observes both taps, pairs
sightings of the same frame, and records one-way latency samples with
their timestamps so experiments can cut evaluation windows (e.g. the
10-20 s slice of a 30 s run).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.interfaces import Port
from repro.net.link import OpticalTap
from repro.net.packet import Frame, FrameBatch


class Sink:
    """Terminal packet counter (per flow and total, windowed)."""

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.port = Port(f"{name}.rx", self._on_frame)
        self.port.connect_batch(self._on_batch)
        self.total = 0
        self.per_flow: Dict[int, int] = defaultdict(int)
        #: (timestamp-less) arrival log is not kept; windowed counting is
        #: done by the monitor, which has timestamps.

    def _on_frame(self, frame: Frame) -> None:
        self.total += 1
        self.per_flow[frame.flow_id] += 1

    def _on_batch(self, batch: FrameBatch) -> None:
        self.total += len(batch)
        self.per_flow[batch.frame.flow_id] += len(batch)


@dataclass
class LatencySample:
    flow_id: int
    t_in: float
    t_out: float

    @property
    def latency(self) -> float:
        return self.t_out - self.t_in


class LatencyMonitor:
    """Pairs frame sightings on the ingress and egress taps."""

    def __init__(self, ingress_tap: OpticalTap, egress_tap: OpticalTap) -> None:
        self._pending: Dict[int, Tuple[int, float]] = {}
        self.samples: List[LatencySample] = []
        self.egress_times: List[Tuple[float, int]] = []  # (t, flow_id)
        self.unmatched_egress = 0
        ingress_tap.observe(self._on_ingress, self._on_ingress_batch)
        egress_tap.observe(self._on_egress, self._on_egress_batch)

    def _on_ingress(self, frame: Frame, now: float) -> None:
        self._pending[frame.frame_id] = (frame.flow_id, now)

    def _on_egress(self, frame: Frame, now: float) -> None:
        self.egress_times.append((now, frame.flow_id))
        entry = self._pending.pop(frame.frame_id, None)
        if entry is None:
            self.unmatched_egress += 1
            return
        flow_id, t_in = entry
        self.samples.append(LatencySample(flow_id=flow_id, t_in=t_in, t_out=now))

    def _on_ingress_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        flow_id = batch.frame.flow_id
        pending = self._pending
        for i, fid in enumerate(batch.frame_ids):
            pending[fid] = (flow_id, starts[i])

    def _on_egress_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        egress = self.egress_times
        samples = self.samples
        pending = self._pending
        flow_id = batch.frame.flow_id
        for i, fid in enumerate(batch.frame_ids):
            now = starts[i]
            egress.append((now, flow_id))
            entry = pending.pop(fid, None)
            if entry is None:
                self.unmatched_egress += 1
            else:
                samples.append(LatencySample(flow_id=entry[0], t_in=entry[1],
                                             t_out=now))

    # -- windowed reductions ------------------------------------------------

    def latencies_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> List[float]:
        """One-way latencies of frames that *entered* in [t0, t1)."""
        return [
            s.latency for s in self.samples
            if t0 <= s.t_in < t1 and (flow_id is None or s.flow_id == flow_id)
        ]

    def delivered_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> int:
        return sum(1 for t, fid in self.egress_times
                   if t0 <= t < t1 and (flow_id is None or fid == flow_id))

    def throughput_pps(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            raise ValueError("empty window")
        return self.delivered_in_window(t0, t1) / (t1 - t0)

    def loss_count(self) -> int:
        """Frames seen entering but never leaving (so far)."""
        return len(self._pending)
