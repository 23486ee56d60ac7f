"""Physical links and the passive optical taps of the measurement setup.

The paper's testbed connects the load generator and the device under test
with 10G short-range optics and observes both directions through passive
optical taps feeding an Endace DAG capture card (hardware timestamps).
:class:`Link` models serialization + propagation delay; :class:`OpticalTap`
gives measurement code the same vantage point the DAG card had.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.net.interfaces import Port
from repro.net.packet import Frame, FrameBatch
from repro.sim.kernel import Simulator
from repro.units import GBPS


class OpticalTap:
    """A passive tap: observes every frame crossing a link direction.

    Observers get ``(frame, timestamp)`` -- the hardware-timestamp analog.
    """

    def __init__(self, name: str):
        self.name = name
        self._observers: List[Tuple[
            Callable[[Frame, float], None],
            Optional[Callable[[FrameBatch, List[float]], None]]]] = []
        self.frames_seen = 0

    def observe(
            self, callback: Callable[[Frame, float], None],
            batch_callback: Optional[
                Callable[[FrameBatch, List[float]], None]] = None) -> None:
        """Register an observer.  A batch crossing goes to
        ``batch_callback`` as ``(batch, starts)`` -- one wire-entry
        timestamp per member -- when given; otherwise ``callback`` sees
        each materialized member in order."""
        self._observers.append((callback, batch_callback))

    def _notify(self, frame: Frame, now: float) -> None:
        self.frames_seen += 1
        for callback, _ in self._observers:
            callback(frame, now)

    def _notify_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        self.frames_seen += len(batch)
        frames = None
        for callback, batch_callback in self._observers:
            if batch_callback is not None:
                batch_callback(batch, starts)
                continue
            if frames is None:
                frames = [batch.frame_at(i) for i in range(len(starts))]
            for frame, t in zip(frames, starts):
                callback(frame, t)


class Link:
    """A unidirectional link with bandwidth and propagation delay.

    Frames submitted while the link is busy queue behind the in-flight
    frame (unbounded queue: the sender's NIC ring is modelled upstream).
    An optional :class:`OpticalTap` sees frames at transmit start, which
    matches a passive tap placed at the sender side.
    """

    def __init__(
        self,
        sim: Simulator,
        dst: Port,
        bandwidth_bps: float = 10 * GBPS,
        propagation_delay: float = 0.0,
        tap: Optional[OpticalTap] = None,
        name: str = "link",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.sim = sim
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.tap = tap
        self.name = name
        self._busy_until = 0.0
        self.tx_frames = 0
        self.tx_bytes = 0

    def serialization_time(self, frame: Frame) -> float:
        """Time to clock the frame onto the wire (incl. 20 B phy overhead)."""
        return (frame.wire_size() + 20) * 8.0 / self.bandwidth_bps

    def send(self, frame: Frame, at: Optional[float] = None) -> float:
        """Schedule the frame for delivery; returns its arrival time.

        ``at`` lets burst emitters hand the link a frame whose wire
        entry time lies (analytically) in the near future: the frame is
        serialized from ``at`` instead of ``sim.now``, so a burst of N
        frames submitted in one event carries the same per-packet
        timestamps as N individually scheduled sends.
        """
        t = self.sim.now if at is None else at
        start = t if t > self._busy_until else self._busy_until
        if self.tap is not None:
            self.tap._notify(frame, start)
        tx_done = start + self.serialization_time(frame)
        self._busy_until = tx_done
        arrival = tx_done + self.propagation_delay
        frame.charge("wire", arrival - t)
        self.tx_frames += 1
        self.tx_bytes += frame.wire_size()
        self.sim.schedule(arrival, self.dst.receive, frame)
        self.sim.tracer.link_send(self.name, frame, t, start, tx_done,
                                  arrival)
        return arrival

    def send_batch(self, batch: FrameBatch) -> float:
        """Serialize a whole batch; returns the last arrival time.

        Members enter the wire at their own (ascending) timestamps and
        chain through the busy period exactly as per-frame sends would;
        the batch is advanced to its per-member arrival times and
        delivered to ``dst`` in a single event at the first arrival.

        When two upstreams interleave batches on one link, members of
        the later-submitted batch serialize after the earlier batch's
        even if individual timestamps interleave -- a bounded
        reordering of the wire *occupancy* only (documented batch-path
        approximation; delivery counts are unaffected).
        """
        ts = batch.ts
        n = len(ts)
        wire = batch.frame.wire_size()
        ser = (wire + 20) * 8.0 / self.bandwidth_bps
        # A batch held back by its flush margin can reach the wire after
        # newer frames already went out.  Its members occupied the wire
        # back in their own window, so chain them from their first
        # timestamp rather than behind the newest transmission -- any
        # overlap with what was sent meanwhile is ignored (bounded
        # occupancy approximation at low utilization, exact otherwise).
        busy = self._busy_until
        if ts[0] < busy:
            busy = ts[0]
        starts = [0.0] * n
        for i in range(n):
            t = ts[i]
            start = t if t > busy else busy
            starts[i] = start
            busy = start + ser
            ts[i] = busy + self.propagation_delay
        if busy > self._busy_until:
            self._busy_until = busy
        self.tx_frames += n
        self.tx_bytes += wire * n
        if self.tap is not None:
            self.tap._notify_batch(batch, starts)
        # Held sub-batches (unbounded flush margins) may be handed to
        # the wire after their first member's arrival time has passed;
        # the content is analytic in ``ts`` either way, so deliver at
        # the first legal instant.
        now = self.sim.now
        self.sim.schedule(ts[0] if ts[0] > now else now,
                          self._deliver_batch, batch)
        return ts[-1]

    def send_interleaved(self, batches: List[FrameBatch]) -> None:
        """Serialize several batches whose timestamps interleave.

        The load generator emits one burst as a handful of per-flow
        batches whose emission timestamps interleave on the wire.
        Chaining all members in merged timestamp order reproduces the
        per-frame busy chain *exactly* (unlike back-to-back
        :meth:`send_batch` calls, which serialize whole batches);
        each batch is still delivered downstream in one event at its
        own first arrival.  Ties break by batch position, matching the
        generator's flow-index tie-break.
        """
        prop = self.propagation_delay
        busy = self._busy_until
        sers = []
        origs = []
        starts_per: List[List[float]] = []
        heap = []
        for b, batch in enumerate(batches):
            wire = batch.frame.wire_size()
            sers.append((wire + 20) * 8.0 / self.bandwidth_bps)
            origs.append(list(batch.ts))
            starts_per.append([0.0] * len(batch))
            self.tx_frames += len(batch)
            self.tx_bytes += wire * len(batch)
            if len(batch):
                heap.append((origs[b][0], b, 0))
        heapq.heapify(heap)
        while heap:
            t, b, i = heapq.heappop(heap)
            start = t if t > busy else busy
            starts_per[b][i] = start
            busy = start + sers[b]
            batches[b].ts[i] = busy + prop
            if i + 1 < len(origs[b]):
                heapq.heappush(heap, (origs[b][i + 1], b, i + 1))
        self._busy_until = busy
        for b, batch in enumerate(batches):
            if not len(batch):
                continue
            if self.tap is not None:
                self.tap._notify_batch(batch, starts_per[b])
            self.sim.schedule(batch.ts[0], self._deliver_batch, batch)

    def _deliver_batch(self, batch: FrameBatch) -> None:
        self.dst.receive_batch(batch, self.sim)
