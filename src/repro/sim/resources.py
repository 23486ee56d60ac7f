"""Queues and service stations for packet-level simulation."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.kernel import Simulator

#: Flush margin for groups whose post-service chain never reaches a
#: timestamped admission point (fabric-bound traffic): flush lateness
#: is unconstrained, so hold until the group completes.
_INF = float("inf")


class FifoQueue:
    """A bounded FIFO with drop-tail semantics and drop accounting.

    Used for NIC rx rings, vhost queues, and the like.  ``capacity=None``
    means unbounded.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "fifo") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: Any) -> bool:
        """Enqueue ``item``; returns False (and counts a drop) if full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        self.enqueued += 1
        return True

    def pop(self) -> Any:
        """Dequeue the oldest item; raises IndexError when empty."""
        return self._items.popleft()

    def peek(self) -> Any:
        """Oldest item without removing it; raises IndexError when empty."""
        return self._items[0]

    def clear(self) -> None:
        self._items.clear()


class FairServiceStation:
    """One server round-robining over per-key FIFO queues.

    Models NAPI/PMD-style fair polling across rx rings: work arriving
    under different keys (e.g. different ingress ports) gets equal
    service shares under overload, instead of the head-of-line
    starvation a single shared FIFO produces.  Each per-key queue is
    bounded (the rx ring) with drop-tail accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        service_time: Callable[[Any], float],
        on_done: Callable[[Any], None],
        queue_capacity: Optional[int] = None,
        name: str = "fair-station",
    ) -> None:
        self.sim = sim
        self.service_time = service_time
        self.on_done = on_done
        self.queue_capacity = queue_capacity
        self.name = name
        self.busy = False
        self.served = 0
        self.busy_time = 0.0
        self._queues: "dict[Any, FifoQueue]" = {}
        self._order: "list[Any]" = []
        self._last_key: Optional[Any] = None

    def submit(self, key: Any, item: Any) -> bool:
        """Offer an item on ring ``key``; False if that ring dropped it."""
        queue = self._queues.get(key)
        if queue is None:
            queue = FifoQueue(capacity=self.queue_capacity,
                              name=f"{self.name}.q{key}")
            self._queues[key] = queue
            self._order.append(key)
        if not queue.push(item):
            return False
        if not self.busy:
            self._start_next()
        return True

    def dropped(self) -> int:
        return sum(q.dropped for q in self._queues.values())

    def _pick(self) -> Optional[Any]:
        """Round-robin: scan for a non-empty ring starting just past the
        last-served one (keyed, so late-created rings join fairly)."""
        n = len(self._order)
        start = 0
        if self._last_key in self._queues:
            start = self._order.index(self._last_key) + 1
        for offset in range(n):
            key = self._order[(start + offset) % n]
            if len(self._queues[key]) > 0:
                self._last_key = key
                return key
        return None

    def _start_next(self) -> None:
        key = self._pick()
        if key is None:
            self.busy = False
            return
        item = self._queues[key].pop()
        self.busy = True
        duration = self.service_time(item)
        if duration < 0:
            raise ValueError(f"negative service time {duration} at {self.name}")
        self.busy_time += duration
        self.sim.call_later(duration, self._finish, item)

    def _finish(self, item: Any) -> None:
        self.served += 1
        self.on_done(item)
        self._start_next()

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class BatchFairStation:
    """A :class:`FairServiceStation` that admits *timestamped batches*.

    The batched fast path computes a whole burst's arrival timestamps in
    one event, so arrivals reach the station *early*: the event that
    registers them fires at or before the earliest member timestamp.
    This station keeps those future arrivals in a pending min-heap and
    only **admits** them (rx-ring occupancy check, drop-tail) when
    simulated time catches up, which happens at the station's own wake
    events:

    - while the server is busy (serving from start S to finish F), any
      arrival with timestamp in (S, F] can be admitted at F, in
      timestamp order, with outcomes identical to per-event admission:
      ring occupancy is only read by admissions, no service starts
      interleave while the server is busy, and ring space frees only at
      service *starts* -- so the admission sequence commutes across the
      busy interval;
    - while idle, a wake is armed at the earliest pending timestamp
      (re-armed earlier if an earlier registration shows up), so the
      first admission starts service at exactly its arrival time.

    Served members are handed back to their *group* (one group per
    submitted batch), which re-accumulates them into a sub-batch for the
    downstream chain.  Because the downstream continuation runs inline
    at flush time, a flush at time C must satisfy ``C <= F_i + margin``
    for every flushed member finish F_i, where the group's ``margin`` is
    a lower bound on the delay before the member could reach the *next*
    timestamped admission point (0 is always safe: commits then flush at
    their own finish wake; ``inf`` says the member never reaches one --
    fabric-bound traffic whose remaining chain is purely analytic).  The
    station enforces exactly that: a group flushes the moment it
    *completes* (every member committed or dropped -- nothing more can
    join the sub-batch, so waiting buys nothing), a margin-bound group
    additionally flushes before its oldest unflushed finish ages past
    the margin, and everything finite flushes when the station goes
    idle.  Unbounded incomplete groups ride across idle gaps and rely
    on completion or the end-of-run :meth:`drain`.

    Net effect: ~1 event per served frame (the finish wakes), versus
    3-4 per frame for the per-event oracle around a service station.
    """

    def __init__(
        self,
        sim: Simulator,
        queue_capacity: Optional[int] = None,
        name: str = "batch-station",
    ) -> None:
        self.sim = sim
        self.queue_capacity = queue_capacity
        self.name = name
        self.busy = False
        self.served = 0
        self.busy_time = 0.0
        self._queues: "dict[Any, FifoQueue]" = {}
        self._order: "list[Any]" = []
        self._last_key: Optional[Any] = None
        #: Registered-but-not-yet-admitted members: (ts, seq, group, i).
        self._pending: List[Tuple[float, int, Any, int]] = []
        self._seq = 0
        self._inflight: Optional[Tuple[Any, int]] = None
        self._finish_at = 0.0
        self._wake_event = None
        self._wake_time = 0.0
        #: True while _wake runs: submit_group then leaves re-arming to
        #: the wake's own step 5 (flushes re-enter submit_group inline).
        self._in_wake = False
        #: Groups holding served-but-unflushed members.
        self._dirty: List[Any] = []

    def submit_group(self, group: Any) -> None:
        """Register every member of ``group`` as a future arrival.

        ``group`` carries parallel ``sub_ts`` (arrival timestamps, the
        current event time must not exceed their minimum) and ``svc``
        (service times) lists plus a ``key`` (rx ring id) and a flush
        ``margin``, and receives ``commit(i, t)`` / ``flush(now)`` /
        ``oldest_commit()`` calls.
        """
        pending = self._pending
        seq = self._seq
        for i, t in enumerate(group.sub_ts):
            heapq.heappush(pending, (t, seq, group, i))
            seq += 1
        self._seq = seq
        if not self.busy and not self._in_wake and pending:
            head = pending[0][0]
            if self._wake_event is None or head < self._wake_time:
                self._arm(head)

    def submit_member(self, group: Any, i: int, ts: float) -> None:
        """Register one future member of an *open* group.

        The fused fast path discovers at commit time that a member's
        next admission point (and its arrival timestamp there) is
        analytically known, and registers it immediately -- the
        registration event necessarily precedes the arrival timestamp,
        so this is always contract-clean.  The group grows between
        calls; it must not report ``is_done`` until its upstream seals
        it.
        """
        heapq.heappush(self._pending, (ts, self._seq, group, i))
        self._seq += 1
        if not self.busy and not self._in_wake:
            if self._wake_event is None or ts < self._wake_time:
                self._arm(ts)

    def drain(self) -> None:
        """Flush held sub-batches that can still flush safely.

        The end-of-run safety valve for unbounded groups that never
        completed (tail members still pending when traffic stopped).
        Finite-margin groups are skipped -- flushing those late would
        break the lateness contract -- but in practice the station has
        gone idle (and idle-flushed them) long before anyone drains.
        """
        now = self.sim.now
        # Flushing can complete *other* dirty groups (a fused upstream
        # group's flush seals its downstream sink), so work off a
        # snapshot and let re-entrant removals target the live list.
        groups = self._dirty
        self._dirty = []
        for group in groups:
            if group.margin == _INF or group.is_done():
                group.flush(now)
            else:
                self._dirty.append(group)

    def dropped(self) -> int:
        return sum(q.dropped for q in self._queues.values())

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    # -- internals --------------------------------------------------------

    def _arm(self, at: float) -> None:
        if self._wake_event is not None:
            self._wake_event.cancel()
        delay = max(0.0, at - self.sim.now)
        self._wake_event = self.sim.call_later(delay, self._wake)
        self._wake_time = at

    def _wake(self) -> None:
        self._wake_event = None
        self._in_wake = True
        now = self.sim.now
        dirty = self._dirty
        # 1. Commit a finishing service; a completed group flushes on
        #    the spot (its sub-batch can never grow again).
        inflight = self._inflight
        if inflight is not None and self._finish_at <= now:
            self.served += 1
            self._inflight = None
            self.busy = False
            group, i = inflight
            # commit() returns True when the group just became dirty
            # (first unflushed member), so the list stays duplicate-free.
            if group.commit(i, now):
                dirty.append(group)
            if group.is_done():
                group.flush(now)
                try:
                    dirty.remove(group)
                except ValueError:
                    pass
        # 2. Admit arrivals that are due, in timestamp order.  Drop-tail
        #    losses are reported to the group: a drop can be the event
        #    that completes it.
        pending = self._pending
        queues = self._queues
        while pending and pending[0][0] <= now:
            _, _, group, i = heapq.heappop(pending)
            key = group.key
            queue = queues.get(key)
            if queue is None:
                queue = FifoQueue(capacity=self.queue_capacity,
                                  name=f"{self.name}.q{key}")
                queues[key] = queue
                self._order.append(key)
            if not queue.push((group, i)):
                group.drop(i)
                if group.is_done() and group.oldest_commit() is not None:
                    group.flush(now)
                    try:
                        dirty.remove(group)
                    except ValueError:
                        pass
        # 3. Start the next service (round-robin across rings).
        if self._inflight is None:
            key = self._pick()
            if key is not None:
                group, i = queues[key].pop()
                duration = group.svc[i]
                if duration < 0:
                    raise ValueError(
                        f"negative service time {duration} at {self.name}")
                self.busy = True
                self.busy_time += duration
                self._inflight = (group, i)
                self._finish_at = now + duration
                self._wake_event = self.sim.call_later(duration, self._wake)
                self._wake_time = self._finish_at
        # 4. Flush finished work downstream while the margin still
        #    holds.  Unbounded groups (margin inf) only flush via
        #    completion (step 1/2) or drain(), so they never fragment.
        if dirty:
            if self._inflight is None:
                keep = []
                for group in dirty:
                    if group.margin == _INF and not group.is_done():
                        keep.append(group)
                    else:
                        group.flush(now)
                self._dirty = keep
            else:
                horizon = self._finish_at
                keep = []
                for group in dirty:
                    oldest = group.oldest_commit()
                    if oldest is None:
                        continue
                    if oldest + group.margin < horizon:
                        group.flush(now)
                    else:
                        keep.append(group)
                self._dirty = keep
        self._in_wake = False
        # 5. Idle with future arrivals: wake when the first one is due.
        if self._inflight is None and self._pending:
            self._arm(self._pending[0][0])

    def _pick(self) -> Optional[Any]:
        n = len(self._order)
        if n == 0:
            return None
        start = 0
        if self._last_key in self._queues:
            start = self._order.index(self._last_key) + 1
        for offset in range(n):
            key = self._order[(start + offset) % n]
            if len(self._queues[key]) > 0:
                self._last_key = key
                return key
        return None
