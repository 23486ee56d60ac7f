"""The run context: what one scenario threads to the harness runs inside it.

The scenario engine resolves a workload function and calls it; the
workload builds a deployment and a :class:`TestbedHarness` and runs it.
Neither knows the other's objects, so the spec's fault plan and
metering request travel through one scenario-scoped slot instead:

1. :func:`repro.scenario.engine.run_scenario` installs a
   :class:`RunContext` around the workload call (``with`` block);
2. ``TestbedHarness.run`` asks it for a chaos session
   (:meth:`RunContext.attach_chaos`) and a metering session
   (:meth:`RunContext.attach_metering`) -- each at most once per
   scenario, so any harness-based workload is chaos-capable and
   billable without signature changes;
3. sessions append their fault events and usage records to
   :attr:`RunContext.events` / :attr:`RunContext.usage`, which the
   engine copies into the :class:`ScenarioResult`.

Workloads that run their own chaos session or event source
(``ext.chaos``, ``ext.fault-isolation``, ``controlplane.churn``) call
:meth:`RunContext.claim_faults` first so the harness stays out of the
way.  Outside the engine :func:`current` hands out an empty context,
so a harness run there is fault-free and unmetered and whatever its
sessions append is dropped.

The context carries no data-path state: whether a deployment's wiring
is stable enough for the batched fast path is asked of the
:class:`~repro.core.deployment.Deployment` itself, which armed chaos
sessions and scheduled migrations hold.
"""

from __future__ import annotations

from typing import List, Optional


class RunContext:
    """Fault plan, metering request and output buffers of one scenario."""

    __slots__ = ("plan", "seed", "metering", "metering_interval",
                 "faults_claimed", "metering_claimed", "events", "usage",
                 "_outer")

    def __init__(self, plan=None, seed: int = 0, metering: bool = False,
                 metering_interval: float = 0.0) -> None:
        self.plan = plan
        self.seed = seed
        self.metering = bool(metering)
        self.metering_interval = float(metering_interval)
        self.faults_claimed = False
        self.metering_claimed = False
        #: Fault and lifecycle event dicts, in publication order.
        self.events: List[dict] = []
        #: Usage records and billing summaries, in publication order.
        self.usage: List[dict] = []
        self._outer: Optional[RunContext] = None

    def __enter__(self) -> "RunContext":
        global _current
        self._outer, _current = _current, self
        return self

    def __exit__(self, *exc) -> None:
        global _current
        _current, self._outer = self._outer, None

    def claim_faults(self) -> None:
        """Take ownership of the fault plan: the harness will no longer
        attach a chaos session for it."""
        self.faults_claimed = True

    def claim_metering(self) -> bool:
        """Take the metering request; ``True`` when the scenario asked
        for metering and nothing has claimed it yet."""
        if not self.metering or self.metering_claimed:
            return False
        self.metering_claimed = True
        return True

    def attach_chaos(self, harness, horizon: float):
        """Build and arm a :class:`ChaosSession` on ``harness`` when an
        unclaimed plan with faults is present.  Returns the session
        (caller must ``finish()`` it after the run) or ``None``."""
        if self.faults_claimed or self.plan is None or not self.plan.faults:
            return None
        self.faults_claimed = True
        from repro.faults.session import ChaosSession
        session = ChaosSession(harness.deployment, harness, self.plan,
                               seed=self.seed or 0)
        session.arm(horizon)
        return session

    def attach_metering(self, harness, horizon: float, chaos=None):
        """Build and arm a :class:`MeteringSession` on ``harness`` when
        metering is requested and unclaimed (nested runs meter only the
        outermost).  ``chaos`` is the run's chaos session, if any, so
        fault recovery costs can be charged to tenants."""
        if not self.claim_metering():
            return None
        from repro.billing.session import MeteringSession
        session = MeteringSession(harness.deployment, harness,
                                  interval=self.metering_interval,
                                  seed=self.seed, chaos=chaos)
        session.arm(horizon)
        return session


#: The context of the scenario in flight, or ``None`` outside the engine.
_current: Optional[RunContext] = None


def current() -> RunContext:
    """The installed :class:`RunContext`, or a fresh empty one (no
    plan, no metering) when no scenario is in flight."""
    return _current if _current is not None else RunContext()
