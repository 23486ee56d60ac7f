"""Unified telemetry: sim-time metrics registry + per-hop packet tracing.

The observability layer has three moving parts:

- :mod:`repro.obs.metrics` -- named counters/gauges/histograms with
  labels, recorded against *simulated* time;
- :mod:`repro.obs.trace` -- the packet tracer: one span per hop through
  the mediation chain, reconstructable into per-packet journeys;
- :mod:`repro.obs.export` -- JSON-lines span dumps, Prometheus text
  snapshots, and paper-style summary tables.

The packet tracer is a tap on the simulator, not a process global:
every :class:`~repro.sim.kernel.Simulator` carries ``sim.tracer``,
which starts as the shared :data:`NULL_TRACER` whose hooks are no-ops,
so an instrumentation site costs two attribute loads and an empty call
when tracing is off.  :func:`enable_tracing` puts a recording
:class:`PacketTracer` on one simulator; components reach it through
their own simulator (``self.sim.tracer.hook(...)``), so tracing one
deployment never records, re-clocks or slows down another.

``REGISTRY``
    The process-wide :class:`MetricsRegistry`.  Control-plane events
    write it directly; hot-path cache stats are *pulled* in by
    :func:`repro.obs.integrate.harvest` after each harness run.

Typical use (also what ``repro obs`` does)::

    from repro import obs
    deployment = build_deployment(spec, scenario)
    tracer = obs.enable_tracing(deployment.sim)
    ... run traffic ...
    journey = tracer.journey(frame.frame_id)
    print(obs.REGISTRY.prometheus_text())
    obs.disable_tracing(deployment.sim)
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    PacketTracer,
    Span,
    journeys_from_jsonl,
)
from repro.obs import integrate as _integrate

#: The process-wide metrics registry.
REGISTRY = MetricsRegistry()


def enable_tracing(sim, capacity: int = 1_000_000) -> PacketTracer:
    """Put a recording tracer on ``sim`` and bind the registry to its
    clock.  Returns the tracer (also reachable as ``sim.tracer``)."""
    tracer = PacketTracer(sim, capacity=capacity)
    sim.tracer = tracer
    REGISTRY.set_clock(lambda: sim.now)
    return tracer


def disable_tracing(sim) -> None:
    """Restore ``sim``'s zero-cost no-op tracer."""
    sim.tracer = NULL_TRACER


def on_deployment_built(deployment) -> None:
    """Bind the registry to a new deployment's simulation clock.
    Called by ``build_deployment``; with several live deployments the
    most recently built one owns the registry's clock."""
    sim = deployment.sim
    REGISTRY.set_clock(lambda: sim.now)


# Re-exported integration helpers (the documented public surface).
harvest = _integrate.harvest
harvest_fabric = _integrate.harvest_fabric
fabric_gauges = _integrate.fabric_gauges
cache_efficacy_line = _integrate.cache_efficacy_line
deployment_metrics = _integrate.deployment_metrics

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PacketTracer",
    "Span",
    "journeys_from_jsonl",
    "REGISTRY",
    "enable_tracing",
    "disable_tracing",
    "on_deployment_built",
    "harvest",
    "harvest_fabric",
    "fabric_gauges",
    "cache_efficacy_line",
    "deployment_metrics",
]
