"""Glue between deployments and the telemetry registry.

Hot-path components keep their own cheap counters (PR 1's cache stats:
``FlowTable.emc_stats``, ``OvsBridge.plan_cache_hits``,
``VebSwitch.decision_cache_hits``, ``FilterChain.memo_hits``).  This
module pulls them into the shared :class:`MetricsRegistry` in two ways:

- :func:`harvest` -- called by the harness after every run: folds the
  *delta* since the last harvest into global, labelled counters
  (``cache_hits_total{cache="emc"}`` etc.); the scenario engine ships
  each run's share in :attr:`ScenarioResult.metrics`, which the
  experiment runner sums per experiment for its cache-efficacy line;
- :func:`deployment_metrics` -- a one-shot detailed pull for the
  ``repro obs`` CLI: per-table / per-bridge / per-VEB gauges.

Everything here is duck-typed against the deployment object to keep
``repro.obs`` import-light (no dependency on ``repro.core``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

#: Caches surfaced per experiment: registry label value -> pretty name.
_CACHES = ("emc", "plan", "veb_memo", "filter_memo")


def _cache_totals(deployment) -> Dict[str, float]:
    """Cumulative cache/drop counters of one deployment's components."""
    t: Dict[str, float] = {
        "emc_hits": 0, "emc_misses": 0, "emc_evictions": 0,
        "flow_lookups": 0, "flow_misses": 0,
        "plan_lookups": 0, "plan_hits": 0, "plan_invalidations": 0,
        "veb_forwards": 0, "veb_memo_hits": 0, "veb_floods": 0,
        "veb_unknown_unicast": 0,
        "filter_evals": 0, "filter_memo_hits": 0, "filter_drops": 0,
        "drop_no_match": 0, "drop_action": 0, "drop_rx_ring": 0,
        "drop_spoof": 0, "drop_filtered": 0, "drop_no_destination": 0,
        "drop_unconfigured_vf": 0, "drop_rate_limited": 0,
    }
    for bridge in getattr(deployment, "bridges", ()):
        for table in bridge.tables.values():
            t["emc_hits"] += table.emc_stats.hits
            t["emc_misses"] += table.emc_stats.misses
            t["emc_evictions"] += table.emc_stats.evictions
            t["flow_lookups"] += table.lookups
            t["flow_misses"] += table.misses
        t["plan_lookups"] += sum(p.rx_frames for p in bridge.ports())
        t["plan_hits"] += bridge.plan_cache_hits
        t["plan_invalidations"] += bridge.plan_cache_invalidations
        t["drop_no_match"] += bridge.drops_no_match
        t["drop_action"] += bridge.drops_action
        t["drop_rx_ring"] += bridge.rx_drops()
    server = getattr(deployment, "server", None)
    nic = getattr(server, "nic", None)
    if nic is not None:
        for port in nic.ports:
            t["veb_forwards"] += port.veb.forwards
            t["veb_memo_hits"] += port.veb.decision_cache_hits
            t["veb_floods"] += port.veb.floods
            t["veb_unknown_unicast"] += port.veb.unknown_unicasts
            t["drop_spoof"] += port.drops.spoof
            t["drop_filtered"] += port.drops.filtered
            t["drop_no_destination"] += port.drops.no_destination
            t["drop_unconfigured_vf"] += port.drops.unconfigured_vf
            t["drop_rate_limited"] += port.drops.rate_limited
        t["filter_evals"] += nic.filters.evaluations
        t["filter_memo_hits"] += nic.filters.memo_hits
        t["filter_drops"] += nic.filters.drops
    return t


def drop_totals(deployment) -> Dict[str, float]:
    """Cumulative per-component drop counters (the ``drop_*`` subset of
    the harvested totals; ``filter_drops`` is excluded because each of
    its frames is already in ``drop_filtered``).  The chaos layer diffs
    this around a run to close its packet-conservation books."""
    totals = _cache_totals(deployment)
    return {k: v for k, v in totals.items() if k.startswith("drop_")}


def harvest(deployment, registry: MetricsRegistry) -> Dict[str, float]:
    """Fold this deployment's counter growth since the last harvest into
    the registry's global cache/drop counters; returns the delta."""
    totals = _cache_totals(deployment)
    prev = getattr(deployment, "_obs_harvested", None) or {}
    delta = {k: v - prev.get(k, 0) for k, v in totals.items()}
    deployment._obs_harvested = totals

    hits = registry.counter(
        "cache_hits_total", "fast-path cache hits", labels=("cache",))
    lookups = registry.counter(
        "cache_lookups_total", "fast-path cache lookups", labels=("cache",))
    pairs = {
        "emc": (delta["emc_hits"], delta["emc_hits"] + delta["emc_misses"]),
        "plan": (delta["plan_hits"], delta["plan_lookups"]),
        "veb_memo": (delta["veb_memo_hits"], delta["veb_forwards"]),
        "filter_memo": (delta["filter_memo_hits"], delta["filter_evals"]),
    }
    for cache, (h, n) in pairs.items():
        if n:
            hits.labels(cache=cache).inc(h)
            lookups.labels(cache=cache).inc(n)
    if delta["plan_invalidations"]:
        registry.counter("plan_invalidations_total",
                         "bridge pass-plan cache flushes").inc(
            delta["plan_invalidations"])
    if delta["emc_evictions"]:
        registry.counter("cache_evictions_total", "cache capacity evictions",
                         labels=("cache",)).labels(cache="emc").inc(
            delta["emc_evictions"])
    drops = registry.counter("drops_total", "frames dropped",
                             labels=("component", "reason"))
    for key, (component, reason) in {
        "drop_no_match": ("vswitch", "no_match"),
        "drop_action": ("vswitch", "action"),
        "drop_rx_ring": ("vswitch", "rx_ring_full"),
        "drop_spoof": ("nic", "spoof"),
        "drop_filtered": ("nic", "filtered"),
        "drop_no_destination": ("nic", "no_destination"),
        "drop_unconfigured_vf": ("nic", "unconfigured_vf"),
        "drop_rate_limited": ("nic", "rate_limited"),
    }.items():
        if delta[key]:
            drops.labels(component=component, reason=reason).inc(delta[key])
    return delta


def harvest_fabric(switches, registry: MetricsRegistry) -> Dict[str, float]:
    """Fold fabric-switch counter growth since the last harvest into
    global fabric counters (the delta idiom of :func:`harvest`, applied
    to :meth:`FabricSwitch.counters`); returns the summed delta."""
    floods = registry.counter("fabric_floods_total",
                              "fabric frames flooded", labels=("switch",))
    forwarded = registry.counter("fabric_forwarded_total",
                                 "fabric frames unicast-forwarded",
                                 labels=("switch",))
    port_tx = registry.counter("fabric_port_tx_total",
                               "frames transmitted per fabric port",
                               labels=("switch", "port"))
    port_drops = registry.counter("fabric_port_tx_drops_total",
                                  "frames dropped at linkless fabric ports",
                                  labels=("switch", "port"))
    summed: Dict[str, float] = {}
    for switch in switches:
        totals = switch.counters()
        prev = getattr(switch, "_obs_harvested", None) or {}
        delta = {k: v - prev.get(k, 0) for k, v in totals.items()}
        switch._obs_harvested = totals
        for key, value in delta.items():
            summed[key] = summed.get(key, 0.0) + value
            if not value:
                continue
            if key == "floods":
                floods.labels(switch=switch.name).inc(value)
            elif key == "forwarded":
                forwarded.labels(switch=switch.name).inc(value)
            elif key.endswith(".tx"):
                port_tx.labels(switch=switch.name,
                               port=key.removesuffix(".tx")).inc(value)
            elif key.endswith(".tx_drops"):
                port_drops.labels(
                    switch=switch.name,
                    port=key.removesuffix(".tx_drops")).inc(value)
    return summed


def fabric_gauges(switches, registry: MetricsRegistry) -> MetricsRegistry:
    """One-shot per-port gauges of the fabric switches (the ``repro
    obs``-style detailed pull, like :func:`deployment_metrics`)."""
    rx = registry.gauge("fabric_port_rx", "frames received per fabric port",
                        labels=("switch", "port"))
    tx = registry.gauge("fabric_port_tx", "frames sent per fabric port",
                        labels=("switch", "port"))
    drops = registry.gauge("fabric_port_tx_drops",
                           "frames dropped at linkless fabric ports",
                           labels=("switch", "port"))
    for switch in switches:
        for key, value in switch.counters().items():
            port, _, kind = key.partition(".")
            if kind == "rx":
                rx.labels(switch=switch.name, port=port).set(value)
            elif kind == "tx":
                tx.labels(switch=switch.name, port=port).set(value)
            elif kind == "tx_drops":
                drops.labels(switch=switch.name, port=port).set(value)
    return registry


def _get(snapshot: Dict[str, float], name: str, **labels) -> float:
    pairs = ",".join(f'{k}="{v}"' for k, v in labels.items())
    key = f"{name}{{{pairs}}}" if pairs else name
    return snapshot.get(key, 0.0)


def cache_efficacy_line(counts: Dict[str, float]) -> Optional[str]:
    """One-line cache report from counter totals in
    :meth:`MetricsRegistry.snapshot` form (a whole registry, or one
    experiment's summed :attr:`ScenarioResult.metrics`); ``None`` when
    no cache was consulted."""
    parts = []
    for cache in _CACHES:
        n = _get(counts, "cache_lookups_total", cache=cache)
        if n <= 0:
            continue
        h = _get(counts, "cache_hits_total", cache=cache)
        parts.append(f"{cache.replace('_', '-')} {h / n:.1%} "
                     f"({h:.0f}/{n:.0f})")
    if not parts:
        return None
    inval = _get(counts, "plan_invalidations_total")
    line = "[obs] cache hit rates: " + ", ".join(parts)
    if inval:
        line += f"; plan invalidations +{inval:.0f}"
    return line


def deployment_metrics(deployment,
                       registry: Optional[MetricsRegistry] = None
                       ) -> MetricsRegistry:
    """Detailed per-component gauges of one deployment (the ``repro obs``
    snapshot): per-table EMC, per-bridge plan cache, per-VEB memo, NIC
    filter chain, and simulator progress."""
    sim = deployment.sim
    if registry is None:
        registry = MetricsRegistry(clock=lambda: sim.now)
    emc_rate = registry.gauge("emc_hit_rate", "EMC hit fraction per table",
                              labels=("table",))
    flow_lookups = registry.gauge("flow_lookups", "lookups per table",
                                  labels=("table",))
    flow_misses = registry.gauge("flow_misses", "table misses", labels=("table",))
    rules = registry.gauge("flow_rules", "installed rules", labels=("table",))
    plan_hits = registry.gauge("plan_cache_hits", "pass-plan replays",
                               labels=("bridge",))
    plan_inval = registry.gauge("plan_cache_invalidations",
                                "pass-plan flushes", labels=("bridge",))
    passes = registry.gauge("bridge_passes", "forwarding passes",
                            labels=("bridge",))
    for bridge in getattr(deployment, "bridges", ()):
        for table in bridge.tables.values():
            emc_rate.labels(table=table.name).set(table.emc_stats.hit_rate)
            flow_lookups.labels(table=table.name).set(table.lookups)
            flow_misses.labels(table=table.name).set(table.misses)
            rules.labels(table=table.name).set(len(table))
        plan_hits.labels(bridge=bridge.name).set(bridge.plan_cache_hits)
        plan_inval.labels(bridge=bridge.name).set(
            bridge.plan_cache_invalidations)
        passes.labels(bridge=bridge.name).set(bridge.passes)
    nic = getattr(deployment.server, "nic", None)
    if nic is not None:
        veb_hits = registry.gauge("veb_decision_cache_hits",
                                  "VEB memo hits", labels=("veb",))
        veb_fw = registry.gauge("veb_forwards", "VEB forwarding decisions",
                                labels=("veb",))
        for port in nic.ports:
            veb_hits.labels(veb=port.veb.name).set(
                port.veb.decision_cache_hits)
            veb_fw.labels(veb=port.veb.name).set(port.veb.forwards)
        registry.gauge("nic_filter_evaluations",
                       "filter chain walks + memo hits").set(
            nic.filters.evaluations)
        registry.gauge("nic_filter_memo_hits", "memoized verdicts").set(
            nic.filters.memo_hits)
        registry.gauge("nic_filter_drops", "filter DROP verdicts").set(
            nic.filters.drops)
    registry.gauge("sim_events_fired", "DES events executed").set(
        sim.events_fired)
    registry.gauge("sim_heap_pending", "DES events still queued").set(
        sim.pending())
    registry.gauge("sim_now_seconds", "simulated clock").set(sim.now)
    return registry
