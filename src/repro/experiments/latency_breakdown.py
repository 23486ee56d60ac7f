"""PMU-style latency breakdown (the §6 "evaluation limitations" ask).

"For a deeper understanding of the performance improvement we obtained
in this paper using SR-IOV, further measurements are necessary, e.g.,
using the performance monitoring unit (PMU) to collect a breakdown of
the packet processing latencies."

The simulator's tracer records one span per hop of a frame's journey,
and together the spans cover every nanosecond of it.  This experiment
traces its own run, folds each delivered frame's spans into path
components (:func:`frame_components`) and averages them over the
measurement window, answering the paper's open question directly:
where does each architecture spend its latency?

The expected story, quantified: the Baseline's p2v latency lives in
the vhost crossings and the tenant's Linux bridge; MTS replaces both
with microsecond-scale NIC traversals and spends its remaining budget
in the tenant's l2fwd poll loop.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from repro import obs
from repro.core.deployment import build_deployment
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.experiments.common import EvalMode, configs_for_mode
from repro.measure.reporting import Series, Table
from repro.obs.trace import Span
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS, USEC

COMPONENTS = ("wire", "nic", "vswitch.service", "vswitch.wait",
              "vswitch.queue", "vhost", "tenant")

#: Span kinds whose duration is one component; a ``vswitch.tx`` span
#: splits into its pass's service, wait and queue attrs instead.
_COMPONENT_OF_KIND = {
    "link.enqueue": "wire",
    "link.tx": "wire",
    "veb.forward": "nic",
    "vhost.crossing": "vhost",
    "tenant.forward": "tenant",
}
_VSWITCH_ATTRS = (("vswitch.service", "service"), ("vswitch.wait", "wait"),
                  ("vswitch.queue", "queue"))

WORKLOAD = "ext.latency-breakdown"

DEFAULT_AGGREGATE_PPS = 10 * KPPS


def frame_components(spans: Iterable[Span]) -> Dict[int, Dict[str, float]]:
    """Per-frame latency components (seconds), keyed by trace id, in
    one pass over a tracer's spans."""
    frames: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        if span.kind == "vswitch.tx":
            parts = frames[span.trace_id]
            for component, key in _VSWITCH_ATTRS:
                parts[component] += span.attrs[key]
        elif span.kind in _COMPONENT_OF_KIND:
            frames[span.trace_id][_COMPONENT_OF_KIND[span.kind]] += (
                span.duration)
    return frames


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: mean per-component latency (seconds)."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    tracer = obs.enable_tracing(deployment.sim)
    harness = TestbedHarness(deployment)
    aggregate_pps = float(spec.param("aggregate_pps",
                                     DEFAULT_AGGREGATE_PPS))
    harness.configure_tenant_flows(
        rate_per_flow_pps=aggregate_pps / spec.deployment.num_tenants)

    warmup = spec.warmup
    captured: List[int] = []
    harness.egress_tap.observe(
        lambda frame, now:
        captured.append(frame.frame_id) if now >= warmup else None)
    harness.run(duration=spec.duration, warmup=warmup)
    if not captured:
        raise RuntimeError(f"no frames captured for {spec.display_label}")
    if tracer.spans_dropped:
        raise RuntimeError(f"tracer overflow for {spec.display_label}")

    frames = frame_components(tracer.spans)
    totals = {component: 0.0 for component in COMPONENTS}
    for frame_id in captured:
        for component in COMPONENTS:
            totals[component] += frames[frame_id][component]
    return {component: total / len(captured)
            for component, total in totals.items()}


def measure_breakdown(
    spec: DeploymentSpec,
    scenario: TrafficScenario = TrafficScenario.P2V,
    aggregate_pps: float = DEFAULT_AGGREGATE_PPS,
    duration: float = 0.1,
    warmup: float = 0.02,
    seed: int = 0,
) -> Dict[str, float]:
    """Mean per-component latency (seconds) of delivered frames."""
    return measure_scenario(ScenarioSpec(
        workload=WORKLOAD, deployment=spec, traffic=scenario,
        duration=duration, warmup=warmup, seed=seed, label=spec.label,
        params={"aggregate_pps": aggregate_pps}))


def scenarios(mode: str = EvalMode.SHARED,
              scenario: TrafficScenario = TrafficScenario.P2V,
              duration: float = 0.1, warmup: float = 0.02,
              seed: int = 0) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(workload=WORKLOAD, deployment=config.spec(),
                     traffic=scenario, duration=duration, warmup=warmup,
                     seed=seed, eval_mode=mode, label=config.label,
                     params={"aggregate_pps": DEFAULT_AGGREGATE_PPS})
        for config in configs_for_mode(mode)
        if config.supports(scenario)
    ]


def tabulate(results: Sequence[ScenarioResult],
             mode: str = EvalMode.SHARED,
             scenario: TrafficScenario = TrafficScenario.P2V) -> Table:
    table = Table(
        title=f"Latency breakdown ({scenario.value}, {mode} mode, "
              "10 kpps, mean per component)",
        unit="us",
        fmt=lambda v: f"{v:.1f}",
    )
    for result in results:
        series = Series(label=result.label)
        for component in COMPONENTS:
            if result.values[component] > 0:
                series.add(component, result.values[component] / USEC)
        series.add("TOTAL",
                   sum(result.values[c] for c in COMPONENTS) / USEC)
        table.add_series(series)
    return table
