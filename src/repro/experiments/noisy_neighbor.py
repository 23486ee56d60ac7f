"""Performance isolation under a noisy neighbor (extension of §6).

The paper's discussion section flags cross-tenant performance
interference (covert channels, the Csikor et al. cloud-dataplane DoS)
as the residual risk of *sharing* a vswitch.  This experiment
quantifies it: tenant 0 (the attacker) floods its own virtual network
at far beyond the datapath's capacity while tenants 1-3 (victims) send
a modest, fully-sustainable rate.  We measure what the victims actually
get, per architecture:

- **Baseline / Level-1**: attacker and victims share one datapath and
  one ingress ring -- the flood crowds the victims out (loss) and
  inflates their latency.
- **Level-2**: the attacker's flood is confined to its own vswitch
  compartment; victims behind other compartments are untouched.

This turns the paper's qualitative "least common mechanism" argument
into a measured, reproducible number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.deployment import build_deployment
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.core.levels import ResourceMode, SecurityLevel
from repro.measure.reporting import Series, Table
from repro.measure.stats import percentile
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS, MPPS, USEC

ATTACKER = 0
VICTIMS = (1, 2, 3)

#: The flood: well past any kernel datapath's capacity.
ATTACK_RATE_PPS = 2.0 * MPPS
#: What each victim asks for: trivially sustainable on its own.
VICTIM_RATE_PPS = 10 * KPPS

WORKLOAD = "ext.noisy-neighbor"


@dataclass
class NoisyNeighborResult:
    label: str
    victim_delivery_fraction: float
    victim_p99_latency: float
    attacker_delivered_pps: float


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: victim delivery/latency under the flood."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    # Batched fast path where it is exact; chaos compositions (the
    # billing fault-payer runs) hold the deployment onto per-frame.
    harness = TestbedHarness(deployment, batch=True)
    harness.add_tenant_flow(ATTACKER, ATTACK_RATE_PPS)
    for victim in VICTIMS:
        harness.add_tenant_flow(victim, VICTIM_RATE_PPS)
    harness.run(duration=spec.duration, warmup=spec.warmup)

    t0, t1 = spec.warmup, spec.duration
    sent_per_victim = VICTIM_RATE_PPS * (t1 - t0)
    delivered = sum(
        harness.monitor.delivered_in_window(t0, t1, flow_id=v)
        for v in VICTIMS
    )
    victim_latencies: List[float] = []
    for victim in VICTIMS:
        victim_latencies.extend(
            harness.monitor.latencies_in_window(t0, t1, flow_id=victim))
    p99 = percentile(victim_latencies, 99) if victim_latencies else float("inf")
    attacker_pps = harness.monitor.delivered_in_window(
        t0, t1, flow_id=ATTACKER) / (t1 - t0)
    return {
        "victim_delivery_fraction": min(
            1.0, delivered / (sent_per_victim * len(VICTIMS))),
        "victim_p99_latency_s": p99,
        "attacker_delivered_pps": attacker_pps,
    }


def measure(spec: DeploymentSpec, duration: float = 0.1,
            warmup: float = 0.02, seed: int = 0) -> NoisyNeighborResult:
    values = measure_scenario(ScenarioSpec(
        workload=WORKLOAD, deployment=spec, traffic=TrafficScenario.P2V,
        duration=duration, warmup=warmup, seed=seed, label=spec.label))
    return NoisyNeighborResult(
        label=spec.label,
        victim_delivery_fraction=values["victim_delivery_fraction"],
        victim_p99_latency=values["victim_p99_latency_s"],
        attacker_delivered_pps=values["attacker_delivered_pps"],
    )


def configurations() -> List[DeploymentSpec]:
    return [
        DeploymentSpec(level=SecurityLevel.BASELINE,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_1,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=4,
                       resource_mode=ResourceMode.ISOLATED),
    ]


def scenarios(duration: float = 0.1, warmup: float = 0.02,
              seed: int = 0) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(workload=WORKLOAD, deployment=spec,
                     traffic=TrafficScenario.P2V, duration=duration,
                     warmup=warmup, seed=seed, label=spec.label)
        for spec in configurations()
    ]


def tabulate(results: Sequence[ScenarioResult]) -> Table:
    table = Table(
        title="Noisy neighbor: tenant 0 floods at 2 Mpps, victims ask "
              "10 kpps each (p2v)",
        fmt=lambda v: f"{v:.3g}",
    )
    delivery = Series(label="victim delivery fraction")
    latency = Series(label="victim p99 latency (us)")
    attacker = Series(label="attacker delivered (Mpps)")
    for result in results:
        delivery.add(result.label, result.values["victim_delivery_fraction"])
        latency.add(result.label,
                    result.values["victim_p99_latency_s"] / USEC)
        attacker.add(result.label,
                     result.values["attacker_delivered_pps"] / MPPS)
    table.add_series(delivery)
    table.add_series(latency)
    table.add_series(attacker)
    return table
