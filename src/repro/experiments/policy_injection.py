"""The policy-injection / flow-cache DoS (Csikor et al. [15]).

One of the two attacks motivating the paper: "Csikor et al. identified
a severe performance isolation vulnerability, also in OvS, which
results in a low-resource cross-tenant denial-of-service attack."  The
mechanism is the vswitch's flow cache: packets that never hit it force
slow-path upcalls costing ~100x a fast-path pass, so an attacker with
a *tiny* packet budget (here 40 kpps of randomized-source-port UDP --
less than 2 % of the datapath's fast-path capacity) can burn the
shared vswitch's entire core.

The experiment measures the victims' delivery and latency while the
attacker runs cache-busting traffic, per architecture -- and contrasts
the attacker's budget with the brute-force flood the noisy-neighbor
experiment needs for the same damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.deployment import build_deployment
from repro.core.levels import ResourceMode, SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.measure.reporting import Series, Table
from repro.measure.stats import percentile
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS, USEC

ATTACKER = 0
VICTIMS = (1, 2, 3)

#: The whole point: a *low* attack rate.  40 kpps of upcalls at
#: ~150k cycles each is ~6 G cycles/s of slow-path work -- three
#: 2.1 GHz cores' worth -- from under 2% of line rate.
ATTACK_RATE_PPS = 40 * KPPS
VICTIM_RATE_PPS = 10 * KPPS

WORKLOAD = "ext.policy-injection"

_HIT_RATE_PREFIX = "cache_hit_rate:"


@dataclass
class PolicyInjectionResult:
    label: str
    victim_delivery_fraction: float
    victim_p99_latency: float
    attacker_rate_pps: float
    cache_hit_rate: Dict[str, float]


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: victim metrics under cache-busting traffic.

    Per-bridge flow-cache hit rates ride along as
    ``cache_hit_rate:<bridge>`` keys.
    """
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    harness = TestbedHarness(deployment)
    harness.add_tenant_flow(ATTACKER, ATTACK_RATE_PPS,
                            randomize_src_port=True)
    for victim in VICTIMS:
        harness.add_tenant_flow(victim, VICTIM_RATE_PPS)
    harness.run(duration=spec.duration, warmup=spec.warmup)

    t0, t1 = spec.warmup, spec.duration
    sent_per_victim = VICTIM_RATE_PPS * (t1 - t0)
    delivered = sum(harness.monitor.delivered_in_window(t0, t1, flow_id=v)
                    for v in VICTIMS)
    latencies: List[float] = []
    for victim in VICTIMS:
        latencies.extend(
            harness.monitor.latencies_in_window(t0, t1, flow_id=victim))
    values = {
        "victim_delivery_fraction": min(
            1.0, delivered / (sent_per_victim * len(VICTIMS))),
        "victim_p99_latency_s": (percentile(latencies, 99) if latencies
                                 else float("inf")),
        "attacker_rate_pps": ATTACK_RATE_PPS,
    }
    for bridge in deployment.bridges:
        if bridge.cache is not None:
            values[f"{_HIT_RATE_PREFIX}{bridge.name}"] = \
                bridge.cache.stats.hit_rate
    return values


def measure(spec: DeploymentSpec, duration: float = 0.1,
            warmup: float = 0.02, seed: int = 0) -> PolicyInjectionResult:
    values = measure_scenario(ScenarioSpec(
        workload=WORKLOAD, deployment=spec, traffic=TrafficScenario.P2V,
        duration=duration, warmup=warmup, seed=seed, label=spec.label))
    return PolicyInjectionResult(
        label=spec.label,
        victim_delivery_fraction=values["victim_delivery_fraction"],
        victim_p99_latency=values["victim_p99_latency_s"],
        attacker_rate_pps=values["attacker_rate_pps"],
        cache_hit_rate={
            key[len(_HIT_RATE_PREFIX):]: rate
            for key, rate in values.items()
            if key.startswith(_HIT_RATE_PREFIX)
        },
    )


def configurations() -> List[DeploymentSpec]:
    return [
        DeploymentSpec(level=SecurityLevel.BASELINE,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_1,
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
        title="Policy-injection DoS: 40 kpps of cache-busting traffic "
              "from tenant 0 (p2v)",
        fmt=lambda v: f"{v:.3g}",
    )
    delivery = Series(label="victim delivery fraction")
    latency = Series(label="victim p99 latency (us)")
    for result in results:
        delivery.add(result.label, result.values["victim_delivery_fraction"])
        latency.add(result.label,
                    result.values["victim_p99_latency_s"] / USEC)
    table.add_series(delivery)
    table.add_series(latency)
    return table
