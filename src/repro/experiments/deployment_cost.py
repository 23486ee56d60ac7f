"""The cost of deploying MTS: control-plane operations per configuration.

The paper's pitch includes operations: MTS is "incrementally deployable,
providing an inexpensive deployment experience for cloud operators" --
"MTS can easily be scripted into existing cloud systems".  This
experiment quantifies the scripting surface: how many primitive
operations (VM definitions, VF configurations, bridge ports, flow
rules, filters) each configuration takes to stand up, and what the
*delta* from the Baseline is -- the upgrade path's size.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.deployment import plan_deployment
from repro.core.levels import SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.measure.reporting import Series, Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec

#: Control-plane verbs grouped for reporting.
GROUPS = {
    "VMs": ("define-vm", "define-container"),
    "VFs": ("create-vf",),
    "bridge ports": ("add-port",),
    "apps": ("install-app",),
    "other": ("pin-cores", "alloc-hugepages", "install-filters",
              "program-flows"),
}

WORKLOAD = "ext.deployment-cost"


def op_counts(spec: DeploymentSpec,
              scenario: TrafficScenario = TrafficScenario.P2V) -> Dict[str, int]:
    plan = plan_deployment(spec, scenario)
    counts = {group: 0 for group in GROUPS}
    counts["total"] = len(plan)
    for group, verbs in GROUPS.items():
        counts[group] = sum(len(plan.with_verb(v)) for v in verbs)
    return counts


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: exact control-plane op counts of one spec."""
    counts = op_counts(spec.deployment, spec.traffic)
    return {key: float(value) for key, value in counts.items()}


def configurations() -> List[DeploymentSpec]:
    return [
        DeploymentSpec(level=SecurityLevel.BASELINE),
        DeploymentSpec(level=SecurityLevel.LEVEL_1),
        DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2),
        DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=4),
    ]


def scenarios(scenario: TrafficScenario = TrafficScenario.P2V,
              seed: int = 0) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(workload=WORKLOAD, deployment=spec, traffic=scenario,
                     seed=seed, label=spec.label)
        for spec in configurations()
    ]


def tabulate(results: Sequence[ScenarioResult],
             scenario: TrafficScenario = TrafficScenario.P2V) -> Table:
    table = Table(
        title=f"Deployment cost: primitive control-plane operations "
              f"({scenario.value})",
        fmt=lambda v: f"{v:.0f}",
    )
    baseline_total = None
    for result in results:
        if baseline_total is None:
            baseline_total = result.values["total"]
        series = Series(label=result.label)
        for group in GROUPS:
            series.add(group, result.values[group])
        series.add("total", result.values["total"])
        series.add("delta vs Baseline",
                   result.values["total"] - baseline_total)
        table.add_series(series)
    return table
