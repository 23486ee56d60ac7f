"""The benchmark's four workloads as lists of operations.

An operation is one scenario through the scenario engine, one fabric
placement, one fabric hybrid run, or one ``serve`` churn campaign.
Inputs (scenario specs, the fabric tenant mix, the churn plan) are
generated here from the workload seed; the program only receives
them.  Each operation returns its result values as a JSON-able dict
(hashed into the output digest) and has a check that lists every way
those values break an invariant of the program.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

from repro.scenario import Engine, NullStore, ScenarioSpec, SequentialBackend

#: Allowed fluid-vs-DES disagreement of the fabric hybrid, the
#: ``repro fabric --check`` default.
FABRIC_TOLERANCE = 0.05


@dataclasses.dataclass
class Operation:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], List[str]]


@dataclasses.dataclass
class Workload:
    ops: List[Operation]
    #: Indices of the operations run once, untimed, before measuring:
    #: one of each kind, so lazy imports and first-call costs are paid
    #: before the first timed pass.
    warmup: Sequence[int]


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


# -- scenario-engine operations ----------------------------------------------

def _engine() -> Engine:
    # Closed loop, one process, no result store: every operation
    # simulates, none is a cache hit.
    return Engine(backend=SequentialBackend(), store=NullStore())


def _scenario_op(engine: Engine, spec: ScenarioSpec,
                 check: Callable[[dict], List[str]]) -> Operation:
    def run() -> dict:
        result = engine.run([spec])[0]
        # Counter deltas are differences of process-wide running sums.
        # For the one fractional family, CPU seconds, the last bits
        # depend on what ran before; the exact per-tenant values are in
        # the usage records.
        metrics = {key: value for key, value in result.metrics.items()
                   if not key.startswith("billing_cpu_seconds_total")}
        return {"label": result.label, "workload": result.workload,
                "traffic": result.traffic, "values": result.values,
                "metrics": metrics, "events": result.events,
                "usage": result.usage}
    name = f"{spec.workload}/{spec.eval_mode or '-'}/{spec.display_label}" \
           f"/{spec.traffic.value}{'+crash' if spec.faults else ''}"
    return Operation(name, run, check)


def _check_latency(material: dict) -> List[str]:
    v = material["values"]
    problems = []
    if v["samples"] <= 0:
        problems.append("no latency samples")
    if not 0 < v["p25_us"] <= v["median_us"] <= v["p75_us"] <= v["p99_us"]:
        problems.append("latency percentiles out of order")
    if not 0.0 <= v["loss_fraction"] <= 1.0:
        problems.append(f"loss fraction {v['loss_fraction']} outside [0, 1]")
    return problems + _check_runs(material)


def _check_runs(material: dict) -> List[str]:
    return [f"harness delivered {run['delivered']} of {run['sent']} sent"
            for run in material.get("runs", ())
            if not 0 < run["delivered"] <= run["sent"]]


def _check_victims(material: dict) -> List[str]:
    problems = [f"{key} = {value} outside [0, 1]"
                for key, value in material["values"].items()
                if (key == "victim_delivery_fraction"
                    or key.startswith("cache_hit_rate:"))
                and not 0.0 <= value <= 1.0]
    return problems + _check_runs(material)


def _check_metered(material: dict) -> List[str]:
    """The ``repro billing --check`` gate: every metered run's usage
    reconciles with the core accounting ground truth."""
    summaries = [u for u in material["usage"] if u.get("kind") == "summary"]
    if len(summaries) != 1:
        return [f"{len(summaries)} billing summaries, expected 1"]
    if not summaries[0].get("reconciled", False):
        return [f"billing not reconciled: {summaries[0].get('failures')}"]
    return []


def _check_crashed(material: dict) -> List[str]:
    problems = _check_metered(material) + _check_victims(material)
    if not any(key.startswith("faults_injected_total")
               for key in material["metrics"]):
        problems.append("crash scheduled but no fault injected")
    return problems


def _check_churn(material: dict) -> List[str]:
    """The ``repro serve --check`` gate."""
    v = material["values"]
    problems = []
    if v["violations"] > 0:
        problems.append(f"{v['violations']:.0f} invariant violations")
    if v["migration_resumed_fraction"] < 1.0:
        problems.append("migrated tenants did not all resume")
    if v["crashes"] > 0 and v["migrations_completed"] <= 0:
        problems.append("crashes injected but nothing migrated")
    return problems


def fig5_latency(seed: int) -> Workload:
    from repro.experiments import fig5_latency
    from repro.experiments.common import EvalMode

    engine = _engine()
    ops = [_scenario_op(engine, spec, _check_latency)
           for mode in EvalMode.ALL
           for spec in fig5_latency.scenarios(mode, seed=seed)]
    return Workload(ops, warmup=(0,))


def flood_billing(seed: int) -> Workload:
    """The ``repro billing`` operation set at its defaults: the 2 Mpps
    noisy-neighbor flood on Baseline, L1, L2(2), L2(4) and L3, metered
    in 10 ms windows, clean and with compartment 0 crashed at a third
    of the window, plus the metered churn campaign."""
    from repro.controlplane.workload import default_plan, scenario
    from repro.core.spec import (DeploymentSpec, ResourceMode,
                                 SecurityLevel, TrafficScenario)
    from repro.experiments.noisy_neighbor import WORKLOAD, configurations
    from repro.faults.plan import scripted_crash

    duration, interval, warmup = 0.06, 0.01, 0.02
    deployments = configurations() + [DeploymentSpec(
        level=SecurityLevel.LEVEL_2, num_vswitch_vms=4,
        resource_mode=ResourceMode.ISOLATED, user_space=True)]
    metering = (("metering", True), ("metering_interval", interval))

    def specs(faults=None) -> List[ScenarioSpec]:
        return [ScenarioSpec(workload=WORKLOAD, deployment=d,
                             traffic=TrafficScenario.P2V, duration=duration,
                             warmup=warmup, seed=seed, label=d.label,
                             params=metering, faults=faults)
                for d in deployments]

    engine = _engine()
    clean = [_scenario_op(engine, s, lambda m: _check_metered(m)
                          + _check_victims(m)) for s in specs()]
    crash = [_scenario_op(engine, s, _check_crashed) for s in specs(
        faults=scripted_crash(compartment=0, at=duration / 3.0))]
    churn = _scenario_op(engine, scenario(default_plan(duration=30.0),
                                          seed=seed, label="churn",
                                          metering=True),
                         lambda m: _check_metered(m) + _check_churn(m))
    return Workload(clean + crash + [churn],
                    warmup=(0, len(clean)))


def policy_dos(seed: int) -> Workload:
    from repro.experiments import policy_injection

    engine = _engine()
    ops = [_scenario_op(engine, spec, _check_victims)
           for spec in policy_injection.scenarios(seed=seed)]
    return Workload(ops, warmup=(0,))


# -- fabric and control-plane operations --------------------------------------

def fleet_churn(seed: int) -> Workload:
    """``repro fabric --servers 64 --servers-per-rack 16 --tenants 1008
    --study-flows 8`` (every placement policy, then the hybrid run) and
    ``repro serve --duration 600 --arrival-rate 5 --crashes 10``."""
    from repro.controlplane.workload import default_plan, scenario
    from repro.core.spec import DeploymentSpec, SecurityLevel
    from repro.fabric import (FabricDeployment, FabricTopology, POLICIES,
                              place, placement_cost)
    from repro.fabric.placement import PlacementError, validate_placement
    from repro.fabric.workload import pick_probe_flows, synth_reqs
    from repro.net.packet import reset_frame_ids
    from repro.units import GBPS

    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_tenants=4,
                          num_vswitch_vms=2, nic_ports=1)
    compartments, per_compartment, demand_pps = 2, 8, 20_000.0
    topology = FabricTopology(num_servers=64, servers_per_rack=16,
                              server_link_bps=10 * GBPS,
                              tor_uplink_bps=40 * GBPS)
    reqs = synth_reqs(1008, seed, demand_pps=demand_pps, frame_bytes=512,
                      zone_size=8)
    flows = pick_probe_flows(reqs, 8, demand_pps)

    def placement_op(policy: str) -> Operation:
        def run() -> dict:
            placement = place(reqs, topology, policy=policy,
                              compartments_per_server=compartments,
                              tenants_per_compartment=per_compartment)
            cost = placement_cost(reqs, placement, topology)
            return {"policy": policy, "cost": dataclasses.asdict(cost),
                    "servers_used": placement.servers_used(),
                    "assignment": sorted(placement.assignment.items()),
                    # Underscored keys are checked, not digested.
                    "_placement": placement}

        def check(material: dict) -> List[str]:
            try:
                validate_placement(reqs, material["_placement"], topology,
                                   compartments, per_compartment)
            except PlacementError as exc:
                return [f"invalid {policy} placement: {exc}"]
            return []
        return Operation(f"fabric.place/{policy}", run, check)

    def hybrid_run() -> dict:
        # Per-frame jitter is keyed by frame id.  TestbedHarness restarts
        # ids at every run, FabricDeployment does not, so its result
        # depends on how many frames the process made before (a program
        # defect).  Restarting here gives what ``repro fabric`` computes
        # in a fresh process.
        reset_frame_ids()
        deployment = FabricDeployment(
            spec, topology, reqs, flows, placement="greedy",
            tenants_per_compartment=per_compartment, seed=seed)
        result = deployment.run_hybrid(duration=0.2, warmup=0.05)
        return {"delivered_pps": result.delivered_pps,
                "predicted_pps": result.predicted_pps,
                "des_events": result.des_events,
                "des_servers": result.des_servers,
                "fluid_vs_des_error": result.fluid_vs_des_error,
                "bottlenecks": result.bottlenecks(top=5)}

    def hybrid_check(material: dict) -> List[str]:
        error = material["fluid_vs_des_error"]
        if error > FABRIC_TOLERANCE:
            return [f"fluid vs DES disagreement {error:.2%} exceeds "
                    f"{FABRIC_TOLERANCE:.0%}"]
        return []

    engine = _engine()
    serve = _scenario_op(
        engine, scenario(default_plan(duration=600.0, arrival_rate=5.0,
                                      crashes=10),
                         seed=seed, label="churn"),
        _check_churn)
    ops = [placement_op(policy) for policy in sorted(POLICIES)]
    ops.append(Operation("fabric.hybrid/greedy", hybrid_run, hybrid_check))
    ops.append(serve)
    return Workload(ops, warmup=(0, len(ops) - 1))


BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "fig5-latency": fig5_latency,
    "flood-billing": flood_billing,
    "policy-dos": policy_dos,
    "fleet-churn": fleet_churn,
}
