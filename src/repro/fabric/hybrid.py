"""The hybrid fabric simulation: fluid background, per-packet foreground.

A fabric run has two populations:

- **background tenants** (hundreds to thousands): their traffic enters
  the calibrated max-min solver as :class:`FlowPath` demands against
  shared per-server CPU / NIC-hairpin / PCIe pools and the fabric's
  link pools (``repro.perfmodel.capacity``), never as packets;
- **flows under study** (a handful): simulated packet by packet on a
  *subset* :class:`~repro.core.multiserver.MultiServerCloud` covering
  only the servers those flows touch, with every shared pool shrunk to
  the **residual** the background solve left behind (link bandwidths
  by name, compartment CPU by scaling its compute shares).

The per-packet resource footprints are the same numbers
``perfmodel.paths.build_flow_paths`` charges on a single server --
derived from one *template* deployment of the per-server spec -- split
across the source and destination halves of the inter-server path, so
the fluid and DES views cannot drift apart.

For small deployments the same class also runs **pure DES** (every
tenant instantiated, background injected as real packet streams),
which is how the hybrid's accuracy is validated (≤5% on aggregate
foreground pps) and its speedup benchmarked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.deployment import build_deployment
from repro.core.multiserver import MultiServerCloud
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.errors import ValidationError
from repro.fabric.placement import (Placement, TenantReq, place,
                                    validate_placement)
from repro.fabric.topology import FabricTopology
from repro.host.cpu import ComputeShare
from repro.net import packet
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.capacity import (FlowPath, Resource, SolveResult,
                                      solve, solve_with_background)
from repro.sim.kernel import Simulator
from repro.vswitch.datapath import PortClass

#: Per-frame physical-layer overhead (matches Link.serialization_time).
_WIRE_OVERHEAD_BYTES = 20

#: One P2V-style crossing makes 6 PCIe DMA crossings end to end
#: (perfmodel.paths); an inter-server flow pays half on each server,
#: split evenly between bus directions.
_PCIE_CROSSINGS_PER_SIDE = 3


@dataclass(frozen=True)
class StudyFlow:
    """One foreground flow: simulated per-packet in the hybrid run."""

    src: int
    dst: int
    rate_pps: float
    frame_bytes: int = 64

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValidationError("a study flow needs two distinct tenants")
        if self.rate_pps <= 0:
            raise ValidationError("study flows need a positive rate")
        if self.frame_bytes < 64:
            raise ValidationError("Ethernet frames are at least 64 B")

    @property
    def name(self) -> str:
        return f"fg.t{self.src}-t{self.dst}"


@dataclass
class HybridResult:
    """What one hybrid (or pure-DES) run measured and predicted."""

    flows: List[StudyFlow]
    #: DES-measured delivered pps per flow name.
    delivered_pps: Dict[str, float]
    #: Fluid (joint fg+bg solve) prediction per flow name.
    predicted_pps: Dict[str, float]
    background: SolveResult
    fluid: SolveResult
    mode: str = "hybrid"
    des_events: int = 0
    des_servers: int = 0

    @property
    def aggregate_delivered_pps(self) -> float:
        return sum(self.delivered_pps.values())

    @property
    def aggregate_predicted_pps(self) -> float:
        return sum(self.predicted_pps.values())

    @property
    def fluid_vs_des_error(self) -> float:
        """Relative disagreement between the DES measurement and the
        fluid prediction on aggregate foreground pps."""
        predicted = self.aggregate_predicted_pps
        if predicted <= 0:
            return 0.0 if self.aggregate_delivered_pps <= 0 else math.inf
        return abs(self.aggregate_delivered_pps - predicted) / predicted

    def bottlenecks(self, top: int = 5) -> List[Tuple[str, float]]:
        """The hottest pools under background + foreground load."""
        ranked = sorted(self.fluid.utilization.items(),
                        key=lambda kv: -kv[1])
        return ranked[:top]


class _ResidualShare(ComputeShare):
    """A compute share scaled down to the background's leftovers."""

    def __init__(self, core, consumer: str, fraction: float) -> None:
        super().__init__(core=core, consumer=consumer)
        self.fraction = fraction

    def effective_hz(self) -> float:
        return super().effective_hz() * self.fraction


class FabricDeployment:
    """A placed fabric of MTS servers with a hybrid execution model.

    ``spec`` is the *per-server* deployment shape (level, compartments,
    datapath; its ``num_tenants`` only sizes the calibration template).
    ``reqs`` describe every tenant -- including the study flows'
    endpoints -- and ``study_flows`` designate which (src, dst) edges
    run as packets; every other peer edge becomes background fluid
    demand.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        topology: FabricTopology,
        reqs: Sequence[TenantReq],
        study_flows: Sequence[StudyFlow],
        placement: str | Placement = "greedy",
        calibration: Calibration = DEFAULT_CALIBRATION,
        tenants_per_compartment: int = 8,
        seed: int = 0,
    ) -> None:
        if not spec.level.is_mts:
            raise ValidationError("fabric deployments need an MTS spec")
        self.spec = spec
        self.topology = topology
        self.reqs = list(reqs)
        self.req_of = {r.tenant_id: r for r in self.reqs}
        self.flows = list(study_flows)
        for flow in self.flows:
            if flow.src not in self.req_of or flow.dst not in self.req_of:
                raise ValidationError(
                    f"study flow {flow.name} references unknown tenants")
        self.calibration = calibration
        self.seed = seed
        self.compartments = max(1, spec.num_compartments)
        self.tenants_per_compartment = tenants_per_compartment
        if isinstance(placement, Placement):
            validate_placement(self.reqs, placement, topology,
                               self.compartments, tenants_per_compartment)
            self.placement = placement
        else:
            self.placement = place(self.reqs, topology, policy=placement,
                                   compartments_per_server=self.compartments,
                                   tenants_per_compartment=
                                   tenants_per_compartment)
        self._study_edges = {(f.src, f.dst) for f in self.flows}
        self._template = self._build_template()
        self._bg_solution: Optional[SolveResult] = None
        #: The DES cloud of the most recent run_* call -- kept so
        #: callers can harvest its fabric-switch counters into obs.
        self.last_cloud: Optional[MultiServerCloud] = None

    # -- calibrated per-server capacities ---------------------------------

    def _build_template(self):
        """One throwaway single-server deployment of the per-server spec:
        the source of calibrated compartment-CPU capacity, per-pass
        cycles, PCIe and hairpin capacities.  All servers share the
        spec, so one template covers the fabric."""
        tenants = max(self.compartments,
                      min(self.spec.num_tenants, 2 * self.compartments))
        template_spec = replace(self.spec, num_tenants=tenants,
                                zone_of_tenant=None)
        deployment = build_deployment(template_spec, TrafficScenario.P2V,
                                      sim=Simulator(),
                                      calibration=self.calibration,
                                      seed=self.seed)
        cal = self.calibration
        costs = (cal.dpdk_costs if self.spec.user_space
                 else cal.kernel_costs)
        self._cpu_capacity = [
            sum(share.effective_hz() for share in bridge.compute_shares)
            for bridge in deployment.bridges]
        self._pass_cycles = [
            costs.pass_cycles(PortClass.VF, PortClass.VF, True,
                              num_ports=len(bridge.ports()))
            for bridge in deployment.bridges]
        self._pcie_capacity = (
            deployment.server.nic.pcie.effective_bandwidth_bps() / 8.0)
        self._hairpin_capacity = cal.nic_hairpin_capacity
        self._hairpin_bw = cal.nic_hairpin_bandwidth_bps / 8.0
        return deployment

    # -- resource pools ----------------------------------------------------

    def _pools(self) -> Dict[str, Resource]:
        pools = dict(self.topology.link_resources())
        for s in range(self.topology.num_servers):
            for k in range(self.compartments):
                name = f"cpu.s{s}.vsw{k}"
                pools[name] = Resource(name, self._cpu_capacity[k])
            for name, capacity in (
                    (f"nic.s{s}.hairpin", self._hairpin_capacity),
                    (f"nic.s{s}.hairpin_bw", self._hairpin_bw),
                    (f"pcie.s{s}.down", self._pcie_capacity),
                    (f"pcie.s{s}.up", self._pcie_capacity)):
                pools[name] = Resource(name, capacity)
        return pools

    def _edge_path(self, pools: Dict[str, Resource], name: str,
                   src: int, dst: int, pps: float,
                   frame_bytes: int) -> FlowPath:
        """The per-packet footprint of one tenant-to-tenant edge, split
        across its source and destination servers."""
        s1, k1 = self.placement.assignment[src]
        s2, k2 = self.placement.assignment[dst]
        path = FlowPath(name=name, offered_pps=pps)
        wire_bits = (frame_bytes + _WIRE_OVERHEAD_BYTES) * 8.0
        for link in self.topology.path_links(s1, s2):
            path.add(pools[link], wire_bits)
        if s1 == s2 and k1 == k2:
            # one bridge pass delivers locally; the frame hairpins
            # twice (tenant VF -> gw VF, gw VF -> tenant VF)
            path.add(pools[f"cpu.s{s1}.vsw{k1}"], self._pass_cycles[k1])
            hairpins = {s1: 2.0}
            pcie = {s1: 2.0}
        elif s1 == s2:
            # both compartment bridges pass the frame; three hairpins
            # (tenant -> gw, In/Out -> In/Out, gw -> tenant)
            path.add(pools[f"cpu.s{s1}.vsw{k1}"], self._pass_cycles[k1])
            path.add(pools[f"cpu.s{s1}.vsw{k2}"], self._pass_cycles[k2])
            hairpins = {s1: 3.0}
            pcie = {s1: 3.0}
        else:
            # one vswitch pass on each side (egress at the source
            # compartment, ingress at the destination compartment)
            path.add(pools[f"cpu.s{s1}.vsw{k1}"], self._pass_cycles[k1])
            path.add(pools[f"cpu.s{s2}.vsw{k2}"], self._pass_cycles[k2])
            hairpins = {s1: 1.0, s2: 1.0}
            pcie = {s1: _PCIE_CROSSINGS_PER_SIDE / 2.0,
                    s2: _PCIE_CROSSINGS_PER_SIDE / 2.0}
        for s, n in hairpins.items():
            path.add(pools[f"nic.s{s}.hairpin"], n)
            path.add(pools[f"nic.s{s}.hairpin_bw"], n * frame_bytes)
        for s, n in pcie.items():
            path.add(pools[f"pcie.s{s}.down"], n * frame_bytes)
            path.add(pools[f"pcie.s{s}.up"], n * frame_bytes)
        return path

    def background_paths(self) -> List[FlowPath]:
        """Every non-study peer edge as a fluid demand."""
        pools = self._pools()
        paths: List[FlowPath] = []
        for req in self.reqs:
            for peer in req.peers:
                if (req.tenant_id, peer) in self._study_edges:
                    continue
                pps = req.demand_to(peer)
                if pps <= 0:
                    continue
                paths.append(self._edge_path(
                    pools, f"bg.t{req.tenant_id}-t{peer}",
                    req.tenant_id, peer, pps, req.frame_bytes))
        return paths

    def foreground_paths(self) -> List[FlowPath]:
        pools = self._pools()
        return [self._edge_path(pools, flow.name, flow.src, flow.dst,
                                flow.rate_pps, flow.frame_bytes)
                for flow in self.flows]

    def solve_background(self) -> SolveResult:
        if self._bg_solution is None:
            self._bg_solution = solve(self.background_paths())
        return self._bg_solution

    def solve_fluid(self) -> SolveResult:
        """Foreground rates with the background present (joint fill)."""
        return solve_with_background(self.foreground_paths(),
                                     self.background_paths())

    # -- the DES half ------------------------------------------------------

    def study_servers(self) -> List[int]:
        servers = set()
        for flow in self.flows:
            servers.add(self.placement.server_of(flow.src))
            servers.add(self.placement.server_of(flow.dst))
        return sorted(servers)

    def _subset_cloud(self, servers: List[int], tenants: List[int],
                      residual: Optional[SolveResult]) -> MultiServerCloud:
        """A DES cloud over ``servers`` hosting only ``tenants``; with a
        background solution, access links and compartment CPU shrink to
        their residuals."""
        index_of = {gid: i for i, gid in enumerate(servers)}
        sub_placement = {
            t: (index_of[self.placement.server_of(t)],
                self.placement.compartment_of(t))
            for t in tenants}

        bandwidth_of = None
        if residual is not None:
            def bandwidth_of(name: str) -> Optional[float]:
                if name not in residual.capacity_of:
                    return None
                # Never starve the DES completely: a saturated
                # background still leaves a 1% sliver.
                capacity = residual.capacity_of[name]
                return max(residual.residual_of(name), 0.01 * capacity)

        cloud = MultiServerCloud(
            self.spec, num_servers=len(servers),
            calibration=self.calibration,
            link_bandwidth_bps=self.topology.server_link_bps,
            seed=self.seed,
            placement=sub_placement,
            link_bandwidth_of=bandwidth_of,
            global_server_ids=servers)
        if residual is not None:
            self._scale_compartment_cpu(cloud, servers, residual)
        return cloud

    def _scale_compartment_cpu(self, cloud: MultiServerCloud,
                               servers: List[int],
                               residual: SolveResult) -> None:
        for i, gid in enumerate(servers):
            deployment = cloud.deployments[i]
            for k, bridge in enumerate(deployment.bridges):
                name = f"cpu.s{gid}.vsw{k}"
                if name not in residual.capacity_of:
                    continue
                fraction = max(0.01, residual.residual_fraction(name))
                if fraction >= 1.0:
                    continue
                bridge.set_compute([
                    _ResidualShare(share.core, share.consumer, fraction)
                    for share in bridge.compute_shares])

    def _drive(self, cloud: MultiServerCloud, flows: Sequence[StudyFlow],
               duration: float, warmup: float) -> Dict[str, float]:
        """Inject each flow at its offered rate; count frames arriving
        at the destination tenant VF after warmup."""
        counts: Dict[str, int] = {flow.name: 0 for flow in flows}
        sim = cloud.sim
        by_dst: Dict[int, List[StudyFlow]] = {}
        for flow in flows:
            by_dst.setdefault(flow.dst, []).append(flow)
        for dst_id, dst_flows in by_dst.items():
            dst = cloud.tenants[dst_id]
            deployment = cloud.deployments[dst.server_index]
            vf = deployment.tenant_vf[(dst.local_id, 0)]
            # Port.connect *replaces* the tenant's forwarding app with
            # this sink; one handler per destination demuxes by source.
            route = {cloud.tenants[f.src].ip: f.name for f in dst_flows}

            def on_rx(frame, route=route):
                name = route.get(frame.src_ip)
                if name is not None and sim.now >= warmup:
                    counts[name] += 1

            vf.port.rx.connect(on_rx)
        for i, flow in enumerate(flows):
            interval = 1.0 / flow.rate_pps
            # Deterministic phase offsets keep same-rate flows from
            # injecting in lockstep at the leaf.
            phase = interval * ((i + 1) / (len(flows) + 1))
            sim.call_later(phase, self._start_stream, cloud, flow, interval)
        sim.run(until=duration)
        window = duration - warmup
        return {name: counts[name] / window for name in counts}

    @staticmethod
    def _start_stream(cloud: MultiServerCloud, flow: StudyFlow,
                      interval: float) -> None:
        cloud.send_between_tenants(flow.src, flow.dst, flow.frame_bytes)
        cloud.sim.every(interval, cloud.send_between_tenants,
                        flow.src, flow.dst, flow.frame_bytes)

    def run_hybrid(self, duration: float = 0.2,
                   warmup: float = 0.05) -> HybridResult:
        """Fluid background, per-packet foreground on residual pools."""
        # Frame ids key the per-frame jitter draws; restarting them
        # makes the run independent of earlier runs in this process
        # (as TestbedHarness does per harnessed run).
        packet.reset_frame_ids()
        background = self.solve_background()
        fluid = self.solve_fluid()
        servers = self.study_servers()
        tenants = sorted({t for f in self.flows for t in (f.src, f.dst)})
        cloud = self._subset_cloud(servers, tenants, residual=background)
        self.last_cloud = cloud
        delivered = self._drive(cloud, self.flows, duration, warmup)
        return HybridResult(
            flows=self.flows,
            delivered_pps=delivered,
            predicted_pps=dict(fluid.rates_pps),
            background=background,
            fluid=fluid,
            mode="hybrid",
            des_events=cloud.sim.events_fired,
            des_servers=len(servers))

    def run_pure_des(self, duration: float = 0.2,
                     warmup: float = 0.05) -> HybridResult:
        """Everything as packets: every tenant instantiated, background
        edges injected as real streams.  Only affordable on small
        fabrics -- this is the hybrid's validation oracle."""
        packet.reset_frame_ids()
        servers = self.placement.servers_used()
        tenants = sorted(self.req_of)
        cloud = self._subset_cloud(servers, tenants, residual=None)
        self.last_cloud = cloud
        bg_flows = []
        for req in self.reqs:
            for peer in req.peers:
                if (req.tenant_id, peer) in self._study_edges:
                    continue
                pps = req.demand_to(peer)
                if pps > 0:
                    bg_flows.append(StudyFlow(
                        src=req.tenant_id, dst=peer, rate_pps=pps,
                        frame_bytes=req.frame_bytes))
        delivered = self._drive(cloud, list(self.flows) + bg_flows,
                                duration, warmup)
        fluid = self.solve_fluid()
        return HybridResult(
            flows=self.flows,
            delivered_pps={f.name: delivered[f.name] for f in self.flows},
            predicted_pps=dict(fluid.rates_pps),
            background=self.solve_background(),
            fluid=fluid,
            mode="des",
            des_events=cloud.sim.events_fired,
            des_servers=len(servers))
