"""Fabric-scale simulation: topology, placement, hybrid DES + fluid.

The fabric package embeds tenants onto a multi-rack substrate under
security constraints, then simulates designated flows per-packet while
everything else flows through the capacity solver.  These tests pin:

- the topology's rack/hop geometry and link naming;
- every placement security constraint (group purity, isolation
  tiers, anti-affinity, compartment and VF caps);
- the optimizer's strict win over uniform striping on an asymmetric
  mix, and its feasibility at near-full fleet occupancy;
- hybrid-vs-pure-DES agreement within the pinned 5% bound;
- the fabric-switch counters and their obs export.
"""

import pytest

from repro import obs
from repro.core import DeploymentSpec, SecurityLevel
from repro.errors import ValidationError
from repro.fabric.hybrid import FabricDeployment, StudyFlow
from repro.fabric.placement import (
    NIC_VF_CEILING, Placement, PlacementError, TenantReq, greedy_place,
    pair_hops, place, placement_cost, server_tenant_capacity,
    uniform_striping, validate_placement,
)
from repro.fabric.topology import FabricTopology
from repro.fabric.workload import (
    pick_probe_flows, pick_study_flows, synth_reqs,
)
from repro.net import Frame, Link, MacAddress, Port
from repro.net.fabric import FabricSwitch
from repro.obs.metrics import MetricsRegistry
from repro.scenario.sweep import SweepGrid, build_grid
from repro.sim import Simulator
from repro.units import GBPS


def l2_spec(vms=2, tenants=4):
    return DeploymentSpec(level=SecurityLevel.LEVEL_2, num_tenants=tenants,
                          num_vswitch_vms=vms, nic_ports=1)


class TestTopology:
    def test_single_rack_geometry(self):
        topo = FabricTopology(num_servers=8, servers_per_rack=16)
        assert topo.num_racks == 1
        assert topo.hops(0, 0) == 0
        assert topo.hops(0, 7) == 2
        assert topo.path_links(3, 3) == []

    def test_multi_rack_geometry(self):
        topo = FabricTopology(num_servers=32, servers_per_rack=16)
        assert topo.num_racks == 2
        assert topo.rack_of(15) == 0 and topo.rack_of(16) == 1
        assert topo.hops(0, 15) == 2   # same rack: via the ToR
        assert topo.hops(0, 16) == 4   # cross rack: via the spine

    def test_cross_rack_path_links(self):
        topo = FabricTopology(num_servers=32, servers_per_rack=16)
        links = topo.path_links(0, 16)
        assert "uplink.s0" in links and "downlink.s16" in links
        assert any(name.startswith("tor0") for name in links)
        assert any(name.startswith("tor1") for name in links)

    def test_link_resources_cover_every_server(self):
        topo = FabricTopology(num_servers=4, servers_per_rack=16,
                              server_link_bps=GBPS)
        caps = topo.link_resources()
        for s in range(4):
            assert caps[f"uplink.s{s}"].capacity == GBPS
            assert caps[f"downlink.s{s}"].capacity == GBPS


class TestPlacementConstraints:
    topo = FabricTopology(num_servers=4, servers_per_rack=16)

    def _place(self, reqs, policy="greedy", cap=8):
        return place(reqs, self.topo, policy=policy,
                     compartments_per_server=2, tenants_per_compartment=cap)

    def test_compartments_stay_group_pure(self):
        reqs = [TenantReq(t, demand_pps=100.0, group=t % 3)
                for t in range(12)]
        placement = self._place(reqs)
        by_slot = {}
        for r in reqs:
            by_slot.setdefault(placement.assignment[r.tenant_id],
                               set()).add(r.group)
        assert all(len(groups) == 1 for groups in by_slot.values())

    def test_isolation_2_gets_dedicated_compartment(self):
        reqs = [TenantReq(0, group=0, isolation=2),
                TenantReq(1, group=0), TenantReq(2, group=0)]
        placement = self._place(reqs)
        slot0 = placement.assignment[0]
        assert all(placement.assignment[t] != slot0 for t in (1, 2))

    def test_isolation_3_gets_group_pure_server(self):
        reqs = [TenantReq(0, group=0, isolation=3)] + [
            TenantReq(t, group=1) for t in range(1, 6)]
        placement = self._place(reqs)
        server0 = placement.server_of(0)
        assert all(placement.server_of(t) != server0 for t in range(1, 6))

    def test_distrust_is_server_anti_affinity(self):
        reqs = [TenantReq(0, group=0, distrusts=(1,)),
                TenantReq(1, group=1)]
        placement = self._place(reqs)
        assert placement.server_of(0) != placement.server_of(1)

    def test_compartment_cap_enforced(self):
        reqs = [TenantReq(t, group=0) for t in range(6)]
        placement = self._place(reqs, cap=2)
        by_slot = {}
        for t in range(6):
            by_slot.setdefault(placement.assignment[t], []).append(t)
        assert max(len(v) for v in by_slot.values()) <= 2

    def test_vf_ceiling(self):
        assert server_tenant_capacity(2) == (NIC_VF_CEILING - 2) // 2
        topo = FabricTopology(num_servers=1, servers_per_rack=16)
        too_many = server_tenant_capacity(2) + 1
        reqs = [TenantReq(t, group=0) for t in range(too_many)]
        with pytest.raises(PlacementError):
            place(reqs, topo, compartments_per_server=2,
                  tenants_per_compartment=too_many)

    def test_validate_rejects_mixed_compartment(self):
        reqs = [TenantReq(0, group=0), TenantReq(1, group=1)]
        bad = Placement({0: (0, 0), 1: (0, 0)})
        with pytest.raises(PlacementError):
            validate_placement(reqs, bad, self.topo, 2, 8)

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlacementError):
            place([TenantReq(0)], self.topo, policy="anneal")


class TestPlacementObjective:
    def test_greedy_colocates_heavy_pair(self):
        topo = FabricTopology(num_servers=4, servers_per_rack=16)
        reqs = [TenantReq(0, demand_pps=50_000.0, group=0, peers=(1,)),
                TenantReq(1, demand_pps=1_000.0, group=0, peers=(0,)),
                TenantReq(2, demand_pps=10.0, group=1)]
        placement = place(reqs, topo, policy="greedy",
                          compartments_per_server=2,
                          tenants_per_compartment=8)
        assert pair_hops(topo, placement, 0, 1) == 0

    def test_greedy_strictly_beats_striping(self):
        """The acceptance mix: 64 tenants on 16 servers; the optimizer
        must land strictly below uniform striping on hop cost."""
        topo = FabricTopology(num_servers=16, servers_per_rack=16)
        reqs = synth_reqs(64, seed=0)
        greedy = place(reqs, topo, policy="greedy",
                       compartments_per_server=2, tenants_per_compartment=8)
        striped = place(reqs, topo, policy="striping",
                        compartments_per_server=2, tenants_per_compartment=8)
        cost_g = placement_cost(reqs, greedy, topo)
        cost_s = placement_cost(reqs, striped, topo)
        assert cost_g.hop_cost < cost_s.hop_cost
        assert cost_g.inter_server_pps <= cost_s.inter_server_pps

    def test_local_search_never_worse_than_greedy(self):
        topo = FabricTopology(num_servers=8, servers_per_rack=16)
        reqs = synth_reqs(48, seed=3)
        greedy = place(reqs, topo, policy="greedy",
                       compartments_per_server=2, tenants_per_compartment=8)
        local = place(reqs, topo, policy="local",
                      compartments_per_server=2, tenants_per_compartment=8)
        assert (placement_cost(reqs, local, topo).hop_cost
                <= placement_cost(reqs, greedy, topo).hop_cost + 1e-9)

    def test_greedy_feasible_at_near_full_occupancy(self):
        """248 tenants on 16 servers leave 8 spare compartment slots
        fleet-wide; the reservation guard must keep greedy feasible
        where naive compartment-opening runs the fleet dry."""
        topo = FabricTopology(num_servers=16, servers_per_rack=16)
        reqs = synth_reqs(248, seed=0)
        placement = place(reqs, topo, policy="greedy",
                          compartments_per_server=2,
                          tenants_per_compartment=8)
        assert len(placement.assignment) == 248

    def test_striping_spill_stays_valid(self):
        topo = FabricTopology(num_servers=2, servers_per_rack=16)
        reqs = [TenantReq(t, group=t // 8) for t in range(20)]
        placement = uniform_striping(reqs, topo, 2, 8)
        validate_placement(reqs, placement, topo, 2, 8)


class TestSynthMix:
    def test_deterministic_in_seed(self):
        assert synth_reqs(40, seed=7) == synth_reqs(40, seed=7)
        a = synth_reqs(40, seed=7)
        b = synth_reqs(40, seed=8)
        assert [r.demand_pps for r in a] != [r.demand_pps for r in b]

    def test_zones_are_groups(self):
        reqs = synth_reqs(32, seed=0, zone_size=8)
        assert all(r.group == r.tenant_id // 8 for r in reqs)

    def test_cross_zone_partner_edges_exist(self):
        reqs = synth_reqs(64, seed=0, zone_size=8)
        cross = [(r.tenant_id, p) for r in reqs for p in r.peers
                 if abs(p - r.tenant_id) >= 8]
        assert cross  # heads of distant zones talk

    def test_study_flow_pickers(self):
        reqs = synth_reqs(64, seed=0)
        pairs = pick_study_flows(reqs, 3)
        assert len(pairs) == 3
        assert pairs[0].rate_pps >= pairs[-1].rate_pps
        probes = pick_probe_flows(reqs, 2, rate_pps=5_000.0)
        groups = {next(r.group for r in reqs if r.tenant_id == f.src)
                  for f in probes} | \
                 {next(r.group for r in reqs if r.tenant_id == f.dst)
                  for f in probes}
        assert len(groups) == 4  # four distinct zones probed

    def test_tiny_mix_rejected(self):
        with pytest.raises(ValidationError):
            synth_reqs(1, seed=0)


def small_fabric(num_servers=4, link_bps=0.5 * GBPS):
    return FabricTopology(num_servers=num_servers, servers_per_rack=16,
                          server_link_bps=link_bps)


class TestHybrid:
    def test_residuals_shrink_foreground_capacity(self):
        """Background demand on the shared uplink must be visible to
        the fluid solution the foreground DES runs against."""
        topo = small_fabric()
        reqs = [
            TenantReq(0, demand_pps=40_000.0, frame_bytes=512, group=0,
                      peers=(2,)),
            TenantReq(1, group=0), TenantReq(2, group=1),
        ]
        placement = Placement({0: (0, 0), 1: (0, 0), 2: (1, 0)})
        flows = [StudyFlow(src=1, dst=2, rate_pps=5_000.0, frame_bytes=512)]
        deployment = FabricDeployment(l2_spec(), topo, reqs, flows,
                                      placement=placement)
        background = deployment.solve_background()
        assert background.residual_of("uplink.s0") \
            < background.capacity_of["uplink.s0"]

    def test_hybrid_matches_pure_des_within_5pct(self):
        """The acceptance bound: on a small validation deployment the
        hybrid's study-flow aggregate lands within 5% of the pure-DES
        oracle's."""
        topo = small_fabric()
        reqs = synth_reqs(16, seed=0, demand_pps=10_000.0)
        flows = pick_probe_flows(reqs, 2, rate_pps=8_000.0)
        deployment = FabricDeployment(l2_spec(), topo, reqs, flows,
                                      placement="greedy")
        hybrid = deployment.run_hybrid(duration=0.1, warmup=0.025)
        oracle = deployment.run_pure_des(duration=0.1, warmup=0.025)
        assert oracle.aggregate_delivered_pps > 0
        rel = abs(hybrid.aggregate_delivered_pps
                  - oracle.aggregate_delivered_pps) \
            / oracle.aggregate_delivered_pps
        assert rel <= 0.05
        assert hybrid.des_events < oracle.des_events

    def test_hybrid_instantiates_only_study_servers(self):
        topo = small_fabric(num_servers=8)
        reqs = synth_reqs(32, seed=0)
        flows = pick_probe_flows(reqs, 1, rate_pps=2_000.0)
        deployment = FabricDeployment(l2_spec(), topo, reqs, flows,
                                      placement="striping")
        result = deployment.run_hybrid(duration=0.05, warmup=0.01)
        assert result.des_servers <= 2
        assert deployment.last_cloud is not None

    @pytest.mark.parametrize("method,servers,tenants,probes", [
        ("run_hybrid", 8, 96, 4),
        ("run_pure_des", 4, 16, 2),
    ])
    def test_consecutive_runs_are_equal(self, method, servers, tenants,
                                        probes):
        """Frame ids key the per-frame jitter and restart per run, so a
        repeat run on identical inputs reproduces the first exactly."""
        reqs = synth_reqs(tenants, seed=0, demand_pps=20_000.0)
        flows = pick_probe_flows(reqs, probes, 20_000.0)
        deployment = FabricDeployment(l2_spec(), small_fabric(servers),
                                      reqs, flows, placement="greedy")
        run = getattr(deployment, method)
        first = run(duration=0.05, warmup=0.01)
        second = run(duration=0.05, warmup=0.01)
        assert second.des_events == first.des_events
        assert second.delivered_pps == first.delivered_pps

    def test_unknown_study_tenant_rejected(self):
        topo = small_fabric()
        reqs = [TenantReq(0, group=0), TenantReq(1, group=0)]
        with pytest.raises(ValidationError):
            FabricDeployment(l2_spec(), topo, reqs,
                             [StudyFlow(src=0, dst=99, rate_pps=1.0)])


class TestFabricObs:
    def _run_switch(self):
        sim = Simulator()
        switch = FabricSwitch(sim, num_ports=3)
        inboxes = []
        for i in range(3):
            rx, set_link = switch.attach(i)
            inbox = []
            set_link(Link(sim, Port(f"dev{i}", inbox.append)))
            inboxes.append((rx, inbox))
        switch.install_static(MacAddress(0x42), 2)
        inboxes[0][0].receive(Frame(src_mac=MacAddress(0x1),
                                    dst_mac=MacAddress(0x42)))
        inboxes[0][0].receive(Frame(src_mac=MacAddress(0x1),
                                    dst_mac=MacAddress(0x99)))
        sim.run()
        return switch

    def test_harvest_fabric_counts_and_deltas(self):
        switch = self._run_switch()
        registry = MetricsRegistry()
        delta = obs.harvest_fabric([switch], registry)
        assert delta["forwarded"] == 2  # floods count as egressed frames
        assert delta["floods"] == 1
        forwarded = registry.counter("fabric_forwarded_total",
                                     labels=("switch",))
        assert forwarded.labels(switch=switch.name).value == 2
        # second harvest with no new traffic folds in nothing
        again = obs.harvest_fabric([switch], registry)
        assert all(v == 0 for v in again.values())
        assert forwarded.labels(switch=switch.name).value == 2

    def test_per_port_gauges(self):
        switch = self._run_switch()
        registry = obs.fabric_gauges([switch], MetricsRegistry())
        tx = registry.gauge("fabric_port_tx",
                            labels=("switch", "port"))
        assert tx.labels(switch=switch.name, port="p2").value >= 1


class TestFabricSweepAxes:
    def test_servers_and_placements_expand(self):
        grid = SweepGrid(workload="fabric.placement", levels=("l2",),
                         servers=(4, 8), placements=("striping", "greedy"))
        specs, skipped = build_grid(grid)
        assert len(specs) == 4
        assert {(s.param("servers"), s.param("placement"))
                for s in specs} == {(4, "striping"), (4, "greedy"),
                                    (8, "striping"), (8, "greedy")}
        assert all(s.deployment.nic_ports == 1 for s in specs)

    def test_baseline_fabric_corner_skipped(self):
        grid = SweepGrid(workload="fabric.hybrid",
                         levels=("baseline", "l2"), servers=(4,))
        specs, skipped = build_grid(grid)
        assert any("MTS level" in sk.reason for sk in skipped)
        assert all(s.deployment.level.is_mts for s in specs)

    def test_non_fabric_grids_unchanged(self):
        grid = SweepGrid(workload="fig5.latency", levels=("l1",))
        specs, _ = build_grid(grid)
        names = {name for name, _v in specs[0].params}
        assert "servers" not in names and "placement" not in names
