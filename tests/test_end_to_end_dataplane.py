"""End-to-end dataplane integration: the Fig. 3 chains, isolation,
and the NIC's enforcement, all at packet level through the DES."""

import pytest

from repro import obs
from repro.core import (
    ResourceMode,
    SecurityLevel,
    TrafficScenario,
    build_deployment,
)
from repro.net import Frame, MacAddress
from repro.traffic import TestbedHarness
from tests.conftest import make_spec

LG_MAC = MacAddress.parse("02:1b:00:00:00:01")


def run_one_frame(deployment, tenant=0):
    """Inject one frame for a tenant and run the sim to completion.
    The run is traced, so :func:`journey` lists the frame's hops."""
    if not deployment.sim.tracer.enabled:
        obs.enable_tracing(deployment.sim)
    frame = Frame(
        src_mac=LG_MAC,
        dst_mac=deployment.ingress_dmac_for_tenant(tenant, 0),
        src_ip=deployment.plan.external_ip(0),
        dst_ip=deployment.plan.tenant_ip(tenant),
        flow_id=tenant,
        tenant_id=tenant,
    )
    deployment.external_ingress(0).receive(frame)
    deployment.sim.run(until=deployment.sim.now + 1.0)
    return frame


def journey(deployment, frame):
    """The frame's traced hops, in causal order."""
    return deployment.sim.tracer.journey(frame.frame_id)


def visits_in_order(spans, *stations):
    """True when every ``(component, kind)`` station appears in the
    journey, each after the one before it."""
    hops = [(s.component, s.kind) for s in spans]
    at = 0
    for station in stations:
        if station not in hops[at:]:
            return False
        at = hops.index(station, at) + 1
    return True


TENANT = "tenant.forward"


class TestIngressEgressChains:
    """The step-by-step chains of Fig. 3, asserted on traced journeys."""

    def test_p2v_chain_visits_every_station(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        frame = run_one_frame(d)
        spans = journey(d, frame)
        # (1)-(2) in through the NIC to the vswitch's In/Out VF
        first = spans[0]
        assert (first.component, first.kind) == ("veb0", "veb.forward")
        assert first.attrs["ingress"] == "uplink"
        assert first.attrs["destinations"] == ["pf0vf0"]  # In/Out VF
        # (3) the vswitch forwards to the gateway VF; (4)-(5) NIC
        # delivers to the tenant VF and the tenant's l2fwd bounces it
        assert visits_in_order(spans, ("vsw0.br0", "vswitch.rx"),
                               ("vsw0.br0", "vswitch.tx"),
                               ("tenant0.l2fwd", TENANT))
        assert d.tenant_vms[0].app("l2fwd").forwarded == 1
        # (6)-(10) egress through port 1 to the wire
        egress = spans[-2]
        assert (egress.component, egress.kind) == ("veb1", "veb.forward")
        assert egress.attrs["destinations"] == ["uplink"]
        assert (spans[-1].component, spans[-1].kind) == (
            "link.dut-sink", "link.tx")
        assert h.sink.total == 1

    def test_p2v_frame_delivered_to_sink_with_external_gw_mac(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        frame = run_one_frame(d)
        assert h.sink.per_flow[0] == 1
        assert frame.dst_mac == d.plan.external_gw_mac

    def test_tenant_never_sees_vlan_tag(self):
        """VST semantics: tags exist only inside the NIC."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        seen = []
        app = d.tenant_vms[0].app("l2fwd")
        original = app._ingress

        def spy(index, frame):
            seen.append(frame.vlan)
            original(index, frame)

        app._ingress = spy
        for i, pair in enumerate([d.tenant_vf[(0, 0)].port,
                                  d.tenant_vf[(0, 1)].port]):
            pair.rx.connect(lambda f, i=i: spy(i, f))
        run_one_frame(d)
        assert seen and all(v is None for v in seen)

    def test_p2p_bypasses_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2P)
        h = TestbedHarness(d)
        frame = run_one_frame(d)
        assert h.sink.total == 1
        spans = journey(d, frame)
        assert visits_in_order(spans, ("vsw0.br0", "vswitch.tx"),
                               ("link.dut-sink", "link.tx"))
        assert not any(s.kind == TENANT for s in spans)

    def test_v2v_chains_two_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.V2V)
        h = TestbedHarness(d)
        frame = run_one_frame(d, tenant=0)
        assert h.sink.total == 1
        assert visits_in_order(journey(d, frame),
                               ("tenant0.l2fwd", TENANT),
                               ("tenant1.l2fwd", TENANT))

    def test_all_four_tenants_reachable(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        for t in range(4):
            run_one_frame(d, tenant=t)
        assert dict(h.sink.per_flow) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_baseline_p2v_through_vhost_and_linux_bridge(self):
        d = build_deployment(make_spec(level=SecurityLevel.BASELINE),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        frame = run_one_frame(d)
        assert h.sink.total == 1
        spans = journey(d, frame)
        assert visits_in_order(spans, ("vhost-t0-0", "vhost.crossing"),
                               ("tenant0.br0", TENANT),
                               ("vhost-t0-1", "vhost.crossing"))
        assert [s.outcome for s in spans if s.kind == "vhost.crossing"] == [
            "h2g", "g2h"]

    def test_baseline_v2v(self):
        d = build_deployment(make_spec(level=SecurityLevel.BASELINE),
                             TrafficScenario.V2V)
        h = TestbedHarness(d)
        frame = run_one_frame(d, tenant=2)
        assert h.sink.total == 1
        assert visits_in_order(journey(d, frame), ("tenant2.br0", TENANT),
                               ("tenant3.br0", TENANT))


class TestCompleteMediation:
    """Every tenant<->vswitch frame crosses the NIC: no software path."""

    def test_mts_p2v_trace_alternates_through_nic(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        frame = run_one_frame(d)
        nic_kinds = ("veb.forward", "nic.filter")
        stations = [s for s in journey(d, frame)
                    if s.kind in nic_kinds or s.kind == TENANT
                    or s.component.startswith("vsw")]
        # Between any vswitch hop and tenant hop there must be NIC hops.
        tenant_idx = [i for i, s in enumerate(stations) if s.kind == TENANT]
        vsw_idx = [i for i, s in enumerate(stations)
                   if s.component.startswith("vsw")]
        assert tenant_idx and vsw_idx
        for ti in tenant_idx:
            for vi in vsw_idx:
                low, high = min(ti, vi), max(ti, vi)
                assert any(stations[i].kind in nic_kinds
                           for i in range(low + 1, high)), (
                    "tenant and vswitch adjacent without NIC mediation")

    def test_mediation_count_matches_hairpin_model(self):
        """The DES's actual NIC switching count equals the capacity
        model's hairpin assumption (2 per p2v packet)."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        before = sum(p.frames_switched for p in d.server.nic.ports)
        run_one_frame(d)
        switched = sum(p.frames_switched for p in d.server.nic.ports) - before
        # fabric-in, to-gw, from-tenant, egress = 4 VEB decisions,
        # of which 2 are VF-to-VF hairpins.
        assert switched == 4


class TestTenantIsolation:
    def test_spoofed_tenant_frame_dropped_at_nic(self):
        """A malicious tenant forging its source MAC is stopped by the
        NIC spoof check before reaching any vswitch."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        evil = Frame(src_mac=MacAddress.parse("02:66:66:66:66:66"),
                     dst_mac=d.gw_vf[(0, 0)].mac,
                     dst_ip=d.plan.tenant_ip(1))
        d.tenant_vf[(0, 0)].port.transmit(evil)
        d.sim.run(until=d.sim.now + 1.0)
        assert d.server.nic.total_drops().spoof == 1
        assert d.bridges[0].passes == 0

    def test_tenant_cannot_address_other_tenant_directly(self):
        """With correct source MAC but a foreign destination, the
        wildcard filter drops the frame (complete mediation: only the
        gateway is reachable)."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        received = []
        d.tenant_vf[(1, 0)].port.rx.connect(lambda f: received.append(f))
        sneaky = Frame(src_mac=d.tenant_vf[(0, 0)].mac,
                       dst_mac=d.tenant_vf[(1, 0)].mac,
                       dst_ip=d.plan.tenant_ip(1))
        d.tenant_vf[(0, 0)].port.transmit(sneaky)
        d.sim.run(until=d.sim.now + 1.0)
        assert received == []
        assert d.server.nic.total_drops().filtered == 1

    def test_vlan_isolation_without_filters(self):
        """Even with the wildcard filters removed, VLAN separation keeps
        tenant0's frames out of tenant1's VM (defence in depth)."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        d.server.nic.filters._filters.clear()
        received = []
        d.tenant_vf[(1, 0)].port.rx.connect(lambda f: received.append(f))
        sneaky = Frame(src_mac=d.tenant_vf[(0, 0)].mac,
                       dst_mac=d.tenant_vf[(1, 0)].mac,
                       dst_ip=d.plan.tenant_ip(1))
        d.tenant_vf[(0, 0)].port.transmit(sneaky)
        d.sim.run(until=d.sim.now + 1.0)
        assert received == []

    def test_flow_tables_have_no_cross_tenant_conflicts(self):
        for spec in (make_spec(level=SecurityLevel.BASELINE),
                     make_spec(level=SecurityLevel.LEVEL_1),
                     make_spec(level=SecurityLevel.LEVEL_2, vms=2)):
            d = build_deployment(spec, TrafficScenario.P2V)
            for bridge in d.bridges:
                assert bridge.table.check_conflicts() == []

    def test_level2_compartment_tables_hold_only_own_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                             TrafficScenario.P2V)
        assert d.bridges[0].table.tenants() == [0, 1]
        assert d.bridges[1].table.tenants() == [2, 3]

    def test_baseline_shares_one_table_across_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.BASELINE),
                             TrafficScenario.P2V)
        assert d.bridges[0].table.tenants() == [0, 1, 2, 3]


class TestSustainedTraffic:
    @pytest.mark.parametrize("level,vms", [
        (SecurityLevel.BASELINE, 1),
        (SecurityLevel.LEVEL_1, 1),
        (SecurityLevel.LEVEL_2, 2),
    ])
    def test_no_loss_below_capacity(self, level, vms):
        d = build_deployment(make_spec(level=level, vms=vms),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2500)
        result = h.run(duration=0.02)
        assert result.delivered == result.sent

    def test_single_port_workload_topology(self):
        """Fig. 6's one-port wiring: ingress and egress hairpin on
        port 0."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1,
                                       nic_ports=1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=1000)
        result = h.run(duration=0.02)
        assert result.delivered == result.sent
