"""Multi-server MTS behind a leaf fabric (datacenter extension)."""

import pytest

from repro import obs
from repro.core import DeploymentSpec, ResourceMode, SecurityLevel
from repro.core.multiserver import MultiServerCloud
from repro.errors import ConfigurationError, ValidationError
from repro.net.fabric import FabricSwitch
from repro.net import Frame, Link, MacAddress, Port
from repro.sim import Simulator


def cloud(tunneling=False, servers=2, vms=2):
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_tenants=4,
                          num_vswitch_vms=vms, nic_ports=1,
                          tunneling=tunneling)
    return MultiServerCloud(spec, num_servers=servers)


class TestFabricSwitch:
    def _wired(self, ports=3):
        sim = Simulator()
        fabric = FabricSwitch(sim, num_ports=ports)
        inboxes = []
        for i in range(ports):
            rx, set_link = fabric.attach(i)
            inbox = []
            dev = Port(f"dev{i}", inbox.append)
            set_link(Link(sim, dev))
            inboxes.append((rx, inbox))
        return sim, fabric, inboxes

    def test_static_entry_forwards(self):
        sim, fabric, inboxes = self._wired()
        mac = MacAddress(0x42)
        fabric.install_static(mac, 2)
        frame = Frame(src_mac=MacAddress(0x1), dst_mac=mac)
        inboxes[0][0].receive(frame)
        sim.run()
        assert len(inboxes[2][1]) == 1
        assert inboxes[0][1] == [] and inboxes[1][1] == []

    def test_unknown_unicast_floods(self):
        sim, fabric, inboxes = self._wired()
        frame = Frame(src_mac=MacAddress(0x1), dst_mac=MacAddress(0x99))
        inboxes[0][0].receive(frame)
        sim.run()
        assert len(inboxes[1][1]) == 1 and len(inboxes[2][1]) == 1
        assert inboxes[0][1] == []  # not reflected

    def test_learning_from_sources(self):
        sim, fabric, inboxes = self._wired()
        inboxes[1][0].receive(Frame(src_mac=MacAddress(0x7),
                                    dst_mac=MacAddress(0x99)))
        sim.run()
        inboxes[0][0].receive(Frame(src_mac=MacAddress(0x1),
                                    dst_mac=MacAddress(0x7)))
        sim.run()
        assert len(inboxes[1][1]) == 1  # unicast after learning
        assert len(inboxes[2][1]) == 1  # only the earlier flood

    def test_invalid_static_port(self):
        sim = Simulator()
        fabric = FabricSwitch(sim, num_ports=2)
        with pytest.raises(ValueError):
            fabric.install_static(MacAddress(1), 5)


class TestCloudConstruction:
    def test_two_servers_eight_tenants(self):
        c = cloud()
        assert len(c.deployments) == 2
        assert len(c.tenants) == 8
        assert "2 servers" in c.describe()

    def test_global_ips_unique(self):
        c = cloud()
        ips = {t.ip for t in c.tenants.values()}
        assert len(ips) == 8

    def test_macs_unique_across_servers(self):
        c = cloud()
        macs = [vf.mac for d in c.deployments
                for vf in list(d.inout_vf.values())
                + list(d.gw_vf.values()) + list(d.tenant_vf.values())]
        assert len(set(macs)) == len(macs)

    def test_fabric_knows_every_inout_mac(self):
        c = cloud()
        for tenant in c.tenants.values():
            assert tenant.compartment_inout_mac in c.fabric._static

    def test_inter_server_rules_collapsed_per_compartment(self):
        """One dst-ip rule per (compartment, remote tenant): the old
        per-(gateway-port, remote) programming installed a copy for
        every local tenant, multiplying the table by the compartment's
        occupancy for no behavioral gain."""
        c = cloud()
        # 2 servers x 2 compartments x 4 remote tenants
        assert c.inter_server_rules == 16
        per_port_shape = 2 * 2 * 4 * 4  # x4 local gateway ports
        assert c.inter_server_rules < per_port_shape

    def test_rules_scale_with_servers_not_occupancy(self):
        small = cloud(servers=2)
        big = cloud(servers=3)
        # each server learns (servers-1) x 4 remotes per compartment
        assert small.inter_server_rules == 2 * 2 * 4
        assert big.inter_server_rules == 3 * 2 * 8

    def test_baseline_rejected(self):
        spec = DeploymentSpec(level=SecurityLevel.BASELINE, nic_ports=1)
        with pytest.raises(ConfigurationError):
            MultiServerCloud(spec)

    def test_two_port_spec_rejected(self):
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_1, nic_ports=2)
        with pytest.raises(ValidationError):
            MultiServerCloud(spec)


class TestInterServerDataplane:
    def test_cross_server_delivery(self):
        """Tenant 0 (server 0) -> tenant 6 (server 1), through both
        vswitches and the leaf."""
        c = cloud()
        tracer = obs.enable_tracing(c.sim)
        received = c.attach_sink(6)
        frame = c.send_between_tenants(0, 6)
        c.run()
        assert len(received) == 1
        hops = [(s.component, s.kind) for s in tracer.journey(frame.frame_id)]
        # source server's compartment, then across the leaf
        assert hops.index(("vsw0.br0", "vswitch.tx")) < hops.index(
            ("uplink.s0", "link.tx")) < hops.index(("downlink.s1", "link.tx"))
        assert c.fabric.ports[0].rx_frames == 1
        assert c.fabric.ports[1].tx_frames == 1

    def test_reverse_direction(self):
        c = cloud()
        received = c.attach_sink(1)
        c.send_between_tenants(6, 1)
        c.run()
        assert len(received) == 1

    def test_same_server_cross_compartment_stays_local(self):
        """Tenant 0 -> tenant 2 (other compartment, same server): no
        inter-server rule matches, traffic defaults out to the fabric
        and back in -- still delivered, via the leaf."""
        c = cloud()
        received = c.attach_sink(6)
        c.send_between_tenants(0, 6)
        c.run()
        assert len(received) == 1

    def test_fabric_unicasts_rather_than_floods(self):
        c = cloud()
        c.attach_sink(6)
        c.send_between_tenants(0, 6)
        c.run()
        assert c.fabric.floods == 0

    def test_tunneled_cross_server_delivery(self):
        c = cloud(tunneling=True)
        received = c.attach_sink(5)
        c.send_between_tenants(0, 5, size_bytes=114)
        c.run()
        assert len(received) == 1
        # Decapsulated on arrival: the tenant sees no outer header.
        assert received[0].tunnel_id is None
        assert received[0].decap_vni is not None

    def test_cross_server_latency_is_bounded(self):
        c = cloud()
        tenant = c.tenants[6]
        deployment = c.deployments[tenant.server_index]
        arrivals = []
        vf = deployment.tenant_vf[(tenant.local_id, 0)]
        vf.port.rx.connect(lambda f: arrivals.append(c.sim.now))
        c.send_between_tenants(0, 6)
        c.run()
        assert len(arrivals) == 1
        # Two vswitch traversals + leaf + wires: well under a millisecond
        # at low load (kernel datapaths, no queueing).
        assert arrivals[0] < 1e-3

    def test_unknown_tenant_rejected(self):
        c = cloud()
        with pytest.raises(KeyError):
            c.send_between_tenants(0, 99)
