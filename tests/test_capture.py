"""Packet capture, filtering, rendering and replay."""

import pytest

from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.net import Frame, IPv4Address, IpProto, MacAddress, Port
from repro.sim import Simulator
from repro.traffic import TestbedHarness
from repro.traffic.capture import Capture, CaptureFilter
from tests.conftest import make_spec


def frame(**kwargs):
    defaults = dict(src_mac=MacAddress(0xA), dst_mac=MacAddress(0xB),
                    src_ip=IPv4Address.parse("192.168.1.10"),
                    dst_ip=IPv4Address.parse("10.0.0.10"))
    defaults.update(kwargs)
    return Frame(**defaults)


class TestFilter:
    def test_empty_filter_matches_everything(self):
        assert CaptureFilter().matches(frame())

    def test_field_filters(self):
        assert CaptureFilter(dst_ip=IPv4Address.parse("10.0.0.10")).matches(
            frame())
        assert not CaptureFilter(vlan=100).matches(frame())
        assert CaptureFilter(vlan=100).matches(frame(vlan=100))
        assert not CaptureFilter(proto=IpProto.TCP).matches(frame())
        assert CaptureFilter(min_bytes=100).matches(frame(size_bytes=128))
        assert not CaptureFilter(min_bytes=100).matches(frame())

    def test_conjunction(self):
        flt = CaptureFilter(src_mac=MacAddress(0xA), vlan=100)
        assert flt.matches(frame(vlan=100))
        assert not flt.matches(frame(src_mac=MacAddress(0xC), vlan=100))


class TestCaptureBuffer:
    def test_counts_seen_and_matched(self):
        cap = Capture(flt=CaptureFilter(tenant_id=1))
        cap._observe(frame(tenant_id=1), 0.1)
        cap._observe(frame(tenant_id=2), 0.2)
        assert cap.seen == 2
        assert cap.matched == 1
        assert len(cap) == 1

    def test_ring_buffer_bounded(self):
        cap = Capture(max_records=3)
        for i in range(10):
            cap._observe(frame(), float(i))
        assert len(cap) == 3
        assert cap.records[0].timestamp == 7.0

    def test_render_summary_lines(self):
        cap = Capture()
        cap._observe(frame(vlan=100), 0.000123)
        text = cap.render()
        assert "vlan 100" in text
        assert "192.168.1.10 > 10.0.0.10" in text
        assert "UDP 64B" in text
        assert "1/1 frames matched" in text

    def test_render_limit(self):
        cap = Capture()
        for i in range(5):
            cap._observe(frame(), float(i))
        text = cap.render(limit=2)
        assert text.count("\n") == 2  # header + 2 records

    def test_invalid_buffer_size(self):
        with pytest.raises(ValueError):
            Capture(max_records=0)


class TestAttachment:
    @pytest.mark.parametrize("batch", [False, True])
    def test_attach_to_harness_tap(self, batch):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d, batch=batch)
        cap = Capture(flt=CaptureFilter(tenant_id=2)).attach_tap(h.egress_tap)
        # Fast enough that the batched path carries multi-frame bursts.
        h.configure_tenant_flows(rate_per_flow_pps=2500)
        h.run(duration=0.05)
        assert cap.matched > 0
        assert all(r.frame.tenant_id == 2 for r in cap.records)
        # A per-frame observer registered after the harness's batch-aware
        # latency monitor still sees every delivered frame.
        assert cap.seen == h.sink.total

    def test_attach_port_preserves_delivery(self):
        sim = Simulator()
        received = []
        port = Port("dst", received.append)
        cap = Capture().attach_port(port, sim)
        port.receive(frame())
        assert len(received) == 1
        assert len(cap) == 1


class TestReplay:
    def test_replay_preserves_relative_timing(self):
        sim = Simulator()
        cap = Capture()
        cap._observe(frame(), 5.0)
        cap._observe(frame(), 5.3)
        arrivals = []
        dst = Port("dst", lambda f: arrivals.append(sim.now))
        assert cap.replay(sim, dst) == 2
        sim.run()
        assert arrivals == [pytest.approx(0.0), pytest.approx(0.3)]

    def test_replay_speedup(self):
        sim = Simulator()
        cap = Capture()
        cap._observe(frame(), 0.0)
        cap._observe(frame(), 1.0)
        arrivals = []
        dst = Port("dst", lambda f: arrivals.append(sim.now))
        cap.replay(sim, dst, speedup=10.0)
        sim.run()
        assert arrivals[1] == pytest.approx(0.1)

    def test_replay_uses_copies(self):
        sim = Simulator()
        cap = Capture()
        original = frame()
        cap._observe(original, 0.0)
        out = []
        dst = Port("dst", out.append)
        cap.replay(sim, dst)
        sim.run()
        assert out[0].frame_id != original.frame_id

    def test_empty_replay(self):
        sim = Simulator()
        assert Capture().replay(sim, Port("dst")) == 0

    def test_replayed_traffic_forwards_through_deployment(self):
        """Capture at ingress, replay into a fresh deployment: the
        regression-debugging loop."""
        spec = make_spec(level=SecurityLevel.LEVEL_1)
        d1 = build_deployment(spec, TrafficScenario.P2V)
        h1 = TestbedHarness(d1)
        cap = Capture().attach_tap(h1.ingress_tap)
        h1.configure_tenant_flows(rate_per_flow_pps=1000)
        h1.run(duration=0.01)
        assert cap.matched > 0

        d2 = build_deployment(spec, TrafficScenario.P2V)
        h2 = TestbedHarness(d2)
        cap.replay(d2.sim, d2.external_ingress(0))
        d2.sim.run(until=d2.sim.now + 1.0)
        assert h2.sink.total == cap.matched
