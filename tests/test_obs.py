"""Unified telemetry: metrics registry, packet tracer, and the e2e
journey reconstruction over the Fig. 3 mediation chain."""

import math

import pytest

from repro import obs
from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    PacketTracer,
    journeys_from_jsonl,
)
from repro.sim.kernel import Simulator
from repro.traffic import TestbedHarness
from tests.conftest import make_spec


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test leaves the process-wide registry pristine."""
    yield
    obs.REGISTRY.reset()


def _sim_at(t):
    """A simulator whose clock reads ``t``."""
    sim = Simulator()
    sim.run(until=t)
    return sim


class _FakeFrame:
    """The minimal frame surface the tracer hooks touch."""

    def __init__(self, frame_id=1, tenant_id=0, size=64):
        self.frame_id = frame_id
        self.tenant_id = tenant_id
        self._size = size

    def wire_size(self):
        return self._size


class TestMetricsRegistry:
    def test_counter_records_sim_time_and_rate(self):
        t = [0.0]
        registry = MetricsRegistry(clock=lambda: t[0])
        c = registry.counter("frames_total", "frames seen")
        c.inc()
        t[0] = 2.0
        c.inc(3)
        child = c.labels() if c.label_names else c._only()
        assert child.value == 4
        assert child.first_t == 0.0 and child.last_t == 2.0
        assert child.rate() == pytest.approx(4 / 2.0)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert registry.snapshot()["depth"] == 6

    def test_labels_create_independent_children(self):
        registry = MetricsRegistry()
        c = registry.counter("drops_total", labels=("reason",))
        c.labels(reason="spoof").inc()
        c.labels(reason="spoof").inc()
        c.labels(reason="no_match").inc()
        snap = registry.snapshot()
        assert snap['drops_total{reason="spoof"}'] == 2
        assert snap['drops_total{reason="no_match"}'] == 1

    def test_label_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("b",))
        with pytest.raises(ValueError):
            registry.gauge("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("a",)).labels(wrong="v")

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 5.0, 50.0):
            h.observe(v)
        child = h._only()
        cum = child.cumulative_buckets()
        assert cum == [(1.0, 1), (10.0, 3), (math.inf, 4)]
        stats = child.summary()
        assert stats.count == 4
        assert stats.minimum == 0.5 and stats.maximum == 50.0

    def test_histogram_empty_summary_is_empty_safe(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        stats = h._only().summary()
        assert stats.is_empty
        assert math.isnan(stats.median)

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", "frames").inc(7)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.prometheus_text()
        assert "# TYPE frames_total counter" in text
        assert "frames_total 7.0" in text
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_collectors_run_at_snapshot(self):
        registry = MetricsRegistry()
        local = {"n": 3}
        registry.register_collector(
            lambda r: r.gauge("pulled").set(local["n"]))
        assert registry.snapshot()["pulled"] == 3
        local["n"] = 9
        assert registry.snapshot()["pulled"] == 9

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestNullTracer:
    def test_disabled_hooks_are_the_shared_noop(self):
        # Zero-cost disabled identity: every hook is literally the same
        # function object, returns None, and the class reports disabled.
        tracer = NullTracer()
        assert tracer.enabled is False
        hooks = [tracer.link_send, tracer.flow_lookup,
                 tracer.bridge_rx, tracer.bridge_tx, tracer.veb_forward,
                 tracer.nic_filter, tracer.vhost, tracer.tenant_forward,
                 tracer.drop]
        assert len({id(h) for h in hooks}) == 1
        assert tracer.drop("c", _FakeFrame(), "reason") is None

    def test_enable_disable_swaps_the_sim_tracer(self):
        sim = Simulator()
        assert sim.tracer is NULL_TRACER and not sim.tracer.enabled
        tracer = obs.enable_tracing(sim)
        assert sim.tracer is tracer and sim.tracer.enabled
        obs.disable_tracing(sim)
        assert sim.tracer is NULL_TRACER
        assert isinstance(sim.tracer, NullTracer)


class TestPacketTracer:
    def test_equal_timestamp_spans_keep_record_order(self):
        # A cached pipeline pass emits several spans at one sim instant;
        # the journey must replay them in exact record order via seq.
        tracer = PacketTracer(_sim_at(1.5))
        frame = _FakeFrame(frame_id=7)
        tracer.bridge_rx("br0", frame, 1, True)
        tracer.flow_lookup("br0.table0", frame, 1, None, "plan")
        tracer.bridge_tx("br0", frame, 2)
        journey = tracer.journey(7)
        assert [s.kind for s in journey] == [
            "vswitch.rx", "flowtable.lookup", "vswitch.tx"]
        assert [s.seq for s in journey] == sorted(s.seq for s in journey)
        assert all(s.start == 1.5 for s in journey)

    def test_timed_bridge_pass_spans_dispatch_to_egress(self):
        # Dispatched at 1.0, left at 1.5: 0.1 s waited, 0.3 s served,
        # the rest queued in the rx ring.
        tracer = PacketTracer(_sim_at(1.5))
        tracer.bridge_tx("br0", _FakeFrame(frame_id=4), 2, 1.0, 0.3, 0.1)
        [span] = tracer.spans
        assert (span.start, span.end) == (1.0, 1.5)
        assert span.attrs["service"] == 0.3
        assert span.attrs["wait"] == 0.1
        assert span.attrs["queue"] == max(0.0, (1.5 - 1.0) - 0.1 - 0.3)
        assert span.attrs["out_port"] == 2

    def test_untimed_bridge_pass_is_instantaneous(self):
        tracer = PacketTracer(_sim_at(1.5))
        tracer.bridge_tx("br0", _FakeFrame(), 2)
        [span] = tracer.spans
        assert (span.start, span.end) == (1.5, 1.5)
        assert span.attrs == {"out_port": 2, "service": 0.0, "wait": 0.0,
                              "queue": 0.0}

    def test_veb_span_is_the_nic_traversal(self):
        # Entered the NIC at 1.0, decided at 1.5, then 0.25 s of DMA
        # into the receiving function.
        from repro.sriov.switch import ForwardingDecision
        tracer = PacketTracer(_sim_at(1.5))
        decision = ForwardingDecision(destinations=["pf0vf1"],
                                      reason="hit")
        tracer.veb_forward("veb0", _FakeFrame(), "uplink", 0, decision,
                           1.0, 0.25)
        [span] = tracer.spans
        assert (span.kind, span.start, span.end) == (
            "veb.forward", 1.0, 1.75)
        assert span.attrs["destinations"] == ["pf0vf1"]

    def test_tenant_forward_span(self):
        tracer = PacketTracer(_sim_at(2.0))
        tracer.tenant_forward("tenant0.l2fwd", _FakeFrame(frame_id=5), 0.5)
        [span] = tracer.journey(5)
        assert (span.component, span.kind, span.outcome) == (
            "tenant0.l2fwd", "tenant.forward", "forwarded")
        assert (span.start, span.end) == (2.0, 2.5)

    def test_drop_reason_recorded(self):
        tracer = PacketTracer(Simulator())
        tracer.drop("nic.p0", _FakeFrame(frame_id=3, tenant_id=2), "spoof")
        drops = tracer.drops()
        assert len(drops) == 1
        assert drops[0].outcome == "spoof"
        assert drops[0].component == "nic.p0"
        assert drops[0].tenant == 2

    def test_filter_verdict_drops_are_drops(self):
        tracer = PacketTracer(Simulator())
        tracer.nic_filter("nic.p0", "pf0vf1", _FakeFrame(), "spoof_drop")
        tracer.nic_filter("nic.p0", "pf0vf2", _FakeFrame(), "pass")
        assert len(tracer.drops()) == 1

    def test_capacity_bounds_memory(self):
        tracer = PacketTracer(Simulator(), capacity=2)
        frame = _FakeFrame()
        for _ in range(5):
            tracer.drop("c", frame, "r")
        assert len(tracer.spans) == 2
        assert tracer.spans_dropped == 3

    def test_link_send_splits_enqueue_and_tx(self):
        tracer = PacketTracer(Simulator())
        frame = _FakeFrame(frame_id=9)
        # Queued behind a busy link: submit at 1.0, starts at 2.0.
        tracer.link_send("link.a", frame, 1.0, 2.0, 2.5, 3.0)
        kinds = [s.kind for s in tracer.journey(9)]
        assert kinds == ["link.enqueue", "link.tx"]
        # Idle link: no enqueue span.
        tracer.clear()
        tracer.link_send("link.a", frame, 1.0, 1.0, 1.5, 2.0)
        assert [s.kind for s in tracer.journey(9)] == ["link.tx"]

    def test_jsonl_round_trip(self):
        tracer = PacketTracer(_sim_at(0.25))
        frame = _FakeFrame(frame_id=11, tenant_id=1)
        tracer.bridge_rx("br0", frame, 1, False)
        tracer.drop("br0", frame, "no_match")
        journeys = journeys_from_jsonl(tracer.to_jsonl())
        assert set(journeys) == {11}
        spans = journeys[11]
        assert [s.kind for s in spans] == ["vswitch.rx", "drop"]
        assert spans[0].tenant == 1
        assert spans[1].outcome == "no_match"


def _traced_l2_run(tmp_path, duration=0.01):
    spec = make_spec(level=SecurityLevel.LEVEL_2, vms=2, tenants=2)
    deployment = build_deployment(spec, TrafficScenario.P2V)
    tracer = obs.enable_tracing(deployment.sim)
    harness = TestbedHarness(deployment)
    harness.configure_tenant_flows(rate_per_flow_pps=1000)
    result = harness.run(duration=duration)
    path = tmp_path / "spans.jsonl"
    from repro.obs.export import write_spans_jsonl
    write_spans_jsonl(tracer, str(path))
    return deployment, tracer, result, path


class TestEndToEndJourney:
    """Acceptance: a traced Level-2 run yields a JSONL dump from which a
    complete per-hop journey reconstructs, in Fig. 3 chain order, with
    monotonically non-decreasing sim timestamps."""

    def test_level2_journey_visits_fig3_chain_in_order(self, tmp_path):
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        assert result.delivered > 0
        journeys = journeys_from_jsonl(path.read_text())
        assert journeys  # at least one packet reconstructs

        spans = journeys[min(journeys)]
        hops = [(s.component, s.kind) for s in spans]
        # Fig. 3 ingress+egress chain: LG wire -> port-0 VEB -> vswitch
        # compartment (lookup + tx) -> NIC filter on the gateway VF ->
        # ... -> egress VEB -> sink wire.
        expected_order = [
            ("link.lg-dut", "link.tx"),
            ("veb0", "veb.forward"),
            ("vsw0.br0", "vswitch.rx"),
            ("vsw0.br0.table0", "flowtable.lookup"),
            ("vsw0.br0", "vswitch.tx"),
            ("nic.p0", "nic.filter"),
            ("link.dut-sink", "link.tx"),
        ]
        positions = []
        for hop in expected_order:
            assert hop in hops, f"journey missing {hop}: {hops}"
            positions.append(hops.index(hop))
        assert positions == sorted(positions), (
            f"chain hops out of order: {hops}")

        # One tenant-forwarder pass per p2v journey, between the NIC
        # hops into and out of the tenant.
        kinds = [s.kind for s in spans]
        assert kinds.count("tenant.forward") == 1
        assert kinds.index("nic.filter") < kinds.index("tenant.forward")

        starts = [s.start for s in spans]
        assert starts == sorted(starts)
        assert all(s.end >= s.start for s in spans)

    def test_breakdown_matches_frame_wire_accounting(self, tmp_path):
        from repro.experiments.latency_breakdown import frame_components
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        trace_id = tracer.trace_ids()[0]
        parts = frame_components(tracer.spans)[trace_id]
        # Per-component latency breakdown exists and the wire component
        # is the serialization+propagation the links actually charged.
        assert parts["wire"] > 0.0
        journey = tracer.journey(trace_id)
        elapsed = journey[-1].end - journey[0].start
        assert sum(parts.values()) <= elapsed + 1e-12

    def test_tenants_separate_in_summary_tables(self, tmp_path):
        from repro.obs.export import tenant_hop_table, tenant_latency_table
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        hop_table = tenant_hop_table(tracer).render()
        assert "tenant0" in hop_table and "tenant1" in hop_table
        assert "veb.forward" in hop_table
        latency_table = tenant_latency_table(tracer).render()
        assert "tenant0" in latency_table

    def test_harvest_is_delta_based(self, tmp_path):
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        # TestbedHarness.run already harvested once; a second harvest
        # with no traffic in between must contribute nothing.
        delta = obs.harvest(deployment, obs.REGISTRY)
        assert all(v == 0 for v in delta.values())
        line = obs.cache_efficacy_line(obs.REGISTRY.snapshot())
        assert line is not None and "emc" in line

    def test_registry_cache_counters_populated(self, tmp_path):
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        snap = obs.REGISTRY.snapshot()
        assert snap.get('cache_lookups_total{cache="plan"}', 0) > 0
        assert snap.get('cache_lookups_total{cache="veb_memo"}', 0) > 0


class TestTenantForwarders:
    """The l2fwd and Linux-bridge forwarders record one span per pass
    on their simulator's tracer; without a simulator they trace
    nothing and forward synchronously."""

    @staticmethod
    def _forwarders(sim):
        """An l2fwd and a Linux bridge, two ports each; returns
        ``(apps, out)`` where ``out`` collects what they transmit."""
        from repro.net.addresses import MacAddress
        from repro.net.interfaces import PortPair
        from repro.vswitch.l2fwd import L2Fwd
        from repro.vswitch.linux_bridge import LinuxBridge
        out = []
        apps = [L2Fwd("tenant0.l2fwd", sim=sim),
                LinuxBridge("tenant1.br0", sim=sim)]
        for app in apps:
            for i in range(2):
                pair = PortPair(f"{app.name}.p{i}")
                pair.attach_tx(out.append)
                app.add_port(pair)
        apps[0].set_route(0, 1, MacAddress(9))
        return apps, out

    @staticmethod
    def _frame():
        from repro.net import Frame, MacAddress
        return Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                     tenant_id=0)

    def test_one_span_per_pass(self):
        sim = Simulator()
        tracer = obs.enable_tracing(sim)
        apps, out = self._forwarders(sim)
        for app in apps:
            frame = self._frame()
            app._ports[0].rx.receive(frame)
            sim.run()
            [span] = tracer.journey(frame.frame_id)
            assert (span.component, span.kind) == (app.name,
                                                   "tenant.forward")
            assert span.duration > 0
        assert len(out) == 2  # both forwarded

    def test_sim_less_forwarders_trace_nothing(self):
        tracer = obs.enable_tracing(Simulator())
        apps, out = self._forwarders(None)
        for app in apps:
            app._ports[0].rx.receive(self._frame())
        assert len(out) == 2  # forwarded synchronously
        assert len(tracer) == 0


class TestDisabledOverheadPath:
    def test_disabled_run_records_nothing(self):
        spec = make_spec(level=SecurityLevel.LEVEL_1)
        deployment = build_deployment(spec, TrafficScenario.P2V)
        assert not deployment.sim.tracer.enabled
        harness = TestbedHarness(deployment)
        harness.configure_tenant_flows(rate_per_flow_pps=1000)
        result = harness.run(duration=0.005)
        assert result.delivered > 0
        assert deployment.sim.tracer is NULL_TRACER
        # The harness still harvests cache counters even when tracing
        # is off -- metrics are pull-based, tracing is the opt-in part.
        snap = obs.REGISTRY.snapshot()
        assert snap.get('cache_lookups_total{cache="plan"}', 0) > 0


def _l2_deployment():
    return build_deployment(
        make_spec(level=SecurityLevel.LEVEL_2, vms=2, tenants=2),
        TrafficScenario.P2V)


class TestTwoSimulators:
    """The tracer is a tap on one simulator: building, running or
    batching a second deployment neither re-clocks nor feeds it."""

    def test_spans_stay_on_their_own_clock(self):
        a = _l2_deployment()
        tracer = obs.enable_tracing(a.sim)
        _l2_deployment()  # b: a fresh simulator still at t=0
        harness = TestbedHarness(a)
        harness.configure_tenant_flows(rate_per_flow_pps=1000)
        harness.run(duration=0.01)
        hops = [s for s in tracer.spans if s.kind in
                ("flowtable.lookup", "veb.forward", "nic.filter")]
        assert hops
        assert all(0.0 < s.start <= a.sim.now for s in hops)

    def test_tracing_one_does_not_unbatch_or_feed_the_other(self):
        a = _l2_deployment()
        tracer = obs.enable_tracing(a.sim)
        b = _l2_deployment()
        harness = TestbedHarness(b, batch=True)
        harness.configure_tenant_flows(rate_per_flow_pps=200_000)
        result = harness.run(duration=0.01)
        assert result.delivered > 0
        assert harness.lg.batch is True
        assert b.sim.tracer is NULL_TRACER
        assert len(tracer) == 0


class TestModuleGlobals:
    def test_only_the_known_globals_are_rebound(self):
        """Run state lives on the simulator and the run context; the
        only module globals src/repro rebinds are the frame-id counter,
        the worker calibration and the active run context."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        found = set()
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Global):
                    rel = path.relative_to(root).with_suffix("").as_posix()
                    found.update(f"{rel}.{name}" for name in node.names)
        assert found == {"net/packet._frame_ids",
                         "scenario/engine._WORKER_CALIBRATION",
                         "scenario/context._current"}
