"""PMU-style latency breakdown: accounting integrity + the SR-IOV story."""

import pytest

from repro import obs
from repro.core import (ResourceMode, SecurityLevel, TrafficScenario,
                        build_deployment)
from repro.core.spec import DeploymentSpec
from repro.experiments.latency_breakdown import (COMPONENTS,
                                                 frame_components,
                                                 measure_breakdown)
from repro.traffic import TestbedHarness
from repro.units import USEC

DURATION = 0.06
_memo = {}


def breakdown(level, vms=1, mode=ResourceMode.SHARED,
              scenario=TrafficScenario.P2V):
    key = (level, vms, mode, scenario)
    if key not in _memo:
        spec = DeploymentSpec(level=level, num_vswitch_vms=vms,
                              resource_mode=mode)
        _memo[key] = measure_breakdown(spec, scenario, duration=DURATION)
    return _memo[key]


def traced_p2v_run(level, vms=1):
    """One traced p2v run; returns the harness, its per-frame span
    components and, per frame seen on both taps, ``(created_at, t_in,
    t_out, frame)``."""
    d = build_deployment(DeploymentSpec(level=level, num_vswitch_vms=vms),
                         TrafficScenario.P2V)
    tracer = obs.enable_tracing(d.sim)
    h = TestbedHarness(d)
    h.configure_tenant_flows(rate_per_flow_pps=2500)
    t_in = {}
    seen = {}
    h.ingress_tap.observe(
        lambda f, now: t_in.setdefault(f.frame_id, (f.created_at, now)))
    h.egress_tap.observe(
        lambda f, now: seen.setdefault(f.frame_id,
                                       (*t_in[f.frame_id], now, f)))
    h.run(duration=DURATION, warmup=0.02)
    assert tracer.spans_dropped == 0
    return h, frame_components(tracer.spans), seen


class TestAccountingIntegrity:
    @pytest.mark.parametrize("level", [SecurityLevel.LEVEL_1,
                                       SecurityLevel.BASELINE])
    def test_components_sum_to_each_frames_tap_to_tap_latency(self, level):
        """Per delivered frame, the spans leave no gap and count nothing
        twice: the components sum to the tap-to-tap latency plus the two
        wire edges the taps (at transmit start) cannot see -- ingress
        queueing before the ingress tap, and the egress link's
        serialization and propagation after the egress tap."""
        h, parts, seen = traced_p2v_run(level)
        link = h.egress_link
        assert len(seen) == h.sink.total > 100
        for frame_id, (created, t_in, t_out, frame) in seen.items():
            edges = ((t_in - created) + link.serialization_time(frame)
                     + link.propagation_delay)
            assert set(parts[frame_id]) <= set(COMPONENTS)
            assert sum(parts[frame_id].values()) == pytest.approx(
                (t_out - t_in) + edges, rel=1e-9)

    @pytest.mark.parametrize("level,vms", [
        (SecurityLevel.BASELINE, 1),
        (SecurityLevel.LEVEL_1, 1),
        (SecurityLevel.LEVEL_2, 2),
    ])
    def test_components_sum_to_measured_latency(self, level, vms):
        """The breakdown must account for (almost) the whole end-to-end
        latency the DAG-style monitor measures."""
        spec = DeploymentSpec(level=level, num_vswitch_vms=vms)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2500)
        result = h.run(duration=DURATION, warmup=0.02)
        measured_mean = sum(result.latencies) / len(result.latencies)
        parts = breakdown(level, vms)
        assert sum(parts.values()) == pytest.approx(measured_mean, rel=0.1)

    def test_no_negative_charges(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert all(v >= 0 for v in parts.values())


class TestTheSrIovStory:
    """The §4.2 explanation, quantified per component."""

    def test_baseline_latency_lives_in_vhost_and_linux_bridge(self):
        parts = breakdown(SecurityLevel.BASELINE)
        software_tenant_path = parts["vhost"] + parts["tenant"]
        assert software_tenant_path > 0.6 * sum(parts.values())

    def test_mts_replaces_vhost_with_microsecond_nic_hops(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert parts["vhost"] == 0.0
        assert parts["nic"] < 10 * USEC  # "negligible" round trips
        assert parts["nic"] < breakdown(SecurityLevel.BASELINE)["vhost"] / 4

    def test_mts_remaining_budget_is_the_tenant_poll_loop(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert parts["tenant"] > 0.5 * sum(parts.values())

    def test_sharing_shows_up_as_vswitch_wait(self):
        l1 = breakdown(SecurityLevel.LEVEL_1)
        l2_4 = breakdown(SecurityLevel.LEVEL_2, vms=4)
        assert l2_4["vswitch.wait"] > 3 * l1["vswitch.wait"]
        # ...while everything else stays put.
        assert l2_4["tenant"] == pytest.approx(l1["tenant"], rel=0.15)
        assert l2_4["nic"] == pytest.approx(l1["nic"], rel=0.15)

    def test_unloaded_paths_do_not_queue(self):
        for level in (SecurityLevel.BASELINE, SecurityLevel.LEVEL_1):
            assert breakdown(level)["vswitch.queue"] < 1 * USEC

    def test_wire_time_is_negligible_at_64b(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert parts["wire"] < 1 * USEC
