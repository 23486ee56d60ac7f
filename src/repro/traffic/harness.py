"""The measurement harness: LG -> (tap) -> DUT -> (tap) -> sink.

``TestbedHarness`` reproduces the paper's two-server setup around a
built deployment: the load generator feeds the DUT's ingress NIC port
over a 10G link, the DUT's egress port feeds the sink, and passive taps
on both links drive the latency monitor.  One-port deployments (the
Fig. 6 workload topology) hairpin: ingress and egress share port 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs as _obs
from repro.core.deployment import Deployment
from repro.measure.stats import SummaryStats, summarize
from repro.net.addresses import MacAddress
from repro.net.link import Link, OpticalTap
from repro.net import packet
from repro.net.packet import IpProto
from repro.scenario.context import current as current_context
from repro.traffic.generator import (BATCHED_BURST, DEFAULT_BURST,
                                     FlowConfig, LoadGenerator)
from repro.traffic.sink import LatencyMonitor, Sink
from repro.units import GBPS


@dataclass
class HarnessResult:
    """Windowed measurements of one run."""

    offered_pps: float
    delivered_pps: float
    sent: int
    delivered: int
    latencies: List[float]
    window: tuple

    @property
    def loss_fraction(self) -> float:
        if self.sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.delivered / self.sent)

    def latency_stats(self) -> SummaryStats:
        return summarize(self.latencies, empty_ok=True)


class TestbedHarness:
    """LG, DUT and sink wired together for one deployment."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, deployment: Deployment,
                 link_bandwidth_bps: float = 10 * GBPS,
                 batch: bool = False) -> None:
        # Frame ids restart per harnessed run: per-frame jitter draws
        # are keyed by them, and runs must not depend on how many
        # frames earlier runs in this process created.
        packet.reset_frame_ids()
        self.deployment = deployment
        #: Requested struct-of-arrays fast path.  Resolved at
        #: :meth:`run` -- tracing, cache-busting flows or an untimed
        #: deployment silently fall back to the per-frame oracle path.
        self.batch = batch
        self.sim = deployment.sim
        self.ingress_tap = OpticalTap("tap.lg-dut")
        self.egress_tap = OpticalTap("tap.dut-sink")
        self.sink = Sink()
        self.monitor = LatencyMonitor(self.ingress_tap, self.egress_tap)

        ingress_port = 0
        egress_port = deployment.egress_port_index()
        self.ingress_link = Link(
            self.sim,
            dst=deployment.external_ingress(ingress_port),
            bandwidth_bps=link_bandwidth_bps,
            propagation_delay=deployment.calibration.wire_propagation,
            tap=self.ingress_tap,
            name="link.lg-dut",
        )
        self.egress_link = Link(
            self.sim,
            dst=self.sink.port,
            bandwidth_bps=link_bandwidth_bps,
            propagation_delay=deployment.calibration.wire_propagation,
            tap=self.egress_tap,
            name="link.dut-sink",
        )
        deployment.connect_egress(egress_port, self.egress_link)

        self.lg = LoadGenerator(self.sim, self.ingress_link)
        self._lg_mac = MacAddress.parse("02:1b:00:00:00:01")

    def add_tenant_flow(self, tenant: int, rate_pps: float,
                        frame_bytes: int = 64,
                        randomize_src_port: bool = False) -> None:
        """One flow towards ``tenant`` at an arbitrary rate (asymmetric
        loads, e.g. the noisy-neighbor experiment).
        ``randomize_src_port`` makes every packet a fresh microflow --
        the flow-cache-busting pattern of the policy-injection DoS."""
        d = self.deployment
        plan = d.plan
        tunnel_id = plan.vni(tenant) if d.spec.tunneling else None
        self.lg.add_flow(FlowConfig(
            flow_id=tenant,
            dst_mac=d.ingress_dmac_for_tenant(tenant, port_index=0),
            dst_ip=plan.tenant_ip(tenant),
            src_mac=self._lg_mac,
            src_ip=plan.external_ip(tenant),
            rate_pps=rate_pps,
            frame_bytes=frame_bytes,
            tenant_id=tenant,
            proto=IpProto.UDP,
            tunnel_id=tunnel_id,
            randomize_src_port=randomize_src_port,
        ))

    def configure_tenant_flows(self, rate_per_flow_pps: float,
                               frame_bytes: int = 64,
                               tenants: Optional[List[int]] = None) -> None:
        """One flow per tenant, addressed exactly as the paper does."""
        if tenants is None:
            tenants = list(range(self.deployment.spec.num_tenants))
        for tenant in tenants:
            self.add_tenant_flow(tenant, rate_per_flow_pps, frame_bytes)

    def run(self, duration: float, warmup: float = 0.0,
            cooldown: float = 0.05) -> HarnessResult:
        """Send for ``duration`` seconds; measure the window after
        ``warmup``.  ``cooldown`` lets in-flight frames land."""
        offered = self.lg.aggregate_rate_pps
        self.deployment.set_offered_rate_hint(offered)
        # A fault plan on the running scenario's spec attaches here, so
        # any harness-based workload is chaos-capable without changes.
        ctx = current_context()
        chaos_session = ctx.attach_chaos(self, horizon=duration)
        # A held deployment (armed chaos session, pending migration)
        # takes the per-frame oracle path: fault and heal instants land
        # at arbitrary sim times, and a batch whose members straddle
        # one would deliver or drop as a unit where the oracle splits
        # it at the instant.
        if (self.batch and not self.sim.tracer.enabled
                and self.deployment.wiring_stable
                and self.lg.supports_batching()
                and self.deployment.supports_batched_fastpath()):
            self.deployment.enable_batched_fastpath()
            self.lg.batch = True
            # Wider bursts amortize per-batch work; timestamps are
            # analytic per frame, so results are burst-invariant.  A
            # caller-customized burst (tests pinning batch shapes) is
            # left alone.
            if self.lg.burst == DEFAULT_BURST:
                self.lg.burst = BATCHED_BURST
            # Unbounded-margin groups hold until their burst completes;
            # bursts cut short by the end of traffic need a sweep while
            # the simulation is still running.
            self.sim.call_later(duration + cooldown * 0.5,
                                self.deployment.drain_batches)
        # Likewise for metering: a spec that asked for billing gets a
        # session that windows usage while this run executes.
        meter_session = ctx.attach_metering(self, horizon=duration,
                                            chaos=chaos_session)
        self.lg.start(duration)
        self.sim.run(until=self.sim.now + duration + cooldown)
        t0, t1 = warmup, duration
        delivered = self.monitor.delivered_in_window(t0, t1)
        result = HarnessResult(
            offered_pps=offered,
            delivered_pps=delivered / (t1 - t0),
            sent=self.lg.sent,
            delivered=self.sink.total,
            latencies=self.monitor.latencies_in_window(t0, t1),
            window=(t0, t1),
        )
        _obs.harvest(self.deployment, _obs.REGISTRY)
        if chaos_session is not None:
            chaos_session.finish()
        if meter_session is not None:
            meter_session.finish()
        return result
