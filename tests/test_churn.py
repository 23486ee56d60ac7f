"""Control-plane churn under live traffic.

The strongest operability claim: while the orchestrator adds, removes
and migrates tenants, the *unaffected* tenants' dataplane must not
drop a single frame.  This runs a continuous DES with scheduled
control-plane events and audits the deployment after every mutation.
"""

import pytest

from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.core.orchestrator import MtsOrchestrator
from repro.core.verification import audit_deployment
from repro.errors import SimulationError
from repro.traffic import TestbedHarness
from tests.conftest import make_spec

RATE = 5000  # per tenant


class TestChurn:
    def _setup(self, vms=2):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=vms),
                             TrafficScenario.P2V)
        return d, MtsOrchestrator(d), TestbedHarness(d)

    def test_add_remove_migrate_under_load(self):
        """Tenants 2 and 3 (compartment 1) stream throughout; tenant 0
        is migrated, tenant 1 removed, a new tenant added -- all in
        compartment 0.  The streamers must see zero loss."""
        d, orch, h = self._setup()
        h.add_tenant_flow(2, RATE)
        h.add_tenant_flow(3, RATE)

        events = []

        def migrate():
            events.append(orch.migrate_tenant(0, target=1))

        def remove():
            orch.remove_tenant(1)

        def add():
            events.append(orch.add_tenant(compartment=0))

        d.sim.schedule(0.02, migrate)
        d.sim.schedule(0.04, remove)
        d.sim.schedule(0.06, add)
        result = h.run(duration=0.1, warmup=0.0)

        expected_each = RATE * 0.1
        for tenant in (2, 3):
            delivered = h.monitor.delivered_in_window(0.0, 0.1,
                                                      flow_id=tenant)
            assert delivered >= 0.98 * expected_each, (tenant, delivered)
        assert result.loss_fraction < 0.02
        # All three events happened.
        assert len(events) == 2  # migration record + new tenant id
        assert orch.tenants() == [0, 2, 3, 4]

    def test_audit_clean_after_every_mutation(self):
        d, orch, h = self._setup()
        assert audit_deployment(d).ok

        new = orch.add_tenant()
        assert audit_deployment(d).ok

        orch.remove_tenant(1)
        assert audit_deployment(d).ok

        record = orch.migrate_tenant(0, target=1)
        d.sim.run(until=record.completed_at + 1e-6)
        assert audit_deployment(d).ok, audit_deployment(d).render()

        orch.remove_tenant(new)
        assert audit_deployment(d).ok

    def test_migrated_tenant_resumes_streaming(self):
        d, orch, h = self._setup()
        h.add_tenant_flow(0, RATE)
        record = orch.migrate_tenant(0, target=1)
        h.run(duration=0.1, warmup=0.0)
        # After completion, the flow lands again (the ingress dmac
        # follows the runtime compartment map).
        before = h.monitor.delivered_in_window(0.0, record.completed_at,
                                               flow_id=0)
        # Re-offer traffic post-migration: the harness flow used the old
        # dmac captured at configure time, so re-add with the new one.
        h.add_tenant_flow(0, RATE)
        h.lg.start(duration=0.05)
        d.sim.run(until=d.sim.now + 0.06)
        after = h.monitor.delivered_in_window(record.completed_at,
                                              d.sim.now, flow_id=0)
        assert after > 0

    def test_repeated_migrations_converge(self):
        d, orch, _ = self._setup()
        for i in range(6):
            target = 1 - orch.compartment_of(0)
            record = orch.migrate_tenant(0, target=target)
            d.sim.run(until=record.completed_at + 1e-6)
        assert orch.compartment_of(0) == 0  # six hops: back home
        assert audit_deployment(d).ok
        # No VF leak: still 2 gw + 2 tenant VFs for tenant 0.
        assert sum(1 for (t, _p) in d.gw_vf if t == 0) == 2

    def test_full_compartment_drain(self):
        """Remove every tenant of compartment 0; its bridge ends up
        with only In/Out ports and an empty tenant list."""
        d, orch, _ = self._setup()
        orch.remove_tenant(0)
        orch.remove_tenant(1)
        view = d.compartment_views[0]
        assert view.tenants == []
        names = [p.name for p in view.bridge.ports()]
        assert all(n.startswith("inout") for n in names)
        assert audit_deployment(d).ok

    def test_release_without_hold_raises(self):
        """Hold accounting is loud: releasing a wiring hold that was
        never taken is a bug, not something to clamp away."""
        d, _, _ = self._setup()
        with pytest.raises(SimulationError):
            d.release_wiring()
        d.hold_wiring()
        d.release_wiring()
        assert d.wiring_stable
        with pytest.raises(SimulationError):
            d.release_wiring()

    def test_hold_pending_at_horizon_stays_on_its_deployment(self):
        """A migration that completes after the run's horizon leaves
        its hold on its own deployment only: another deployment's run
        still takes the batched path with no reset in between, and the
        hold clears once the migration lands."""
        d, orch, h = self._setup()
        h.add_tenant_flow(2, RATE)
        record = orch.migrate_tenant(0, target=1)
        h.run(duration=0.004, cooldown=0.002)
        assert d.sim.now < record.completed_at
        assert not d.wiring_stable

        other = build_deployment(make_spec(level=SecurityLevel.LEVEL_2,
                                           vms=2), TrafficScenario.P2V)
        batched = TestbedHarness(other, batch=True)
        batched.add_tenant_flow(2, RATE)
        batched.run(duration=0.004)
        assert batched.lg.batch is True

        d.sim.run(until=record.completed_at + 1e-6)
        assert d.wiring_stable
