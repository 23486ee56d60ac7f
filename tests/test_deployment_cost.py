"""The deployment-cost (incremental deployability) experiment."""

import pytest

from repro.core import SecurityLevel, TrafficScenario
from repro.core.spec import DeploymentSpec
from repro.experiments.deployment_cost import op_counts, scenarios, tabulate
from repro.scenario import Engine


class TestDeploymentCost:
    def test_upgrade_delta_is_modest(self):
        """"an inexpensive deployment experience": Level-1 over the
        Baseline is ~20 extra scripted primitives, all VF config."""
        base = op_counts(DeploymentSpec(level=SecurityLevel.BASELINE))
        l1 = op_counts(DeploymentSpec(level=SecurityLevel.LEVEL_1))
        delta = l1["total"] - base["total"]
        assert 0 < delta < 30
        # The delta is dominated by VF plumbing, not new software.
        assert l1["VFs"] - base["VFs"] >= delta * 0.8

    def test_vf_ops_match_vf_budget(self):
        from repro.core.vf_allocation import vf_budget_for_spec
        for spec in (DeploymentSpec(level=SecurityLevel.LEVEL_1),
                     DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                    num_vswitch_vms=4)):
            counts = op_counts(spec)
            assert counts["VFs"] == vf_budget_for_spec(spec).total

    def test_cost_grows_linearly_with_compartments(self):
        l2_2 = op_counts(DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                        num_vswitch_vms=2))["total"]
        l2_4 = op_counts(DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                        num_vswitch_vms=4))["total"]
        l1 = op_counts(DeploymentSpec(level=SecurityLevel.LEVEL_1))["total"]
        per_compartment = (l2_4 - l2_2) / 2
        assert l2_2 == pytest.approx(l1 + per_compartment, abs=1)

    def test_table_renders_with_delta_row(self):
        table = tabulate(Engine().run(scenarios()))
        assert table.series_by_label("Baseline(1)").get("delta vs Baseline") == 0
        assert table.series_by_label("L2(4)").get("delta vs Baseline") > 0

    def test_scenarios_change_only_flow_programming(self):
        p2v = op_counts(DeploymentSpec(level=SecurityLevel.LEVEL_1),
                        TrafficScenario.P2V)
        v2v = op_counts(DeploymentSpec(level=SecurityLevel.LEVEL_1),
                        TrafficScenario.V2V)
        assert p2v["VFs"] == v2v["VFs"]
        assert p2v["VMs"] == v2v["VMs"]
