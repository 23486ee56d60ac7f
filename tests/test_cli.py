"""The command-line interface."""

import pytest

from repro.cli import main


class TestDescribe:
    def test_describe_l2(self, capsys):
        assert main(["describe", "--level", "l2", "--vms", "2"]) == 0
        out = capsys.readouterr().out
        assert "L2(2)" in out
        assert "vsw0" in out and "vsw1" in out
        assert "tenant3" in out

    def test_describe_baseline(self, capsys):
        assert main(["describe", "--level", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "Baseline(1)" in out


class TestPlan:
    def test_plan_lists_primitives(self, capsys):
        assert main(["plan", "--level", "l1"]) == 0
        out = capsys.readouterr().out
        assert "create-vf" in out
        assert "add-port" in out
        assert "primitive operations" in out


class TestThroughput:
    def test_throughput_dpdk_p2v(self, capsys):
        assert main(["throughput", "--level", "l2", "--vms", "4",
                     "--dpdk", "--scenario", "p2v"]) == 0
        out = capsys.readouterr().out
        assert "aggregate: 2.300 Mpps" in out
        assert "nic.hairpin" in out

    def test_throughput_baseline_p2p(self, capsys):
        assert main(["throughput", "--level", "baseline",
                     "--scenario", "p2p"]) == 0
        out = capsys.readouterr().out
        assert "aggregate: 0.977 Mpps" in out


class TestLatency:
    def test_latency_runs_and_reports(self, capsys):
        assert main(["latency", "--level", "l1", "--scenario", "p2v",
                     "--duration", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "loss 0.00%" in out


class TestAudit:
    def test_audit_l2(self, capsys):
        assert main(["audit", "--level", "l2", "--vms", "4"]) == 0
        out = capsys.readouterr().out
        assert "exploits to host: 2" in out
        assert "blast radius: [0]" in out

    def test_audit_baseline_fails_extra_layer(self, capsys):
        assert main(["audit", "--level", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "NOT met" in out


class TestSurvey:
    def test_survey_renders(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Google Andromeda" in out
        assert "monolithic" in out


class TestExperiments:
    def test_filtered_experiment(self, capsys):
        assert main(["experiments", "--only", "vf-budgets"]) == 0
        out = capsys.readouterr().out
        assert "VF budgets" in out

    def test_unknown_filter_errors(self, capsys):
        assert main(["experiments", "--only", "nonsense"]) == 1

    def test_resources_table(self, capsys):
        assert main(["experiments", "--only", "fig5-resources-shared"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5(c)" in out


class TestObs:
    def test_obs_writes_spans_and_metrics(self, capsys, tmp_path):
        from repro import obs
        from repro.obs.trace import journeys_from_jsonl
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.prom"
        try:
            assert main(["obs", "--level", "l2", "--vms", "2",
                         "--duration", "0.01", "--trace-out", str(spans),
                         "--metrics-out", str(metrics)]) == 0
        finally:
            obs.REGISTRY.reset()
        out = capsys.readouterr().out
        assert "Per-tenant hop counts" in out
        assert f"spans to {spans}" in out
        assert journeys_from_jsonl(spans.read_text())
        assert "sim_events_fired" in metrics.read_text()


class TestValidationSurfaced:
    def test_invalid_combo_raises(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            # DPDK in shared mode is rejected by the spec, and --dpdk
            # forces isolated; force the clash via level rules instead.
            main(["describe", "--level", "l2", "--vms", "9"])
