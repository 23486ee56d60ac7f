"""The experiment table: completeness, extensions, one engine call."""

import pytest

import repro.scenario.engine as engine
from repro.cli import main
from repro.experiments import runner


@pytest.fixture(scope="module")
def tables():
    """Every experiment, paper and extensions, from one run."""
    outcomes = runner.run(runner.experiments(quick=True, extensions=True))
    return {key: table for key, (table, _metrics) in outcomes.items()}


@pytest.fixture
def simulated(monkeypatch):
    """Hashes of the specs ``run_scenario`` is called with."""
    calls = []
    real = engine.run_scenario

    def counting(spec, *args, **kwargs):
        calls.append(spec.content_hash())
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(engine, "run_scenario", counting)
    return calls


class TestRunner:
    def test_every_paper_figure_has_a_table(self, tables):
        expected = {"table1", "vf-budgets"}
        for mode in ("shared", "isolated", "dpdk"):
            expected |= {
                f"fig5-throughput-{mode}",
                f"fig5-latency-{mode}",
                f"fig5-resources-{mode}",
                f"fig6-iperf-{mode}",
                f"fig6-apache-tput-{mode}",
                f"fig6-apache-rt-{mode}",
                f"fig6-memcached-tput-{mode}",
                f"fig6-memcached-rt-{mode}",
            }
        assert {k for k in tables if not k.startswith("ext-")} == expected

    def test_all_tables_render_nonempty(self, tables):
        for key, table in tables.items():
            text = table.render()
            assert text.startswith("=="), key
            assert len(text.splitlines()) >= 3, key

    def test_extensions_run(self, tables):
        assert {k for k in tables if k.startswith("ext-")} == {
            "ext-noisy-neighbor",
            "ext-policy-injection",
            "ext-latency-breakdown",
            "ext-fault-isolation",
            "ext-deployment-cost",
        }


class TestOneEngineCall:
    def test_shared_scenarios_run_once(self, simulated, capsys):
        """The Apache throughput and response-time tables of a mode
        share their specs: 29 distinct scenarios across the three modes,
        each simulated once."""
        assert main(["experiments", "--only", "fig6-apache"]) == 0
        assert len(simulated) == len(set(simulated)) == 29
        assert "Fig. 6(n) Apache response time" in capsys.readouterr().out

    def test_only_simulates_the_selected_row(self, simulated, capsys):
        row, = [r for r in runner.experiments()
                if r.key == "fig5-latency-shared"]
        assert main(["experiments", "--only", "fig5-latency-shared"]) == 0
        assert sorted(simulated) == sorted(
            spec.content_hash() for spec in row.specs)
        assert len(simulated) == 11
