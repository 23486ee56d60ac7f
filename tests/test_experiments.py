"""Experiment modules produce complete, shape-correct tables."""

import pytest

from repro.experiments import EvalMode, configs_for_mode
from repro.experiments import (
    fig5_latency,
    fig5_resources,
    fig5_throughput,
    fig6_apache,
    fig6_iperf,
    fig6_memcached,
    table1_survey,
    vf_table,
)
from repro.experiments.common import repeat_with_noise
from repro.scenario import Engine


class TestConfigMatrices:
    def test_shared_has_four_points(self):
        labels = [c.label for c in configs_for_mode(EvalMode.SHARED)]
        assert labels == ["Baseline", "L1", "L2(2)", "L2(4)"]

    def test_isolated_has_proportional_baselines(self):
        labels = [c.label for c in configs_for_mode(EvalMode.ISOLATED)]
        assert "Baseline(2)" in labels and "Baseline(4)" in labels

    def test_dpdk_all_level3(self):
        assert all(c.user_space for c in configs_for_mode(EvalMode.DPDK))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            configs_for_mode("bogus")

    def test_l2_4_does_not_support_v2v(self):
        from repro.core import TrafficScenario
        l2_4 = next(c for c in configs_for_mode(EvalMode.SHARED)
                    if c.label == "L2(4)")
        assert not l2_4.supports(TrafficScenario.V2V)
        assert l2_4.supports(TrafficScenario.P2V)


class TestRepetitions:
    def test_mean_close_to_base_value(self):
        mean, half = repeat_with_noise(lambda: 100.0, rel_sigma=0.01, seed=1)
        assert mean == pytest.approx(100.0, rel=0.05)
        assert half > 0

    def test_seed_reproducible(self):
        a = repeat_with_noise(lambda: 50.0, seed=7)
        b = repeat_with_noise(lambda: 50.0, seed=7)
        assert a == b


class TestFig5Tables:
    def test_throughput_table_complete(self):
        table = fig5_throughput.tabulate(
            Engine().run(fig5_throughput.scenarios(EvalMode.SHARED)))
        assert len(table.series) == 4
        baseline = table.series_by_label("Baseline")
        assert set(baseline.xs()) == {"p2p", "p2v", "v2v"}
        l2_4 = table.series_by_label("L2(4)")
        assert "v2v" not in l2_4.xs()  # the paper's gap

    def test_throughput_values_positive_and_bounded(self):
        table = fig5_throughput.tabulate(
            Engine().run(fig5_throughput.scenarios(EvalMode.DPDK)),
            EvalMode.DPDK)
        for series in table.series:
            for x in series.xs():
                assert 0 < series.get(x) <= 14.89

    def test_latency_table(self):
        table = fig5_latency.tabulate(Engine().run(
            fig5_latency.scenarios(EvalMode.SHARED, duration=0.05)))
        assert table.series_by_label("L1").get("p2v") > 0

    def test_resources_table_values(self):
        table = fig5_resources.tabulate(
            Engine().run(fig5_resources.scenarios(EvalMode.SHARED)))
        assert table.series_by_label("Baseline").get("networking-cores") == 1
        assert table.series_by_label("L2(4)").get("networking-cores") == 2
        iso = fig5_resources.tabulate(
            Engine().run(fig5_resources.scenarios(EvalMode.ISOLATED)),
            EvalMode.ISOLATED)
        assert iso.series_by_label("L2(4)").get("networking-cores") == 5


class TestFig6Tables:
    def test_iperf_table(self):
        table = fig6_iperf.tabulate(
            Engine().run(fig6_iperf.scenarios(EvalMode.SHARED)))
        base = table.series_by_label("Baseline").get("p2v")
        mts = table.series_by_label("L2(4)").get("p2v")
        assert mts > 2 * base

    def test_apache_tables(self):
        results = Engine().run(fig6_apache.scenarios(EvalMode.SHARED))
        tput = fig6_apache.tabulate_throughput(results)
        rt = fig6_apache.tabulate_response_time(results)
        assert tput.series_by_label("L1").get("p2v") > 0
        assert rt.series_by_label("Baseline").get("p2v") > rt.series_by_label(
            "L1").get("p2v")

    def test_memcached_tables(self):
        tput = fig6_memcached.tabulate_throughput(
            Engine().run(fig6_memcached.scenarios(EvalMode.SHARED)))
        assert (tput.series_by_label("L2(2)").get("p2v")
                > tput.series_by_label("Baseline").get("p2v"))


class TestStaticTables:
    def test_table1_summary(self):
        table = table1_survey.run()
        fraction = table.series_by_label("fraction")
        assert fraction.get("monolithic") > 0.9

    def test_vf_budget_table_matches_paper(self):
        table = vf_table.run()
        l1 = table.series_by_label("Level-1")
        assert l1.get("1T") == 3
        assert l1.get("4T") == 9
        l2 = table.series_by_label("Level-2 (per-tenant)")
        assert l2.get("2T") == 6
        assert l2.get("4T") == 12

    def test_all_tables_render(self):
        resources = fig5_resources.tabulate(
            Engine().run(fig5_resources.scenarios(EvalMode.SHARED)))
        for table in (table1_survey.run(), vf_table.run(), resources):
            text = table.render()
            assert text.startswith("==")
