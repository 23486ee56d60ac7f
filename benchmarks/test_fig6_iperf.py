"""Fig. 6(a,f,k): aggregate iperf TCP throughput."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.fig6_iperf import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="fig6-iperf")
def test_fig6a_shared(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.SHARED)), EvalMode.SHARED))
    emit(table)
    assert (table.series_by_label("L2(4)").get("p2v")
            / table.series_by_label("Baseline").get("p2v") > 2.0)


@pytest.mark.benchmark(group="fig6-iperf")
def test_fig6f_isolated(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.ISOLATED)), EvalMode.ISOLATED))
    emit(table)
    # MTS saturates the 10G link in p2v when isolated.
    assert table.series_by_label("L2(4)").get("p2v") > 9.0


@pytest.mark.benchmark(group="fig6-iperf")
def test_fig6k_dpdk(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.DPDK)), EvalMode.DPDK))
    emit(table)
    assert table.series_by_label("L2(2)+L3").get("p2v") > 9.0
    # ... except v2v, where the Baseline wins under DPDK.
    assert (table.series_by_label("Baseline(2)+L3").get("v2v")
            > table.series_by_label("L2(2)+L3").get("v2v"))
