"""Fig. 5(b,e,h): one-way latency distributions at 10 kpps (DES)."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.fig5_latency import scenarios, tabulate
from repro.scenario import Engine

#: Short window: the distributions are stationary, the benchmark only
#: needs enough samples for stable medians.
DURATION = 0.1


@pytest.mark.benchmark(group="fig5-latency")
def test_fig5b_shared(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(
            Engine().run(scenarios(EvalMode.SHARED, duration=DURATION)),
            EvalMode.SHARED),
        iterations=1, rounds=1)
    emit(table)
    # MTS slower in p2p, faster in p2v.
    assert (table.series_by_label("L1").get("p2p")
            > table.series_by_label("Baseline").get("p2p"))
    assert (table.series_by_label("L1").get("p2v")
            < table.series_by_label("Baseline").get("p2v"))


@pytest.mark.benchmark(group="fig5-latency")
def test_fig5e_isolated(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(
            Engine().run(scenarios(EvalMode.ISOLATED, duration=DURATION)),
            EvalMode.ISOLATED),
        iterations=1, rounds=1)
    emit(table)
    assert (table.series_by_label("L2(4)").get("p2v")
            < table.series_by_label("Baseline(4)").get("p2v"))


@pytest.mark.benchmark(group="fig5-latency")
def test_fig5h_dpdk(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(
            Engine().run(scenarios(EvalMode.DPDK, duration=DURATION)),
            EvalMode.DPDK),
        iterations=1, rounds=1)
    emit(table)
    # The ~1 ms multi-queue Baseline anomaly at 10 kpps.
    assert table.series_by_label("Baseline(2)+L3").get("p2p") > 500.0
    assert table.series_by_label("L1+L3").get("p2p") < 100.0
