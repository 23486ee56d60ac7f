"""Fig. 5(a,d,g): aggregate forwarding throughput (64 B frames).

Each benchmark regenerates one figure row via the capacity model and
asserts the paper's headline shape before reporting the rows.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.fig5_throughput import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="fig5-throughput")
def test_fig5a_shared(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.SHARED)), EvalMode.SHARED))
    emit(table)
    base = table.series_by_label("Baseline")
    mts = table.series_by_label("L2(4)")
    assert mts.get("p2v") / base.get("p2v") > 1.8


@pytest.mark.benchmark(group="fig5-throughput")
def test_fig5d_isolated(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.ISOLATED)), EvalMode.ISOLATED))
    emit(table)
    assert table.series_by_label("Baseline(4)").get("p2p") == pytest.approx(
        4.0, abs=0.3)
    assert (table.series_by_label("L2(4)").get("p2p")
            > table.series_by_label("Baseline(4)").get("p2p"))


@pytest.mark.benchmark(group="fig5-throughput")
def test_fig5g_dpdk(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.DPDK)), EvalMode.DPDK))
    emit(table)
    assert table.series_by_label("Baseline(2)+L3").get("p2p") > 12.0
    assert table.series_by_label("L2(4)+L3").get("p2v") == pytest.approx(
        2.3, abs=0.2)
