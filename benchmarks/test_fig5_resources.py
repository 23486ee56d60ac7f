"""Fig. 5(c,f,i): CPU core and hugepage consumption."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.fig5_resources import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="fig5-resources")
def test_fig5c_shared(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.SHARED)), EvalMode.SHARED))
    emit(table)
    # The headline: multiple compartments for one extra core.
    assert table.series_by_label("Baseline").get("networking-cores") == 1
    for label in ("L1", "L2(2)", "L2(4)"):
        assert table.series_by_label(label).get("networking-cores") == 2


@pytest.mark.benchmark(group="fig5-resources")
def test_fig5f_isolated(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.ISOLATED)), EvalMode.ISOLATED))
    emit(table)
    assert table.series_by_label("L2(4)").get("networking-cores") == 5
    # MTS costs exactly one core more than the proportional Baseline.
    for n, base, mts in ((1, "Baseline(1)", "L1"),
                         (2, "Baseline(2)", "L2(2)"),
                         (4, "Baseline(4)", "L2(4)")):
        delta = (table.series_by_label(mts).get("networking-cores")
                 - table.series_by_label(base).get("networking-cores"))
        assert delta == 1


@pytest.mark.benchmark(group="fig5-resources")
def test_fig5i_dpdk(benchmark):
    table = benchmark(lambda: tabulate(
        Engine().run(scenarios(EvalMode.DPDK)), EvalMode.DPDK))
    emit(table)
    # With DPDK, MTS and Baseline consume equal cores (paper 4.3).
    for n, base, mts in ((1, "Baseline(1)+L3", "L1+L3"),
                         (2, "Baseline(2)+L3", "L2(2)+L3"),
                         (4, "Baseline(4)+L3", "L2(4)+L3")):
        assert (table.series_by_label(mts).get("networking-cores")
                == table.series_by_label(base).get("networking-cores"))
