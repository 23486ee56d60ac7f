"""Fig. 6(b,g,l) + (d,i,n): Apache throughput and response time."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.fig6_apache import (
    scenarios,
    tabulate_response_time,
    tabulate_throughput,
)
from repro.scenario import Engine


@pytest.mark.benchmark(group="fig6-apache")
def test_fig6b_6d_shared(benchmark):
    def both():
        results = Engine().run(scenarios(EvalMode.SHARED))
        return (tabulate_throughput(results, EvalMode.SHARED),
                tabulate_response_time(results, EvalMode.SHARED))

    tput, rt = benchmark(both)
    emit(tput)
    emit(rt)
    base_rps = tput.series_by_label("Baseline").get("p2v")
    mts_rps = tput.series_by_label("L2(4)").get("p2v")
    assert mts_rps / base_rps > 1.8
    # response time ~2x faster under MTS
    assert (rt.series_by_label("Baseline").get("p2v")
            / rt.series_by_label("L2(4)").get("p2v") > 1.8)


@pytest.mark.benchmark(group="fig6-apache")
def test_fig6g_6i_isolated(benchmark):
    def both():
        results = Engine().run(scenarios(EvalMode.ISOLATED))
        return (tabulate_throughput(results, EvalMode.ISOLATED),
                tabulate_response_time(results, EvalMode.ISOLATED))

    tput, rt = benchmark(both)
    emit(tput)
    emit(rt)
    assert (tput.series_by_label("L2(2)").get("p2v")
            > tput.series_by_label("Baseline(2)").get("p2v"))


@pytest.mark.benchmark(group="fig6-apache")
def test_fig6l_6n_dpdk(benchmark):
    def both():
        results = Engine().run(scenarios(EvalMode.DPDK))
        return (tabulate_throughput(results, EvalMode.DPDK),
                tabulate_response_time(results, EvalMode.DPDK))

    tput, rt = benchmark(both)
    emit(tput)
    emit(rt)
    # DPDK buys little for the workloads relative to its core cost.
    assert (tput.series_by_label("L2(2)+L3").get("p2v")
            < 2.5 * tput.series_by_label("L2(2)+L3").get("v2v"))
