"""Fig. 6(c,h,m) + (e,j,o): Memcached throughput and response time."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.fig6_memcached import (
    scenarios,
    tabulate_response_time,
    tabulate_throughput,
)
from repro.scenario import Engine


@pytest.mark.benchmark(group="fig6-memcached")
def test_fig6c_6e_shared(benchmark):
    def both():
        results = Engine().run(scenarios(EvalMode.SHARED))
        return (tabulate_throughput(results, EvalMode.SHARED),
                tabulate_response_time(results, EvalMode.SHARED))

    tput, rt = benchmark(both)
    emit(tput)
    emit(rt)
    assert (tput.series_by_label("L2(4)").get("p2v")
            / tput.series_by_label("Baseline").get("p2v") > 1.8)
    assert (rt.series_by_label("Baseline").get("p2v")
            / rt.series_by_label("L2(4)").get("p2v") > 1.8)


@pytest.mark.benchmark(group="fig6-memcached")
def test_fig6h_6j_isolated(benchmark):
    def both():
        results = Engine().run(scenarios(EvalMode.ISOLATED))
        return (tabulate_throughput(results, EvalMode.ISOLATED),
                tabulate_response_time(results, EvalMode.ISOLATED))

    tput, rt = benchmark(both)
    emit(tput)
    emit(rt)
    assert (tput.series_by_label("L2(4)").get("p2v")
            > tput.series_by_label("Baseline(4)").get("p2v"))


@pytest.mark.benchmark(group="fig6-memcached")
def test_fig6m_6o_dpdk(benchmark):
    def both():
        results = Engine().run(scenarios(EvalMode.DPDK))
        return (tabulate_throughput(results, EvalMode.DPDK),
                tabulate_response_time(results, EvalMode.DPDK))

    tput, rt = benchmark(both)
    emit(tput)
    emit(rt)
    for label in ("L1+L3", "L2(2)+L3"):
        assert tput.series_by_label(label).get("p2v") > 0
