"""Extension bench: availability blast radius of a vswitch crash."""

import pytest

from benchmarks.conftest import emit
from repro.experiments.fault_isolation import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="extensions")
def test_fault_isolation(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(Engine().run(scenarios(phase=0.04))),
        iterations=1, rounds=1)
    emit(table)
    baseline = table.series_by_label("Baseline(1)")
    l2 = table.series_by_label("L2(2)")
    assert all(baseline.get(f"t{t}") < 0.05 for t in range(4))
    assert l2.get("t2") > 0.99 and l2.get("t3") > 0.99
