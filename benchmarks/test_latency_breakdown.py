"""Extension bench: the PMU-style latency breakdown table."""

import pytest

from benchmarks.conftest import emit
from repro.experiments import EvalMode
from repro.experiments.latency_breakdown import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="extensions")
def test_latency_breakdown_shared(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(Engine().run(scenarios(duration=0.06))),
        iterations=1, rounds=1)
    emit(table)
    baseline = table.series_by_label("Baseline")
    l1 = table.series_by_label("L1")
    assert baseline.get("vhost") > 4 * l1.get("nic")
