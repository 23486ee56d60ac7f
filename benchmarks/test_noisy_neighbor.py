"""Extension bench: performance isolation under a noisy neighbor."""

import pytest

from benchmarks.conftest import emit
from repro.experiments.noisy_neighbor import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="extensions")
def test_noisy_neighbor(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(Engine().run(scenarios(duration=0.06))),
        iterations=1, rounds=1)
    emit(table)
    delivery = table.series_by_label("victim delivery fraction")
    assert delivery.get("Baseline(1)") < 0.3
    assert delivery.get("L2(4)") > 0.99
