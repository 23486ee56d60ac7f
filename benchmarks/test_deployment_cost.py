"""Extension bench: the incremental-deployability op-count table."""

import pytest

from benchmarks.conftest import emit
from repro.experiments.deployment_cost import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="extensions")
def test_deployment_cost(benchmark):
    table = benchmark(lambda: tabulate(Engine().run(scenarios())))
    emit(table)
    assert table.series_by_label("L1").get("delta vs Baseline") < 30
