"""Extension bench: the flow-cache (policy-injection) DoS."""

import pytest

from benchmarks.conftest import emit
from repro.experiments.policy_injection import scenarios, tabulate
from repro.scenario import Engine


@pytest.mark.benchmark(group="extensions")
def test_policy_injection(benchmark):
    table = benchmark.pedantic(
        lambda: tabulate(Engine().run(scenarios(duration=0.08))),
        iterations=1, rounds=1)
    emit(table)
    delivery = table.series_by_label("victim delivery fraction")
    assert delivery.get("Baseline(1)") < 0.4
    assert delivery.get("L2(4)") > 0.99
