"""The experiment table: every table and figure row of the evaluation.

Each :class:`Experiment` row declares the frozen :class:`ScenarioSpec`
list it needs and a pure ``tabulate`` from the engine's results for
exactly those specs to its :class:`Table` (Table 1 and the VF budgets
need no specs; their ``tabulate`` ignores its input).  :func:`run`
collects the specs of every selected row, makes one deduplicating
:meth:`Engine.run` over them -- the Fig. 6 throughput and
response-time tables share their scenarios, so each runs once -- and
slices the results back to each row.  ``quick=True`` shortens the DES
latency windows (the distributions are stationary, so only sample
counts shrink).

``repro experiments`` is the front end (``--only`` filters rows,
``--full`` turns ``quick`` off, ``--extensions`` adds the
beyond-the-paper rows).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.experiments import fig5_latency, fig5_resources, fig5_throughput
from repro.experiments import fig6_apache, fig6_iperf, fig6_memcached
from repro.experiments import table1_survey, vf_table
from repro.experiments import (
    deployment_cost,
    fault_isolation,
    latency_breakdown,
    noisy_neighbor,
    policy_injection,
)
from repro.experiments.common import EvalMode
from repro.measure.reporting import Table
from repro.scenario.engine import Engine
from repro.scenario.spec import ScenarioResult, ScenarioSpec


class Experiment(NamedTuple):
    """One row of the table: an experiment id, its specs, and the pure
    function from their results (in spec order) to its table."""

    key: str
    specs: List[ScenarioSpec]
    tabulate: Callable[[Sequence[ScenarioResult]], Table]


def experiments(quick: bool = True, seed: int = 0,
                extensions: bool = False) -> List[Experiment]:
    """The paper's evaluation (plus, with ``extensions``, the
    beyond-the-paper experiments of DESIGN.md section 7), in run
    order."""
    latency_duration = 0.15 if quick else 0.5
    rows = [
        Experiment("table1", [], lambda _: table1_survey.run()),
        Experiment("vf-budgets", [], lambda _: vf_table.run()),
    ]
    for mode in EvalMode.ALL:
        rows += [
            Experiment(f"fig5-throughput-{mode}",
                       fig5_throughput.scenarios(mode, seed=seed),
                       partial(fig5_throughput.tabulate, mode=mode)),
            Experiment(f"fig5-latency-{mode}",
                       fig5_latency.scenarios(mode, duration=latency_duration,
                                              seed=seed),
                       partial(fig5_latency.tabulate, mode=mode)),
            Experiment(f"fig5-resources-{mode}",
                       fig5_resources.scenarios(mode, seed=seed),
                       partial(fig5_resources.tabulate, mode=mode)),
            Experiment(f"fig6-iperf-{mode}",
                       fig6_iperf.scenarios(mode, seed=seed),
                       partial(fig6_iperf.tabulate, mode=mode)),
            Experiment(f"fig6-apache-tput-{mode}",
                       fig6_apache.scenarios(mode, seed=seed),
                       partial(fig6_apache.tabulate_throughput, mode=mode)),
            Experiment(f"fig6-apache-rt-{mode}",
                       fig6_apache.scenarios(mode, seed=seed),
                       partial(fig6_apache.tabulate_response_time,
                               mode=mode)),
            Experiment(f"fig6-memcached-tput-{mode}",
                       fig6_memcached.scenarios(mode, seed=seed),
                       partial(fig6_memcached.tabulate_throughput,
                               mode=mode)),
            Experiment(f"fig6-memcached-rt-{mode}",
                       fig6_memcached.scenarios(mode, seed=seed),
                       partial(fig6_memcached.tabulate_response_time,
                               mode=mode)),
        ]
    if extensions:
        window = 0.06 if quick else 0.15
        rows += [
            Experiment("ext-noisy-neighbor",
                       noisy_neighbor.scenarios(duration=window, seed=seed),
                       noisy_neighbor.tabulate),
            Experiment("ext-policy-injection",
                       policy_injection.scenarios(duration=window,
                                                  seed=seed),
                       policy_injection.tabulate),
            Experiment("ext-latency-breakdown",
                       latency_breakdown.scenarios(duration=window,
                                                   seed=seed),
                       latency_breakdown.tabulate),
            Experiment("ext-fault-isolation",
                       fault_isolation.scenarios(phase=window / 1.5,
                                                 seed=seed),
                       fault_isolation.tabulate),
            Experiment("ext-deployment-cost",
                       deployment_cost.scenarios(seed=seed),
                       deployment_cost.tabulate),
        ]
    return rows


def run(rows: Sequence[Experiment]
        ) -> Dict[str, Tuple[Table, Dict[str, float]]]:
    """Every row's table and obs counter totals (the sum of its
    results' shipped :attr:`ScenarioResult.metrics`), keyed by
    experiment id, from one engine call over all their specs."""
    results = Engine().run([spec for row in rows for spec in row.specs])
    out = {}
    start = 0
    for row in rows:
        mine = results[start:start + len(row.specs)]
        start += len(row.specs)
        totals: Dict[str, float] = {}
        for result in mine:
            for key, delta in result.metrics.items():
                totals[key] = totals.get(key, 0.0) + delta
        out[row.key] = (row.tabulate(mine), totals)
    return out
