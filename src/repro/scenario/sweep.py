"""Cartesian sweeps over deployment-spec fields.

``build_grid`` expands a :class:`SweepGrid` (level x compartments x
tenants x datapath x resource mode x traffic) into a list of
:class:`~repro.scenario.spec.ScenarioSpec`, silently collapsing
redundant axes (the compartment axis only applies to Level-2) and
recording -- not raising on -- combinations the model itself rejects
(DPDK in shared mode, v2v behind per-tenant compartments, ...), exactly
the way the paper's own evaluation skips its infeasible corners.

Each point's seed is derived from the sweep's master seed via
:meth:`RngStreams.fork <repro.sim.rng.RngStreams.fork>` on the point's
identity, so any subset of the grid -- resumed, re-ordered, sharded
across backends or machines -- reproduces the exact numbers of the full
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, List, Sequence, Tuple

from repro.core.levels import ResourceMode, SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.errors import ValidationError
from repro.measure.reporting import Series, Table
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.sim.rng import RngStreams

LEVELS = {
    "baseline": SecurityLevel.BASELINE,
    "l1": SecurityLevel.LEVEL_1,
    "l2": SecurityLevel.LEVEL_2,
}

MODES = {
    "shared": ResourceMode.SHARED,
    "isolated": ResourceMode.ISOLATED,
}

DATAPATHS = ("kernel", "dpdk")


@dataclass(frozen=True)
class SweepGrid:
    """The axes of one cartesian sweep plus its fixed knobs."""

    workload: str = "fig5.latency"
    levels: Tuple[str, ...] = ("baseline", "l1", "l2")
    compartments: Tuple[int, ...] = (2,)
    tenants: Tuple[int, ...] = (4,)
    datapaths: Tuple[str, ...] = ("kernel",)
    modes: Tuple[str, ...] = ("shared",)
    traffic: Tuple[str, ...] = ("p2v",)
    duration: float = 0.1
    frame_bytes: int = 64
    rate_pps: float = 10_000.0
    nic_ports: int = 2
    seed: int = 0
    #: Fabric axes (``fabric.*`` workloads): fleet sizes and placement
    #: policies to grid over.  Empty tuples (the default) add nothing
    #: to the point params, so pre-fabric spec hashes are unchanged.
    servers: Tuple[int, ...] = ()
    placements: Tuple[str, ...] = ()
    #: Optional fault campaign applied to every point (``repro sweep
    #: --faults plan.json``); rides on each spec, so it keys the cache.
    faults: object = None


@dataclass
class SkippedPoint:
    """A grid corner the model rejects, with the reason."""

    point_id: str
    reason: str


def _point_id(level: str, vms: int, tenants: int, datapath: str,
              mode: str, traffic: str) -> str:
    compartments = f"({vms})" if level == "l2" else ""
    return f"{level}{compartments}x{tenants}T/{datapath}/{mode}/{traffic}"


def build_grid(grid: SweepGrid
               ) -> Tuple[List[ScenarioSpec], List[SkippedPoint]]:
    """Expand the grid; returns (specs, skipped corners)."""
    streams = RngStreams(grid.seed)
    specs: List[ScenarioSpec] = []
    skipped: List[SkippedPoint] = []
    seen = set()
    is_fabric = grid.workload.startswith("fabric.")
    for (level, vms, tenants, datapath, mode, traffic, servers,
         placement) in product(
            grid.levels, grid.compartments, grid.tenants, grid.datapaths,
            grid.modes, grid.traffic, grid.servers or (0,),
            grid.placements or ("",)):
        if level not in LEVELS:
            raise ValidationError(f"unknown level {level!r}")
        if mode not in MODES:
            raise ValidationError(f"unknown resource mode {mode!r}")
        if datapath not in DATAPATHS:
            raise ValidationError(f"unknown datapath {datapath!r}")
        effective_vms = vms if level == "l2" else 1
        point = _point_id(level, effective_vms, tenants, datapath, mode,
                          traffic)
        if servers:
            point += f"/s{servers}"
        if placement:
            point += f"/{placement}"
        if point in seen:  # compartment axis collapsed for non-L2
            continue
        seen.add(point)
        if is_fabric and level == "baseline":
            skipped.append(SkippedPoint(
                point, "fabric workloads need an MTS level (l1/l2)"))
            continue
        try:
            deployment = DeploymentSpec(
                level=LEVELS[level],
                num_tenants=tenants,
                num_vswitch_vms=effective_vms,
                resource_mode=MODES[mode],
                user_space=(datapath == "dpdk"),
                # The multi-server dataplane bonds each server to the
                # fabric through one physical port.
                nic_ports=1 if is_fabric else grid.nic_ports,
            )
            spec = ScenarioSpec(
                workload=grid.workload,
                deployment=deployment,
                traffic=TrafficScenario(traffic),
                duration=grid.duration,
                warmup=grid.duration / 5.0,
                seed=streams.fork(f"sweep:{point}").seed,
                label=point,
                eval_mode=mode,
                params=dict(
                    {"frame_bytes": grid.frame_bytes,
                     "aggregate_pps": grid.rate_pps},
                    **({"servers": servers} if servers else {}),
                    **({"placement": placement} if placement else {}),
                ),
                faults=grid.faults,
            )
        except ValidationError as exc:
            skipped.append(SkippedPoint(point, str(exc)))
            continue
        specs.append(spec)
    return specs, skipped


def sweep_table(grid: SweepGrid, specs: Sequence[ScenarioSpec],
                results: Sequence[ScenarioResult]) -> Table:
    """All sweep points as one table: a series per point, a column per
    measured value."""
    cached = sum(1 for r in results if r.cached)
    table = Table(
        title=f"sweep {grid.workload}: {len(results)} points "
              f"({cached} cached)",
        fmt=lambda v: f"{v:.4g}",
    )
    for spec, result in zip(specs, results):
        series = Series(label=spec.display_label)
        for name in result.values:
            series.add(name, result.values[name])
        table.add_series(series)
    return table


def sweep_rows(specs: Sequence[ScenarioSpec],
               results: Sequence[ScenarioResult]) -> Iterator[dict]:
    """One self-describing record per point.  The result's wall-clock
    ``elapsed`` is left out, so two runs of one grid write identical
    rows."""
    for spec, result in zip(specs, results):
        row = result.to_dict()
        del row["elapsed"]
        yield {
            "spec": spec.to_dict(),
            "spec_hash": spec.content_hash(),
            "result": row,
            "result_hash": result.result_hash(),
        }
