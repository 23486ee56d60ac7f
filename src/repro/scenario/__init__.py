"""Declarative scenario execution: spec -> engine -> result store.

The scenario subsystem separates *what to run* from *how it executes*:

- :mod:`repro.scenario.spec` -- frozen :class:`ScenarioSpec` with a
  stable SHA-256 content hash and JSON round-trip, plus the matching
  :class:`ScenarioResult`;
- :mod:`repro.scenario.registry` -- workload name -> measurement
  function, resolved lazily by import path;
- :mod:`repro.scenario.engine` -- the :class:`Engine` plus the
  :class:`SequentialBackend` / :class:`ProcessPoolBackend` pair;
- :mod:`repro.scenario.store` -- the content-addressed
  :class:`ResultStore` (and the ``--no-cache`` :class:`NullStore`);
- :mod:`repro.scenario.sweep` -- cartesian grids over spec fields.

Every experiment in :mod:`repro.experiments` is now a pure function
from scenario lists to tables; ``repro sweep`` runs arbitrary grids in
parallel with caching.
"""

from repro.scenario.engine import (
    Engine,
    ProcessPoolBackend,
    SequentialBackend,
    default_worker_count,
    fold_metrics,
    run_scenario,
)
from repro.scenario.registry import WORKLOADS, preload, register, resolve
from repro.scenario.spec import (
    DEFAULT_CALIBRATION_REF,
    ScenarioResult,
    ScenarioSpec,
    calibration_ref,
    canonical_json,
)
from repro.scenario.store import DEFAULT_STORE_DIR, NullStore, ResultStore
from repro.scenario.sweep import (
    SweepGrid,
    build_grid,
    sweep_rows,
    sweep_table,
)

__all__ = [
    "Engine",
    "ProcessPoolBackend",
    "SequentialBackend",
    "default_worker_count",
    "fold_metrics",
    "run_scenario",
    "WORKLOADS",
    "preload",
    "register",
    "resolve",
    "DEFAULT_CALIBRATION_REF",
    "ScenarioResult",
    "ScenarioSpec",
    "calibration_ref",
    "canonical_json",
    "DEFAULT_STORE_DIR",
    "NullStore",
    "ResultStore",
    "SweepGrid",
    "build_grid",
    "sweep_rows",
    "sweep_table",
]
