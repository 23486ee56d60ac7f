#!/usr/bin/env python
"""Benchmark runner with regression gating.

Runs the micro/e2e benchmark suite under pytest-benchmark and compares
every benchmark's min against the checked-in baseline
(``BENCH_fastpath.json`` in the repo root).  A benchmark more than
``--tolerance`` (default 20%) slower than its recorded min fails the
run -- the guard that keeps the lookup fast path fast.

Each row of :data:`GATES` divides two benchmarks of the same workload
into a speedup or overhead factor, fails the run when the factor
crosses the row's bound, and is re-recorded into the baseline on every
run.  Adding a factor is a one-row edit.

Usage::

    python tool/bench.py            # run + gate against the baseline
    python tool/bench.py --update   # run + rewrite the baseline
    make bench                      # the same, via the Makefile

New benchmarks (present in the run, absent from the baseline) are
reported but do not fail; run with ``--update`` to record them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_fastpath.json")
BENCH_TARGETS = ("benchmarks/test_microbench.py",
                 "benchmarks/test_sweep.py",
                 "benchmarks/test_fabric.py")

#: The plain Fig. 5 L2 e2e run every e2e factor is priced against.
E2E_BENCH = "test_e2e_des_packet_rate"

#: Regression tolerance for benchmarks held tighter than ``--tolerance``.
#: The plain e2e run carries the guarded no-op metering tap on every
#: hot-path site, so it may cost at most 1.1x its *recorded baseline*
#: -- a tighter screw than the general 20%, because the disabled tap is
#: pure overhead for everyone.
TIGHT_TOLERANCE = {E2E_BENCH: 0.10}


class Gate(NamedTuple):
    """One gated factor: min(numerator) / min(denominator) of two runs
    of the same workload, recorded under ``key`` in the baseline and
    held to ``bound`` (``direction`` "<=" caps an overhead, ">=" floors
    a speedup) on runners with at least ``min_cores`` available cores."""
    key: str
    numerator: str
    denominator: str
    bound: float
    direction: str
    min_cores: int = 1


GATES = (
    # The e2e run with span recording enabled over the identical run
    # with the tracer disabled.  The tracer records raw tuples on the
    # hot path and materializes spans lazily at query time, so
    # recording must stay cheap.
    Gate("obs_overhead_factor",
         "test_e2e_traced_packet_rate", E2E_BENCH, 1.30, "<="),
    # The per-frame oracle e2e run over the identical run through the
    # struct-of-arrays mediation chain.  ROADMAP targets 3x; 2.5x is
    # the hard floor below which the batched chain is not paying for
    # its complexity.
    Gate("batch_e2e_speedup_factor",
         E2E_BENCH, "test_e2e_batched_packet_rate", 2.5, ">="),
    # The sequential 8-point sweep over the identical sweep through the
    # warm worker pool.  Below 1.5x the pool is not paying for itself;
    # on runners with fewer than 4 cores a process pool cannot beat
    # sequential, so the factor is recorded but not gated.
    Gate("sweep_pool_speedup_factor",
         "test_sweep_sequential_8pt", "test_sweep_pool_8pt", 1.5, ">=",
         min_cores=4),
    # The same 8-server scenario through the pure-DES oracle over the
    # hybrid (fluid background, per-packet study flows).  The hybrid
    # exists to make fabric-scale runs affordable; below 5x it is not
    # earning its modeling complexity.
    Gate("fabric_hybrid_speedup_factor",
         "test_fabric_pure_des_8s32t", "test_fabric_hybrid_8s32t", 5.0, ">="),
    # The e2e run with a MeteringSession armed over the plain run
    # (where the tap exists but is disabled; see TIGHT_TOLERANCE).
    Gate("metering_overhead_factor",
         "test_e2e_metered_packet_rate", E2E_BENCH, 1.6, "<="),
    # The e2e run with an IDLE resident control plane sharing the
    # simulator (heartbeat probes and autoscaler ticks fire, no tenants
    # arrive) over the plain run.  The service is resident in every
    # churn experiment, so its do-nothing cost must stay near-free.
    Gate("control_plane_overhead_factor",
         "test_e2e_controlplane_packet_rate", E2E_BENCH, 1.1, "<="),
)


def available_cores() -> int:
    """Cores usable by this process (affinity/cgroup mask when the
    platform exposes one)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_benchmarks(json_out: str, targets) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", *targets, "-q",
           "-p", "no:cacheprovider",
           f"--benchmark-json={json_out}"]
    print("+", " ".join(cmd))
    return subprocess.call(cmd, cwd=REPO_ROOT, env=env)


def extract_means(benchmark_json: str) -> dict:
    with open(benchmark_json) as handle:
        data = json.load(handle)
    return {
        bench["name"]: {
            # min is the gating statistic: it is far more stable against
            # scheduler/load noise than the mean (the mean is recorded
            # for reference only).
            "min_us": bench["stats"]["min"] * 1e6,
            "mean_us": bench["stats"]["mean"] * 1e6,
        }
        for bench in data.get("benchmarks", [])
    }


def load_baseline() -> dict:
    if not os.path.exists(BASELINE_PATH):
        return {}
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def gate(current: dict, baseline: dict, tolerance: float,
         partial: bool = False) -> int:
    recorded = baseline.get("benchmarks", {})
    regressions = []
    for name, stats in sorted(current.items()):
        value = stats["min_us"]
        base = recorded.get(name)
        if base is None:
            print(f"  NEW      {name}: {value:.2f}us (no baseline)")
            continue
        base_value = base["min_us"]
        ratio = value / base_value if base_value else float("inf")
        allowed = min(tolerance, TIGHT_TOLERANCE.get(name, tolerance))
        status = "OK" if ratio <= 1.0 + allowed else "REGRESSED"
        print(f"  {status:<8} {name}: min {value:.2f}us "
              f"vs baseline {base_value:.2f}us ({ratio:.2f}x)")
        if status == "REGRESSED":
            regressions.append((name, ratio, allowed))
    missing = [] if partial else sorted(set(recorded) - set(current))
    for name in missing:
        print(f"  MISSING  {name}: in baseline but not in this run")
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              "tolerance:")
        for name, ratio, allowed in regressions:
            print(f"  {name}: {ratio:.2f}x baseline > {1.0 + allowed:.2f}x")
        return 1
    if missing:
        print(f"\n{len(missing)} baseline benchmark(s) missing from the "
              "run (renamed/removed? run --update).")
        return 1
    print("\nAll benchmarks within tolerance.")
    return 0


def factor(row: Gate, current: dict) -> Optional[float]:
    """min(numerator) / min(denominator) of the row's pair, or None if
    either benchmark is absent from the run."""
    num = current.get(row.numerator)
    den = current.get(row.denominator)
    if not num or not den or not den["min_us"]:
        return None
    return num["min_us"] / den["min_us"]


def verdict(row: Gate, current: dict) -> Optional[bool]:
    """Print the row's factor against its bound; True passes, False
    fails, None when the pair is absent or the runner has too few
    cores to tell."""
    value = factor(row, current)
    if value is None:
        return None
    pair = (f"{current[row.numerator]['min_us']:.0f}us {row.numerator} / "
            f"{current[row.denominator]['min_us']:.0f}us {row.denominator}")
    cores = available_cores()
    if cores < row.min_cores:
        print(f"  SKIPPED  {row.key}: {value:.2f}x ({pair}); gated on "
              f">= {row.min_cores} cores, {cores} available")
        return None
    ok = value <= row.bound if row.direction == "<=" else value >= row.bound
    print(f"  {'OK' if ok else 'FAILED':<8} {row.key}: {value:.2f}x "
          f"{row.direction if ok else 'not ' + row.direction} "
          f"{row.bound}x ({pair})")
    return ok


def check_factors(current: dict) -> int:
    """Exit code of every row's verdict: 1 if any fails."""
    verdicts = [verdict(row, current) for row in GATES]
    return 1 if False in verdicts else 0


def store_factors(current: dict, baseline: Optional[dict] = None) -> None:
    """Write every present factor into the baseline file in one
    read-modify-write.  ``baseline`` replaces the file's other contents
    when given (``--update``); otherwise they are kept as recorded."""
    values = {row.key: round(value, 3) for row in GATES
              if (value := factor(row, current)) is not None}
    if baseline is None:
        if not values or not os.path.exists(BASELINE_PATH):
            return
        baseline = load_baseline()
    baseline.update(values)
    with open(BASELINE_PATH, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed slowdown vs baseline "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--targets", nargs="+", default=list(BENCH_TARGETS),
                        help="benchmark files to run (default: all); a "
                             "subset skips the missing-benchmark check")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        json_out = os.path.join(tmp, "bench.json")
        rc = run_benchmarks(json_out, args.targets)
        if rc != 0:
            print("benchmark suite failed; not gating", file=sys.stderr)
            return rc
        current = extract_means(json_out)

    partial = set(args.targets) != set(BENCH_TARGETS)
    baseline = load_baseline()
    if args.update:
        store_factors(current, {**baseline, "benchmarks": current})
        print(f"Baseline rewritten: {BASELINE_PATH} "
              f"({len(current)} benchmarks)")
        return check_factors(current)
    if not baseline.get("benchmarks"):
        print(f"No baseline at {BASELINE_PATH}; run with --update first.",
              file=sys.stderr)
        return 1
    print(f"\nGating against {BASELINE_PATH} "
          f"(tolerance {args.tolerance:.0%}):")
    rc = max(gate(current, baseline, args.tolerance, partial=partial),
             check_factors(current))
    store_factors(current)
    return rc


if __name__ == "__main__":
    sys.exit(main())
